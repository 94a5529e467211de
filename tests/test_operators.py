import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hermscale as hs
from hermscale import basis as basis_module
from hermscale import _integrate, galerkin, operators
from hermscale._integrate import adaptive_quad
from hermscale.basis import ScaledBasis, SpectralCoeffs, _hermite_rows
from hermscale.errors import (AccuracyError, BracketError, DegenerateBalanceError,
                              HermscaleError)
from hermscale.fourier import TestFunction
from hermscale.operators import (_RESIDUAL_REL_TOL, FREQUENCY_CUTOFF_FACTOR,
                                 SPATIAL_CUTOFF_FACTOR, _bisect, _panel_edges, _residuals,
                                 residual_l2, support_radius)
from hermscale.quadrature import compute_grid

from conftest import oracle_balance_scaling, oracle_hermite_rows, oracle_transition_point


def synthetic_test_function(coeffs):
    """Wrap a coefficient vector as a catalog-style entry (eval only)."""
    return TestFunction(
        id="synthetic", eval_u=lambda x: hs.synthesize(coeffs, np.asarray(x)),
        eval_Fu=None, spatial_tail=lambda m: 0.0, frequency_tail=lambda k: 0.0,
        l2_norm=coeffs.norm)


def analytic_gaussian_tail(freq, shift, n_max, terms=400):
    c = hs.gaussian_coefficients(freq, shift, terms)
    return math.sqrt(float(np.sum(np.abs(c[n_max + 1:]) ** 2)))


def project_edges(basis):
    """project's initial panel edges on [0, x_max]."""
    return _panel_edges(basis, (max(32, basis.n_max + 16) + 1) // 2)


def residual_edges(basis):
    """_residuals's initial panel edges on [0, x_max]."""
    return _panel_edges(basis, max(16, basis.n_max + 8))


def mirrored(edges):
    """Edges on [0, x_max] reflected onto the whole window [-x_max, x_max]."""
    return np.r_[-edges[:0:-1], edges]


def oracle_project(u, basis, tol=1e-11):
    """project's coefficients from its folded integrand as a row generator:
    phi_n(x) * (u(x) + (-1)**n u(-x)) on project's edges, a fresh array per
    row, stacked 16 rows to a fresh block."""
    root_beta = math.sqrt(basis.beta)

    def f(x):
        ux, u_x = u.eval_u(x), u.eval_u(-x)
        rows = (root_beta * row * (ux + u_x if n % 2 == 0 else ux - u_x)
                for n, row in enumerate(_hermite_rows(basis.beta * x, basis.n_max)))
        for start in range(0, basis.size, 16):
            yield np.array([next(rows) for _ in range(min(16, basis.size - start))])

    return adaptive_quad(f, project_edges(basis), abs_tol=tol, rel_tol=0.0, max_panels=40000)


def two_sided_project(u, basis, tol=1e-11):
    """project as it stood before the fold: phi_n(x) * u(x) over the whole
    window [-x_max, x_max], on project's edges and their mirror image, a fresh
    array per row, 16 rows to a fresh block."""
    root_beta = math.sqrt(basis.beta)

    def f(x):
        uv = u.eval_u(x)
        rows = (root_beta * row * uv for row in _hermite_rows(basis.beta * x, basis.n_max))
        for start in range(0, basis.size, 16):
            yield np.array([next(rows) for _ in range(min(16, basis.size - start))])

    return adaptive_quad(f, mirrored(project_edges(basis)), abs_tol=tol, rel_tol=0.0,
                         max_panels=40000)


def two_sided_residuals(us, coeffs):
    """_residuals as it stood before the fold: the squared residuals over the
    whole window [-x_max, x_max], on _residuals's edges and their mirror
    image, each series one accumulation over the oracle rows (bitwise the
    unsplit _series of that time)."""
    basis = max((cf.basis for cf in coeffs), key=lambda b: b.n_max)
    x_max = support_radius(basis)
    c = np.stack([np.pad(cf.values, (0, basis.size - cf.basis.size)) for cf in coeffs],
                 axis=-1)

    def f(x):
        series = np.zeros((c.shape[1], x.size), dtype=np.result_type(c, float))
        for cn, row in zip(c, oracle_hermite_rows(basis.beta * x, basis.n_max)):
            series += cn[:, None] * row
        r = np.array([u.eval_u(x) for u in us]) - np.sqrt(basis.beta) * series
        return (r * r.conjugate()).real

    noise = 2e-14 * np.maximum(1.0, [np.linalg.norm(cf.values) for cf in coeffs])
    floor = noise * noise * 2.0 * x_max
    core = adaptive_quad(f, mirrored(residual_edges(basis)), abs_tol=np.maximum(1e-30, floor),
                         rel_tol=_RESIDUAL_REL_TOL, max_panels=40000)
    tails = np.array([u.spatial_tail(x_max) for u in us])
    return np.sqrt(np.maximum(core, 0.0) + tails * tails)


class TestProjection:
    @pytest.mark.parametrize("name", ["algebraic(1)", "gaussian(2,1)", "gaussian_power(4)"])
    @pytest.mark.parametrize("n, beta", [(0, 1.0), (15, 0.7), (16, 1.0), (37, 2.5),
                                         (128, 0.9)])
    def test_blocks_bitwise_equal_to_row_oracle(self, name, n, beta):
        u = hs.catalog_entry(name)
        basis = ScaledBasis(n, beta)
        got = hs.project(u, basis).values
        expect = oracle_project(u, basis)
        assert got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()

    def test_basis_multiple_recovered(self):
        u = hs.gaussian(0.0, 0.0)
        p = hs.project(u, ScaledBasis(4, 1.0), tol=1e-12)
        expect = np.zeros(5, dtype=complex)
        expect[0] = np.pi ** 0.25
        assert np.abs(p.values - expect).max() < 1e-11

    def test_modulated_gaussian_real_parts(self):
        u = hs.gaussian(1.0, 0.0)
        p = hs.project(u, ScaledBasis(6, 1.0), tol=1e-12)
        closed = hs.gaussian_coefficients(1.0, 0.0, 6)
        assert np.abs(p.values.real - closed.real).max() < 1e-10
        assert np.abs(p.values.imag - closed.imag).max() < 1e-10

    def test_error_equals_analytic_tail(self):
        u = hs.gaussian(1.0, 0.0)
        e = hs.projection_error(u, ScaledBasis(3, 1.0))
        assert abs(e - analytic_gaussian_tail(1.0, 0.0, 3)) < 1e-10

    def test_projection_optimality(self):
        rng = np.random.default_rng(23)
        u = hs.algebraic(1.5)
        basis = ScaledBasis(10, 1.0)
        best = hs.projection_error(u, basis)
        p = hs.project(u, basis, tol=1e-12)
        for _ in range(8):
            other = SpectralCoeffs(basis, p.values + 0.03 * rng.standard_normal(11))
            e = residual_l2(u, other)
            assert best <= e + 1e-8

    def test_tolerance_guard(self):
        for tol in (1e-13, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be"):
                hs.project(hs.algebraic(1.0), ScaledBasis(4, 1.0), tol=tol)

    def test_memory_bounded_at_n2048(self):
        # The (15 * panels) x (N+1) basis matrix would be about 1 GB here;
        # the streamed rows keep the traced peak far below it.
        u = hs.algebraic(1.0)
        tracemalloc.start()
        try:
            coeffs = hs.project(u, ScaledBasis(2048, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert coeffs.norm <= u.l2_norm * (1.0 + 1e-12)

    def test_non_converged_integral_names_the_basis(self):
        # sin(1e9 x) oscillates far below any panel width the budget allows.
        u = TestFunction(id="fast", eval_u=lambda x: np.sin(1e9 * np.asarray(x)), eval_Fu=None,
                         spatial_tail=lambda m: 0.0, frequency_tail=lambda k: 0.0, l2_norm=1.0)
        with pytest.raises(AccuracyError, match=r"did not converge for projection "
                           r"coefficient \(N=2, beta=1\.5\)\[\d\]") as info:
            hs.project(u, ScaledBasis(2, 1.5))
        # The integrator's own error: its estimate once, and every coefficient.
        assert info.value.achieved > 0.0
        assert str(info.value).count("(achieved error estimate") == 1
        assert np.shape(info.value.value) == (3,)

    def test_parseval_mismatch_raises(self):
        # The measured error misses u's peak here (8.0e-12, ~1e-152 and 0.0)
        # while sqrt(||u||**2 - ||c||**2) is 1.2533, 1.2533 and 1.33e-2.
        for u, n, beta in ((hs.algebraic(1.0), 8, 1e-10),
                           (hs.algebraic(1.0), 8, 1e-100),
                           (hs.plain_gaussian(1e-4), 16, 1.0)):
            with pytest.raises(AccuracyError, match="Parseval") as info:
                hs.projection_error(u, ScaledBasis(n, beta))
            assert info.value.achieved > 1e-2

    @settings(max_examples=80)
    @given(st.sampled_from(["plain_gaussian(1)", "gaussian(2,1)", "algebraic(1)",
                            "algebraic(2.5)", "gaussian_power(4)"]),
           st.integers(0, 256), st.floats(-100.0, 100.0))
    def test_bessel_inequality(self, name, n, log10_beta):
        u = hs.catalog_entry(name)
        coeffs = hs.project(u, ScaledBasis(n, 10.0 ** log10_beta))
        assert coeffs.norm <= u.l2_norm + math.sqrt(n + 1) * 1e-11


# Derivative entries are odd or lack symmetry; gaussian(k, s) is complex and,
# for s != 0, neither even nor odd: none leaves the u(-x) term idle.
_FOLD_ENTRIES = st.one_of(
    st.builds(hs.gaussian, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    st.sampled_from(["algebraic(1)", "algebraic(2.5)", "gaussian_power(2)",
                     "gaussian_power(4)", "plain_gaussian(0.5)", "gaussian(2,1)",
                     "gaussian(0.5,-3)"]).map(lambda name: hs.catalog_entry(name).derivative()),
)


def fold_tolerance(error, coeffs, x_max):
    """Allowed gap between the folded and the two-sided residual norm.

    Each route integrates the squared residual to 1e-9 relative, so each norm
    is within 5e-10 of its true value, and the two within 1e-9.  Below the
    cancellation floor (noise**2 * 2 * x_max, noise = 2e-14 * max(1, ||c||))
    the integrand is roundoff, and |sqrt(a) - sqrt(b)| <= sqrt(|a - b|) turns
    that into noise * sqrt(2 * x_max) on the norm.  Measured over 7 entries and
    their derivatives at 7 (N, beta): 1.3e-11 relative above 1e-6, 3e-16
    absolute near the floor.
    """
    return 1e-9 * error + 2e-14 * max(1.0, coeffs.norm) * math.sqrt(2.0 * x_max)


def two_sided_or_none(us, coeffs):
    """two_sided_residuals(us, coeffs), or None where it raises AccuracyError."""
    try:
        return two_sided_residuals(us, coeffs)
    except AccuracyError:
        return None


class TestHalfLineFold:
    """project and _residuals integrate over x >= 0 and serve -x by parity;
    the two-sided integrands they replaced are the reference."""

    # Both routes integrate each coefficient to tol = 1e-11 by the K15 - G7
    # estimate, which overstates the K15 error by orders on these integrands:
    # the measured gap is 5.9e-15, and every mutation of the fold (no u(-x)
    # term, flipped parity sign, S_even and S_odd swapped) moves coefficients
    # or errors by more than 1e-3.
    COEFF_TOL = 1e-12

    @settings(max_examples=30)
    @given(_FOLD_ENTRIES, st.integers(0, 256), st.floats(-1.0, 1.0))
    def test_folded_routes_match_two_sided(self, u, n, log10_beta):
        basis = ScaledBasis(n, 10.0 ** log10_beta)
        coeffs = hs.project(u, basis)
        assert np.abs(coeffs.values - two_sided_project(u, basis)).max() <= self.COEFF_TOL

        # Near the roundoff floor the two-sided route may raise AccuracyError
        # (ROADMAP item 1); wherever it converges, the folded route must too.
        want = two_sided_or_none([u], [coeffs])
        if want is not None:
            tol = fold_tolerance(want[0], coeffs, support_radius(basis))
            assert abs(residual_l2(u, coeffs) - want[0]) <= tol
        if u.derivative_factory is None:
            return
        du = hs.differentiate(coeffs)
        want = two_sided_or_none([u, u.derivative()], [coeffs, du])
        if want is not None:
            x_max = support_radius(du.basis)
            tols = [fold_tolerance(e, cf, x_max) for e, cf in zip(want, (coeffs, du))]
            got = galerkin.solution_error(coeffs, u)
            assert abs(got["l2"] - want[0]) <= tols[0]
            assert abs(got["h1"] - math.hypot(*want)) <= sum(tols)

    def test_streams_half_the_points_at_nonnegative_abscissae(self, monkeypatch):
        # project, residual_l2 and the H1 pair at N = 128, each route with
        # every abscissa of its row streams recorded.
        u, basis = hs.gaussian(2.0, 1.0), ScaledBasis(128, 0.9)

        def streamed(project, residuals, patches):
            points = []

            def counting(rows):
                def wrapped(x, n_max):
                    points.append(np.array(x))
                    return rows(x, n_max)
                return wrapped

            with monkeypatch.context() as patch:
                for module, name in patches:
                    patch.setattr(module, name, counting(getattr(module, name)))
                coeffs = project(u, basis)
                residuals([u], [coeffs])
                residuals([u, u.derivative()], [coeffs, hs.differentiate(coeffs)])
            return np.concatenate(points)

        fold = streamed(hs.project, _residuals,
                        [(operators, "_hermite_rows"), (basis_module, "_hermite_rows")])
        this = sys.modules[__name__]
        two = streamed(lambda u, b: SpectralCoeffs(b, two_sided_project(u, b)),
                       two_sided_residuals,
                       [(this, "_hermite_rows"), (this, "oracle_hermite_rows")])
        assert fold.min() >= 0.0
        assert fold.size <= 0.55 * two.size


def uniform_route(patch):
    """Put the full-line integrals back on the route before graded panels:
    `uniform` equal initial panels, and rounds that cover the largest excess
    alone."""
    patch.setattr(operators, "_panel_edges", lambda basis, uniform:
                  np.linspace(0.0, support_radius(basis), uniform + 1))
    patch.setattr(_integrate, "_round_target", np.max)


def graded_and_uniform(fn, *args):
    """fn(*args) on the graded and on the uniform route, or the AccuracyError
    it raises."""
    out = []
    for route in (lambda patch: None, uniform_route):
        with pytest.MonkeyPatch.context() as patch:
            route(patch)
            try:
                out.append(fn(*args))
            except AccuracyError as exc:
                out.append(exc)
    return out


_GRADED_NAMES = ["algebraic(1)", "algebraic(1.5)", "algebraic(2.5)", "plain_gaussian(0.5)",
                 "plain_gaussian(2)", "gaussian(0,0)", "gaussian(2,1)", "gaussian_power(2)",
                 "gaussian_power(4)"]


@st.composite
def graded_cases(draw):
    """(u, basis): N <= 256, log(beta) in [-2, 2], and u a catalog entry or
    gaussian(k, s) with |k| up to the basis's top wavenumber sqrt(2N+1)*beta
    and |s| up to the window's half-width."""
    n = draw(st.integers(0, 256))
    basis = ScaledBasis(n, math.exp(draw(st.floats(-2.0, 2.0))))
    if draw(st.booleans()):
        return hs.catalog_entry(draw(st.sampled_from(_GRADED_NAMES))), basis
    k = draw(st.floats(-1.0, 1.0)) * math.sqrt(2.0 * n + 1.0) * basis.beta
    s = draw(st.floats(-1.0, 1.0)) * support_radius(basis)
    return hs.gaussian(k, s), basis


class TestGradedPanels:
    """project and _residuals start on panels graded by phi_N's wavenumber,
    and each round covers every component's excess; the uniform panels and
    the largest-excess rounds they replaced are the reference."""

    # Each route promises every coefficient to 1e-11 absolute by its K15 - G7
    # estimate, which overstates the error by orders on these integrands.
    COEFF_TOL = 1e-11

    @staticmethod
    def integral_tolerance(core, coeffs, x_max):
        """Allowed gap between the two routes' squared-residual integrals.

        Each route promises the integral I to 1e-9 relative; as for
        COEFF_TOL, the estimate overstates the error of a smooth integrand by
        orders, so the two agree to 1e-9 * I.  Near the roundoff floor the
        integrand is noise of 2e-14 * max(1, ||c||) on r, which is
        noise * sqrt(2 * x_max) = d on the norm (fold_tolerance), so
        d * (2 * norm + d) on I."""
        d = 2e-14 * max(1.0, coeffs.norm) * math.sqrt(2.0 * x_max)
        return 1e-9 * core + d * (2.0 * math.sqrt(core) + d)

    @settings(max_examples=25, deadline=None)
    @given(graded_cases())
    @example((hs.gaussian(math.sqrt(513.0) * 2.0, 3.0), ScaledBasis(256, 2.0)))
    @example((hs.gaussian(-math.sqrt(33.0) * 0.5, -support_radius(ScaledBasis(16, 0.5))),
              ScaledBasis(16, 0.5)))
    def test_graded_routes_match_uniform(self, case):
        u, basis = case
        got, want = graded_and_uniform(hs.project, u, basis)
        assert isinstance(got, AccuracyError) == isinstance(want, AccuracyError)
        if isinstance(got, AccuracyError):
            return
        assert np.abs(got.values - want.values).max() <= self.COEFF_TOL

        pairs = [([u], [got])]
        if u.derivative_factory is not None:
            pairs.append(([u, u.derivative()], [got, hs.differentiate(got)]))
        for us, coeffs in pairs:
            x_max = support_radius(coeffs[-1].basis)
            tails = np.array([v.spatial_tail(x_max) for v in us])
            cores, raised = [], []
            for e in graded_and_uniform(_residuals, us, coeffs):
                if isinstance(e, AccuracyError):
                    raised.append(e)
                    cores.append(e.value)
                else:
                    cores.append(e * e - tails * tails)
            if len(raised) == 2:
                continue
            slack = 0.0
            if raised:
                # An integral stalled at its noise plateau, where luck alone
                # separates converging from spending all 40,000 panels, may
                # raise on one route only (ROADMAP item 12).  Both ways occur:
                # the uniform route alone raises at gaussian(13.4384, -5.77845),
                # N = 231, beta = 1.59228, the graded alone at gaussian(2,1),
                # N = 251, beta = 3.38707 (both H1 pairs).  It must stop within
                # twice its target, max(floor, 1e-9 * |I|), and its carried
                # value must agree.
                floors = [(2e-14 * max(1.0, cf.norm)) ** 2 * 2.0 * x_max for cf in coeffs]
                targets = np.maximum(floors, 1e-9 * np.abs(raised[0].value))
                assert raised[0].achieved <= 2.0 * targets.max()
                slack = raised[0].achieved
            for a, b, cf in zip(*cores, coeffs):
                assert abs(a - b) <= self.integral_tolerance(max(a, b, 0.0), cf, x_max) + slack

    def test_work_at_fullline_largest_point(self, monkeypatch):
        # fullline's largest point: project converges in 2 rounds (6 on
        # uniform panels), and the residual's first round has at most 3/4 of
        # the N + 8 uniform panels.
        runs, active = [], []
        quad, panels = operators.adaptive_quad, _integrate._eval_panels

        def counted_quad(*args, **kwargs):
            runs.append([])
            active.append(True)
            try:
                return quad(*args, **kwargs)
            finally:
                active.pop()

        def counting(f, lo, hi, weight):
            if active:
                runs[-1].append(lo.size)
            return panels(f, lo, hi, weight)

        monkeypatch.setattr(operators, "adaptive_quad", counted_quad)
        monkeypatch.setattr(_integrate, "_eval_panels", counting)
        u, basis = hs.algebraic(1.0), ScaledBasis(1024, 30.0 / 32.0)
        residual_l2(u, hs.project(u, basis))
        project_rounds, residual_rounds = runs
        assert len(project_rounds) <= 2
        assert residual_rounds[0] <= 0.75 * (basis.n_max + 8)


class TestInterpolation:
    def test_member_of_space_reproduced(self):
        rng = np.random.default_rng(5)
        basis = ScaledBasis(12, 1.4)
        coeffs = SpectralCoeffs(basis, rng.standard_normal(13))
        u = synthetic_test_function(coeffs)
        got = hs.interpolate(u, basis)
        assert np.abs(got.values - coeffs.values).max() < 1e-11

    def test_exactness_at_nodes(self):
        u = hs.algebraic(1.0)
        basis = ScaledBasis(32, 1.0)
        grid = compute_grid(32)
        c = hs.interpolate(u, basis)
        nodes = grid.nodes / 1.0
        err = np.abs(hs.synthesize(c, nodes) - u.eval_u(nodes))
        assert err.max() < 1e-11 * np.abs(u.eval_u(nodes)).max()

    def test_interpolation_error_decreases(self):
        u = hs.gaussian(2.0, 0.0)
        errs = [hs.residual_l2(u, hs.interpolate(u, ScaledBasis(n, 1.0)))
                for n in (8, 16, 32)]
        assert errs[0] > errs[1] > errs[2]


class TestErrorBreakdown:
    def test_self_dual_components_equal(self):
        u = hs.plain_gaussian(1.0)
        b = hs.error_breakdown(u, ScaledBasis(8, 1.0))
        assert b.spatial == pytest.approx(b.frequency, rel=1e-12)

    def test_algebraic_closed_forms(self):
        u = hs.algebraic(1.0)
        b = hs.error_breakdown(u, ScaledBasis(32, 1.0))
        cut = math.sqrt(32.0) / (2.0 * math.sqrt(2.0))  # = 2
        assert b.frequency == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-cut), rel=1e-12)
        spatial_expect = math.sqrt(
            math.pi / 2.0 - math.atan(cut) - cut / (1.0 + cut * cut))
        assert b.spatial == pytest.approx(spatial_expect, rel=1e-10)

    def test_hermite_component_rate(self):
        u = hs.algebraic(2.0)
        b = hs.error_breakdown(u, ScaledBasis(16, 1.0))
        assert b.hermite == pytest.approx(u.l2_norm * math.exp(-1.0), rel=1e-14)

    def test_total_is_sum(self):
        u = hs.algebraic(1.5)
        b = hs.error_breakdown(u, ScaledBasis(12, 0.7))
        assert b.total == b.spatial + b.frequency + b.hermite

    def test_components_must_be_finite_and_nonnegative(self):
        for bad in (-1e-300, -1.0, math.nan, math.inf):
            for parts in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
                with pytest.raises(ValueError, match="component must be finite and >= 0"):
                    hs.ErrorBreakdown(*parts)

    def test_cutoff_constants(self):
        assert SPATIAL_CUTOFF_FACTOR == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
        assert FREQUENCY_CUTOFF_FACTOR == SPATIAL_CUTOFF_FACTOR


class TestIndicatorSum:
    def test_level_zero_is_total(self):
        u = hs.plain_gaussian(1.0)
        basis = ScaledBasis(16, 1.0)
        assert hs.indicator_sum(u, basis, level=0) == \
            hs.error_breakdown(u, basis).total

    def test_level_one_coefficient(self):
        # beta*sqrt(N) = 4 at N=16, beta=1, with the derivative's closed tails
        u = hs.plain_gaussian(1.0)
        du = u.derivative()
        basis = ScaledBasis(16, 1.0)
        got = hs.indicator_sum(u, basis, level=1)
        expect = hs.error_breakdown(du, basis).total \
            + 4.0 * hs.error_breakdown(u, basis).total
        assert got == pytest.approx(expect, rel=1e-12)

    def test_level_two_coefficients(self):
        u = hs.plain_gaussian(1.0)
        du = u.derivative()
        d2u = du.derivative()
        basis = ScaledBasis(9, 1.5)
        got = hs.indicator_sum(u, basis, level=2)
        expect = (hs.error_breakdown(d2u, basis).total
                  + 1.5 * hs.error_breakdown(du, basis).total
                  + 1.5 ** 2 * 9 * hs.error_breakdown(u, basis).total)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_n(self):
        u = hs.plain_gaussian(1.0)
        lvl = lambda n: hs.indicator_sum(u, ScaledBasis(n, 1.0), level=1)
        assert lvl(64) < lvl(16)

    def test_level_out_of_range(self):
        for level in (3, -1):
            with pytest.raises(ValueError, match="level must be 0, 1 or 2"):
                hs.indicator_sum(hs.plain_gaussian(1.0), ScaledBasis(8, 1.0), level=level)

    def test_missing_derivatives_rejected(self):
        # u'' of plain_gaussian has no derivative entry; gaussian(k, s) has u'
        # but no u''.
        bare = hs.plain_gaussian(1.0).derivative().derivative()
        with pytest.raises(ValueError):
            hs.indicator_sum(bare, ScaledBasis(8, 1.0), level=1)
        with pytest.raises(ValueError):
            hs.indicator_sum(hs.gaussian(1.0, 0.0), ScaledBasis(8, 1.0), level=2)


def outcome(root, *args):
    """repr of the root (bitwise value and type), or the exception type."""
    try:
        return repr(root(*args))
    except (ValueError, HermscaleError) as exc:
        return type(exc)


def both_tails_zero(u, n_max, beta):
    tails = hs.error_breakdown(u, ScaledBasis(n_max, beta))
    return tails.spatial == 0.0 == tails.frequency


# The four catalog families.
FAMILIES = st.one_of(
    st.builds(hs.plain_gaussian, st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)),
    st.builds(hs.gaussian, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.builds(hs.algebraic, st.floats(0.55, 30.0)),
    st.builds(hs.gaussian_power, st.integers(1, 18)))


# A frequency tail that jumps across the spatial one at K = 5: no balance.
STEP = TestFunction(
    id="step", eval_u=None, eval_Fu=None, spatial_tail=lambda m: 1.0,
    frequency_tail=lambda k: 2.0 if k < 5.0 else 0.5, l2_norm=1.0)


class TestBisect:
    def test_exact_zero_midpoint_returned_at_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert _bisect(f, 0.0, 2.0, lambda lo, hi: 1e-9, "f") == (1.0, 0.0)
        assert calls == [0.0, 2.0, 1.0]

    def test_exact_zero_end_returned(self):
        assert _bisect(lambda x: x, 0.0, 1.0, lambda lo, hi: 1e-9, "f") == (0.0, 0.0)
        assert _bisect(lambda x: x, -1.0, 0.0, lambda lo, hi: 1e-9, "f") == (0.0, 0.0)
        # Even when both ends share a sign elsewhere: no BracketError.
        assert _bisect(lambda x: x * x, 0.0, 1.0, lambda lo, hi: 1e-9, "f") == (0.0, 0.0)

    def test_same_sign_raises_with_end_values(self):
        with pytest.raises(BracketError, match="f does not change sign") as info:
            _bisect(lambda x: x * x + 1.0, -1.0, 2.0, lambda lo, hi: 1e-9, "f")
        assert (info.value.f_lo, info.value.f_hi) == (2.0, 5.0)
        with pytest.raises(BracketError):
            _bisect(lambda x: -1.0 - x * x, -1.0, 2.0, lambda lo, hi: 1e-9, "f")

    @pytest.mark.parametrize("lo,hi,sign", [(1.0, 100.0, 1.0), (1.0, 100.0, -1.0),
                                            (0.5, 3.0, 1.0)])
    def test_width_rule_read_from_the_moving_bracket(self, lo, hi, sign):
        seen = []

        def width(a, b):
            seen.append((a, b))
            return 1e-3 * a

        root, f_root = _bisect(lambda x: sign * (x * x - 2.0), lo, hi, width, "f")
        # Halved while hi - lo > width(lo, hi), then the midpoint.
        assert all(b - a > 1e-3 * a for a, b in seen[:-1])
        a, b = seen[-1]
        assert b - a <= 1e-3 * a and root == 0.5 * (a + b)
        assert a < math.sqrt(2.0) < b
        # The last value evaluated is returned with it.
        assert f_root in (sign * (a * a - 2.0), sign * (b * b - 2.0))

    def test_bracket_already_narrow(self):
        # No halving: the midpoint, with f at the upper end as the last value.
        assert _bisect(lambda x: x - 1.0, 0.9, 1.2, lambda lo, hi: 1.0, "f") == \
            (0.5 * (0.9 + 1.2), 1.2 - 1.0)


class TestBalanceScaling:
    def test_self_dual_balances_at_one(self):
        u = hs.plain_gaussian(1.0)
        for n in (8, 32, 128):
            assert hs.balance_scaling(u, n, (0.2, 5.0)) == \
                pytest.approx(1.0, abs=1e-6)

    def test_wide_gaussian_closed_form(self):
        # exp(-x^2/8): erfc tail equation erfc(M/2) = erfc(2K) forces
        # M = 4K, i.e. beta^2 = 1/4.  (Independent of N.)
        u = hs.plain_gaussian(2.0)
        assert hs.balance_scaling(u, 64, (0.1, 5.0)) == \
            pytest.approx(0.5, abs=1e-6)

    def test_scale_covariance(self):
        # u(2x) doubles the balancing scale.
        base = hs.balance_scaling(hs.plain_gaussian(1.0), 64, (0.2, 5.0))
        shrunk = hs.balance_scaling(hs.plain_gaussian(0.5), 64, (0.2, 8.0))
        assert shrunk == pytest.approx(2.0 * base, abs=1e-6)

    def test_flat_gaussian_power_schedule(self):
        # The balance point follows a * N^((n-1)/(2n)); for n=4 that is
        # a * N^(3/8) with a fitted constant near 0.57 (not 1).
        u = hs.gaussian_power(4)
        b64 = hs.balance_scaling(u, 64, (0.5, 64.0))
        b256 = hs.balance_scaling(u, 256, (0.5, 64.0))
        assert b256 / b64 == pytest.approx((256 / 64) ** 0.375, rel=0.1)
        assert 0.5 <= b256 / 256 ** 0.375 <= 2.0

    def test_bracket_error(self):
        u = hs.plain_gaussian(1.0)
        with pytest.raises(BracketError):
            hs.balance_scaling(u, 16, (2.0, 4.0))

    def test_domain_checks(self):
        # n_max and the bracket edges are checked as ScaledBasis checks them.
        u = hs.plain_gaussian(1.0)
        for n_max, bracket in ((2.5, (0.2, 5.0)), (-1, (0.2, 5.0)),
                               (64, (1e-120, 5.0)), (64, (0.2, 1e120))):
            with pytest.raises(ValueError):
                hs.balance_scaling(u, n_max, bracket)
        for bracket in ((0.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="bracket must satisfy 0 < lo < hi"):
                hs.balance_scaling(u, 64, bracket)

    @settings(max_examples=30, deadline=None)
    @given(u=FAMILIES, n_max=st.integers(0, 1024), log_lo=st.floats(-3.0, 0.0),
           log_hi=st.floats(0.5, 3.0))
    @example(u=hs.plain_gaussian(1.0), n_max=64, log_lo=-1e-14, log_hi=1e-14)
    @example(u=hs.gaussian(10.0, 10.0), n_max=0, log_lo=-3.0, log_hi=3.0)
    @example(u=STEP, n_max=64, log_lo=-3.0, log_hi=3.0)
    def test_bitwise_equal_to_oracle(self, u, n_max, log_lo, log_hi):
        # The same root, or the same exception type, as the loop before
        # _bisect: roots, ends that balance (the first two examples),
        # BracketError and, on STEP, AccuracyError.
        # Deliberate differences: a bracket whose ends have reversed signs is
        # no longer rejected; the log-difference is monotone increasing in
        # beta (test below), so no bracket has them.  Where the oracle
        # returns a beta on the underflow plateau, balance_scaling raises
        # AccuracyError (test_underflow_plateau_raises); no draw lands there.
        bracket = (10.0 ** log_lo, 10.0 ** log_hi)
        want = outcome(oracle_balance_scaling, u, n_max, bracket)
        if isinstance(want, str) and both_tails_zero(u, n_max, float(want)):
            want = AccuracyError
        assert outcome(hs.balance_scaling, u, n_max, bracket) == want

    @pytest.mark.parametrize("n, bracket, old_beta", [
        (2, (1e-3, 1e3), 3.90724609375),
        (2, (1e-2, 1e2), 3.1346875),
        (10, (1e-3, 1e3), 15.625984375),
    ])
    def test_underflow_plateau_raises(self, n, bracket, old_beta):
        # Both tails are 0.0 at the beta the loop before this check returned,
        # a bisection midpoint that moves with the bracket; that probe now
        # raises, naming u, N and beta, with no achieved estimate.
        u = hs.gaussian_power(n)
        assert oracle_balance_scaling(u, 5000, bracket) == old_beta
        assert both_tails_zero(u, 5000, old_beta)
        with pytest.raises(AccuracyError) as info:
            hs.balance_scaling(u, 5000, bracket)
        assert info.value.achieved is None
        assert str(info.value) == (f"gaussian_power({n}): spatial and frequency "
                                   f"tails both underflow to 0 at N=5000, "
                                   f"beta={old_beta:g}")

    @settings(max_examples=40, deadline=None)
    @given(u=FAMILIES, n_max=st.integers(0, 1024),
           log_betas=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=6))
    def test_log_difference_monotone_in_beta(self, u, n_max, log_betas):
        # The function balance_scaling bisects does not decrease in beta,
        # to 1e-10: each tail carries up to 1e-11 relative error.
        def log_difference(beta):
            tails = hs.error_breakdown(u, ScaledBasis(n_max, beta))
            e_s, e_f = tails.spatial, tails.frequency
            if e_s == 0.0 or e_f == 0.0:
                return 0.0 if e_s == e_f else math.copysign(math.inf, e_s - e_f)
            return math.log(e_s) - math.log(e_f)

        values = [log_difference(10.0 ** e) for e in sorted(log_betas)]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:])), (u.id, values)


class TestTransitionPoint:
    def test_reference_root(self):
        root = hs.transition_point(hs.algebraic(1.5), (1.0, 200.0))
        assert root == pytest.approx(5.92, abs=0.5)

    def test_degenerate_self_dual(self):
        with pytest.raises(DegenerateBalanceError):
            hs.transition_point(hs.plain_gaussian(1.0), (1.0, 50.0))

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            hs.transition_point(hs.algebraic(1.5), (20.0, 60.0))

    def test_each_cutoff_evaluated_once(self):
        # The degenerate-case probes at lo, the midpoint and hi are shared
        # with the bisection.
        u = hs.algebraic(1.5)
        cutoffs = []

        def spatial_tail(c):
            cutoffs.append(c)
            return u.spatial_tail(c)

        hs.transition_point(dataclasses.replace(u, spatial_tail=spatial_tail), (1.0, 200.0))
        assert len(cutoffs) == len(set(cutoffs)) == 20

    @pytest.mark.parametrize("u,bracket", [
        (hs.algebraic(1.5), (1.0, 200.0)), (hs.algebraic(2.0), (1.0, 200.0)),
        (hs.algebraic(3.0), (1.0, 200.0)), (hs.algebraic(2.5), (1.0, 17.0)),
        (hs.algebraic(1.5), (0.0, 7.0)), (hs.algebraic(1.0), (1.0, 200.0)),
        (hs.algebraic(1.5), (20.0, 60.0)), (hs.plain_gaussian(1.0), (1.0, 50.0)),
        (hs.algebraic(1.5), (5.0, 5.0))],
        ids=lambda p: p.id if isinstance(p, TestFunction) else str(p))
    def test_bitwise_equal_to_oracle(self, u, bracket):
        # The same root, or the same exception type, as the loop before
        # _bisect: four roots, an end where the difference is 0, two brackets
        # without a sign change, the degenerate case and an empty bracket.
        # Deliberate difference: the ends' signs are compared, not their
        # product tested for > 0, so the two differ only where that product
        # underflows.
        assert outcome(hs.transition_point, u, bracket) == \
            outcome(oracle_transition_point, u, bracket)


class TestDualityIdentity:
    @pytest.mark.parametrize("freq,beta,n", [(1.0, 0.5, 4), (2.0, 2.0, 8)])
    def test_projection_error_equality(self, freq, beta, n):
        u = hs.gaussian(freq, 0.0)
        fu = hs.gaussian(0.0, freq)  # F[g_{k,0}] = g_{0,k}
        e_direct = hs.projection_error(u, ScaledBasis(n, beta))
        e_dual = hs.projection_error(fu, ScaledBasis(n, 1.0 / beta))
        assert abs(e_direct - e_dual) < 1e-8


class TestIndicatorBound:
    def test_bound_on_small_lattice(self, small_catalog):
        for u in small_catalog[:4]:
            for beta in (0.5, 2.0):
                basis = ScaledBasis(12, beta)
                measured = hs.projection_error(u, basis)
                assert measured <= 50.0 * hs.error_breakdown(u, basis).total


class TestGaussianLemmaBound:
    def test_fitted_constant_stable(self):
        # measured/bound with bound = ((k^2+s^2)/2)^((N+1)/2)/sqrt((N+1)!)
        # is controlled by one constant across the parameter box.
        pts = [(1.0, 0.0), (2.0, 1.0), (3.0, 3.0)]
        def ratio(k, s, n):
            e = hs.projection_error(hs.gaussian(k, s), ScaledBasis(n, 1.0))
            x = 0.5 * (k * k + s * s)
            bound = x ** ((n + 1) / 2.0) / math.sqrt(math.factorial(n + 1))
            return e / bound
        c_fit = max(ratio(k, s, 4) for k, s in pts)
        for k, s in pts:
            for n in (8, 12):
                assert ratio(k, s, n) <= 1.05 * c_fit
