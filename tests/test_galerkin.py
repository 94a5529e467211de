import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solveh_banded

import hermscale as hs
from hermscale import basis as basis_module
from hermscale import cli, galerkin, operators, quadrature
from hermscale.basis import ScaledBasis
from hermscale.fourier import TestFunction
from hermscale.quadrature import compute_grid

PI_M4 = np.pi ** -0.25


def plain_rhs(eval_u):
    return TestFunction(id="rhs", eval_u=eval_u, eval_Fu=None,
                        spatial_tail=lambda m: 0.0,
                        frequency_tail=lambda k: 0.0, l2_norm=1.0)


def dense_matrix(system):
    diag, offdiag2 = system
    a = np.diag(diag)
    for i, v in enumerate(offdiag2):
        a[i, i + 2] = a[i + 2, i] = v
    return a


def scaled_basis_derivative_values(basis, x):
    """phi_n'(x) via the alternative identity h_n' = sqrt(2n) h_{n-1} - x h_n,
    an independent route from the coupling form used by the assembler."""
    y = basis.beta * x
    h = hs.eval_hermite_functions(y, basis.n_max)
    out = np.empty_like(h)
    out[0] = -y * h[0]
    for n in range(1, basis.n_max + 1):
        out[n] = math.sqrt(2.0 * n) * h[n - 1] - y * h[n]
    return basis.beta ** 1.5 * out


class TestAssembly:
    def test_minimal_system(self):
        diag, offdiag2 = galerkin.assemble(ScaledBasis(0, 1.0), 1.0)
        assert diag == pytest.approx([1.5], rel=1e-15)
        assert offdiag2.size == 0

    def test_first_coupling(self):
        _, offdiag2 = galerkin.assemble(ScaledBasis(2, 1.0), 1.0)
        assert offdiag2[0] == pytest.approx(-math.sqrt(2.0) / 2.0, rel=1e-15)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            galerkin.assemble(ScaledBasis(2, 1.0), 0.0)

    def test_matches_quadrature_inner_products(self):
        beta, gamma, n = 1.7, 2.0, 6
        basis = ScaledBasis(n, beta)
        s = galerkin.assemble(basis, gamma)
        a = dense_matrix(s)
        cut = (math.sqrt(2 * n + 1) + 14.0) / beta
        for m in range(n + 1):
            for k in range(m, n + 1):
                def stiff(x):
                    d = scaled_basis_derivative_values(basis, np.asarray(x))
                    return d[m] * d[k]
                def mass(x):
                    v = hs.eval_scaled_basis(basis, np.asarray(x))
                    return v[m] * v[k]
                ref = quad(stiff, -cut, cut, epsabs=1e-13, epsrel=1e-12,
                           limit=300)[0] \
                    + gamma * quad(mass, -cut, cut, epsabs=1e-13,
                                   epsrel=1e-12, limit=300)[0]
                assert abs(a[m, k] - ref) < 1e-10


class TestSolve:
    def test_exact_solution_in_space(self):
        # -u'' + u with u = h_0 gives f = (2 - x^2) h_0, inside the space
        # for N >= 2, so the solver must return e_0 exactly.
        f = plain_rhs(lambda x: (2.0 - np.asarray(x) ** 2) * PI_M4
                      * np.exp(-np.asarray(x) ** 2 / 2.0))
        problem = galerkin.ModelProblem(1.0, f)
        for n in (2, 6, 11):
            c = galerkin.solve(problem, ScaledBasis(n, 1.0))
            expect = np.zeros(n + 1)
            expect[0] = 1.0
            assert np.abs(c.values - expect).max() < 1e-10

    def test_narrow_gaussian_at_matched_scale(self):
        # exp(-x^2) = phi_0-multiple at beta = sqrt(2).
        u = hs.gaussian_power(1)
        problem = galerkin.manufactured_problem(u, 1.0)
        basis = ScaledBasis(8, math.sqrt(2.0))
        c = galerkin.solve(problem, basis)
        expect = np.zeros(9)
        expect[0] = np.pi ** 0.25 / 2.0 ** 0.25
        assert np.abs(c.values - expect).max() < 1e-10

    def test_parity_split_matches_dense(self):
        u = hs.algebraic(1.0)
        problem = galerkin.manufactured_problem(u, 1.0)
        basis = ScaledBasis(32, 1.3)
        grid = compute_grid(32)
        c = galerkin.solve(problem, basis)
        system = galerkin.assemble(basis, 1.0)
        b = hs.analysis(problem.rhs.eval_u(grid.nodes / 1.3),
                        1.3).values
        dense = np.linalg.solve(dense_matrix(system), b)
        assert np.abs(c.values - dense).max() < 1e-12

    def test_galerkin_orthogonality(self):
        # f = h_0 is reproduced exactly by interpolation, so the discrete
        # solution satisfies a(u - u_N, phi_m) = (f, phi_m) - a(u_N, phi_m)
        # = 0 even though u itself lies outside the space.
        n = 10
        basis = ScaledBasis(n, 1.0)
        f = plain_rhs(lambda x: PI_M4 * np.exp(-np.asarray(x) ** 2 / 2.0))
        c = galerkin.solve(galerkin.ModelProblem(1.0, f), basis)
        dc = hs.differentiate(c)
        cut = math.sqrt(2 * n + 3) + 14.0
        for m in (0, 1, 4, 9):
            def a_form(x):
                xs = np.asarray(x)
                d = scaled_basis_derivative_values(basis, xs)
                v = hs.eval_scaled_basis(basis, xs)
                return (hs.synthesize(dc, xs) * d[m]
                        + hs.synthesize(c, xs) * v[m])
            lhs = quad(a_form, -cut, cut, epsabs=1e-12, epsrel=1e-12,
                       limit=400)[0]
            rhs = quad(lambda x: f.eval_u(np.asarray(x))
                       * hs.eval_scaled_basis(basis, np.asarray(x))[m],
                       -cut, cut, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
            assert abs(lhs - rhs) < 1e-8

    def test_scaling_consistency(self):
        # Change of variables: with gamma/beta^2 and samples scaled by
        # beta^(-5/2), the unscaled solve returns identical coefficients.
        u = hs.algebraic(2.0)
        gamma, beta, n = 1.0, 1.8, 24
        problem = galerkin.manufactured_problem(u, gamma)
        c_scaled = galerkin.solve(problem, ScaledBasis(n, beta))

        transported = plain_rhs(
            lambda y: problem.rhs.eval_u(np.asarray(y) / beta) / beta ** 2.5)
        c_plain = galerkin.solve(
            galerkin.ModelProblem(gamma / beta ** 2, transported),
            ScaledBasis(n, 1.0))
        assert np.abs(c_scaled.values - c_plain.values).max() < 1e-10

    def test_table_regime_beta_choice(self):
        # At N=400 the 30/sqrt(N) schedule (beta = 1.5) beats beta = 5.
        u = hs.algebraic(1.0)
        problem = galerkin.manufactured_problem(u, 1.0)
        errs = {}
        for beta in (1.5, 5.0):
            c = galerkin.solve(problem, ScaledBasis(400, beta))
            errs[beta] = hs.residual_l2(u, c)
        assert errs[1.5] < errs[5.0]

    @settings(max_examples=60)
    @given(st.integers(0, 2000), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.integers(0, 2 ** 32 - 1))
    @example(0, 0.0, 0.0, 1)
    @example(1, 3.0, -3.0, 2)
    @example(2, -3.0, 3.0, 3)
    def test_ldlt_matches_banded_cholesky(self, n, log_beta, log_gamma, seed):
        system = galerkin.assemble(ScaledBasis(n, 10.0 ** log_beta), 10.0 ** log_gamma)
        b = np.random.default_rng(seed).standard_normal(n + 1)
        for start in (0, 1):
            sl = slice(start, None, 2)
            diag, off, rhs = system[0][sl], system[1][sl], b[sl]
            if diag.size == 0:
                continue
            got = galerkin._solve_tridiagonal_spd(diag, off, rhs)
            if diag.size == 1:
                ref = rhs / diag
            else:
                ref = solveh_banded(np.vstack([np.r_[0.0, off], diag]), rhs)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSolutionError:
    def test_zero_for_recovered_solution(self):
        u = hs.gaussian_power(1)
        problem = galerkin.manufactured_problem(u, 1.0)
        basis = ScaledBasis(8, math.sqrt(2.0))
        c = galerkin.solve(problem, basis)
        err = galerkin.solution_error(c, u)
        assert err["l2"] < 1e-10
        assert err["h1"] < 1e-9

    def test_monotone_decrease(self):
        u = hs.algebraic(1.0)
        problem = galerkin.manufactured_problem(u, 1.0)
        errs = []
        for n in (64, 128):
            c = galerkin.solve(problem, ScaledBasis(n, 1.0))
            errs.append(hs.residual_l2(u, c))
        assert errs[0] > errs[1] > 0

    def test_h1_dominates_l2(self):
        u = hs.algebraic(1.5)
        problem = galerkin.manufactured_problem(u, 1.0)
        for n, beta in ((16, 1.0), (24, 2.0)):
            c = galerkin.solve(problem, ScaledBasis(n, beta))
            err = galerkin.solution_error(c, u)
            assert err["h1"] >= err["l2"]

    def test_complex_entry_h1(self):
        # gaussian(k, s)'s derivative entry has closed-form two-sided tails,
        # so the full-line H1 error of an exact-to-rounding expansion is as
        # small as its L2 error.
        u = hs.gaussian(1.0, 0.5)
        basis = ScaledBasis(64, 1.0)
        c = hs.interpolate(u, basis)
        err = galerkin.solution_error(c, u)
        assert err["l2"] < 1e-10
        assert err["l2"] <= err["h1"] < 1e-8

    def test_h1_of_shifted_gaussian(self):
        # Centred at 20, u lies almost wholly beyond the basis window
        # (support radius sqrt(17) + 12 = 16.1), so the H1 error is about
        # ||u||_H1 = (3 sqrt(pi) / 2)**(1/2) = 1.6305; the mass of u' past the
        # window is one-sided and must be counted once.  Oracle: scipy quad of
        # the squared pointwise errors over the whole line.
        u = hs.gaussian(0.0, 20.0)
        c = hs.project(u, ScaledBasis(8, 1.0))
        squared = 0.0
        for f, s in ((u.eval_u, c), (u.derivative().eval_u, hs.differentiate(c))):
            sq = lambda x: abs(complex(f(x)) - complex(hs.synthesize(s, x))) ** 2
            squared += sum(quad(sq, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                           for a, b in ((-np.inf, -20.0), (-20.0, 0.0), (0.0, 20.0),
                                        (20.0, np.inf)))
        assert math.sqrt(squared) == pytest.approx(1.6305, rel=1e-4)
        assert galerkin.solution_error(c, u)["h1"] == \
            pytest.approx(math.sqrt(squared), rel=1e-6)

    def test_h1_residuals_share_one_pass(self, monkeypatch):
        calls = []
        original = operators.adaptive_quad

        def counting(*args, **kwargs):
            calls.append(kwargs["label"])
            return original(*args, **kwargs)

        monkeypatch.setattr(operators, "adaptive_quad", counting)
        u = hs.algebraic(1.0)
        c = galerkin.solve(galerkin.manufactured_problem(u, 1.0), ScaledBasis(32, 1.0))
        galerkin.solution_error(c, u)
        assert calls == ["squared residual"]

    @pytest.mark.parametrize("name, n, beta", [("algebraic(1)", 48, 1.0),
                                               ("gaussian(2,1)", 12, 1.3)])
    def test_h1_pass_matches_separate_residuals(self, name, n, beta):
        # One pass over the derivative basis's window against two passes,
        # each over its own window: the same norms to within 1e-12.
        u = hs.catalog_entry(name)
        basis = ScaledBasis(n, beta)
        c = hs.interpolate(u, basis)
        l2 = hs.residual_l2(u, c)
        dl2 = hs.residual_l2(u.derivative(), hs.differentiate(c))
        err = galerkin.solution_error(c, u)
        assert err["l2"] == pytest.approx(l2, rel=1e-12, abs=0.0)
        assert err["h1"] == pytest.approx(math.sqrt(l2 * l2 + dl2 * dl2), rel=1e-12, abs=0.0)
        assert hs.residual_l2(u, c) == l2

    def test_requires_derivative(self):
        u = hs.algebraic(1.0)
        problem = galerkin.manufactured_problem(u, 1.0)
        basis = ScaledBasis(8, 1.0)
        c = galerkin.solve(problem, basis)
        bare = plain_rhs(u.eval_u)
        with pytest.raises(ValueError):
            galerkin.solution_error(c, bare)

    def test_discrete_norm_tracks_continuous_for_fast_decay(self):
        # For a rapidly decaying solution nothing lives outside the
        # collocation interval, so the two norms agree in order of
        # magnitude; the grid rule aliases the out-of-space residual, so
        # exact agreement is not expected.
        u = hs.gaussian_power(2)
        problem = galerkin.manufactured_problem(u, 1.0)
        basis = ScaledBasis(48, 1.0)
        c = galerkin.solve(problem, basis)
        full = hs.residual_l2(u, c)
        disc = galerkin.discrete_solution_error(c, u)
        assert full / 4.0 < disc < 4.0 * full


# Catalog entries with a second derivative, so a manufactured problem exists.
DISCRETE_IDS = ("algebraic(1)", "algebraic(2.5)", "plain_gaussian(0.6)",
                "plain_gaussian(2)", "gaussian_power(1)", "gaussian_power(3)")


def nodal_discrete_error(coeffs, u, grid):
    """The grid norm as the nodal sum it is defined by: synthesis at the
    scaled nodes, squared pointwise error, Hermite-Gauss weights."""
    beta = coeffs.basis.beta
    diff = u.eval_u(grid.nodes / beta) - hs.synthesis(coeffs)
    return math.sqrt(float(np.sum(grid.weights * np.abs(diff) ** 2)) / beta)


def parseval_tolerance(n, u, coeffs):
    """Roundoff allowance between two routes to the grid norm at index n.

    A row sum or a dot over N+1 terms is off by at most (N+1) eps times
    the sum of its terms' sizes.  Cauchy-Schwarz with the unit weighted rows
    (sum_j w_j h_n(x_j)**2 = 1, and sum_n h_n(x_j)**2 = 1/w_j) bounds each
    coefficient's or node's error by (N+1) eps (||u|| + ||c||) and the
    vector's by sqrt(N+1) times that; a factor 4 covers the two routes and
    the evaluation of u, the rows and the weights.
    """
    return 4.0 * (n + 1) ** 1.5 * np.finfo(float).eps * (u.l2_norm + coeffs.norm)


class TestDiscreteError:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(DISCRETE_IDS), st.integers(0, 256), st.floats(-1.0, 1.0))
    @example("algebraic(1)", 0, -1.0)
    @example("gaussian_power(3)", 256, 1.0)
    def test_equals_nodal_sum(self, ident, n, log_beta):
        # Discrete orthonormality makes the coefficient distance and the
        # nodal sum one number in exact arithmetic.
        u = hs.catalog_entry(ident)
        grid = compute_grid(n)
        c = galerkin.solve(galerkin.manufactured_problem(u, 1.0),
                           ScaledBasis(n, 10.0 ** log_beta))
        got = galerkin.discrete_solution_error(c, u)
        assert abs(got - nodal_discrete_error(c, u, grid)) <= parseval_tolerance(n, u, c)

    @pytest.mark.parametrize("ident, beta, u_mp", [
        ("algebraic(1)", 0.8, lambda x: 1 / (1 + x * x)),
        ("plain_gaussian(0.6)", 1.7, lambda x: mpmath.exp(-x * x / (2 * mpmath.mpf(0.36)))),
    ])
    @pytest.mark.parametrize("n", [0, 1, 6, 16])
    def test_nodal_sum_at_30_digits(self, ident, beta, u_mp, n):
        # The defining nodal sum at 30 digits, on roots of h_{N+1} refined
        # in mpmath and weights 1 / sum_{m<=N} h_m(x)**2 computed there; the
        # coefficients are taken as exact.
        u = hs.catalog_entry(ident)
        grid = compute_grid(n)
        c = galerkin.solve(galerkin.manufactured_problem(u, 1.0), ScaledBasis(n, beta))

        def rows(x, m):
            out = [mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2)]
            prev = mpmath.mpf(0)
            for k in range(m):
                prev, cur = out[-1], (x * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * out[-1]
                                      - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * prev)
                out.append(cur)
            return out

        with mpmath.workdps(30):
            b = mpmath.mpf(beta)
            total = mpmath.mpf(0)
            for x0 in grid.nodes:
                x = mpmath.findroot(lambda t: rows(t, n + 1)[-1], mpmath.mpf(x0))
                h = rows(x, n)
                w = 1 / mpmath.fsum(v * v for v in h)
                u_n = mpmath.sqrt(b) * mpmath.fsum(mpmath.mpf(cn) * v
                                                   for cn, v in zip(c.values, h))
                total += w * (u_mp(x / b) - u_n) ** 2
            oracle = float(mpmath.sqrt(total / b))
        got = galerkin.discrete_solution_error(c, u)
        assert abs(got - oracle) <= parseval_tolerance(n, u, c)

    @pytest.mark.parametrize("ident, n, beta", [("algebraic(1)", 40, 1.0),
                                                ("plain_gaussian(2)", 101, 0.4),
                                                ("gaussian_power(3)", 200, 3.0)])
    def test_point_matches_solve_and_error(self, ident, n, beta):
        u = hs.catalog_entry(ident)
        problem = galerkin.manufactured_problem(u, 1.0)
        basis = ScaledBasis(n, beta)
        coeffs, error = galerkin._discrete_point(problem, u, basis)
        c = galerkin.solve(problem, basis)
        assert coeffs.basis == basis
        assert np.abs(coeffs.values - c.values).max() <= parseval_tolerance(n, u, c)
        assert abs(error - galerkin.discrete_solution_error(c, u)) \
            <= parseval_tolerance(n, u, c)

    def test_point_checks_the_solve(self, monkeypatch):
        u = hs.algebraic(1.0)
        problem = galerkin.manufactured_problem(u, 1.0)
        monkeypatch.setattr(galerkin, "_solve_tridiagonal_spd",
                            lambda diag, off, rhs: 2.0 * rhs / diag)
        with pytest.raises(RuntimeError, match="residual"):
            galerkin._discrete_point(problem, u, ScaledBasis(16, 1.0))

    def test_one_row_stream_per_point(self, monkeypatch):
        config = cli.SweepConfig(function="algebraic(1)", n_values=(8, 24, 40, 64),
                                 schedule="constant(2)", measure="l2_discrete")
        cli.run_sweep(config)  # warms the grid memo: no grid is built below
        streams = []

        def counting(rows):
            def wrapped(x, n_max):
                streams.append(n_max)
                return rows(x, n_max)
            return wrapped

        for module in (basis_module, quadrature, operators):
            monkeypatch.setattr(module, "_hermite_rows", counting(module._hermite_rows))
        cli.run_sweep(config)
        assert streams == list(config.n_values)


class TestCeaSanity:
    def test_single_constant_controls_h1_error(self):
        # ||u - u_N||_1 <= C (H1 projection error + interpolation error of f)
        # with one constant across the algebraic family.
        ratios = []
        for h in (1.0, 2.0, 3.0):
            u = hs.algebraic(h)
            problem = galerkin.manufactured_problem(u, 1.0)
            for n in (64, 128):
                basis = ScaledBasis(n, 1.0)
                c = galerkin.solve(problem, basis)
                h1 = galerkin.solution_error(c, u)["h1"]

                p = hs.project(u, basis, tol=1e-12)
                pl2 = hs.residual_l2(u, p)
                pd = hs.residual_l2(u.derivative(), hs.differentiate(p))
                proj_h1 = math.sqrt(pl2 ** 2 + pd ** 2)

                f_int = hs.residual_l2(problem.rhs, hs.interpolate(problem.rhs, basis))
                ratios.append(h1 / (proj_h1 + f_int))
        assert max(ratios) / min(ratios) < 10.0
        assert max(ratios) < 5.0


class TestManufacturedProblem:
    def test_requires_second_derivative(self):
        bare = plain_rhs(lambda x: np.exp(-np.asarray(x) ** 2))
        with pytest.raises(ValueError):
            galerkin.manufactured_problem(bare, 1.0)

    def test_rhs_transform_closed_form(self):
        u = hs.plain_gaussian(1.0)
        problem = galerkin.manufactured_problem(u, 2.0)
        k = 1.3
        expect = (2.0 + k * k) * float(u.eval_Fu(k))
        assert float(problem.rhs.eval_Fu(k)) == pytest.approx(expect, rel=1e-13)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            galerkin.ModelProblem(-1.0, plain_rhs(lambda x: x))
