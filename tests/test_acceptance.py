"""Acceptance suite: one test per stated criterion, at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Criterion 8's fixed-versus-scheduled comparison threshold is a
known defect (see the decisions ledger and README): the crossover sits near
N ~ 110 in every norm, so the N >= 64 clause is marked as an expected
failure rather than silently re-thresholded.
"""

import math

import numpy as np
import pytest

import hermscale as hs
from hermscale import cli, galerkin
from hermscale.basis import ScaledBasis
from hermscale.quadrature import compute_grid

from conftest import gram_matrix_by_quadrature


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def analytic_gaussian_tail(freq, shift, n_max, terms=400):
    c = hs.gaussian_coefficients(freq, shift, terms)
    return math.sqrt(float(np.sum(np.abs(c[n_max + 1:]) ** 2)))


def test_criterion_1_orthonormality():
    worst_disc = 0.0
    for n in (8, 64, 256):
        g = compute_grid(n)
        v = hs.eval_hermite_functions(g.nodes, g.n_max)
        dev = np.abs((v * g.weights) @ v.T - np.eye(n + 1)).max()
        worst_disc = max(worst_disc, dev)
    gram = gram_matrix_by_quadrature(ScaledBasis(20, 1.0), 21)
    cont = np.abs(gram - np.eye(21)).max()
    report(1, worst_disc < 1e-11 and cont < 1e-10,
           f"discrete orthonormality dev {worst_disc:.2e} (tol 1e-11), "
           f"continuous Gram dev {cont:.2e} (tol 1e-10)")


def test_criterion_2_gaussian_projection_lemma():
    lattice = [(k, s) for k in range(4) for s in range(4)]
    worst_gap = 0.0
    ratios = {4: [], 8: [], 16: []}
    for n in (4, 8, 16):
        for k, s in lattice:
            measured = hs.projection_error(hs.gaussian(float(k), float(s)),
                                           ScaledBasis(n, 1.0))
            gap = abs(measured - analytic_gaussian_tail(k, s, n))
            worst_gap = max(worst_gap, gap)
            x = 0.5 * (k * k + s * s)
            if x > 0:
                bound = x ** ((n + 1) / 2.0) / math.sqrt(math.factorial(n + 1))
                ratios[n].append(measured / bound)
    c_fit = max(ratios[4])
    bound_ok = all(r <= 1.05 * c_fit for n in (8, 16) for r in ratios[n])
    report(2, worst_gap < 1e-9 and bound_ok,
           f"max |measured - analytic tail| {worst_gap:.2e} (tol 1e-9); "
           f"lemma constant fitted at N=4 ({c_fit:.3f}) bounds N=8,16")


def test_criterion_3_fourier_duality():
    worst = 0.0
    for k in (1.0, 2.0):
        u = hs.gaussian(k, 0.0)
        fu = hs.gaussian(0.0, k)
        for beta in (0.5, 2.0):
            for n in (4, 8):
                e_u = hs.projection_error(u, ScaledBasis(n, beta))
                e_f = hs.projection_error(fu, ScaledBasis(n, 1.0 / beta))
                worst = max(worst, abs(e_u - e_f))
    report(3, worst < 1e-8,
           f"max |direct - dual| projection-error gap {worst:.2e} (tol 1e-8)")


def test_criterion_4_indicator_upper_bound(small_catalog):
    worst = 0.0
    violations = 0
    for u in small_catalog:
        for beta in (0.5, 1.0, 2.0):
            for n in (8, 16, 32):
                basis = ScaledBasis(n, beta)
                ratio = hs.projection_error(u, basis) \
                    / hs.error_breakdown(u, basis).total
                worst = max(worst, ratio)
                violations += ratio > 50.0
    report(4, violations == 0,
           f"measured error <= 50x indicator at all "
           f"{len(small_catalog) * 9} lattice points "
           f"(worst ratio {worst:.3f}, zero violations)")


def test_criterion_5_table1_orders():
    n_values = tuple(range(200, 401, 20))
    failures = []
    details = []
    for schedule, expected in cli.TABLE1_ORDERS.items():
        for h, ref in expected.items():
            records = cli.run_sweep(cli.SweepConfig(
                function=f"algebraic({h:g})", n_values=n_values,
                schedule=schedule, measure="l2_discrete"))
            rate = cli.fit_order(records, "algebraic").rate
            details.append(f"h={h:g}/{schedule}: {rate:.3f} (ref {ref})")
            if abs(rate - ref) > 0.15:
                failures.append(details[-1])
    report(5, not failures,
           "twelve fitted orders within 0.15 of the reference "
           f"values [{'; '.join(details)}]" if not failures else
           f"out-of-tolerance rows: {failures}")


def test_criterion_6_table2_roots():
    details = []
    ok = True
    for h, ref in cli.TABLE2_ROOTS.items():
        root = hs.transition_point(hs.algebraic(h), (1.0, 200.0))
        details.append(f"h={h:g}: {root:.3f} (ref {ref})")
        ok &= abs(root - ref) <= 0.5
    report(6, ok, f"transition roots within 0.5: {'; '.join(details)}")


@pytest.fixture(scope="module")
def flat_power_sweeps():
    n_values = tuple(range(32, 257, 32))
    flat = cli.run_sweep(cli.SweepConfig(
        function="gaussian_power(4)", n_values=n_values,
        schedule="constant(1)", measure="l2_discrete"))
    tuned = cli.run_sweep(cli.SweepConfig(
        function="gaussian_power(4)", n_values=n_values,
        schedule="power(1,0.375)", measure="l2_discrete"))
    return flat, tuned


def test_criterion_7_flat_power_trends(flat_power_sweeps):
    flat, tuned = flat_power_sweeps
    fit_flat = cli.fit_order(flat, f"exp_power({4.0 / 7.0})", floor=1e-13)
    fit_tuned = cli.fit_order(tuned, "exp_power(1)", floor=1e-13)
    e_flat = {r.n: r.error for r in flat}
    e_tuned = {r.n: r.error for r in tuned}
    separation = e_tuned[128] <= 0.1 * e_flat[128]
    report(7, fit_flat.r2 > 0.95 and fit_tuned.r2 > 0.95 and separation,
           f"exp(-c N^(4/7)) fit R2={fit_flat.r2:.4f}, geometric fit "
           f"R2={fit_tuned.r2:.4f} (both > 0.95); errors at N=128: "
           f"{e_tuned[128]:.2e} <= 0.1 * {e_flat[128]:.2e}")


@pytest.fixture(scope="module")
def fig3_sweeps():
    n_values = (64, 96, 128, 192, 256)
    flat = cli.run_sweep(cli.SweepConfig(
        function="algebraic(1)", n_values=n_values,
        schedule="constant(1)", measure="l2_discrete"))
    tuned = cli.run_sweep(cli.SweepConfig(
        function="algebraic(1)", n_values=n_values,
        schedule="logsqrt(10)", measure="l2_discrete"))
    return flat, tuned


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the 10/sqrt(N) schedule overtakes beta=1 only near "
           "N ~ 110 (beta > 1 below N=100 shrinks the collocation interval); "
           "measured here and under every other norm; see decisions ledger")
def test_criterion_8_schedule_beats_flat_from_64(fig3_sweeps):
    flat, tuned = fig3_sweeps
    losing = [(f.n, f.error, t.error) for f, t in zip(flat, tuned)
              if t.error >= f.error]
    report("8-fig3", not losing,
           f"beta=10/sqrt(N) below beta=1 at every sampled N >= 64 "
           f"(losing points: {losing})")


def test_criterion_8_schedule_wins_past_crossover(fig3_sweeps):
    # Verified form of the same claim: past the measured crossover the
    # schedule wins, and by a growing margin.
    flat, tuned = fig3_sweeps
    pairs = [(f.error, t.error) for f, t in zip(flat, tuned) if f.n >= 128]
    margins = [f / t for f, t in pairs]
    report("8-fig3-verified", all(t < f for f, t in pairs)
           and margins == sorted(margins),
           f"schedule wins for all sampled N >= 128 with growing margin "
           f"{[f'{m:.2f}' for m in margins]}")


def test_criterion_8_slope_change_locations():
    n_values = (4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256, 362, 512)
    details = []
    ok = True
    for h, ref in cli.TABLE2_ROOTS.items():
        records = cli.run_sweep(cli.SweepConfig(
            function=f"algebraic({h:g})", n_values=n_values,
            schedule="constant(1)", measure="l2_discrete"))
        n_break = cli.detect_slope_change(records)
        half_width = math.sqrt(2.0 * n_break)
        ratio = half_width / ref
        details.append(f"h={h:g}: N={n_break:.1f} -> {half_width:.2f} "
                       f"vs {ref} (x{ratio:.2f})")
        ok &= 0.5 <= ratio <= 2.0
    report("8-fig4", ok,
           f"slope-change locations within a factor 2: {'; '.join(details)}")


def test_criterion_9_inverse_inequality():
    details = []
    ok = True
    for n in (16, 64, 256):
        d = hs.derivative_matrix(ScaledBasis(n, 1.0))
        smax = float(np.linalg.svd(d, compute_uv=False)[0])
        bound = math.sqrt(2.0 * (n + 1))
        details.append(f"N={n}: {smax:.3f} <= {bound:.3f}")
        ok &= smax <= bound
    report(9, ok, f"derivative-matrix norms under sqrt(2(N+1)): "
                  f"{'; '.join(details)}")


def test_criterion_10_solver_oracles():
    # (a) exact-in-space problems recover coefficients to 1e-10
    pi_m4 = np.pi ** -0.25
    from hermscale.fourier import DecayMeta, TestFunction
    f0 = TestFunction(id="f0", eval_u=lambda x: (2.0 - np.asarray(x) ** 2)
                      * pi_m4 * np.exp(-np.asarray(x) ** 2 / 2.0),
                      eval_Fu=None, spatial_tail=lambda m: 0.0,
                      frequency_tail=lambda k: 0.0, l2_norm=1.0,
                      decay_meta=DecayMeta("exponential", 2, "exponential", 2))
    c = galerkin.solve(galerkin.ModelProblem(1.0, f0), ScaledBasis(6, 1.0),
                       compute_grid(6))
    expect = np.zeros(7)
    expect[0] = 1.0
    rec1 = np.abs(c.values - expect).max()

    u = hs.gaussian_power(1)
    c2 = galerkin.solve(galerkin.manufactured_problem(u, 1.0),
                        ScaledBasis(8, math.sqrt(2.0)), compute_grid(8))
    expect2 = np.zeros(9)
    expect2[0] = np.pi ** 0.25 / 2.0 ** 0.25
    rec2 = np.abs(c2.values - expect2).max()

    # (b) assembled entries match quadrature inner products to 1e-10
    from test_galerkin import dense_matrix, scaled_basis_derivative_values
    from scipy.integrate import quad
    beta, gamma, n = 1.7, 2.0, 6
    basis = ScaledBasis(n, beta)
    a = dense_matrix(galerkin.assemble(basis, gamma))
    cut = (math.sqrt(2 * n + 1) + 14.0) / beta
    asm_dev = 0.0
    for m in range(n + 1):
        for k in range(m, n + 1):
            def integrand(x):
                xs = np.asarray(x)
                d = scaled_basis_derivative_values(basis, xs)
                v = hs.eval_scaled_basis(basis, xs)
                return d[m] * d[k] + gamma * v[m] * v[k]
            ref = quad(integrand, -cut, cut, epsabs=1e-13, epsrel=1e-12,
                       limit=300)[0]
            asm_dev = max(asm_dev, abs(a[m, k] - ref))

    # (c) parity-split solve equals a dense solve to 1e-12 at N=32
    u3 = hs.algebraic(1.0)
    problem = galerkin.manufactured_problem(u3, 1.0)
    basis32 = ScaledBasis(32, 1.0)
    grid32 = compute_grid(32)
    c3 = galerkin.solve(problem, basis32, grid32)
    b = hs.analysis(grid32, problem.rhs.eval_u(grid32.nodes), 1.0).values
    dense = np.linalg.solve(dense_matrix(galerkin.assemble(basis32, 1.0)), b)
    split_dev = np.abs(c3.values - dense).max()

    report(10, rec1 < 1e-10 and rec2 < 1e-10 and asm_dev < 1e-10
           and split_dev < 1e-12,
           f"exact-space recovery {max(rec1, rec2):.2e} (tol 1e-10); "
           f"assembly vs quadrature {asm_dev:.2e} (tol 1e-10); "
           f"parity split vs dense {split_dev:.2e} (tol 1e-12)")
