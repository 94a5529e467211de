"""Direct tests of the adaptive Gauss-Kronrod integrator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermscale import _integrate
from hermscale._integrate import adaptive_quad
from hermscale.errors import AccuracyError


def moment_rows(x, d=6):
    """Rows x**j * exp(-x**2), j < d."""
    g = np.exp(-x * x)
    return (x ** j * g for j in range(d))


class TestVectorIntegrand:
    def test_rows_match_scalar_calls(self):
        # Each yielded 1-d row is a component of its own; a lone 1-d array
        # is one component, returned as a (1,) array.
        edges = np.linspace(-3.0, 4.0, 17)
        vec = adaptive_quad(moment_rows, edges, abs_tol=1e-13, rel_tol=0.0)
        assert vec.shape == (6,)
        for j in range(6):
            one = adaptive_quad(lambda x: x ** j * np.exp(-x * x), edges,
                                abs_tol=1e-13, rel_tol=0.0)
            assert one.shape == (1,)
            assert vec[j] == pytest.approx(one[0], rel=0.0, abs=1e-12)

    def test_array_of_rows_matches_generator(self):
        # A returned array is one block, bitwise the same as yielding it;
        # rows yielded one by one are contracted one by one, which may move
        # the last bit.
        edges = np.linspace(-3.0, 4.0, 17)
        array = adaptive_quad(lambda x: np.array(list(moment_rows(x))), edges)
        block = adaptive_quad(lambda x: iter([np.array(list(moment_rows(x)))]), edges)
        assert array.tobytes() == block.tobytes()
        rows = adaptive_quad(moment_rows, edges)
        assert rows == pytest.approx(array, rel=0.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=12), st.booleans())
    def test_many_rows_span_blocks(self, sizes, flat_singles):
        # Components cos(j x), j < d <= 60, in blocks of 1-20 rows (a block
        # of one row yielded either as (1, m) or as (m,)): every block lands
        # in place, against int_0^2 cos(j x) dx = sin(2 j) / j.
        starts = np.cumsum([0] + sizes)
        d = int(min(starts[-1], 60))

        def f(x):
            for lo, hi in zip(starts[:-1], np.minimum(starts[1:], d)):
                if lo >= d:
                    return
                block = np.cos(np.arange(lo, hi)[:, None] * x)
                yield block[0] if flat_singles and hi - lo == 1 else block

        vals = adaptive_quad(f, np.linspace(0.0, 2.0, 17), abs_tol=1e-13, rel_tol=0.0)
        j = np.arange(1, d)
        expect = np.r_[2.0, np.sin(2.0 * j) / j]
        assert vals.shape == (d,)
        assert np.abs(vals - expect).max() < 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_blocks_match_row_generator(self, dtype):
        # Blocks of 16, 16 and 5 rows, all written into one reused buffer,
        # give the result of freshly allocated blocks of the same sizes bit
        # for bit: each block must be contracted before the next overwrites it.
        size = 16
        d = 2 * size + 5
        wave = (lambda t: np.exp(1j * t)) if dtype is complex else np.cos

        def fresh(x):
            g = np.exp(-x * x)
            for start in range(0, d, size):
                yield np.array([g * wave(0.5 * j * x)
                                for j in range(start, min(start + size, d))])

        def reused(x):
            buffer = np.empty((size, x.size), dtype=dtype)
            g = np.exp(-x * x)
            for start in range(0, d, size):
                part = buffer[:d - start]
                for j, out in enumerate(part, start):
                    out[:] = g * wave(0.5 * j * x)
                yield part

        expect = adaptive_quad(fresh, np.linspace(-6.0, 7.0, 17), abs_tol=1e-13, rel_tol=0.0)
        got = adaptive_quad(reused, np.linspace(-6.0, 7.0, 17), abs_tol=1e-13, rel_tol=0.0)
        assert got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()

    def test_complex_rows(self):
        # int exp(-x**2/2 + i*k*x) dx = sqrt(2*pi) * exp(-k**2/2).
        ks = np.arange(5.0)

        def f(x):
            g = np.exp(-0.5 * x * x)
            return (g * np.exp(1j * k * x) for k in ks)

        vals = adaptive_quad(f, np.linspace(-12.0, 12.0, 17), abs_tol=1e-13, rel_tol=0.0)
        assert vals.dtype == complex
        expect = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * ks ** 2)
        assert np.abs(vals - expect).max() < 1e-12


class TestBudget:
    @pytest.mark.parametrize("vector", [False, True])
    def test_exhaustion_raises_with_estimate(self, vector, monkeypatch):
        seen = []
        original = _integrate._eval_panels

        def counting(f, lo, hi, weight):
            seen.append(int(np.sum(weight > 0)) - int(np.sum(weight < 0)))
            return original(f, lo, hi, weight)

        monkeypatch.setattr(_integrate, "_eval_panels", counting)
        # |x|**-0.9 is integrable, but no 300 panels reach 1e-14.  x = 0 is
        # a panel edge, never an abscissa.
        scalar = lambda x: np.abs(x) ** -0.9
        f = (lambda x: (scalar(x), 2.0 * scalar(x))) if vector else scalar
        with pytest.raises(AccuracyError) as info:
            adaptive_quad(f, np.linspace(-1.0, 1.0, 17), abs_tol=1e-14, rel_tol=0.0,
                          max_panels=300)
        exc = info.value
        assert exc.achieved > 1e-14 and math.isfinite(exc.achieved)
        assert np.shape(exc.value) == ((2,) if vector else (1,))
        # One component keeps the bare label; several name the worst one.
        what = "integrand[1]" if vector else "integrand ("
        assert f"did not converge for {what}" in str(exc)
        assert np.all(np.isfinite(exc.value))
        # Every bisection adds one panel; the budget is never overrun.
        assert sum(seen) == 300

    def test_achieved_is_the_named_components_estimate(self, monkeypatch):
        # Component 0 misses its target; component 1 carries the larger
        # error, 5.0 against 0.93, but sits far under its own target, 1e-6 of
        # its integral 1.3e9.  The error names component 0, so `achieved` is
        # component 0's estimate, not the largest one.
        estimates = []
        original = _integrate._eval_panels

        def summing(f, lo, hi, weight):
            result = original(f, lo, hi, weight)
            estimates.append(result[1])
            return result

        monkeypatch.setattr(_integrate, "_eval_panels", summing)
        f = lambda x: (np.abs(x) ** -0.9, 1e9 * np.sqrt(np.abs(x)))
        with pytest.raises(AccuracyError, match=r"integrand\[0\]") as info:
            adaptive_quad(f, np.linspace(-1.0, 1.0, 17), abs_tol=0.0, rel_tol=1e-6,
                          max_panels=32)
        err = sum(estimates)
        assert err[1] > err[0] and err[1] < 1e-6 * abs(info.value.value[1])
        assert info.value.achieved == err[0]

    def test_non_finite_values_raise(self):
        with pytest.raises(AccuracyError):
            adaptive_quad(lambda x: np.where(x > 0.5, np.nan, 1.0),
                          np.linspace(-1.0, 1.0, 17))

    @pytest.mark.parametrize("vector", [False, True])
    def test_infinite_values_raise(self, vector):
        # inf meets the zero G7 weights in the contraction; that must end in
        # AccuracyError, not in a RuntimeWarning from the matmul.
        scalar = lambda x: np.where(np.abs(x - 0.3) < 0.05, np.inf, 1.0)
        f = (lambda x: (np.ones_like(x), scalar(x))) if vector else scalar
        with pytest.raises(AccuracyError, match="non-finite"):
            adaptive_quad(f, np.linspace(-1.0, 1.0, 17))

    def test_infinite_value_met_while_refining(self):
        # No initial abscissa lands within 1e-4 of the peak; bisection does.
        f = lambda x: np.where(np.abs(x - 0.1234567) < 1e-4, np.inf,
                               np.exp(-((x - 0.1234567) / 1e-3) ** 2))
        with pytest.raises(AccuracyError, match="non-finite"):
            adaptive_quad(f, np.linspace(-1.0, 1.0, 17), abs_tol=1e-15, rel_tol=1e-12)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(np.exp, [1.0, 1.0])

    @pytest.mark.parametrize("edges", [
        [], [0.0], [[0.0, 1.0]],                      # fewer than 2 edges, or not 1-d
        [0.0, np.nan], [-np.inf, 0.0], [0.0, 1.0, np.inf],  # not finite
        [1.0, 0.0], [0.0, 0.5, 0.5, 1.0], [0.0, 2.0, 1.0],  # not strictly increasing
    ])
    def test_invalid_edges_rejected(self, edges):
        with pytest.raises(ValueError, match="strictly increasing"):
            adaptive_quad(np.exp, edges)


class TestBatchedBisection:
    def test_narrow_peak_in_few_rounds(self, monkeypatch):
        # A Gaussian of width 1e-3 off every initial edge and abscissa: its
        # mass is resolved only by many bisections around the peak.
        center, width = 0.1234567, 1e-3
        calls, bisections = [], []
        original = _integrate._eval_panels

        def counting(f, lo, hi, weight):
            calls.append(lo.size)
            bisections.append(int(np.sum(weight < 0)))
            return original(f, lo, hi, weight)

        monkeypatch.setattr(_integrate, "_eval_panels", counting)
        f = lambda x: np.exp(-((x - center) / width) ** 2)
        val = adaptive_quad(f, np.linspace(-1.0, 1.0, 17), abs_tol=1e-15, rel_tol=1e-12)
        assert val == pytest.approx(width * math.sqrt(math.pi), rel=1e-11)
        assert len(calls) < sum(bisections)
        assert max(bisections) <= _integrate._ROUND_PANELS


def max_rule(over):
    """The round target before the summed one: the largest excess alone."""
    return np.max(over)


def rounds_and_value(f, edges, monkeypatch, rule=None, **kwargs):
    """(number of _eval_panels calls, result) of one adaptive_quad run, under
    the given round target or the integrator's own."""
    calls = []
    original = _integrate._eval_panels

    def counting(f, lo, hi, weight):
        calls.append(lo.size)
        return original(f, lo, hi, weight)

    with monkeypatch.context() as patch:
        patch.setattr(_integrate, "_eval_panels", counting)
        if rule is not None:
            patch.setattr(_integrate, "_round_target", rule)
        value = adaptive_quad(f, edges, **kwargs)
    return len(calls), value


class TestRoundRule:
    def test_disjoint_errors_take_fewer_rounds(self, monkeypatch):
        # Two narrow peaks, one per component, far apart: the panels that
        # carry one component's error carry none of the other's.  Covering
        # the summed excess refines both peaks in each round; covering the
        # largest excess alone serves them one after the other.
        def f(x):
            return np.array([np.exp(-((x - c) / 1e-3) ** 2) for c in (-0.6172, 0.4321)])

        edges = np.linspace(-1.0, 1.0, 17)
        kwargs = dict(abs_tol=1e-15, rel_tol=1e-12)
        summed, got = rounds_and_value(f, edges, monkeypatch, **kwargs)
        largest, want = rounds_and_value(f, edges, monkeypatch, max_rule, **kwargs)
        assert summed < largest
        assert got == pytest.approx(want, rel=1e-11)
        assert got == pytest.approx(np.full(2, 1e-3 * math.sqrt(math.pi)), rel=1e-11)

    def test_one_component_unchanged_bitwise(self, monkeypatch):
        # For one component the summed and the largest excess are the same
        # number, so each round pops the same panels.
        f = lambda x: np.exp(-((x - 0.1234567) / 1e-3) ** 2)
        edges = np.linspace(-1.0, 1.0, 17)
        kwargs = dict(abs_tol=1e-15, rel_tol=1e-12)
        summed, got = rounds_and_value(f, edges, monkeypatch, **kwargs)
        largest, want = rounds_and_value(f, edges, monkeypatch, max_rule, **kwargs)
        assert summed == largest > 3
        assert got.tobytes() == want.tobytes()
