"""Workload inputs, bodies and correctness checks of the hermscale benchmark.

Three workloads, each stressing a different layer of the package:

* ``tails``    -- the table2 transition roots and the fig4 slope-change sweeps
                  for ``algebraic(h)``; time goes to the Bessel-K tail oracle.
* ``grids``    -- two ``l2_discrete`` sweeps of ``algebraic(1)`` (closed-form
                  tails) over N = 200..1000; time goes to collocation grids and
                  Vandermonde builds.
* ``fullline`` -- full-line ``h1_solution`` and ``l2_projection`` sweeps up to
                  N = 1024; time goes to huge off-grid basis matrices inside the
                  adaptive integrator.

Seed 0 is exactly the reference parameter set.  Other seeds jitter every h
and N inside its own stratum of the same range, so each seed does about the
same amount of work.  The package only ever sees the generated inputs.

An operation is one root, one sweep point or one fig4 slope-change location.
It fails when it raises a ``HermscaleError``, when its record is flagged or
non-finite, or when a correctness check on it fails.

Run ``python3 benchmarks/workloads.py --write-reference`` to regenerate
``reference_seed0.json`` from the current package.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference_seed0.json"

WORKLOADS = ("tails", "grids", "fullline")

# Reference parameter set (seed 0).
TAILS_H = (1.5, 2.0, 2.5, 3.0)
FIG4_N = (4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256, 362, 512)
GRIDS_N = tuple(range(200, 1001, 40))
GRIDS_SCHEDULES = ("constant(5)", "logsqrt(30)")
FULLLINE_N = (64, 128, 256, 512, 1024)
FULLLINE_MEASURES = ("h1_solution", "l2_projection")
ROOT_BRACKET = (1.0, 200.0)

# Published table2 roots; fig4 half-widths sqrt(2 N_break) must sit within a
# factor of two of them.
PAPER_ROOTS = {1.5: 5.92, 2.0: 11.1, 2.5: 16.7, 3.0: 22.5}
PAPER_ROOT_TOL = 0.5
PAPER_RATIO_RANGE = (0.5, 2.0)

# Comparison against the values stored from the reference commit, no tighter
# than each number is promised: full-line norms come from adaptive quadrature
# at rel_tol 1e-9 (and projection coefficients at abs tol 1e-11); discrete
# norms, tails and roots are deterministic up to summation order.
FULL_LINE_TOL = (1e-6, 1e-9)   # (rtol, atol)
DISCRETE_TOL = (1e-8, 1e-13)
ROOT_ABS_TOL = 1e-6
BREAK_RTOL = 1e-6
# transition_point bisects down to this bracket width.
ROOT_WIDTH = 1e-3


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Plain-data inputs of one workload; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    if size not in ("full", "tiny"):
        raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
    rng = random.Random(seed)
    jitter = seed != 0
    if workload == "tails":
        hs = [round(h + rng.uniform(-0.2, 0.2), 3) if jitter else h for h in TAILS_H]
        ns = _jitter_log_grid(FIG4_N, rng, 0.2) if jitter else list(FIG4_N)
        if size == "tiny":
            hs, ns = hs[1:2], ns[:9]
        return {"workload": workload, "h": hs, "n": ns}
    if workload == "grids":
        shift = rng.randint(-8, 8) if jitter else 0
        ns = [n + shift for n in GRIDS_N]
        schedules = list(GRIDS_SCHEDULES)
        if size == "tiny":
            ns, schedules = [n // 10 for n in ns[:5]], schedules[1:]
        return {"workload": workload, "n": ns, "schedules": schedules}
    ns = [round(n * 2.0 ** -rng.uniform(0.0, 0.03)) if jitter else n
          for n in FULLLINE_N]
    if size == "tiny":
        ns = [n // 4 for n in ns[:2]]
    return {"workload": workload, "n": ns, "measures": list(FULLLINE_MEASURES)}


def _jitter_log_grid(ns, rng, amount):
    """Move each N by up to `amount` of its log2 half-step, keeping order."""
    out = []
    for n in ns:
        m = max(2, round(n * 2.0 ** (0.5 * rng.uniform(-amount, amount))))
        out.append(max(m, out[-1] + 1) if out else m)
    return out


def prepare(cli, inputs: dict) -> dict:
    """Sweep configs and catalog ids built (and validated) ahead of timing."""
    workload = inputs["workload"]
    roots, sweeps = [], []
    if workload == "tails":
        for h in inputs["h"]:
            ident = f"algebraic({h:g})"
            cli.catalog_entry(ident)
            roots.append((h, ident))
            sweeps.append((f"fig4_h{h:g}", h, cli.SweepConfig(
                function=ident, n_values=tuple(inputs["n"]),
                schedule="constant(1)", measure="l2_discrete")))
    elif workload == "grids":
        for schedule in inputs["schedules"]:
            sweeps.append((schedule, None, cli.SweepConfig(
                function="algebraic(1)", n_values=tuple(inputs["n"]),
                schedule=schedule, measure="l2_discrete")))
    else:
        for measure in inputs["measures"]:
            sweeps.append((measure, None, cli.SweepConfig(
                function="algebraic(1)", n_values=tuple(inputs["n"]),
                schedule="logsqrt(30)", measure=measure)))
    return {"workload": workload, "roots": roots, "sweeps": sweeps}


def run(cli, errors, prepared: dict) -> list:
    """One pass of the workload body through the package's cli module.

    Returns one tuple (kind, key, value, extra) per operation: value is the
    result or the exception the package raised; extra is the sweep's measure
    for a point and the swept N range for a slope change.
    """
    ops = []
    for h, ident in prepared["roots"]:
        try:
            value = cli.transition_point(cli.catalog_entry(ident), ROOT_BRACKET)
        except errors.HermscaleError as exc:
            value = exc
        ops.append(("root", f"{h:g}", value, None))
    for label, h, config in prepared["sweeps"]:
        try:
            records = cli.run_sweep(config)
        except errors.HermscaleError as exc:
            records = None
            ops.extend(("point", f"{label}:{n}", exc, config.measure)
                       for n in config.n_values)
        else:
            ops.extend(("point", f"{label}:{r.n}",
                        (r.beta, r.error, r.breakdown.spatial,
                         r.breakdown.frequency, r.breakdown.hermite, r.flag),
                        config.measure) for r in records)
        if h is not None:
            try:
                if records is None:
                    raise ValueError("no records: the sweep raised")
                value = cli.detect_slope_change(records)
            except ValueError as exc:
                value = exc
            ops.append(("break", f"{h:g}", value,
                        (config.n_values[0], config.n_values[-1])))
    return ops


def _close(value, ref, rtol, atol):
    return abs(value - ref) <= rtol * abs(ref) + atol


class Checker:
    """Correctness checks on ops; the root sign-change check is memoised so
    it runs once per distinct root, outside any timed or traced region."""

    def __init__(self, cli, inputs: dict, seed: int, size: str):
        self.cli = cli
        self.seed0 = seed == 0 and size == "full"
        self.reference = (json.loads(REFERENCE_FILE.read_text())[inputs["workload"]]
                          if self.seed0 else None)
        self._sign_ok = {}

    def failures(self, ops) -> list:
        """(op key, reason) for every op that failed."""
        out = []
        for kind, key, value, extra in ops:
            reason = (value if isinstance(value, BaseException)
                      else getattr(self, f"_check_{kind}")(key, value, extra))
            if reason:
                out.append((f"{kind}:{key}", str(reason)))
        return out

    def _ref(self, kind, key):
        if self.reference is None:
            return None
        ref = self.reference.get(f"{kind}:{key}")
        if ref is None:
            raise KeyError(f"reference value for {kind}:{key} missing")
        return ref

    def _check_point(self, key, value, measure):
        *numbers, flag = value
        if flag:
            return f"flagged: {flag}"
        if not all(math.isfinite(v) for v in numbers):
            return f"non-finite record {numbers}"
        ref = self._ref("point", key)
        if ref is not None:
            rtol, atol = (DISCRETE_TOL if measure == "l2_discrete"
                          else FULL_LINE_TOL)
            tols = [(1e-12, 0.0), (rtol, atol)] + [DISCRETE_TOL] * 3
            for name, v, r, (rt, at) in zip(
                    ("beta", "error", "spatial", "frequency", "hermite"),
                    numbers, ref, tols):
                if not _close(v, r, rt, at):
                    return f"{name} {v!r} differs from reference {r!r}"
        return None

    def _check_root(self, key, root, _):
        lo, hi = ROOT_BRACKET
        if not (math.isfinite(root) and lo < root < hi):
            return f"root {root!r} outside bracket {ROOT_BRACKET}"
        if not self._sign_change(key, root):
            return f"tail difference does not change sign around {root!r}"
        ref = self._ref("root", key)
        if ref is not None:
            paper = PAPER_ROOTS[float(key)]
            if abs(root - paper) > PAPER_ROOT_TOL:
                return f"root {root:.4f} not within {PAPER_ROOT_TOL} of {paper}"
            if abs(root - ref) > ROOT_ABS_TOL:
                return f"root {root!r} differs from reference {ref!r}"
        return None

    def _sign_change(self, key, root):
        memo = (key, root)
        if memo not in self._sign_ok:
            u = self.cli.catalog_entry(f"algebraic({key})")
            f = [u.spatial_tail(c) - u.frequency_tail(c)
                 for c in (root - ROOT_WIDTH, root + ROOT_WIDTH)]
            self._sign_ok[memo] = f[0] * f[1] <= 0.0
        return self._sign_ok[memo]

    def _check_break(self, key, n_break, n_range):
        if not (math.isfinite(n_break) and n_range[0] <= n_break <= n_range[1]):
            return f"slope change {n_break!r} outside the swept range {n_range}"
        ref = self._ref("break", key)
        if ref is not None:
            ratio = math.sqrt(2.0 * n_break) / PAPER_ROOTS[float(key)]
            if not PAPER_RATIO_RANGE[0] <= ratio <= PAPER_RATIO_RANGE[1]:
                return f"half-width ratio {ratio:.3f} outside {PAPER_RATIO_RANGE}"
            if not _close(n_break, ref, BREAK_RTOL, 0.0):
                return f"slope change {n_break!r} differs from reference {ref!r}"
        return None


def reference_values(ops) -> dict:
    out = {}
    for kind, key, value, _ in ops:
        if isinstance(value, BaseException):
            raise RuntimeError(f"{kind}:{key} failed: {value}")
        out[f"{kind}:{key}"] = list(value[:-1]) if kind == "point" else value
    return out


def _write_reference():
    import sys
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from hermscale import cli, errors
    table = {}
    for workload in WORKLOADS:
        prepared = prepare(cli, make_inputs(workload, 0))
        table[workload] = reference_values(run(cli, errors, prepared))
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true", required=True)
    parser.parse_args()
    _write_reference()
