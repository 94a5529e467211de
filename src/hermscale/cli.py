"""Experiment harness: convergence sweeps, order fits, transition location,
and reproduction of the reference tables/figures.

Exit codes: 0 success, 2 comparison failure, 3 usage error, 4 numerical
accuracy failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from . import galerkin
from .basis import N_MAX_LIMIT, ScaledBasis, _check_index
from .errors import AccuracyError, BracketError, HermscaleError
from .fourier import TestFunction, _parse_call, catalog_entry
from .operators import (ErrorBreakdown, _bisect, error_breakdown,
                        projection_error, residual_l2, transition_point)
# compute_grid stays bound here: benchmarks/tracer.py patches it in every
# module that binds it, and benchmarks/test_smoke.py reads cli.compute_grid.
from .quadrature import N_MAX_GRID, compute_grid  # noqa: F401

CSV_HEADER = "n,beta,error,e_spatial,e_frequency,e_hermite"

# l2_solution / h1_solution are full-line norms by adaptive quadrature;
# l2_discrete is the collocation-grid norm the reference tables are stated
# in (it cannot see mass outside the collocation interval).
MEASURES = ("l2_solution", "l2_projection", "h1_solution", "l2_discrete")

# Reference convergence orders for the algebraic family, fit over
# N = 200..400: constant beta = 5 versus the beta = 30/sqrt(N) schedule.
TABLE1_ORDERS = {
    "constant(5)": {1.0: 0.940, 1.4: 1.32, 1.8: 1.70, 2.2: 2.07, 2.6: 2.45, 3.0: 2.83},
    "logsqrt(30)": {1.0: 2.04, 1.4: 2.83, 1.8: 3.62, 2.2: 4.41, 2.6: 5.20, 3.0: 5.99},
}
# Reference roots of the tail-balance function at cutoff sqrt(2N).
TABLE2_ROOTS = {1.5: 5.92, 2.0: 11.1, 2.5: 16.7, 3.0: 22.5}


@dataclass(frozen=True)
class SweepConfig:
    """One convergence sweep: a catalog function, a scaling schedule applied
    at every truncation index, and the error measure to record."""

    function: str
    n_values: tuple
    schedule: str
    gamma: float = 1.0
    measure: str = "l2_solution"
    output: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "function", self.function.strip())
        object.__setattr__(self, "schedule", self.schedule.strip())
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}, got {self.measure}")
        limit = N_MAX_LIMIT if self.measure == "l2_projection" else N_MAX_GRID
        ns = tuple(_check_index(n, limit) for n in self.n_values)
        if not ns or any(n < 2 for n in ns) or any(
                b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be strictly increasing integers >= 2")
        object.__setattr__(self, "n_values", ns)
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        catalog_entry(self.function)  # ValueError on an id it cannot build
        schedule = parse_schedule(self.schedule, self.function)
        for n in ns:
            try:
                beta = schedule(n)
            except OverflowError:
                beta = math.inf
            ScaledBasis(n, beta)

    @classmethod
    def from_settings(cls, settings: dict) -> "SweepConfig":
        """Config from text settings keyed by flag name; absent optional
        settings keep the field defaults."""
        unknown = sorted(set(settings) - set(_SETTINGS))
        if unknown:
            raise ValueError(f"unknown sweep settings: {unknown}")
        missing = [k for k in ("function", "n", "schedule") if k not in settings]
        if missing:
            raise ValueError(f"missing required sweep settings: {missing}")
        return cls(**{_SETTINGS[k][0]: _SETTINGS[k][1](v)
                      for k, v in settings.items()})


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    beta: float
    error: float
    breakdown: ErrorBreakdown
    flag: str = ""


def parse_config_text(text: str) -> dict:
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line {raw!r}; expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_n_list(text: str) -> tuple:
    """'200:400:20' (inclusive range) or '32,64,128'."""
    text = text.strip()
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ValueError(f"malformed range {text!r}; expected lo:hi[:step]")
        if step < 1 or hi < lo:
            raise ValueError(f"malformed range {text!r}")
        if hi > N_MAX_LIMIT:
            raise ValueError(f"range {text!r} exceeds the limit N={N_MAX_LIMIT}")
        return tuple(range(lo, hi + 1, step))
    return tuple(int(p) for p in text.split(","))


# Flag name and config-file key -> (SweepConfig field, conversion from text).
_SETTINGS = {"function": ("function", str), "n": ("n_values", parse_n_list),
             "schedule": ("schedule", str), "gamma": ("gamma", float),
             "measure": ("measure", str), "out": ("output", str)}


def parse_schedule(text: str, function: str) -> Callable[[int], float]:
    """Scaling schedules: constant(c), power(c, p) -> c*N**p,
    logsqrt(c) -> c/sqrt(N), hlog(c) -> c*h*ln(N)/sqrt(N), h read from the
    catalog id text `function`, which must be algebraic(h)."""
    name, args = _parse_call(text, "schedule")
    if any(a <= 0 for a in args):
        raise ValueError(f"schedule parameters must be positive in {text!r}")

    if name == "constant" and len(args) == 1:
        return lambda n: args[0]
    if name == "power" and len(args) == 2:
        return lambda n: args[0] * n ** args[1]
    if name == "logsqrt" and len(args) == 1:
        return lambda n: args[0] / math.sqrt(n)
    if name == "hlog" and len(args) == 1:
        family, params = _parse_call(function, "catalog id")
        if family != "algebraic" or len(params) != 1:
            raise ValueError(f"hlog schedule needs an algebraic-decay function, "
                             f"got {function}")
        h = params[0]
        return lambda n: args[0] * h * math.log(n) / math.sqrt(n)
    raise ValueError(f"unknown schedule {text!r}; expected constant(c), "
                     "power(c,p), logsqrt(c) or hlog(c)")


def _measure_error(u: TestFunction, basis: ScaledBasis,
                   problem: Optional[galerkin.ModelProblem],
                   measure: str) -> float:
    if measure == "l2_projection":
        return projection_error(u, basis)
    if measure == "l2_discrete":
        return galerkin._discrete_point(problem, u, basis)[1]
    coeffs = galerkin.solve(problem, basis)
    if measure == "h1_solution":
        return galerkin.solution_error(coeffs, u)["h1"]
    return residual_l2(u, coeffs)


def run_sweep(config: SweepConfig) -> list:
    """One record per truncation index; deterministic; optionally writes CSV."""
    u = catalog_entry(config.function)
    schedule = parse_schedule(config.schedule, config.function)
    problem = (None if config.measure == "l2_projection"
               else galerkin.manufactured_problem(u, config.gamma))
    records = []
    for n in config.n_values:
        beta = schedule(n)
        basis = ScaledBasis(n, beta)
        breakdown = error_breakdown(u, basis)
        try:
            error = _measure_error(u, basis, problem, config.measure)
            flag = ""
        except AccuracyError as exc:
            error, flag = math.nan, f"accuracy: {exc}"
        records.append(ConvergenceRecord(n, beta, error, breakdown, flag))
    if config.output:
        write_csv(config.output, records)
    return records


def _csv_text(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        b = r.breakdown
        lines.append(f"{r.n},{r.beta:.17e},{r.error:.17e},"
                     f"{b.spatial:.17e},{b.frequency:.17e},{b.hermite:.17e}")
    return "\n".join(lines) + "\n"


def write_csv(path, records) -> None:
    Path(path).write_text(_csv_text(records))


def read_csv(path) -> list:
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing expected header {CSV_HEADER!r}")
    records = []
    for line in text[1:]:
        n, beta, error, e_s, e_f, e_h = line.split(",")
        records.append(ConvergenceRecord(
            int(n), float(beta), float(error),
            ErrorBreakdown(float(e_s), float(e_f), float(e_h))))
    return records


@dataclass(frozen=True)
class FitResult:
    rate: float
    r2: float


def _least_squares_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    res = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(res ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2, res


def _usable(records, floor: float, at_least: int):
    """N and log error of the unflagged records with finite error > floor."""
    pts = [(r.n, r.error) for r in records
           if not r.flag and np.isfinite(r.error) and r.error > floor]
    if len(pts) < at_least:
        raise ValueError(f"need at least {at_least} usable records, got {len(pts)}")
    ns, errors = np.array(pts, dtype=float).T
    return ns, np.log(errors)


def fit_order(records, model: str = "algebraic", floor: float = 0.0) -> FitResult:
    """Convergence-order fit.

    model='algebraic': slope of log error against log N (rate positive for
    decay); model='exp_power(g)': slope of log error against N**g.  Records
    with error <= floor are excluded: once a sweep saturates at the
    double-precision noise floor its points carry no order information.
    """
    exponent = None
    if model.strip() != "algebraic":
        name, args = _parse_call(model, "fit model")
        if name != "exp_power" or len(args) != 1 or args[0] <= 0:
            raise ValueError(f"unknown fit model {model!r}; expected algebraic "
                             "or exp_power(g) with g > 0")
        exponent = args[0]
    ns, log_e = _usable(records, floor, 4)
    with np.errstate(over="ignore"):
        x = np.log(ns) if exponent is None else ns ** exponent
    if not np.all(np.isfinite(x)):
        raise ValueError(f"fit model {model!r} overflows at N={ns.max():g}")
    slope, _, r2, _ = _least_squares_fit(x, log_e)
    return FitResult(rate=-slope, r2=r2)


def detect_slope_change(records) -> float:
    """Location where sub-geometric decay hands over to algebraic decay.

    Fits log error as c1 - r1*sqrt(N) on the left and c2 - r2*log(N) on the
    right of every admissible breakpoint, keeps the split with the smallest
    total squared residual, and returns the N where the two fits intersect.
    """
    ns, log_e = _usable(records, 0.0, 8)

    best = None
    for i in range(3, len(ns) - 3):
        s1, c1, _, res1 = _least_squares_fit(np.sqrt(ns[:i + 1]), log_e[:i + 1])
        s2, c2, _, res2 = _least_squares_fit(np.log(ns[i:]), log_e[i:])
        ssr = float(res1 @ res1 + res2 @ res2)
        if best is None or ssr < best[0]:
            best = (ssr, i, s1, c1, s2, c2)
    _, i, s1, c1, s2, c2 = best

    def gap(n):
        return (s1 * math.sqrt(n) + c1) - (s2 * math.log(n) + c2)

    try:
        return _bisect(gap, ns[0], ns[-1], lambda lo, hi: 1e-3 * lo, "fit gap")[0]
    except BracketError:
        return math.sqrt(ns[i] * ns[i + 1])  # fits never cross: report the split


# ---------------------------------------------------------------------------
# reproduction targets: each yields (passed, text) for every check


def _sweep_to(out_dir: Path, name: str, **kwargs) -> list:
    config = SweepConfig(output=str(out_dir / f"{name}.csv"), **kwargs)
    return run_sweep(config)


def reproduce_table1(out_dir: Path) -> Iterator[tuple]:
    # The reference orders are stated in the collocation-grid norm: the
    # full-line L2 error instead follows the theoretical rates N^(1/4-h)
    # and N^(1/2-2h), which sit well below these table values.
    n_values = tuple(range(200, 401, 20))
    for schedule, expected in TABLE1_ORDERS.items():
        tag = "beta5" if schedule.startswith("constant") else "beta30sqrt"
        for h, ref in expected.items():
            records = _sweep_to(out_dir, f"table1_h{h:g}_{tag}",
                                function=f"algebraic({h:g})",
                                n_values=n_values, schedule=schedule,
                                measure="l2_discrete")
            fit = fit_order(records, "algebraic")
            yield (abs(fit.rate - ref) <= 0.15,
                   f"table1 h={h:g} {schedule}: order {fit.rate:.3f} "
                   f"(reference {ref}, tolerance 0.15, R2 {fit.r2:.4f})")


def reproduce_table2(out_dir: Path) -> Iterator[tuple]:
    lines = ["h,root"]
    for h, ref in TABLE2_ROOTS.items():
        root = transition_point(catalog_entry(f"algebraic({h:g})"), (1.0, 200.0))
        lines.append(f"{h:g},{root:.17e}")
        yield (abs(root - ref) <= 0.5,
               f"table2 h={h:g}: root {root:.3f} (reference {ref}, "
               "tolerance 0.5)")
    (out_dir / "table2.csv").write_text("\n".join(lines) + "\n")


def reproduce_fig12(out_dir: Path) -> Iterator[tuple]:
    """Both scaling choices for exp(-x**8): fixed scale shows the
    sub-geometric rate, the power schedule restores a geometric rate.

    The tuned schedule hits the double-precision floor around N ~ 120;
    saturated points are excluded from the order fits (floor=1e-13).  The
    fixed-scale errors oscillate around their trend (grid nodes sweeping
    through the sharp features of the right-hand side), so the fit grid is
    kept coarse enough not to chase the oscillation.
    """
    n_values = tuple(range(32, 257, 32))
    flat = _sweep_to(out_dir, "fig1_beta1", function="gaussian_power(4)",
                     n_values=n_values, schedule="constant(1)",
                     measure="l2_discrete")
    tuned = _sweep_to(out_dir, "fig2_beta_n38", function="gaussian_power(4)",
                      n_values=n_values, schedule="power(1,0.375)",
                      measure="l2_discrete")
    fit_flat = fit_order(flat, f"exp_power({4.0 / 7.0})", floor=1e-13)
    fit_tuned = fit_order(tuned, "exp_power(1)", floor=1e-13)
    yield (fit_flat.r2 > 0.95,
           f"fig1 beta=1: exp(-c*N^(4/7)) fit R2 {fit_flat.r2:.4f} > 0.95 "
           f"(rate {fit_flat.rate:.4f})")
    yield (fit_tuned.r2 > 0.95,
           f"fig2 beta=N^(3/8): geometric fit R2 {fit_tuned.r2:.4f} > 0.95 "
           f"(rate {fit_tuned.rate:.4f})")
    e_flat = {r.n: r.error for r in flat}
    e_tuned = {r.n: r.error for r in tuned}
    yield (e_tuned[128] <= 0.1 * e_flat[128],
           f"fig2 at N=128: {e_tuned[128]:.3e} <= 0.1 * {e_flat[128]:.3e}")


def reproduce_fig3(out_dir: Path) -> Iterator[tuple]:
    n_values = (16, 32, 64, 96, 128, 192, 256)
    flat = _sweep_to(out_dir, "fig3_beta1", function="algebraic(1)",
                     n_values=n_values, schedule="constant(1)",
                     measure="l2_discrete")
    tuned = _sweep_to(out_dir, "fig3_beta10sqrt", function="algebraic(1)",
                      n_values=n_values, schedule="logsqrt(10)",
                      measure="l2_discrete")
    for rf, rt in zip(flat, tuned):
        if rf.n >= 64:
            yield (rt.error < rf.error,
                   f"fig3 N={rf.n}: beta=10/sqrt(N) error {rt.error:.3e} "
                   f"< beta=1 error {rf.error:.3e}")


def reproduce_fig4(out_dir: Path) -> Iterator[tuple]:
    n_values = (4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256, 362, 512)
    for h, ref in TABLE2_ROOTS.items():
        records = _sweep_to(out_dir, f"fig4_h{h:g}",
                            function=f"algebraic({h:g})",
                            n_values=n_values, schedule="constant(1)",
                            measure="l2_discrete")
        n_break = detect_slope_change(records)
        half_width = math.sqrt(2.0 * n_break)
        ratio = half_width / ref
        yield (0.5 <= ratio <= 2.0,
               f"fig4 h={h:g}: slope change at N={n_break:.1f}, "
               f"half-width {half_width:.2f} vs root {ref} "
               f"(ratio {ratio:.2f} within [0.5, 2])")


_TARGETS = {
    "table1": reproduce_table1,
    "table2": reproduce_table2,
    "fig1": reproduce_fig12,
    "fig2": reproduce_fig12,
    "fig3": reproduce_fig3,
    "fig4": reproduce_fig4,
}


def reproduce(target: str, out_dir) -> int:
    """Run one target, writing a PASS/FAIL line per check to stdout and
    <target>_summary.txt; returns 0 if every check passes, else 2."""
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}; known: {sorted(_TARGETS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = list(_TARGETS[target](out_dir))
    lines = [f"{'PASS' if ok else 'FAIL'}  {text}" for ok, text in checks]
    (out_dir / f"{target}_summary.txt").write_text("\n".join(lines) + "\n")
    print(*lines, sep="\n")
    return 0 if all(ok for ok, _ in checks) else 2


# ---------------------------------------------------------------------------
# command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermscale",
        description="Scaled Hermite approximation experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a convergence sweep, write CSV")
    sweep.add_argument("--function", help="catalog id, e.g. algebraic(1.5)")
    sweep.add_argument("--n", help="truncation indices: lo:hi[:step] or comma list")
    sweep.add_argument("--schedule",
                       help="constant(c): c | power(c,p): c*N^p | logsqrt(c): c/sqrt(N), "
                       "no logarithm | hlog(c): c*h*ln(N)/sqrt(N)")
    sweep.add_argument("--gamma", help="reaction coefficient of -u'' + gamma*u = f")
    sweep.add_argument("--measure", help=" | ".join(MEASURES))
    sweep.add_argument("--out", help="CSV output path")
    sweep.add_argument("--config", help="key=value file overriding the flags")

    fit = sub.add_parser("fit", help="fit a convergence order to a sweep CSV")
    fit.add_argument("--csv", required=True)
    fit.add_argument("--model", default="algebraic",
                     help="algebraic | exp_power(g)")

    trans = sub.add_parser("transition", help="locate the tail-balance root")
    trans.add_argument("--function", default="algebraic")
    trans.add_argument("--h", type=float, required=True)

    rep = sub.add_parser("reproduce", help="reproduce a reference table/figure")
    rep.add_argument("target", choices=sorted(_TARGETS))
    rep.add_argument("--out", default="reproduce_out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 3

    try:
        if args.command == "sweep":
            settings = {k: getattr(args, k) for k in _SETTINGS
                        if getattr(args, k) is not None}
            if args.config:
                settings.update(parse_config_text(Path(args.config).read_text()))
            config = SweepConfig.from_settings(settings)
            records = run_sweep(config)
            if not config.output:
                print(_csv_text(records), end="")
            flagged = [r for r in records if r.flag]
            for r in flagged:
                print(f"warning: N={r.n} flagged: {r.flag}", file=sys.stderr)
            return 4 if len(flagged) == len(records) else 0
        if args.command == "fit":
            fit = fit_order(read_csv(args.csv), args.model)
            print(f"rate={fit.rate:.6f} r2={fit.r2:.6f}")
            return 0
        if args.command == "transition":
            u = catalog_entry(f"{args.function}({args.h!r})")
            root = transition_point(u, (1.0, 200.0))
            print(f"{u.id}: tail-balance root {root:.4f} (nearest integer {round(root)})")
            return 0
        if args.command == "reproduce":
            return reproduce(args.target, args.out)
        raise AssertionError("unreachable")
    except HermscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
