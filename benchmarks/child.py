"""One benchmark child process: set up one workload, run it, report.

    python3 benchmarks/child.py --workload tails --seed 0 --seconds 20 \
        --mode {setup,measure,trace} [--size tiny] [--spans PATH]

``setup`` stops once the inputs are ready; ``measure`` runs the body untraced
until ``--seconds`` have passed; ``trace`` alternates untraced and traced
passes (at least one and two).  Every mode runs in a fresh interpreter so
import cost and peak memory belong to this workload alone.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def monotonic() -> float:
    """System-wide clock, comparable with the parent's spawn time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", help="write the last traced pass's spans here")
    args = parser.parse_args(argv)

    if not (SRC / "hermscale" / "__init__.py").is_file():
        print(f"error: no hermscale package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from hermscale import cli, errors
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: imported hermscale from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    prepared = workloads.prepare(cli, inputs)
    report = {"ready": monotonic(), "inputs": inputs}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    checker = workloads.Checker(cli, inputs, args.seed, args.size)
    attempted, failures = 0, []

    def timed_pass(tracer=None):
        nonlocal attempted
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            ops = workloads.run(cli, errors, prepared)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        attempted += len(ops)
        failures.extend(checker.failures(ops))
        return wall

    # Warm-up pass, checked but not timed: first-touch page faults and lazy
    # library set-up would otherwise land on the first sample only.
    last = timed_pass()
    begin = monotonic()

    def time_left():
        """Whether another pass as long as the last one fits the window."""
        return monotonic() - begin + last <= args.seconds

    if args.mode == "measure":
        walls = [last := timed_pass()]
        while time_left():
            walls.append(last := timed_pass())
        report["walls"] = walls
    else:
        from tracer import EXACT_REPEAT, Tracer
        untraced, traced, tracers = [], [], []
        while len(traced) < 2 or not untraced or time_left():
            if len(untraced) <= len(traced):
                untraced.append(last := timed_pass())
            else:
                tracers.append(Tracer())
                traced.append(last := timed_pass(tracers[-1]))
        per_pass = [t.metrics() for t in tracers]
        per_layer = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            per_layer[name] = (values[0] if len(set(values)) == 1
                               else None if None in values
                               else statistics.median(values))
        per_layer["trace.overhead_frac"] = (statistics.median(traced)
                                            / statistics.median(untraced) - 1.0)
        mismatched = [name for name in EXACT_REPEAT
                      if len({m.get(name) for m in per_pass}) != 1]
        report.update(walls=untraced, traced_walls=traced, per_layer=per_layer,
                      repeat_mismatch=mismatched)
        if args.spans:
            tracers[-1].write_spans(args.spans)

    report.update(attempted=attempted, failed=len(failures),
                  failures=failures[:20], provenance=provenance(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  * 1024 / 1e6)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
