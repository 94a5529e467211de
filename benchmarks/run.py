"""Benchmark driver for hermscale.

    python3 benchmarks/run.py --workload {tails,grids,fullline} --seed 0 \
        [--seconds 30] [--trace {0,1}] [--size tiny]
    python3 benchmarks/run.py --workload all --seed 0

Run from the repository root; the package is imported from ``src/``.
``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  Each
workload runs in fresh child processes, one at a time (``child.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
wall time of the workload body, the median set-up time (interpreter start to
inputs ready) over several fresh processes, the measuring child's peak RSS
and the share of operations that passed every correctness check.
``--trace 1`` reports the per-layer metrics from a separate run that wraps
the package's public functions from outside (``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with samples and provenance, goes to ``benchmarks/results/``.
``--workload all`` prints one summary line per workload instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from child import monotonic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
# Fresh processes whose set-up is timed; the measuring child is the last.
SETUP_SAMPLES = 5
# Every run ends within this, workload body included.
RUN_DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(args, deadline) -> dict:
    """Run child.py with `args`; return its report with setup_s added."""
    start = monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                              stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args} ran past the run deadline") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args} exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    return report


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return out.stdout.decode().strip() or None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(spec, workload, seed, seconds, trace, size) -> dict:
    deadline = monotonic() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        child = spawn(common + ["--seconds", str(seconds), "--mode", "trace",
                                "--spans", str(RESULTS / f"{stem}-spans.jsonl")],
                      deadline)
        values = child["per_layer"]
        wanted = spec["per_layer"]
        setups = [child["setup_s"]]
    else:
        setups = [spawn(common + ["--seconds", "0", "--mode", "setup"],
                        deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        child = spawn(common + ["--seconds", str(seconds), "--mode", "measure"],
                      deadline)
        setups.append(child["setup_s"])
        values = {
            "wall_s": statistics.median(child["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_frac": 1.0 - child["failed"] / child["attempted"],
        }
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        metrics[m["name"]] = ({"value": value, "unit": m["unit"]} if value is not None
                              else {"value": None, "unit": m["unit"], "absent": True})
    mismatch = child.get("repeat_mismatch", [])
    result = {"correct": child["failed"] == 0 and not mismatch,
              "attempted": child["attempted"], "failed": child["failed"],
              "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, size=size, git_sha=git_sha(),
                  provenance=child["provenance"], inputs=child["inputs"],
                  walls=child["walls"], wall_quartiles=quartiles(child["walls"]),
                  traced_walls=child.get("traced_walls"), setups=setups,
                  repeat_mismatch=mismatch, failures=child["failures"])
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for key, reason in child["failures"]:
        print(f"FAIL {workload} {key}: {reason}", file=sys.stderr)
    for name in mismatch:
        print(f"FAIL {workload}: {name} differs between traced passes",
              file=sys.stderr)
    return record


def summary_line(record) -> str:
    parts = [f"{record['workload']} seed={record['seed']}"]
    for name, m in record["metrics"].items():
        if name == "wall_s":
            parts.append(f"wall_s={m['value']:.4f} {m['unit']} "
                         f"(median of {len(record['walls'])})")
        elif m["value"] is not None and name in ("setup_s", "peak_rss_mb"):
            parts.append(f"{name}={m['value']:.4f} {m['unit']}")
    parts.append(f"fail_frac={record['failed'] / record['attempted']:.4g} ratio "
                 f"({record['failed']}/{record['attempted']})")
    return "  ".join(parts)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run, no reference checks")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hermscale" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'hermscale'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    targets = names if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(spec, w, args.seed, args.seconds, args.trace,
                                args.size) for w in targets]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    provenance = dict(records[0]["provenance"], git_sha=records[0]["git_sha"],
                      seed=args.seed)
    print("provenance " + json.dumps(provenance))
    for record in records:
        print(summary_line(record))
    if args.workload == "all":
        return 0 if all(r["correct"] for r in records) else 1
    print(json.dumps({k: records[0][k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
