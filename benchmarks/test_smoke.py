"""Smoke tests of the benchmark itself, at a tiny input size.

    python3 -m pytest -q benchmarks/test_smoke.py

Not part of the package's test suite (``testpaths`` is ``tests``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"),
                           *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_workload_names_match_the_spec():
    assert tuple(WORKLOAD_NAMES) == workloads.WORKLOADS


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
        assert workloads.make_inputs(name, 7) != workloads.make_inputs(name, 8)
    seed0 = workloads.make_inputs("tails", 0)
    assert seed0["h"] == list(workloads.TAILS_H)
    assert seed0["n"] == list(workloads.FIG4_N)
    assert workloads.make_inputs("grids", 0)["n"] == list(workloads.GRIDS_N)
    assert workloads.make_inputs("fullline", 0)["n"] == list(workloads.FULLLINE_N)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", WORKLOAD_NAMES[0], "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == b""


@pytest.fixture
def package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hermscale
        from hermscale import cli
        yield hermscale, cli
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_tracer_restores_originals_and_marks_missing_names_absent(package,
                                                                  monkeypatch):
    hermscale, cli = package
    monkeypatch.setitem(tracer.TARGETS, "basis.renamed_away",
                        ("basis", "renamed_away"))
    before = cli.compute_grid, hermscale.quadrature.compute_grid
    t = tracer.Tracer()
    with t:
        assert cli.compute_grid is not before[0]
        records = cli.run_sweep(cli.SweepConfig(
            function="algebraic(1)", n_values=(8, 12), schedule="constant(1)",
            measure="l2_discrete"))
    assert (cli.compute_grid, hermscale.quadrature.compute_grid) == before
    metrics = t.metrics()
    assert metrics["basis.renamed_away.calls"] is None
    assert metrics["quadrature.compute_grid.calls"] == 2
    assert metrics["cli.points"] == len(records) == 2
    # One Vandermonde matrix for the solve and one for the discrete error.
    assert metrics["basis.values"] == 2 * (9 * 9 + 13 * 13)
    roots = sum(end - start for _, start, end, parent in t.spans if parent < 0)
    self_total = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and v is not None)
    assert self_total == pytest.approx(roots, rel=1e-9)
