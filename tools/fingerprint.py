"""Fingerprint the numbers a source tree produces, to check that a change
which should leave them alone does.

    python3 tools/fingerprint.py [ROOT] > fingerprint.txt

ROOT is the repository root of the tree to fingerprint (default: the tree
holding this script), so one copy of the tool serves two trees:

    python3 tools/fingerprint.py /path/to/parent > parent.txt
    python3 tools/fingerprint.py > change.txt
    diff parent.txt change.txt

Each output line is "<sha256>  <item>":

* ``reproduce <target> (exit <code>)``: one fresh process
  ``python -m hermscale.cli reproduce <target> --out out`` per target, in
  its own temporary directory; hashes the exit code, stdout, stderr and the
  name and bytes of every file it writes.
* ``ops <workload> seed <s>``: ``repr`` of the operations one pass of
  ``benchmarks/workloads.run`` returns, for tails, grids and fullline at
  seeds 0 and 1.  It reads ``benchmarks/`` and writes nothing there.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TARGETS = ("table1", "table2", "fig1", "fig2", "fig3", "fig4")
WORKLOADS = ("tails", "grids", "fullline")
SEEDS = (0, 1)


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def reproduce(root: Path, target: str) -> tuple:
    """(exit code, stdout, stderr, sorted (name, bytes) of the output files)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "hermscale.cli", "reproduce", target, "--out", "out"],
            cwd=tmp, env=env, capture_output=True)
        out = Path(tmp, "out")
        files = sorted((str(p.relative_to(out)), p.read_bytes())
                       for p in out.rglob("*") if p.is_file())
    return proc.returncode, proc.stdout, proc.stderr, files


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
    for target in TARGETS:
        result = reproduce(root, target)
        print(f"{sha256(result)}  reproduce {target} (exit {result[0]})", flush=True)

    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in benchmarks/
    import workloads
    from hermscale import cli, errors
    for workload in WORKLOADS:
        for seed in SEEDS:
            prepared = workloads.prepare(cli, workloads.make_inputs(workload, seed))
            ops = workloads.run(cli, errors, prepared)
            print(f"{sha256(ops)}  ops {workload} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
