"""Scan the full-line measures of a source tree over a fixed grid, and compare
two scans.

    python3 tools/scan.py [ROOT] --out FILE
    python3 tools/scan.py --diff A B [--rtol R]

ROOT is the repository root of the tree to scan (default: the tree holding
this script); the scan imports ROOT/src and writes only FILE.  The grid:

* the nine catalog entries of ENTRIES (those of ``_GRADED_NAMES`` in
  tests/test_operators.py);
* N in NS;
* beta = 1, and beta = beta* * 2**(j/4) for j = -8..8, where beta* is
  balance_scaling(u, N, BRACKET) (when it raises, only beta = 1 is run).

At each point three measures run: ``projection_error``, ``residual_l2`` of
the interpolant and the H1 ``solution_error`` of the Galerkin solution (as a
``h1_solution`` sweep point computes it).  FILE gets one JSON line per
measure and point: its status ("value", "ValueError" or "AccuracyError"),
the value as ``float.hex`` (its exact bytes), the error's ``achieved`` and
the wall time in seconds.  Points are keyed by (entry, N, beta label), so two
trees whose beta* differ in the last bits still pair up.

``--diff A B`` prints every point whose status differs, every value that
moved by more than R relative (default 0: any change of bytes), and per file
the number of raising points and their summed time.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

ENTRIES = ("algebraic(1)", "algebraic(1.5)", "algebraic(2.5)", "plain_gaussian(0.5)",
           "plain_gaussian(2)", "gaussian(0,0)", "gaussian(2,1)", "gaussian_power(2)",
           "gaussian_power(4)")
NS = (16, 32, 64, 128, 256, 512)
STEPS = range(-8, 9)  # beta* * 2**(j/4)
BRACKET = (1e-3, 1e3)


def measures(hs, galerkin):
    """(name, function of (u, basis)) of the three scanned measures."""
    def h1(u, basis):
        problem = galerkin.manufactured_problem(u, 1.0)
        return galerkin.solution_error(galerkin.solve(problem, basis), u)["h1"]

    return (("projection_error", hs.projection_error),
            ("interpolation_l2", lambda u, b: hs.residual_l2(u, hs.interpolate(u, b))),
            ("h1_solution", h1))


def timed(accuracy_error, fn, *args):
    """(status, value as hex or None, achieved, seconds) of one call."""
    start = time.perf_counter()
    try:
        value, status, achieved = fn(*args), "value", None
    except accuracy_error as exc:
        value, status, achieved = None, "AccuracyError", exc.achieved
    except ValueError:
        value, status, achieved = None, "ValueError", None
    seconds = time.perf_counter() - start
    return status, None if value is None else float(value).hex(), achieved, seconds


def scan(root: Path, out: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    import hermscale as hs
    from hermscale import galerkin
    from hermscale.errors import AccuracyError, HermscaleError
    scanned = measures(hs, galerkin)
    with out.open("w") as fh:
        for name in ENTRIES:
            u = hs.catalog_entry(name)
            for n in NS:
                betas = [("1", 1.0)]
                try:
                    star = hs.balance_scaling(u, n, BRACKET)
                    betas += [(f"j={j}", star * 2.0 ** (j / 4)) for j in STEPS]
                except HermscaleError:
                    pass
                for label, beta in betas:
                    basis = hs.ScaledBasis(n, beta)
                    for measure, fn in scanned:
                        status, value, achieved, seconds = timed(AccuracyError, fn, u, basis)
                        fh.write(json.dumps({
                            "entry": name, "n": n, "beta_label": label, "beta": beta.hex(),
                            "measure": measure, "status": status, "value": value,
                            "achieved": achieved, "seconds": round(seconds, 4)}) + "\n")


def load(path):
    records = {}
    for line in Path(path).read_text().splitlines():
        r = json.loads(line)
        records[r["entry"], r["n"], r["beta_label"], r["measure"]] = r
    return records


def diff(a_path, b_path, rtol: float) -> int:
    a, b = load(a_path), load(b_path)
    changed = 0
    for key in sorted(a.keys() | b.keys(), key=str):
        ra, rb = a.get(key), b.get(key)
        if ra is None or rb is None or ra["status"] != rb["status"]:
            print("status", key, *(r and (r["status"], r["value"] and float.fromhex(r["value"]))
                                   for r in (ra, rb)))
            changed += 1
        elif ra["value"] is not None and ra["value"] != rb["value"]:
            va, vb = float.fromhex(ra["value"]), float.fromhex(rb["value"])
            if abs(va - vb) > rtol * max(abs(va), abs(vb)):
                print(f"value  {key} {va!r} -> {vb!r} ({abs(va - vb) / abs(va):.2e} rel)")
                changed += 1
    for path, records in ((a_path, a), (b_path, b)):
        raising = [r["seconds"] for r in records.values() if r["status"] == "AccuracyError"]
        total = math.fsum(r["seconds"] for r in records.values())
        print(f"{path}: {len(records)} results, {len(raising)} AccuracyError in "
              f"{math.fsum(raising):.2f} s, {total:.2f} s in all")
    return 1 if changed else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--out", help="JSON-lines file to write the scan to")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two scans")
    parser.add_argument("--rtol", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff, args.rtol)
    if not args.out:
        parser.error("give --out FILE or --diff A B")
    scan(Path(args.root).resolve(), Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
