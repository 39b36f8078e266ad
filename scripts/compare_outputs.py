#!/usr/bin/env python3
"""Compare two output trees of emdsm runs.

For every run directory (one holding a report.json) under dir_a, and each
index or map CSV in it, print the max |value difference| against the same
file under dir_b, and whether the report.json entry of that grid has the
same argmax location, the same local-maxima locations and the same
sweep_info (group order, orbits, kernel pairs, chunks, threads).  Each
synthesized data file (scattered_incident*.csv, exact and _noisy) is
compared the same way, over its real and imaginary field parts.  Exits
non-zero when a difference exceeds --tol, a file's coordinates (and
quadrature weights), argmax, maxima or sweep_info differ, or a file of
dir_a is missing from dir_b.

    python scripts/compare_outputs.py out/before out/after --tol 1e-12
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np


def _entries(report_path: Path) -> dict:
    """report.json's index entries keyed by the stem of their exported files:
    index_<label with ':' as '_'> for index grids, map_<name> for cross:<name>."""
    out = {}
    for entry in json.loads(report_path.read_text())["indices"]:
        label = entry["label"]
        stem = f"map_{label[6:]}" if label.startswith("cross:") else f"index_{label.replace(':', '_')}"
        out[stem] = entry
    return out


def _load_pair(path_a: Path, path_b: Path, n_fixed: int, failures: list[str]):
    """Both CSVs as arrays, or None, with the failure added, when path_b is
    missing or the first n_fixed columns of the two differ."""
    if not path_b.exists():
        failures.append(f"{path_b}: missing")
        return None
    a = np.loadtxt(path_a, delimiter=",", skiprows=1, ndmin=2)
    b = np.loadtxt(path_b, delimiter=",", skiprows=1, ndmin=2)
    if a.shape != b.shape or not np.array_equal(a[:, :n_fixed], b[:, :n_fixed]):
        failures.append(f"{path_a.name}: coordinates differ")
        return None
    return a, b


def compare_run(run_a: Path, run_b: Path, tol: float) -> tuple[list[str], list[str]]:
    """Lines to print and failures for one pair of run directories."""
    lines, failures = [], []
    if not (run_b / "report.json").exists():
        return lines, [f"{run_b}: no report.json"]
    for path_a in sorted(run_a.glob("scattered_incident*.csv")):
        # x1..xd and w, then Re and Im of each field component
        with open(path_a) as fh:
            n_fixed = sum(name.startswith("x") for name in fh.readline().split(",")) + 1
        pair = _load_pair(path_a, run_b / path_a.name, n_fixed, failures)
        if pair is None:
            continue
        delta = float(np.abs(pair[0][:, n_fixed:] - pair[1][:, n_fixed:]).max())
        lines.append(f"{path_a.name}: max |delta| {delta:.2e}")
        if delta > tol:
            failures.append(f"{path_a.name}: max |delta| {delta:.2e} > {tol:g}")
    entries_a, entries_b = _entries(run_a / "report.json"), _entries(run_b / "report.json")
    for path_a in sorted([*run_a.glob("index_*.csv"), *run_a.glob("map_*.csv")]):
        pair = _load_pair(path_a, run_b / path_a.name, -1, failures)
        if pair is None:
            continue
        a, b = pair
        delta = float(np.abs(a[:, -1] - b[:, -1]).max())
        entry_a, entry_b = entries_a.get(path_a.stem), entries_b.get(path_a.stem)
        if entry_a is None or entry_b is None:
            failures.append(f"{path_a.name}: no report entry")
            continue
        same_argmax = entry_a["argmax"]["location"] == entry_b["argmax"]["location"]
        maxima_a = [m["location"] for m in entry_a["maxima"]]
        same_maxima = maxima_a == [m["location"] for m in entry_b["maxima"]]
        same_sweep = entry_a.get("sweep_info") == entry_b.get("sweep_info")
        lines.append(f"{path_a.name}: max |delta| {delta:.2e}, "
                     f"argmax {'same' if same_argmax else 'DIFFERS'}, "
                     f"{len(maxima_a)} maxima {'same' if same_maxima else 'DIFFER'}, "
                     f"sweep_info {'same' if same_sweep else 'DIFFERS'}")
        if delta > tol:
            failures.append(f"{path_a.name}: max |delta| {delta:.2e} > {tol:g}")
        if not (same_argmax and same_maxima):
            failures.append(f"{path_a.name}: argmax or maxima differ")
        if not same_sweep:
            failures.append(f"{path_a.name}: sweep_info differs: {entry_a.get('sweep_info')} "
                            f"against {entry_b.get('sweep_info')}")
    return lines, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--tol", type=float, default=1e-12, help="largest allowed |value difference|")
    args = parser.parse_args()
    runs = sorted(path.parent for path in args.dir_a.rglob("report.json"))
    if not runs:
        print(f"{args.dir_a}: no report.json found", file=sys.stderr)
        return 1
    failures = []
    for run_a in runs:
        lines, run_failures = compare_run(run_a, args.dir_b / run_a.relative_to(args.dir_a), args.tol)
        label = run_a.relative_to(args.dir_a)
        print("\n".join(f"{label}/{line}" for line in lines))
        failures += [f"{label}: {f}" for f in run_failures]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(runs)} runs compared, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
