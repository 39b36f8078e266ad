#!/usr/bin/env python3
"""Compare two output trees of emdsm runs.

For every run directory (one holding a report.json) under dir_a, each file
named in its report.json is compared against the same file under dir_b.
Each index or map grid's entry lists its files; its CSV's max |value
difference| is printed, and whether dir_b's entry of the same label has the
same argmax location, the same local-maxima locations and the same sweep
computation (sweep_info's group order, orbits, kernel pairs and grid pairs).
How each sweep ran (its chunks, worker threads and BLAS pin) follows the
CPUs the run may use, so it is printed where it differs, not failed.
The other output_files, the synthesized data (scattered_incident*.csv, exact
and _noisy), are compared the same way over their real and imaginary field
parts.  Every compared file, CSV or PGM, is also printed with whether its
bytes are the same.  Each forward solve of solver_info is printed with its
GMRES iterations and final relative residual in both trees; how the forward
run ran (its worker threads and BLAS pin) is printed where it differs, not
failed, as for the sweep.  The reports' config echoes are compared less
outputs.directory, which only says where each tree was written.  Exits
non-zero when a difference exceeds --tol, a file's coordinates (and
quadrature weights), argmax, maxima or sweep computation differ, a map's
off_peak_ratio differs by more than --tol, the config echoes differ, the
trees' forward solves differ in number or GMRES iterations or their residuals
differ by more than --tol, a file's bytes differ under --bytes, a file of
dir_a is missing from dir_b, or dir_a's report.json lists no files per grid
(written before report.json named them: give the newer tree as dir_a).

    python scripts/compare_outputs.py out/after out/before --tol 1e-12
    python scripts/compare_outputs.py out/after out/before --bytes
"""

import argparse
import copy
import filecmp
import json
import math
import sys
from pathlib import Path

import numpy as np

# the sweep_info fields that describe what was computed; the others describe how
COMPUTATION = ("group_order", "orbits", "kernel_pairs", "grid_pairs")
# the solver_info fields that describe how the forward run ran
FORWARD_RUN = ("threads", "blas_pinned")


def _compare_file(path_a: Path, path_b: Path, tol: float, exact: bool, failures: list[str]) -> str | None:
    """The line of one file: whether its bytes are the same and, for a CSV, its
    max |value difference|; None when path_b is missing.  Failures are added."""
    if not path_b.exists():
        failures.append(f"{path_b}: missing")
        return None
    same_bytes = filecmp.cmp(path_a, path_b, shallow=False)
    bytes_line = f"bytes {'same' if same_bytes else 'differ'}"
    if exact and not same_bytes:
        failures.append(f"{path_a.name}: bytes differ")
    if path_a.suffix != ".csv":
        return f"{path_a.name}: {bytes_line}"
    with open(path_a) as fh:
        # x1..xd (and w in a data file), then the values
        n_fixed = sum(name == "w" or name.startswith("x") for name in fh.readline().split(","))
    a = np.loadtxt(path_a, delimiter=",", skiprows=1, ndmin=2)
    b = np.loadtxt(path_b, delimiter=",", skiprows=1, ndmin=2)
    if a.shape != b.shape or not np.array_equal(a[:, :n_fixed], b[:, :n_fixed]):
        failures.append(f"{path_a.name}: coordinates differ")
        return None
    delta = float(np.abs(a[:, n_fixed:] - b[:, n_fixed:]).max())
    if delta > tol:
        failures.append(f"{path_a.name}: max |delta| {delta:.2e} > {tol:g}")
    return f"{path_a.name}: max |delta| {delta:.2e}, {bytes_line}"


def _config_echo(report: dict) -> dict:
    """report's config echo less outputs.directory."""
    config = copy.deepcopy(report["config"])
    config["outputs"].pop("directory", None)
    return config


def compare_run(run_a: Path, run_b: Path, tol: float, exact: bool) -> tuple[list[str], list[str]]:
    """Lines to print and failures for one pair of run directories."""
    report_a = json.loads((run_a / "report.json").read_text())
    if any("files" not in entry for entry in report_a["indices"]):
        return [], [f"{run_a / 'report.json'}: its index entries list no files, so it was written "
                    "before report.json named them; give the newer tree first"]
    if not (run_b / "report.json").exists():
        return [], [f"{run_b}: no report.json"]
    report_b = json.loads((run_b / "report.json").read_text())
    entries_b = {entry["label"]: entry for entry in report_b["indices"]}
    grid_files = {name for entry in report_a["indices"] for name in entry["files"]}
    failures = []
    same_config = _config_echo(report_a) == _config_echo(report_b)
    if not same_config:
        failures.append("config echo differs")
    lines = [f"config {'same' if same_config else 'DIFFERS'}"]
    lines += [_compare_file(run_a / name, run_b / name, tol, exact, failures)
             for name in (Path(path).name for path in report_a["output_files"]) if name not in grid_files]
    solves_a, solves_b = report_a["solver_info"], report_b["solver_info"]
    if len(solves_a) != len(solves_b):
        failures.append(f"solver_info lists {len(solves_a)} forward solves against {len(solves_b)}")
    for n, (solve_a, solve_b) in enumerate(zip(solves_a, solves_b), 1):
        ran_a, ran_b = ({key: solve.get(key) for key in FORWARD_RUN} for solve in (solve_a, solve_b))
        lines.append(f"solve {n}: GMRES {solve_a['iterations']} iterations, residual {solve_a['residual']:.3e} "
                     f"against {solve_b['iterations']}, {solve_b['residual']:.3e}"
                     + ("" if ran_a == ran_b else f", ran {ran_a} against {ran_b}"))
        if solve_a["iterations"] != solve_b["iterations"]:
            failures.append(f"solve {n}: GMRES iterations differ")
        delta = abs(solve_a["residual"] - solve_b["residual"])
        if delta > tol:
            failures.append(f"solve {n}: residual differs by {delta:.2e} > {tol:g}")
    for entry_a in report_a["indices"]:
        label, entry_b = entry_a["label"], entries_b.get(entry_a["label"])
        if entry_b is None:
            failures.append(f"{label}: no report entry")
            continue
        lines += [_compare_file(run_a / name, run_b / name, tol, exact, failures) for name in entry_a["files"]]
        same_argmax = entry_a["argmax"]["location"] == entry_b["argmax"]["location"]
        maxima_a = [m["location"] for m in entry_a["maxima"]]
        same_maxima = maxima_a == [m["location"] for m in entry_b["maxima"]]
        info_a, info_b = entry_a.get("sweep_info") or {}, entry_b.get("sweep_info") or {}
        computation_a, computation_b = ({key: info.get(key) for key in COMPUTATION} for info in (info_a, info_b))
        ran_a, ran_b = ({key: info[key] for key in info if key not in COMPUTATION} for info in (info_a, info_b))
        lines.append(f"{label}: argmax {'same' if same_argmax else 'DIFFERS'}, "
                     f"{len(maxima_a)} maxima {'same' if same_maxima else 'DIFFER'}, "
                     f"sweep {'same' if computation_a == computation_b else 'DIFFERS'}"
                     + ("" if ran_a == ran_b else f", ran {ran_a} against {ran_b}"))
        if not (same_argmax and same_maxima):
            failures.append(f"{label}: argmax or maxima differ")
        if computation_a != computation_b:
            failures.append(f"{label}: sweep_info differs: {computation_a} against {computation_b}")
        if "off_peak_ratio" in entry_a:
            delta = abs(entry_a["off_peak_ratio"] - entry_b.get("off_peak_ratio", math.inf))
            if delta > tol:
                failures.append(f"{label}: off_peak_ratio differs by {delta:.2e} > {tol:g}")
    return [line for line in lines if line], failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--tol", type=float, default=1e-12, help="largest allowed |value difference|")
    parser.add_argument("--bytes", action="store_true", help="fail when any compared file's bytes differ")
    args = parser.parse_args(argv)
    runs = sorted(path.parent for path in args.dir_a.rglob("report.json"))
    if not runs:
        print(f"{args.dir_a}: no report.json found", file=sys.stderr)
        return 1
    failures = []
    for run_a in runs:
        lines, run_failures = compare_run(run_a, args.dir_b / run_a.relative_to(args.dir_a), args.tol, args.bytes)
        label = run_a.relative_to(args.dir_a)
        print("\n".join(f"{label}/{line}" for line in lines))
        failures += [f"{label}: {f}" for f in run_failures]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(runs)} runs compared, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
