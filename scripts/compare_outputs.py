#!/usr/bin/env python3
"""Compare two output trees of emdsm runs, or one tree against a golden file.

For every run directory (one holding a report.json) under dir_a or dir_b,
each file named in dir_a's report.json's output_files is compared against
the same file under dir_b; a run that only one tree has is a failure.  A
CSV's max |value difference| is printed: an index or map grid's values, or
the synthesized data's (scattered_incident*.csv, exact and _noisy) real and
imaginary field parts.  Every compared file, CSV or PGM, is
also printed with whether its bytes are the same.  For each grid entry it is
printed whether dir_b's entry of the same label has the same argmax
location, the same local-maxima locations and the same sweep computation
(sweep_info's group order, orbits, kernel pairs and grid pairs), and for
each run whether the synthesis's synthesis_info has the same computation.
How each sweep or synthesis ran (its chunks, worker threads and BLAS pin)
follows the CPUs the run may use, so it is printed where it differs, not
failed.  Each forward solve of solver_info is printed with its GMRES
iterations and final relative residual in both trees; how the forward run
ran (its worker threads and BLAS pin) is printed where it differs, not
failed, as for the sweep.  The reports' config echoes are compared less
outputs.directory, which only says where each tree was written.  Exits
non-zero when a difference exceeds --tol, a file's coordinates (and
quadrature weights), argmax, maxima, sweep or synthesis computation differ,
either report has no synthesis_info, an argmax, maxima or off_peak_ratio
value differs by more than --tol, the config echoes differ, the trees'
forward solves differ in number or GMRES iterations or their residuals
differ by more than --tol, a file's bytes differ under --bytes, a file of
dir_a is missing from dir_b, or a run is missing from either tree.

A golden file holds, per run of a tree, the sha256 of each output and the
report values compared above, plus `emdsm verify all --json` less seconds and
the numpy and scipy versions.  --write-golden writes one, running the verify
kinds; --golden compares dir_a against one by the same rules.  Under the
golden file's versions each output must keep its sha256 and each value,
verify values included, must be the same; under other versions the outputs
are not compared and the values must agree within --tol.  Both modes import
emdsm, so run them with src on PYTHONPATH.

    python scripts/compare_outputs.py out/after out/before --tol 1e-12
    python scripts/compare_outputs.py out/after out/before --bytes
    python scripts/compare_outputs.py out/after --golden tests/golden_outputs.json
    python scripts/compare_outputs.py out/after --write-golden tests/golden_outputs.json
"""

import argparse
import copy
import filecmp
import hashlib
import itertools
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


def _compare_info(name: str, info_a: dict | None, info_b: dict | None, failures: list[str]) -> str:
    """'same' or 'DIFFERS' for the computation of two SweepInfo records, plus
    how each ran where that differs; a computation difference is a failure."""
    info_a, info_b = info_a or {}, info_b or {}
    computation_a, computation_b = ({key: info.get(key) for key in COMPUTATION} for info in (info_a, info_b))
    ran_a, ran_b = ({key: info[key] for key in info if key not in COMPUTATION} for info in (info_a, info_b))
    if computation_a != computation_b:
        failures.append(f"{name} differs: {computation_a} against {computation_b}")
    return (("same" if computation_a == computation_b else "DIFFERS")
            + ("" if ran_a == ran_b else f", ran {ran_a} against {ran_b}"))


def _computation(info: dict | None) -> dict | None:
    """The computation fields of a SweepInfo record."""
    return None if info is None else {key: info[key] for key in COMPUTATION}


def _compare_reports(report_a: dict, report_b: dict, tol: float, failures: list[str]) -> list[str]:
    """Lines for the config echoes, forward solves and grid entries of two
    reports, or of golden records, which keep only these; report_b is the
    reference, dir_b's or the golden file's.  Failures are added."""
    entries_b = {entry["label"]: entry for entry in report_b["indices"]}
    same_config = _config_echo(report_a) == _config_echo(report_b)
    if not same_config:
        failures.append("config echo differs")
    lines = [f"config {'same' if same_config else 'DIFFERS'}"]
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
    if "synthesis_info" not in report_a or "synthesis_info" not in report_b:
        failures.append("synthesis_info missing" + ("" if "synthesis_info" not in report_a else " from the reference"))
        lines.append("synthesis MISSING")
    else:
        lines.append("synthesis " + _compare_info("synthesis_info", report_a["synthesis_info"],
                                                  report_b["synthesis_info"], failures))
    labels_a = {entry["label"] for entry in report_a["indices"]}
    failures += [f"{label}: not in this report" for label in entries_b if label not in labels_a]
    for entry_a in report_a["indices"]:
        label, entry_b = entry_a["label"], entries_b.get(entry_a["label"])
        if entry_b is None:
            failures.append(f"{label}: no report entry")
            continue
        same_argmax = entry_a["argmax"]["location"] == entry_b["argmax"]["location"]
        maxima_a = [m["location"] for m in entry_a["maxima"]]
        same_maxima = maxima_a == [m["location"] for m in entry_b["maxima"]]
        sweep = _compare_info(f"{label}: sweep_info", entry_a.get("sweep_info"), entry_b.get("sweep_info"), failures)
        lines.append(f"{label}: argmax {'same' if same_argmax else 'DIFFERS'}, "
                     f"{len(maxima_a)} maxima {'same' if same_maxima else 'DIFFER'}, sweep {sweep}")
        if not (same_argmax and same_maxima):
            failures.append(f"{label}: argmax or maxima differ")
        else:
            delta = max(abs(a["value"] - b["value"]) for a, b in zip(
                [entry_a["argmax"], *entry_a["maxima"]], [entry_b["argmax"], *entry_b["maxima"]]))
            if delta > tol:
                failures.append(f"{label}: argmax or maxima values differ by {delta:.2e} > {tol:g}")
        if "off_peak_ratio" in entry_a:
            delta = abs(entry_a["off_peak_ratio"] - entry_b.get("off_peak_ratio", math.inf))
            if delta > tol:
                failures.append(f"{label}: off_peak_ratio differs by {delta:.2e} > {tol:g}")
    return lines


def compare_run(run_a: Path, run_b: Path, tol: float, exact: bool) -> tuple[list[str], list[str]]:
    """Lines to print and failures for one pair of run directories."""
    report_a = json.loads((run_a / "report.json").read_text())
    report_b = json.loads((run_b / "report.json").read_text())
    failures = []
    lines = [_compare_file(run_a / name, run_b / name, tol, exact, failures) for name in _output_names(report_a)]
    lines += _compare_reports(report_a, report_b, tol, failures)
    return [line for line in lines if line], failures


def _runs(tree: Path) -> list[Path]:
    """The run directories under tree, those holding a report.json, relative to tree."""
    return sorted(path.parent.relative_to(tree) for path in tree.rglob("report.json"))


def _output_names(report: dict) -> list[str]:
    """The names of the files a run wrote besides its report.json."""
    return [Path(path).name for path in report["output_files"]]


def _versions() -> dict:
    import scipy

    return {"numpy": np.__version__, "scipy": scipy.__version__}


def verify_results() -> list[dict]:
    """`emdsm verify all --json` less each kind's seconds."""
    from emdsm.checks import VERIFY_KINDS, verify

    results = [{key: value for key, value in verify(kind).items() if key != "seconds"} for kind in VERIFY_KINDS]
    return json.loads(json.dumps(results))


def golden_record(run: Path) -> dict:
    """What the golden file keeps of one run: the sha256 of each output, and
    the report values that _compare_reports compares, less how the run ran."""
    report = json.loads((run / "report.json").read_text())
    return {
        "sha256": {name: hashlib.sha256((run / name).read_bytes()).hexdigest() for name in _output_names(report)},
        "config": _config_echo(report),
        "solver_info": [{key: solve[key] for key in ("iterations", "residual")} for solve in report["solver_info"]],
        "synthesis_info": _computation(report["synthesis_info"]),
        "indices": [{**{key: entry[key] for key in ("label", "argmax", "maxima", "off_peak_ratio") if key in entry},
                     "sweep_info": _computation(entry["sweep_info"])}
                    for entry in report["indices"]],
    }


def golden(tree: Path) -> dict:
    """The golden file of a tree: the library versions, the verify results and
    each run's record, by its directory relative to tree."""
    return {**_versions(), "verify": verify_results(),
            "runs": {str(run): golden_record(tree / run) for run in _runs(tree)}}


def _compare_verify(results_a: list[dict], results_b: list[dict], tol: float, failures: list[str]) -> list[str]:
    """Lines for two lists of verify results; each check's name, threshold and
    pass must be the same and its value within tol.  Failures are added."""
    if [r["kind"] for r in results_a] != [r["kind"] for r in results_b]:
        failures.append(f"verify kinds differ: {[r['kind'] for r in results_a]} against {[r['kind'] for r in results_b]}")
    lines = []
    for result_a, result_b in zip(results_a, results_b):
        kind, failed = result_a["kind"], len(failures)
        for check_a, check_b in itertools.zip_longest(result_a["checks"], result_b["checks"], fillvalue={}):
            name = check_a.get("name", check_b.get("name"))
            if any(check_a.get(key) != check_b.get(key) for key in ("name", "threshold", "passed")) or (
                    np.shape(check_a["value"]) != np.shape(check_b["value"])):
                failures.append(f"verify {kind}: {name}: name, threshold, pass or value shape differs")
                continue
            delta = float(np.abs(np.subtract(check_a["value"], check_b["value"])).max())
            if delta > tol:
                failures.append(f"verify {kind}: {name}: value differs by {delta:.2e} > {tol:g}")
        lines.append(f"verify {kind}: {'same' if len(failures) == failed else 'DIFFERS'}")
    return lines


def compare_golden(tree: Path, golden_file: dict, tol: float) -> tuple[list[str], list[str]]:
    """Lines to print and failures for a tree against a golden file.  Under the
    golden file's numpy and scipy versions, each output must have its sha256
    and every value must be the same; under others, the outputs are not
    compared and the values are compared within tol."""
    versions = _versions()
    same_versions = all(golden_file[name] == version for name, version in versions.items())
    if same_versions:
        tol = 0.0
    lines = ["numpy {numpy}, scipy {scipy}: ".format(**versions)
             + ("the golden file's, so outputs compare by sha256 and values exactly" if same_versions else
                "the golden file has numpy {numpy}, scipy {scipy}, so values compare within --tol "
                "and outputs not at all".format(**golden_file))]
    failures = []
    runs = {str(run) for run in _runs(tree)}
    failures += [f"{run}: not in the golden file" for run in sorted(runs - set(golden_file["runs"]))]
    for run, record in golden_file["runs"].items():
        if run not in runs:
            failures.append(f"{run}: no report.json")
            continue
        try:
            fresh = golden_record(tree / run)
        except KeyError as exc:  # the report lacks a value the golden file keeps
            failures.append(f"{run}: {exc.args[0]} missing")
            continue
        run_failures = []
        for name in sorted(fresh["sha256"].keys() - record["sha256"].keys()):
            run_failures.append(f"{name}: not in the golden file")
        for name, digest in record["sha256"].items():
            if name not in fresh["sha256"]:
                run_failures.append(f"{name}: missing")
            elif same_versions:
                same = fresh["sha256"][name] == digest
                lines.append(f"{run}/{name}: sha256 {'same' if same else 'differs'}")
                if not same:
                    run_failures.append(f"{name}: sha256 differs")
        lines += [f"{run}/{line}" for line in _compare_reports(fresh, record, tol, run_failures)]
        failures += [f"{run}: {f}" for f in run_failures]
    lines += _compare_verify(golden_file["verify"], verify_results(), tol, failures)
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path, nargs="?", help="the tree to compare against, unless a golden file")
    parser.add_argument("--tol", type=float, default=1e-12, help="largest allowed |value difference|")
    parser.add_argument("--bytes", action="store_true", help="fail when any compared file's bytes differ")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--golden", type=Path, help="compare dir_a against this golden file")
    mode.add_argument("--write-golden", type=Path, help="write dir_a's golden file here")
    args = parser.parse_args(argv)
    if (args.dir_b is None) == (args.golden is None and args.write_golden is None):
        parser.error("give either dir_b, or --golden or --write-golden")
    runs = _runs(args.dir_a)
    if not runs:
        print(f"{args.dir_a}: no report.json found", file=sys.stderr)
        return 1
    if args.write_golden:
        args.write_golden.write_text(json.dumps(golden(args.dir_a), indent=1) + "\n")
        print(f"{len(runs)} runs written to {args.write_golden}")
        return 0
    if args.golden:
        lines, failures = compare_golden(args.dir_a, json.loads(args.golden.read_text()), args.tol)
        print("\n".join(lines))
    else:
        failures = []
        runs_b = _runs(args.dir_b)
        for label in sorted(set(runs) | set(runs_b)):
            if label not in runs or label not in runs_b:
                failures.append(f"{label}: no report.json under {args.dir_b if label in runs else args.dir_a}")
                continue
            lines, run_failures = compare_run(args.dir_a / label, args.dir_b / label, args.tol, args.bytes)
            print("\n".join(f"{label}/{line}" for line in lines))
            failures += [f"{label}: {f}" for f in run_failures]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(runs)} runs compared, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
