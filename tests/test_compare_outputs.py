"""scripts/compare_outputs.py on two trees of runs of the same configs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from emdsm import harness

from .test_harness import small_config_dict

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _load_script()


def _run_tree(root: Path) -> None:
    """A small 2D scattering run (20 % noise) and fig2 on a coarse grid."""
    raw = small_config_dict(outputs={"directory": str(root / "small")}, noise={"epsilon": 0.2, "seed": 1})
    harness.run_experiment(harness.config_from_dict(raw, name="small"))
    fig2 = harness.preset("fig2", out=str(root / "fig2"), sampling_spacing=0.1)
    harness.run_experiment(fig2)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Trees a and b, each from its own runs."""
    root = tmp_path_factory.mktemp("trees")
    for tree in ("a", "b"):
        _run_tree(root / tree)
    return root


@pytest.fixture
def trees(runs, tmp_path):
    """Copies of trees a and b that a test may edit."""
    for tree in ("a", "b"):
        shutil.copytree(runs / tree, tmp_path / tree)
    return tmp_path / "a", tmp_path / "b"


def _compare(a: Path, b: Path, capsys, *flags: str) -> tuple[int, str, str]:
    code = compare_outputs.main([str(a), str(b), "--tol", "1e-12", *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _edit_report(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_identical_trees_pass(trees, capsys):
    code, out, err = _compare(*trees, capsys)
    assert code == 0, err
    assert "2 runs compared, 0 failures" in out
    for name in ("small/index_combined.csv", "small/scattered_incident1_noisy.csv",
                 "fig2/map_polarization_sum.csv"):
        assert f"{name}: max |delta| 0.00e+00, bytes same" in out
    assert "small/index_combined.pgm: bytes same" in out
    assert "small/config same" in out and "fig2/config same" in out
    solve = json.loads((trees[0] / "small" / "report.json").read_text())["solver_info"][0]
    iterations, residual = solve["iterations"], f"{solve['residual']:.3e}"
    assert f"small/solve 1: GMRES {iterations} iterations, residual {residual} against {iterations}, {residual}" in out
    code, _, err = _compare(*trees, capsys, "--bytes")
    assert code == 0, err


def test_changed_index_value_fails(trees, capsys):
    a, b = trees
    path = b / "small" / "index_combined.csv"
    lines = path.read_text().splitlines(keepends=True)
    *coords, value = lines[5].rstrip("\n").split(",")
    lines[5] = ",".join(coords + ["%.17g" % (float(value) + 1e-9)]) + "\n"
    path.write_text("".join(lines))
    code, _, err = _compare(a, b, capsys)
    assert code == 1
    assert "index_combined.csv: max |delta| 1.00e-09 > 1e-12" in err


def test_byte_differences_printed_and_failed_under_bytes(trees, capsys):
    a, b = trees
    path = b / "small" / "index_combined.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines[1:], 1) if "." in line.rsplit(",", 1)[1])
    lines[row] = lines[row].replace("\n", "0\n")  # the same value in other bytes
    path.write_text("".join(lines))
    pgm = b / "fig2" / "map_polarization_sum.pgm"
    blob = bytearray(pgm.read_bytes())
    blob[-1] ^= 1
    pgm.write_bytes(bytes(blob))
    code, out, err = _compare(a, b, capsys)
    assert code == 0, err
    assert "small/index_combined.csv: max |delta| 0.00e+00, bytes differ" in out
    assert "fig2/map_polarization_sum.pgm: bytes differ" in out
    assert "small/index_combined.pgm: bytes same" in out
    code, out, err = _compare(a, b, capsys, "--bytes")
    assert code == 1
    assert "2 runs compared, 2 failures" in out
    assert "small: index_combined.csv: bytes differ" in err
    assert "fig2: map_polarization_sum.pgm: bytes differ" in err


def test_changed_maxima_fail(trees, capsys):
    a, b = trees
    _edit_report(b / "small" / "report.json",
                 lambda report: report["indices"][-1]["maxima"][0]["location"].reverse())
    code, _, err = _compare(a, b, capsys)
    assert code == 1
    assert "combined: argmax or maxima differ" in err


def test_how_a_sweep_ran_is_printed_not_failed(trees, capsys):
    # the worker count follows the machine: the same program on more cores
    a, b = trees

    def more_threads(report):
        for entry in report["indices"]:
            entry["sweep_info"]["threads"] += 2

    _edit_report(b / "small" / "report.json", more_threads)
    code, out, err = _compare(a, b, capsys)
    assert code == 0, err
    assert "2 runs compared, 0 failures" in out
    combined = next(line for line in out.splitlines() if line.startswith("small/combined: "))
    assert "sweep same, ran {'chunks': 1, 'threads': 1, " in combined
    assert "against {'chunks': 1, 'threads': 3, " in combined


def test_how_the_forward_run_ran_is_printed_not_failed(trees, capsys):
    # like the sweep's, the forward run's worker count follows the machine
    a, b = trees

    def more_threads(report):
        for solve in report["solver_info"]:
            solve["threads"] += 2

    _edit_report(b / "small" / "report.json", more_threads)
    solve = json.loads((a / "small" / "report.json").read_text())["solver_info"][0]
    threads, pinned = solve["threads"], solve["blas_pinned"]
    code, out, err = _compare(a, b, capsys)
    assert code == 0, err
    assert "2 runs compared, 0 failures" in out
    line = next(line for line in out.splitlines() if line.startswith("small/solve 1: "))
    assert line.endswith(f", ran {{'threads': {threads}, 'blas_pinned': {pinned}}} "
                         f"against {{'threads': {threads + 2}, 'blas_pinned': {pinned}}}")


def test_changed_sweep_computation_fails(trees, capsys):
    a, b = trees
    _edit_report(b / "small" / "report.json", lambda report: report["indices"][-1]["sweep_info"].update(orbits=1))
    code, _, err = _compare(a, b, capsys)
    assert code == 1
    assert "combined: sweep_info differs" in err


def test_how_the_synthesis_ran_is_printed_not_failed(trees, capsys):
    a, b = trees
    _edit_report(b / "small" / "report.json", lambda report: report["synthesis_info"].update(threads=3))
    info = json.loads((a / "small" / "report.json").read_text())["synthesis_info"]
    code, out, err = _compare(a, b, capsys)
    assert code == 0, err
    assert "small/synthesis same, ran {'chunks': " in out and "'threads': 3, " in out
    # the square allows the y flip: the circle's 2 points on the x axis and 14 pairs
    assert (info["group_order"], info["orbits"]) == (2, 16)
    assert info["grid_pairs"] * 16 == info["kernel_pairs"] * 30
    # fig2 has no synthesis, which is recorded as null; a reference without the record fails
    assert "fig2/synthesis same" in out
    _edit_report(b / "small" / "report.json", lambda report: report.pop("synthesis_info"))
    code, out, err = _compare(a, b, capsys)
    assert code == 1
    assert "small/synthesis MISSING" in out
    assert "FAIL small: synthesis_info missing from the reference" in err


def test_synthesis_missing_where_the_reference_has_it_fails(trees, golden, capsys):
    a, b = trees
    _edit_report(a / "small" / "report.json", lambda report: report.pop("synthesis_info"))
    code, _, err = _compare(a, b, capsys)
    assert code == 1
    assert "FAIL small: synthesis_info missing" in err
    code, _, err = _against_golden(a, golden, capsys)
    assert code == 1
    assert "FAIL small: synthesis_info missing" in err
    # so does a golden file without it
    _edit_report(golden, lambda record: record["runs"]["small"].pop("synthesis_info"))
    code, _, err = _against_golden(b, golden, capsys)
    assert code == 1
    assert "FAIL small: synthesis_info missing from the reference" in err


@pytest.mark.parametrize("key", compare_outputs.COMPUTATION)
def test_changed_synthesis_computation_fails(trees, golden, capsys, key):
    a, b = trees
    _edit_report(b / "small" / "report.json",
                 lambda report: report["synthesis_info"].update({key: report["synthesis_info"][key] + 1}))
    code, _, err = _compare(a, b, capsys)
    assert code == 1
    assert "small: synthesis_info differs" in err
    code, _, err = _against_golden(b, golden, capsys)
    assert code == 1
    assert "small: synthesis_info differs" in err


@pytest.mark.parametrize("edit, failure", [
    (lambda solve: solve.update(iterations=solve["iterations"] + 1), "solve 1: GMRES iterations differ"),
    (lambda solve: solve.update(residual=solve["residual"] + 1e-9), "solve 1: residual differs by 1.00e-09 > 1e-12"),
], ids=["iterations", "residual"])
def test_changed_forward_solve_fails(trees, capsys, edit, failure):
    a, b = trees
    _edit_report(b / "small" / "report.json", lambda report: edit(report["solver_info"][0]))
    code, _, err = _compare(a, b, capsys)
    assert code == 1
    assert failure in err


def test_changed_config_echo_fails(trees, capsys):
    # the trees were written to different directories, which is no difference
    a, b = trees
    _edit_report(b / "small" / "report.json", lambda report: report["config"]["shapes"][0].update(kind="square_ring"))
    code, out, err = _compare(a, b, capsys)
    assert code == 1
    assert "small/config DIFFERS" in out
    assert "small: config echo differs" in err


def test_changed_off_peak_ratio_fails(trees, capsys):
    a, b = trees
    _edit_report(b / "fig2" / "report.json",
                 lambda report: report["indices"][-1].update(
                     off_peak_ratio=report["indices"][-1]["off_peak_ratio"] + 1e-9))
    code, _, err = _compare(a, b, capsys)
    assert code == 1
    assert "fig2: cross:polarization_sum: off_peak_ratio differs by 1.00e-09 > 1e-12" in err


def test_missing_map_reported(trees, capsys):
    a, b = trees
    (b / "fig2" / "map_polarization_1.csv").unlink()
    code, _, err = _compare(a, b, capsys)
    assert code == 1
    assert f"{b / 'fig2' / 'map_polarization_1.csv'}: missing" in err


def test_runs_missing_from_either_tree_fail(trees, capsys):
    a, b = trees
    for run in ("small", "fig2"):
        shutil.copytree(b / run, b / f"{run}_again")
    for first, second in ((a, b), (b, a)):
        code, _, err = _compare(first, second, capsys)
        assert code == 1
        assert f"fig2_again: no report.json under {a}" in err and f"small_again: no report.json under {a}" in err
        assert err.count("FAIL") == 2


VERIFY = [{"kind": "trace", "passed": True,
           "checks": [{"name": "trace_2d", "value": 1e-15, "threshold": 1e-11, "passed": True}]}]


@pytest.fixture
def golden(trees, monkeypatch, capsys):
    """Tree a's golden file, with VERIFY standing for the verify results."""
    monkeypatch.setattr(compare_outputs, "verify_results", lambda: json.loads(json.dumps(VERIFY)))
    path = trees[0].parent / "golden.json"
    assert compare_outputs.main([str(trees[0]), "--write-golden", str(path)]) == 0
    assert "2 runs written to" in capsys.readouterr().out
    return path


def _against_golden(tree: Path, golden: Path, capsys) -> tuple[int, str, str]:
    code = compare_outputs.main([str(tree), "--golden", str(golden), "--tol", "1e-12"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_of_one_tree_passes_the_other(trees, golden, capsys):
    code, out, err = _against_golden(trees[1], golden, capsys)
    assert code == 0, err
    assert "2 runs compared, 0 failures" in out
    assert "the golden file's, so outputs compare by sha256 and values exactly" in out
    for name in ("small/index_combined.csv", "small/scattered_incident1_noisy.csv", "fig2/map_polarization_sum.pgm"):
        assert f"{name}: sha256 same" in out
    assert "small/config same" in out and "fig2/cross:polarization_sum: argmax same" in out
    assert "verify trace: same" in out


def test_golden_names_the_run_and_file_that_moved(trees, golden, capsys):
    path = trees[1] / "small" / "scattered_incident1_noisy.csv"
    path.write_text(path.read_text().replace("e-", "E-", 1))  # the same values in other bytes
    code, out, err = _against_golden(trees[1], golden, capsys)
    assert code == 1
    assert "small/scattered_incident1_noisy.csv: sha256 differs" in out
    assert "FAIL small: scattered_incident1_noisy.csv: sha256 differs" in err
    assert "2 runs compared, 1 failures" in out


def test_golden_fails_a_moved_value_or_a_missing_run(trees, golden, capsys):
    _edit_report(trees[1] / "small" / "report.json",
                 lambda report: report["indices"][-1]["argmax"].update(value=report["indices"][-1]["argmax"]["value"]
                                                                       + 1e-16))
    shutil.rmtree(trees[1] / "fig2")
    code, _, err = _against_golden(trees[1], golden, capsys)
    assert code == 1
    assert "small: combined: argmax or maxima values differ by 1.11e-16 > 0" in err
    assert "fig2: no report.json" in err


def test_golden_under_other_versions_compares_values_within_tol(trees, golden, monkeypatch, capsys):
    _edit_report(golden, lambda record: record.update(numpy="1.0.0"))
    pgm = trees[1] / "fig2" / "map_polarization_sum.pgm"
    pgm.write_bytes(pgm.read_bytes()[:-1] + b"\0")
    monkeypatch.setattr(compare_outputs, "verify_results",
                        lambda: [{**VERIFY[0], "checks": [{**VERIFY[0]["checks"][0], "value": 2e-15}]}])
    code, out, err = _against_golden(trees[1], golden, capsys)
    assert code == 0, err
    assert "the golden file has numpy 1.0.0" in out and "sha256" not in out
    _edit_report(trees[1] / "small" / "report.json",
                 lambda report: report["solver_info"][0].update(residual=report["solver_info"][0]["residual"] + 1e-9))
    monkeypatch.setattr(compare_outputs, "verify_results",
                        lambda: [{**VERIFY[0], "checks": [{**VERIFY[0]["checks"][0], "passed": False}]}])
    code, _, err = _against_golden(trees[1], golden, capsys)
    assert code == 1
    assert "small: solve 1: residual differs by 1.00e-09 > 1e-12" in err
    assert "verify trace: trace_2d: name, threshold, pass or value shape differs" in err


def test_golden_and_second_tree_are_exclusive(trees, golden):
    with pytest.raises(SystemExit):
        compare_outputs.main([str(trees[0])])
    with pytest.raises(SystemExit):
        compare_outputs.main([str(trees[0]), str(trees[1]), "--golden", str(golden)])
