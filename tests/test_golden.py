"""Output parity: a fresh tree of preset runs against the committed golden
file, through scripts/compare_outputs.py's comparison.

The tree holds the runs of scripts/run_all_examples.py.  example1 and
example3d (exact, and 20% noise at seed 1) are the acceptance fixtures' runs,
at their presets' own sampling spacings, 0.01 and 0.05; every other 2D run
uses spacing 0.05.  A change that moves an output on purpose rewrites the
golden file with the command the failure prints.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from emdsm import dsm, harness
from tests.test_dsm import assert_same_maxima, whole_array_maxima

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_outputs.json"
SPACING_2D = 0.05


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _load_script("compare_outputs")
run_all_examples = _load_script("run_all_examples")


@pytest.fixture(scope="module")
def preset_tree(preset_root, example1_runs, example3d_runs):
    names = run_all_examples.EXAMPLES + run_all_examples.DIAGNOSTICS
    for run, name, noise in run_all_examples.runs(names, 0.2, 1):
        if name not in ("example1", "example3d"):
            harness.run_experiment(harness.preset(name, out=str(preset_root / run), sampling_spacing=SPACING_2D,
                                                  **noise))
    return preset_root


def test_outputs_match_the_golden_file(preset_tree, capsys):
    code = compare_outputs.main([str(preset_tree), "--golden", str(GOLDEN)])
    captured = capsys.readouterr()
    assert "14 runs compared" in captured.out
    assert code == 0, (f"{captured.err}If the change moves these outputs on purpose, rewrite the golden file: "
                       f"python scripts/compare_outputs.py {preset_tree} --write-golden {GOLDEN.relative_to(ROOT)}")


def test_maxima_of_every_preset_grid_match_the_whole_array_oracle(preset_tree):
    # each exported grid, read back from its CSV, on the grid of its run's sampling
    checked = 0
    for report_path in sorted(preset_tree.glob("*/report.json")):
        report = json.loads(report_path.read_text())
        grid = dsm.sampling_grid(report["config"]["sampling"]["box"], report["config"]["sampling"]["spacing"])
        for entry in report["indices"]:
            csv = next(name for name in entry["files"] if name.endswith(".csv"))
            values = np.loadtxt(report_path.parent / csv, delimiter=",", skiprows=1, usecols=grid.dimension)
            index = dsm.IndexGrid(grid, values, entry["label"])
            assert_same_maxima(dsm.find_local_maxima(index), whole_array_maxima(index))
            checked += 1
    assert checked >= 14
