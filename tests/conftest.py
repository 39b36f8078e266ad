import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from emdsm import checks, em_core as em, harness


@pytest.fixture
def two_blas_threads():
    """The getter of numpy's OpenBLAS thread count, set to 2 for the test and
    restored after it; skips where the thread symbols are absent or OpenBLAS
    runs one thread only, since a pin to 1 would then not show."""
    api = em._blas_threads()
    if api is None:
        pytest.skip("numpy's OpenBLAS thread symbols are absent")
    get_threads, set_threads = api
    saved = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("OpenBLAS runs one thread here")
        yield get_threads
    finally:
        set_threads(saved)


def timed_run(config):
    start = time.perf_counter()
    report = harness.run_experiment(config)
    return report, time.perf_counter() - start


def run_python(code: str) -> None:
    """Run code in a fresh interpreter that imports emdsm from this checkout."""
    src = str(Path(em.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.fixture(scope="session")
def preset_root(tmp_path_factory):
    """The tree of preset runs, each in the directory that
    scripts/run_all_examples.py gives it: <preset>_exact, <preset>_eps0.2."""
    return tmp_path_factory.mktemp("presets")


@pytest.fixture(scope="session")
def example1_runs(preset_root, tmp_path_factory):
    """(report, seconds) of example1 exact and with 20% noise at seeds 1, 2
    and 3, by "exact" or seed; the exact run and seed 1 are preset runs."""
    runs = {"exact": timed_run(harness.preset("example1", out=str(preset_root / "example1_exact")))}
    for seed in (1, 2, 3):
        out = preset_root / "example1_eps0.2" if seed == 1 else tmp_path_factory.mktemp(f"e1_noisy{seed}")
        runs[seed] = timed_run(harness.preset("example1", noise=0.2, seed=seed, out=str(out)))
    return runs


@pytest.fixture(scope="session")
def example3d_runs(preset_root):
    """(report, seconds) of the example3d preset runs, exact and with 20%
    noise at seed 1."""
    return {
        "exact": timed_run(harness.preset("example3d", out=str(preset_root / "example3d_exact"))),
        "noisy": timed_run(harness.preset("example3d", noise=0.2, seed=1, out=str(preset_root / "example3d_eps0.2"))),
    }


@pytest.fixture(scope="session")
def verify_results():
    """checks.verify(kind) for every verify kind, by kind, run once per
    session; each result's seconds time its own run."""
    return {kind: checks.verify(kind) for kind in checks.VERIFY_KINDS}
