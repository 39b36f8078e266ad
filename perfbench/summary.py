"""Run every workload once and print its end-to-end metrics as a table.

    python3 perfbench/summary.py [--seed 1] [--seconds 18]

Each row gives run_s, setup_s and peak_rss_mb with their sample counts, and
failed_frac, the share of operations attempted that raised or failed the
output check (taken from the result's attempted and failed counts).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import NAMES, SETUP_SAMPLES  # noqa: E402


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    print(f"{'workload':<12} {'run_s':>18} {'setup_s':>16} {'peak_rss_mb':>12} {'failed_frac':>12}")
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name:<12} benchmark failed (exit code {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        m = result["metrics"]
        n = result["attempted"]
        timed = n - 1  # the worker's one warm-up operation is checked, not timed
        run_s = f"{m['run_s']['value']:.3f} s (n={timed})"
        setup_s = f"{m['setup_s']['value']:.3f} s (n={SETUP_SAMPLES})"
        frac = f"{result['failed']}/{n} = {result['failed'] / n:.2f}"
        print(f"{name:<12} {run_s:>18} {setup_s:>16} {m['peak_rss_mb']['value']:>9.1f} MB {frac:>12}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
