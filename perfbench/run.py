"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload e1_2d --seed 1 --seconds 18 --trace 0

Run from anywhere; the checkout is the directory above this file, and emdsm
is imported from its ``src``.  With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json (operation time, set-up time, peak
memory); with ``--trace 1`` the per-layer metrics of a traced operation.
Human-readable lines come first; the last line of standard output is the
JSON result.  Exits nonzero without a result when the program is missing
or a process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE = ROOT / ".perfbench"
NAMES = ("e1_2d", "e3d_sweep", "fwd3d_fine", "verify_all")
SETUP_SAMPLES = 5          # fresh interpreters timed per run, the worker included
DEADLINE_S = 170.0         # every process is killed by then


class BenchError(Exception):
    pass


def start_worker(argv: list[str], deadline: float):
    """Start a worker; return it, its kill timer and the seconds until it
    printed ready (emdsm imported, input built)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, timer)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, timer, ready


def finish(proc, timer) -> str:
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def exact_counts_repeat(key: str, traced_ops: list[dict], names, store: bool) -> list[str]:
    """Counts must be identical across the traced operations of this run and
    across runs of the same program version on the same input, recorded in
    the checkout.  Only a run whose operations all passed is recorded."""
    problems = []
    counts = [{n: op["layers"].get(n, 0) for n in names} for op in traced_ops]
    for other in counts[1:]:
        if other != counts[0]:
            problems.append(f"counts differ between operations: {counts[0]} vs {other}")
    path = STATE / "counts.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    if key in stored and stored[key] != counts[0]:
        problems.append(f"counts differ from an earlier run: {stored[key]} vs {counts[0]}")
    if store and not problems and key not in stored:
        stored[key] = counts[0]
        STATE.mkdir(exist_ok=True)
        path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "emdsm" / "__init__.py").is_file():
        raise BenchError(f"no emdsm package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, timer, ready = start_worker(argv + ["--setup-only"], deadline)
            finish(proc, timer)
            setup.append(ready)
    proc, timer, ready = start_worker(
        argv + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setup.append(ready)
    result = json.loads(finish(proc, timer).splitlines()[-1])
    print("machine " + json.dumps(result["machine"]))

    ops = result["ops"]
    reference = next((op["digest"] for op in ops if op["digest"]), None)
    failed = 0
    for i, op in enumerate(ops):
        problems = list(op["problems"])
        if op["error"]:
            problems.append(op["error"])
        elif op["digest"] != reference:
            problems.append("output differs from the first operation on the same input")
        failed += bool(problems)
        kind = "warm-up" if op["warmup"] else "traced" if op["traced"] else "untraced"
        print(f"op {i + 1} {kind} {op['seconds']:.3f} s: {op['summary'] or 'no output'}"
              + "".join(f"\n  FAIL {p}" for p in problems))

    attempted = len(ops)
    correct = failed == 0
    untraced = [op["seconds"] for op in ops if not (op["warmup"] or op["traced"])]
    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        count_names = [n for n in units if units[n] in ("count", "bytes")]
        key = f"{args.workload}:{result['input_key']}:{result['machine']['source_sha256']}"
        problems = exact_counts_repeat(key, traced_ops, count_names, store=correct)
        traced_s = statistics.median(op["seconds"] for op in traced_ops)
        values = {}
        for name in units:
            values[name] = statistics.median(op["layers"].get(name, 0.0) for op in traced_ops)
        values["trace.run_s"] = traced_s
        values["trace.overhead_s"] = traced_s - statistics.median(untraced)
        absent = sorted({name for op in traced_ops for name in op["absent"]})
        print(f"{args.workload}: traced run_s {traced_s:.3f} s (n={len(traced_ops)}), "
              f"{sum(op['spans'] for op in traced_ops)} spans; absent entry points: "
              f"{', '.join(absent) or 'none'}")
        for name in units:
            print(f"  {name} {values[name]:.6g} {units[name]}")
        for problem in problems:
            print(f"  FAIL {problem}")
        correct = correct and not problems
    else:
        values = {
            "run_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"{args.workload}: run_s {values['run_s']:.3f} s (median of n={len(untraced)}), "
              f"setup_s {values['setup_s']:.3f} s (median of n={len(setup)}), "
              f"peak_rss_mb {values['peak_rss_mb']:.1f} MB, "
              f"failed_frac {failed}/{attempted} = {failed / attempted:.3f}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
