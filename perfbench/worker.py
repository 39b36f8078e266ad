"""One benchmark process for one workload.

Imports emdsm from the checkout's ``src``, builds the workload's input and
prints ``ready``.  A set-up probe (``--setup-only``) stops there.  Otherwise
it runs one untimed warm-up operation, so that caches and lazy imports are
filled before timing, then timed operations back to back: at least one (one
traced and one untraced with ``--trace 1``), more while the next one still
fits in ``--seconds`` seconds.  It prints one JSON line: per-operation
times, checks and (when tracing) layer metrics, the input key, the process's
peak resident memory, and the machine description.

    python3 perfbench/worker.py --workload e1_2d --seed 1 --seconds 18 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("EMDSM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git(*args: str) -> str | None:
    """Output of a git command in the checkout, or None where it is not a
    git repository (git is then not run, so it cannot find one above it)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest() -> str:
    """sha256 over the program's and the benchmark's source files, so that
    uncommitted edits give another version too."""
    digest = hashlib.sha256()
    for top in (ROOT / "src" / "emdsm", ROOT / "perfbench"):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--", "src")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_settings": {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES},
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty_src": "unknown" if status is None else status != "",
        "source_sha256": source_digest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import emdsm

    if not Path(emdsm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"emdsm was imported from {emdsm.__file__}, not from the checkout", file=sys.stderr)
        return 2
    import workloads

    outdir = ROOT / ".perfbench" / "out" / args.workload
    config = workloads.build(args.workload, args.seed, str(outdir))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from tracing import Tracer, layer_metrics

    def operation(traced: bool, warmup: bool = False) -> dict:
        tracer = Tracer(op=len(ops)) if traced else None
        outcome = error = None
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = workloads.run(config)
            except Exception as exc:
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if error is None:
            outcome = workloads.check(config, result)
        return {
            "warmup": warmup,
            "traced": traced,
            "seconds": seconds,
            "error": error,
            "problems": list(outcome.problems) if outcome else [],
            "digest": outcome.digest if outcome else None,
            "summary": outcome.summary if outcome else None,
            "layers": layer_metrics(tracer, seconds) if traced else None,
            "absent": tracer.absent if traced else [],
            "spans": len(tracer.spans) if traced else 0,
        }

    ops = []
    ops.append(operation(traced=False, warmup=True))
    started = time.perf_counter()
    while True:
        # after the warm-up, traced and untraced operations alternate, traced first
        ops.append(operation(traced=bool(args.trace) and len(ops) % 2 == 1))
        timed = ops[1:]
        if len(timed) > args.trace and (
                time.perf_counter() - started + max(op["seconds"] for op in timed) > args.seconds):
            break

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ops": ops, "input_key": workloads.input_key(config),
                      "peak_rss_mb": peak_kib / 1024.0, "machine": machine()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
