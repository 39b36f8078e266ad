"""The benchmark's workloads: how each builds its input from the seed, what
one operation is, and how an operation's output is checked.

Import only after the checkout's ``src`` directory is on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from emdsm import dsm, harness

PSI_CEILING = 1.0 + 1e-12


@dataclass(frozen=True)
class Outcome:
    """Result of checking one operation."""

    problems: tuple[str, ...]
    digest: str   # identical inputs must give an identical digest
    summary: str


def build(name: str, seed: int, outdir: str):
    """The workload's input: an ExperimentConfig, or the verify kinds."""
    if name == "e1_2d":
        return harness.preset("example1", noise=0.2, seed=seed, out=outdir)
    if name == "e3d_sweep":
        return harness.preset("example3d", sampling_spacing=0.125, out=outdir)
    if name == "fwd3d_fine":
        return harness.preset("example3d", forward_h=0.02, sampling_spacing=0.25, out=outdir)
    if name == "verify_all":
        return tuple(harness.VERIFY_KINDS)
    raise ValueError(f"unknown workload {name!r}")


def input_key(config) -> str:
    """Names the workload's input, wherever the checkout sits: runs with the
    same key and program must give the same counts."""
    if not isinstance(config, tuple):
        config = dataclasses.replace(config, output_directory="")
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def run(config):
    """One operation: run_experiment including export, or one pass of every
    verify kind.  Exceptions propagate to the caller, which counts them."""
    if isinstance(config, tuple):
        return [harness.verify(kind) for kind in config]
    grids = []
    original = dsm.compute_index_grid

    def capture(*args, **kwargs):
        out = original(*args, **kwargs)
        grids.extend(out)
        return out

    dsm.compute_index_grid = capture
    try:
        report = harness.run_experiment(config)
    finally:
        dsm.compute_index_grid = original
    return report, grids


def check(config, result) -> Outcome:
    """Check the output of one operation."""
    if isinstance(config, tuple):
        return _check_verify(result)
    return _check_experiment(config, *result)


def _box_distance(point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.linalg.norm(np.maximum(np.maximum(lo - point, point - hi), 0.0)))


def _check_experiment(config, report, grids) -> Outcome:
    problems = []
    if not grids:
        problems.append("no index grids were computed")
    for grid in grids:
        values = grid.values
        if not (np.all(values >= 0.0) and np.all(values <= PSI_CEILING)):
            problems.append(f"{grid.label}: index outside [0, 1 + 1e-12] "
                            f"(min {float(values.min())!r}, max {float(values.max())!r})")
    location = np.asarray(report.argmax["location"], dtype=float)
    reach = config.sampling_spacing * math.sqrt(location.size)
    distance = min(_box_distance(location, *shape.bounds) for shape in config.contrast.shapes)
    if not distance <= reach:
        problems.append(f"combined argmax {location.tolist()} is {distance:.4f} from every "
                        f"scatterer box (limit {reach:.4f})")
    for info in report.solver_info:
        if not info["residual"] <= config.solver.tol:
            problems.append(f"forward residual {info['residual']:.3e} exceeds tol {config.solver.tol:g}")
    combined = report.indices[-1]
    digest = hashlib.sha256()
    for grid in grids:
        digest.update(grid.values.tobytes())
    digest.update(json.dumps([report.indices, [
        (s["method"], s["residual"], s["iterations"]) for s in report.solver_info
    ]]).encode())
    loc = ", ".join(f"{v:+.4f}" for v in location)
    summary = f"combined argmax ({loc}) value {combined['argmax']['value']:.6f}, {len(combined['maxima'])} maxima"
    return Outcome(tuple(problems), digest.hexdigest(), summary)


def _check_verify(results) -> Outcome:
    problems = [f"verify {r['kind']}: {c['name']} failed (value {c['value']}, threshold {c['threshold']})"
                for r in results for c in r["checks"] if not c["passed"]]
    values = [(r["kind"], [(c["name"], c["value"], c["passed"]) for c in r["checks"]]) for r in results]
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    passed = sum(r["passed"] for r in results)
    return Outcome(tuple(problems), digest, f"{passed}/{len(results)} verify kinds pass")
