"""Span tracing around the public entry points of each emdsm layer.

The tracer wraps functions and methods from outside the package, so the
program itself is unchanged.  A name bound by ``from .x import f`` in another
module is a separate reference, so every emdsm module attribute that is the
same object as the entry point is replaced, not only the defining one.

Spans are (name, start, end, parent, operation id) tuples kept in memory.
Entry points that do not exist in the code under test (a module deleted or a
function renamed by a later change) are recorded as absent; their metrics
read 0 and the run is not failed for it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter

import numpy as np

PACKAGE = "emdsm"
LAYERS = ("forward", "em_core", "specfun", "measurement", "dsm")

# Public entry points per layer.  The harness layer is the operation itself
# (run_experiment / verify): its self time is whatever the spans below miss.
ENTRY_POINTS = {
    "forward": (
        "build_grid", "diagonal_self_term", "assemble_p_operator", "build_forward_system",
        "solve_current", "ForwardSolver.__init__", "ForwardSolver.solve",
        "ForwardSystem.apply", "ForwardSystem.dense_matrix",
    ),
    "em_core": (
        "incident_field", "green_scalar_from_distance", "green_scalar",
        "green_tensor_from_diff", "green_tensor", "im_green_tensor_from_diff",
        "im_green_tensor", "im_trace_green_tensor",
    ),
    "specfun": ("bessel_j", "bessel_y", "hankel1", "hankel1_runs"),
    "measurement": (
        "circle_surface", "cube_surface", "synthesize_scattered_field", "add_noise",
        "l2_inner_product", "l2_norm", "write_field_samples_csv", "read_field_samples_csv",
    ),
    "dsm": (
        "sampling_grid", "compute_index_grid", "cross_product_maps", "cross_product_map",
        "probe_field", "index_psi", "find_local_maxima", "verify_boundary_lemma",
        "verify_correlation_approx", "write_index_csv", "write_index_pgm",
    ),
}

# Counts taken at a span boundary from its arguments and result; each
# returns the increments for one call.


def _count_solve(args, kwargs, result):
    return {"forward.gmres_iters": int(result.iterations)}


def _count_assemble(args, kwargs, result):
    return {"forward.unknowns": int(args[0].system.system_dimension)}


def _count_synth(args, kwargs, result):
    current, surface = args[0], args[1]
    active = int(np.count_nonzero(np.any(current.values != 0.0, axis=1)))
    return {"measurement.synth_pairs": active * surface.count}


def _count_specfun(args, kwargs, result):
    return {"specfun.args": int(np.size(args[-1]))}


def _count_sweep(args, kwargs, result):
    datasets, grid = args[1], args[2]
    return {"dsm.sweep_pairs": grid.n_points * datasets[0][0].surface.count}


def _count_export(args, kwargs, result):
    return {"dsm.export_bytes": os.path.getsize(args[1])}


COUNTERS = {
    "forward.ForwardSolver.solve": _count_solve,
    "forward.ForwardSolver.__init__": _count_assemble,
    "measurement.synthesize_scattered_field": _count_synth,
    "specfun.bessel_j": _count_specfun,
    "specfun.bessel_y": _count_specfun,
    "specfun.hankel1": _count_specfun,
    "specfun.hankel1_runs": _count_specfun,
    "dsm.compute_index_grid": _count_sweep,
    "dsm.write_index_csv": _count_export,
    "dsm.write_index_pgm": _count_export,
}

class Tracer:
    """Records the spans and counts of one operation.

    Installs span wrappers on entry and restores the originals on exit.

    Only calls made on the installing thread are recorded; a call from a
    worker thread (the sweep with EMDSM_THREADS > 1) runs unwrapped and its
    time stays in its caller's self time.
    """

    def __init__(self, op: int):
        self.op = op
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []
        self._thread = threading.get_ident()

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        thread, op = self._thread, self.op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def __enter__(self):
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer, names in ENTRY_POINTS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for entry in names:
                span = f"{layer}.{entry}"
                class_name, _, attr = entry.rpartition(".")
                if class_name:
                    cls = getattr(module, class_name, None)
                    original = vars(cls).get(attr) if isinstance(cls, type) else None
                else:
                    original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(span)
                    continue
                if class_name:
                    targets = [(cls, attr)]
                else:
                    targets = [(mod, key) for mod in modules
                               for key, value in list(vars(mod).items()) if value is original]
                wrapper = self._wrap(span, original)
                for owner, key in targets:
                    setattr(owner, key, wrapper)
                    self._patches.append((owner, key, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# Span durations summed into one metric each.
SPAN_METRICS = {
    "forward.ForwardSolver.__init__": "forward.assemble_s",
    "forward.ForwardSolver.solve": "forward.solve_s",
    "measurement.synthesize_scattered_field": "measurement.synth_s",
    "measurement.add_noise": "measurement.noise_s",
    "measurement.write_field_samples_csv": "measurement.csv_s",
    "dsm.compute_index_grid": "dsm.sweep_s",
    "dsm.find_local_maxima": "dsm.maxima_s",
    "dsm.write_index_csv": "dsm.export_csv_s",
    "dsm.write_index_pgm": "dsm.export_pgm_s",
}


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer times and counts of the traced operation, of wall time run_s.

    A span's self time is its duration minus its child spans' durations
    (spans on one thread nest, so children never overlap); harness.self_s is
    run_s minus the top-level spans, so the layer self times plus
    harness.self_s add up to run_s.
    """
    spans = tracer.spans
    child_s = Counter()
    for name, start, end, parent, _ in spans:
        child_s[parent] += end - start
    out = Counter({f"{layer}.self_s": 0.0 for layer in LAYERS})
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = _layer(name)
        duration = end - start
        self_s = duration - child_s[i]
        out[f"{layer}.self_s"] += self_s
        outermost = parent < 0 or _layer(spans[parent][0]) != layer
        if layer == "em_core" and outermost:
            out["em_core.kernel_s"] += duration
            out["em_core.calls"] += 1
        elif layer == "specfun" and outermost:
            out["specfun.hankel_s"] += duration
        elif name in SPAN_METRICS:
            out[SPAN_METRICS[name]] += duration
        elif name in ("dsm.cross_product_maps", "dsm.cross_product_map") and outermost:
            out["dsm.cross_s"] += duration
        if name == "dsm.compute_index_grid":
            out["dsm.sweep_self_s"] += self_s
    out["harness.self_s"] = run_s - child_s[-1]
    out.update(tracer.counts)
    out["specfun.args_per_s"] = _rate(out["specfun.args"], out["specfun.hankel_s"])
    out["dsm.sweep_pairs_per_s"] = _rate(out["dsm.sweep_pairs"], out["dsm.sweep_s"])
    return dict(out)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0
