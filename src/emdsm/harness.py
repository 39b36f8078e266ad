"""Experiment configuration, presets and the end-to-end pipeline."""

from __future__ import annotations

import itertools
import json
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dsm
# verify and VERIFY_KINDS stay bound here because perfbench/workloads.py calls them through harness
from .checks import VERIFY_KINDS, diagnostic_maps, off_peak_ratios, verify
from .em_core import ContrastField, IncidentPlaneWave, Shape, WaveContext
from .errors import ConfigError, GeometryError, StageError
from .forward import ForwardSystem, SolverSpec, build_grid
from .measurement import (
    MeasurementSurface,
    add_noise,
    circle_surface,
    cube_surface,
    synthesize_scattered_fields,
    write_field_samples_csv,
)

_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)

DEFAULT_FORWARD_H = {2: 0.02, 3: 0.04}
DEFAULT_SAMPLING_SPACING = {2: 0.01, 3: 0.05}
DEFAULT_SAMPLING_BOX = {2: ((-2.0, 2.0),) * 2, 3: ((-2.0, 2.0),) * 3}

PRESET_NAMES = ("example1", "example2a", "example2b", "example3", "example4",
                "example3d", "fig1", "fig2")
# the shape kinds of the config format, each with the length of its center
_SHAPE_DIMENSIONS = {"axis_square": 2, "square_ring": 2, "axis_cube": 3}


@dataclass(frozen=True)
class SurfaceSpec:
    kind: str  # circle | cube_faces
    radius: float = 0.0
    count: int = 0
    edge: float = 0.0
    per_face: int = 0

    def build(self) -> MeasurementSurface:
        if self.kind == "circle":
            return circle_surface(self.radius, self.count)
        return cube_surface(self.edge, self.per_face)

    def to_dict(self) -> dict:
        if self.kind == "circle":
            return {"kind": "circle", "radius": self.radius, "count": self.count}
        return {"kind": "cube_faces", "edge": self.edge, "per_face": self.per_face}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    ctx: WaveContext
    incidents: tuple[IncidentPlaneWave, ...]
    contrast: ContrastField | None
    surface: SurfaceSpec
    forward_h: float
    solver: SolverSpec
    sampling_box: tuple[tuple[float, float], ...]
    sampling_spacing: float
    noise_epsilon: float
    noise_seed: int
    output_directory: str
    output_formats: tuple[str, ...]
    diagnostic: str | None = None          # None | fig1 | fig2
    diagnostic_point: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "wave": {"dimension": self.ctx.dimension, "wavelength": self.ctx.wavelength},
            "incidents": [
                {"direction": w.direction.tolist(), "polarization": w.polarization.tolist()}
                for w in self.incidents
            ],
            "surface": self.surface.to_dict(),
            "forward": {
                "h": self.forward_h,
                "tol": self.solver.tol,
                "restart": self.solver.restart,
                "maxiter": self.solver.maxiter,
            },
            "sampling": {"box": [list(b) for b in self.sampling_box], "spacing": self.sampling_spacing},
            "noise": {"epsilon": self.noise_epsilon, "seed": self.noise_seed},
            "outputs": {"directory": self.output_directory, "formats": list(self.output_formats)},
        }
        if self.contrast is not None:
            out["shapes"] = [
                {
                    "kind": "axis_cube" if s.dimension == 3 else "square_ring" if s.inner_side else "axis_square",
                    "center": s.center.tolist(),
                    "outer_side": s.outer_side,
                    "inner_side": s.inner_side,
                    "eta": [s.eta.real, s.eta.imag],
                }
                for s in self.contrast.shapes
            ]
        if self.diagnostic is not None:
            out["diagnostic"] = {"kind": self.diagnostic, "x_q": list(self.diagnostic_point)}
        return out


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"key '{key}' must be a JSON object")
    return value


def _need(mapping: dict, key: str, context: str):
    if key not in _object(mapping, context.rstrip(".")):
        raise ConfigError(f"missing required key '{context}{key}'")
    return mapping[key]


def _positive_int(mapping: dict, key: str, default: int | None, context: str, minimum: int = 1) -> int:
    """mapping[key] as an integer >= minimum; required when default is None."""
    value = _need(mapping, key, context) if default is None else mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"key '{context}{key}' must be an integer >= {minimum}, got {value!r}")
    return value


def _number(value, key: str, positive: bool = False) -> float:
    # JSON true, false and strings are not numbers
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"key '{key}' must be finite, got {value!r}")
    if positive and not number > 0.0:
        raise ConfigError(f"key '{key}' must be positive, got {value!r}")
    return number


def _numbers(value, key: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"key '{key}' must be a list of numbers, got {value!r}")
    return [_number(v, key) for v in value]


def _as_complex(value, context: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_number(value, context))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], context), _number(value[1], context))
    raise ConfigError(f"key '{context}' must be a number or a [re, im] pair")


def _parse_shapes(raw, dimension: int) -> ContrastField:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("key 'shapes' must be a non-empty list")
    shapes = []
    for idx, entry in enumerate(raw):
        ctxt = f"shapes[{idx}]."
        kind = _need(entry, "kind", ctxt)
        if not isinstance(kind, str) or kind not in _SHAPE_DIMENSIONS:
            raise ConfigError(f"key '{ctxt}kind': unknown shape kind {kind!r}")
        if _SHAPE_DIMENSIONS[kind] != dimension:
            raise ConfigError(f"key '{ctxt}kind': {kind} does not match 'wave.dimension'")
        center = _need(entry, "center", ctxt)
        if not isinstance(center, (list, tuple)) or len(center) != dimension:
            raise ConfigError(f"key '{ctxt}center' must be a {dimension}-vector for {kind}")
        center = _numbers(center, ctxt + "center")
        outer = _number(_need(entry, "outer_side", ctxt), ctxt + "outer_side")
        inner = _number(entry.get("inner_side", 0.0), ctxt + "inner_side")
        if inner != 0.0 and kind != "square_ring":
            raise ConfigError(f"key '{ctxt}inner_side' is only meaningful for square_ring")
        eta = _as_complex(entry.get("eta", 1.0), ctxt + "eta")
        try:
            shapes.append(Shape(center, outer, inner, eta))
        except Exception as exc:
            raise ConfigError(f"invalid shape at 'shapes[{idx}]': {exc}") from exc
    return ContrastField(shapes)


def _parse_surface(raw: dict, dimension: int) -> SurfaceSpec:
    kind = _need(raw, "kind", "surface.")
    if kind == "circle":
        if dimension != 2:
            raise ConfigError("key 'surface.kind': circle surfaces are two-dimensional")
        return SurfaceSpec("circle", radius=_number(_need(raw, "radius", "surface."), "surface.radius", positive=True),
                           count=_positive_int(raw, "count", None, "surface.", minimum=3))
    if kind == "cube_faces":
        if dimension != 3:
            raise ConfigError("key 'surface.kind': cube_faces surfaces are three-dimensional")
        return SurfaceSpec("cube_faces", edge=_number(_need(raw, "edge", "surface."), "surface.edge", positive=True),
                           per_face=_positive_int(raw, "per_face", None, "surface."))
    raise ConfigError(f"key 'surface.kind': unknown surface kind {kind!r}")


def config_from_dict(raw: dict, name: str = "custom") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    wave = _need(raw, "wave", "")
    dimension = _positive_int(wave, "dimension", None, "wave.")
    wavelength = _number(wave.get("wavelength", 1.0), "wave.wavelength")
    try:
        ctx = WaveContext.from_wavelength(dimension, wavelength)
    except Exception as exc:
        raise ConfigError(f"invalid 'wave': {exc}") from exc

    raw_incidents = _need(raw, "incidents", "")
    if not isinstance(raw_incidents, list) or not raw_incidents:
        raise ConfigError("key 'incidents' must list at least one incident field")
    incidents = []
    for idx, entry in enumerate(raw_incidents):
        ctxt = f"incidents[{idx}]."
        try:
            incidents.append(IncidentPlaneWave(*(np.array(_numbers(_need(entry, key, ctxt), ctxt + key))
                                                 for key in ("direction", "polarization"))))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"invalid incident at 'incidents[{idx}]': {exc}") from exc
        if incidents[-1].dimension != dimension:
            raise ConfigError(f"key 'incidents[{idx}]': vector length does not match 'wave.dimension'")

    diagnostic = None
    diagnostic_point: tuple[float, ...] = ()
    contrast = None
    if "diagnostic" in raw:
        if "shapes" in raw:
            raise ConfigError("key 'shapes' cannot be given with 'diagnostic', whose maps need no scatterer")
        diag = raw["diagnostic"]
        kind = _need(diag, "kind", "diagnostic.")
        if kind not in ("fig1", "fig2"):
            raise ConfigError(f"key 'diagnostic.kind': unknown kind {kind!r}")
        diagnostic = kind
        point = _need(diag, "x_q", "diagnostic.")
        if not isinstance(point, list) or len(point) != dimension:
            raise ConfigError("key 'diagnostic.x_q': length does not match 'wave.dimension'")
        diagnostic_point = tuple(_number(v, "diagnostic.x_q") for v in point)
        if kind == "fig2" and len(incidents) < 2:
            raise ConfigError("key 'incidents' must list two incident fields for the fig2 diagnostic")
    else:
        contrast = _parse_shapes(_need(raw, "shapes", ""), dimension)

    surface = _parse_surface(_need(raw, "surface", ""), dimension)

    fwd = _object(raw.get("forward", {}), "forward")
    forward_h = _number(fwd.get("h", DEFAULT_FORWARD_H[dimension]), "forward.h", positive=True)
    if "solver" in fwd:
        raise ConfigError("key 'forward.solver' is not supported: the forward solve is always GMRES")
    solver = SolverSpec(
        tol=_number(fwd.get("tol", 1e-8), "forward.tol", positive=True),
        restart=_positive_int(fwd, "restart", 50, "forward."),
        maxiter=_positive_int(fwd, "maxiter", 500, "forward."),
    )

    sampling = _object(raw.get("sampling", {}), "sampling")
    box_raw = sampling.get("box", DEFAULT_SAMPLING_BOX[dimension])
    if not isinstance(box_raw, (list, tuple)) or len(box_raw) != dimension or any(
            not isinstance(pair, (list, tuple)) or len(pair) != 2 for pair in box_raw):
        raise ConfigError("key 'sampling.box' must give one [lo, hi] pair per axis")
    box = tuple(tuple(_number(v, "sampling.box") for v in pair) for pair in box_raw)
    spacing = _number(sampling.get("spacing", DEFAULT_SAMPLING_SPACING[dimension]), "sampling.spacing", positive=True)
    built = surface.build()
    try:
        dsm.check_grid_inside(built, dsm.sampling_grid(box, spacing))
    except GeometryError as exc:
        raise ConfigError(f"key 'sampling.box': {exc}") from None
    for idx, shape in enumerate(contrast.shapes if contrast is not None else ()):
        if not all(built.contains_strictly(corner) for corner in itertools.product(*zip(*shape.bounds))):
            raise ConfigError(f"key 'shapes[{idx}]' must lie strictly inside the measurement surface")
    if diagnostic is not None and not built.contains_strictly(diagnostic_point):
        raise ConfigError("key 'diagnostic.x_q' must lie strictly inside the measurement surface")

    noise = _object(raw.get("noise", {}), "noise")
    epsilon = _number(noise.get("epsilon", 0.0), "noise.epsilon")
    if not epsilon >= 0.0:
        raise ConfigError("key 'noise.epsilon' must be nonnegative")
    if diagnostic is not None and epsilon > 0.0:
        raise ConfigError("key 'noise.epsilon' must be 0 with 'diagnostic', whose maps take no data")
    seed = _positive_int(noise, "seed", 0, "noise.", minimum=0)

    outputs = _object(raw.get("outputs", {}), "outputs")
    directory = str(outputs.get("directory", "out"))
    formats = outputs.get("formats", ["csv", "pgm"])
    if not isinstance(formats, list) or any(fmt not in ("csv", "pgm") for fmt in formats):
        raise ConfigError(f"key 'outputs.formats' must be a list of 'csv' and 'pgm', got {formats!r}")

    return ExperimentConfig(
        name=str(raw.get("name", name)),
        ctx=ctx,
        incidents=tuple(incidents),
        contrast=contrast,
        surface=surface,
        forward_h=forward_h,
        solver=solver,
        sampling_box=box,
        sampling_spacing=spacing,
        noise_epsilon=epsilon,
        noise_seed=seed,
        output_directory=directory,
        output_formats=tuple(formats),
        diagnostic=diagnostic,
        diagnostic_point=diagnostic_point,
    )


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"configuration file {path} cannot be read: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw, name=path.stem)


def _incidents_2d() -> list[dict]:
    return [
        {"direction": [1 / _SQRT2, 1 / _SQRT2], "polarization": [1 / _SQRT2, -1 / _SQRT2]},
        {"direction": [-1 / _SQRT2, 1 / _SQRT2], "polarization": [1 / _SQRT2, 1 / _SQRT2]},
    ]


def _preset_dict(name: str) -> dict:
    base2d = {
        "name": name,
        "wave": {"dimension": 2, "wavelength": 1.0},
        "incidents": _incidents_2d(),
        "surface": {"kind": "circle", "radius": 5.0, "count": 30},
        "sampling": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "spacing": 0.01},
    }
    if name == "example1":
        base2d["shapes"] = [
            {"kind": "axis_square", "center": [-0.25, 0.0], "outer_side": 0.3, "eta": 1.0}
        ]
        return base2d
    if name == "example2a":
        base2d["shapes"] = [
            {"kind": "axis_square", "center": [-0.8, -0.7], "outer_side": 0.2, "eta": 1.0},
            {"kind": "axis_square", "center": [0.3, 0.8], "outer_side": 0.2, "eta": 1.0},
        ]
        return base2d
    if name == "example2b":
        base2d["shapes"] = [
            {"kind": "axis_square", "center": [-0.45, -0.35], "outer_side": 0.3, "eta": 1.0},
            {"kind": "axis_square", "center": [0.05, 0.15], "outer_side": 0.3, "eta": 1.0},
        ]
        return base2d
    if name == "example3":
        base2d["shapes"] = [
            {"kind": "axis_square", "center": [-5 / 8, -5 / 8], "outer_side": 0.15, "eta": 1.0},
            {"kind": "axis_square", "center": [-17 / 40, -17 / 40], "outer_side": 0.15, "eta": 1.0},
            {"kind": "axis_square", "center": [-21 / 40, 1 / 8], "outer_side": 0.15, "eta": 1.0},
        ]
        return base2d
    if name == "example4":
        base2d["shapes"] = [
            {"kind": "square_ring", "center": [0.0, 0.0], "outer_side": 0.6,
             "inner_side": 0.4, "eta": 1.0}
        ]
        return base2d
    if name == "example3d":
        return {
            "name": name,
            "wave": {"dimension": 3, "wavelength": 1.0},
            "incidents": [
                {"direction": [1 / _SQRT3] * 3, "polarization": [1 / _SQRT6, -2 / _SQRT6, 1 / _SQRT6]},
                {"direction": [1 / _SQRT3] * 3, "polarization": [1 / _SQRT6, 1 / _SQRT6, -2 / _SQRT6]},
            ],
            "shapes": [
                {"kind": "axis_cube", "center": [0.4, 0.3, 0.3], "outer_side": 0.2, "eta": 1.0},
                {"kind": "axis_cube", "center": [-0.4, 0.3, 0.3], "outer_side": 0.2, "eta": 1.0},
            ],
            "surface": {"kind": "cube_faces", "edge": 10.0, "per_face": 10},
            "sampling": {"box": [[-2.0, 2.0]] * 3, "spacing": 0.05},
        }
    if name in ("fig1", "fig2"):
        base2d["diagnostic"] = {"kind": name, "x_q": [-0.25, 0.0]}
        # a denser surface keeps the diagnostic close to its continuum form
        base2d["surface"] = {"kind": "circle", "radius": 5.0, "count": 512}
        base2d["sampling"] = {"box": [[-2.0, 2.0], [-2.0, 2.0]], "spacing": 0.02}
        return base2d
    raise ConfigError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")


def preset(name: str, *, noise: float | None = None, seed: int | None = None,
           out: str | None = None, sampling_spacing: float | None = None,
           forward_h: float | None = None) -> ExperimentConfig:
    """Paper-parameter experiment configurations, with a few overridable knobs."""
    raw = _preset_dict(name)
    if noise is not None:
        raw["noise"] = {"epsilon": float(noise), "seed": int(seed if seed is not None else 0)}
    elif seed is not None:
        raw["noise"] = {"epsilon": 0.0, "seed": int(seed)}
    if out is not None:
        raw["outputs"] = {"directory": out}
    if sampling_spacing is not None:
        raw.setdefault("sampling", {})["spacing"] = float(sampling_spacing)
    if forward_h is not None:
        raw.setdefault("forward", {})["h"] = float(forward_h)
    return config_from_dict(raw, name=name)


@dataclass
class LocalizationReport:
    """Per-index maxima and argmax, stage timings and resources, the config,
    the forward solves and the synthesis's SweepInfo (None without one)."""

    config: dict
    indices: list[dict] = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)
    stage_resources: dict = field(default_factory=dict)
    solver_info: list[dict] = field(default_factory=list)
    synthesis_info: dict | None = None
    output_files: list[str] = field(default_factory=list)

    @property
    def argmax(self) -> dict:
        return self.indices[-1]["argmax"] if self.indices else {}

    def to_dict(self) -> dict:
        return asdict(self)


@contextmanager
def _stage(report: LocalizationReport, name: str):
    """Run one pipeline stage: raise its failures as StageError(name), and
    record its wall time, the process's peak RSS at its end, and the minor
    page faults taken during it."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(name, str(exc)) from exc
    report.stage_seconds[name] = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    report.stage_resources[name] = {
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "minor_faults": after.ru_minflt - before.ru_minflt,
    }


def _export_grid(index: dsm.IndexGrid, outdir: Path, formats, report: LocalizationReport, **extra) -> None:
    """Write index.normalized() as index_<label, ':' as '_'> or, for a
    cross:<name> map, map_<name>, in each format, and append the grid's report
    entry: argmax, maxima, sweep_info, extra, and the files written, relative
    to outdir."""
    label = index.label
    stem = f"map_{label.removeprefix('cross:')}" if label.startswith("cross:") else f"index_{label.replace(':', '_')}"
    exported = index.normalized()
    files = []
    for fmt, write in (("csv", dsm.write_index_csv), ("pgm", dsm.write_index_pgm)):
        if fmt in formats:
            files.append(f"{stem}.{fmt}")
            write(exported, outdir / files[-1])
            report.output_files.append(str(outdir / files[-1]))
    report.indices.append({
        "label": label,
        "argmax": {"location": index.argmax_location().tolist(), "value": float(index.values.max())},
        "maxima": [{"location": p.tolist(), "value": v} for p, v in dsm.find_local_maxima(index)],
        "sweep_info": asdict(index.sweep_info),
        **extra,
        "files": files,
    })


def run_experiment(config: ExperimentConfig) -> LocalizationReport:
    """Forward-solve the incidents concurrently, synthesize all their
    (optionally noisy) data from one kernel evaluation and sweep the
    indicators, or for a fig1/fig2 diagnostic sweep its cross-correlation
    maps; write the grids plus a JSON report."""
    surface = config.surface.build()
    grid = dsm.sampling_grid(config.sampling_box, config.sampling_spacing)
    outdir = Path(config.output_directory)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'outputs.directory': cannot create {str(outdir)!r}: {exc.strerror}") from exc
    report = LocalizationReport(config=config.to_dict())
    data_files = []  # (file name, samples) of the data CSVs, written at export

    if config.diagnostic is None:
        with _stage(report, "forward"):
            system = ForwardSystem(config.contrast, config.ctx, build_grid(config.contrast, config.forward_h))
            currents, run = system.solve_all(config.incidents, config.solver)
            for current in currents:
                report.solver_info.append({
                    "method": "gmres",
                    "residual": current.residual,
                    "iterations": current.iterations,
                    "residual_history": list(current.residual_history),
                    "nodes": current.grid.n_nodes,
                    "threads": run.threads,
                    "blas_pinned": run.blas_pinned,
                })

        with _stage(report, "synthesis"):
            datasets = []
            fields = synthesize_scattered_fields(currents, surface, config.ctx)
            report.synthesis_info = asdict(fields[0].synthesis_info)
            for l, (wave, samples) in enumerate(zip(config.incidents, fields)):
                data_files.append((f"scattered_incident{l + 1}.csv", samples))
                if config.noise_epsilon > 0.0:
                    samples = add_noise(samples, config.noise_epsilon, config.noise_seed + l)
                    data_files.append((f"scattered_incident{l + 1}_noisy.csv", samples))
                datasets.append((samples, wave.polarization))

    with _stage(report, "sweep"):
        if config.diagnostic is None:
            grids = dsm.compute_index_grid(config.ctx, datasets, grid)
        else:
            x_q = np.asarray(config.diagnostic_point)
            coeffs = diagnostic_maps(config.diagnostic, [w.polarization for w in config.incidents])
            grids = dsm.cross_product_maps(config.ctx, surface, x_q, grid, coeffs)

    with _stage(report, "export"):
        if "csv" in config.output_formats:
            for name, samples in data_files:
                write_field_samples_csv(samples, outdir / name)
                report.output_files.append(str(outdir / name))
        extras = [{}] * len(grids) if config.diagnostic is None else [
            {"off_peak_ratio": ratio} for ratio in off_peak_ratios(grids, x_q, config.ctx.wavelength)]
        for index, extra in zip(grids, extras):
            _export_grid(index, outdir, config.output_formats, report, **extra)

    path = outdir / "report.json"
    path.write_text(json.dumps(report.to_dict(), indent=2))
    report.output_files.append(str(path))
    return report
