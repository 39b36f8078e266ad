"""Measurement surfaces, near-field data synthesis, the noise model, and L2(Gamma) geometry."""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .em_core import (SweepInfo, WaveContext, _image_indices, _sweep, _symmetry_group, centred_ticks,
                      lattice_points)
from .errors import DomainError, GeometryError

_NOISE_BITGEN = np.random.PCG64  # named, seedable, portable


@dataclass(frozen=True)
class MeasurementSurface:
    """Discrete closed curve/surface: points, quadrature weights, outward normals.

    The enclosed region is the origin-centred ball {|x|_region_norm <
    region_radius}: the 2-norm for circles, the max-norm for cubes.
    """

    points: np.ndarray
    weights: np.ndarray
    normals: np.ndarray
    region_radius: float = field(kw_only=True)
    region_norm: float = field(default=2.0, kw_only=True)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def contains_strictly(self, x, margin: float = 0.0) -> bool:
        """Whether x lies strictly inside the enclosed region (minus a margin)."""
        x = np.asarray(x, dtype=np.float64)
        return float(np.linalg.norm(x, self.region_norm)) < self.region_radius - margin

    def same_samples(self, other: "MeasurementSurface") -> bool:
        """Whether other has the same points with the same weights."""
        return other is self or (
            np.array_equal(self.points, other.points) and np.array_equal(self.weights, other.weights)
        )


def _whole_count(count, minimum: int, message: str) -> int:
    """count as an int of at least minimum, numpy integers included; a
    DomainError with message for anything else, NaN and 2.5 alike."""
    try:
        count = operator.index(count)
    except TypeError:
        raise DomainError(message) from None
    if count < minimum:
        raise DomainError(message)
    return count


def circle_surface(radius: float, count: int) -> MeasurementSurface:
    """count equally spaced points on the origin-centred circle from angle 0,
    weight 2 pi R / count.

    The angles up to pi/4 (count divisible by 4), pi/2 (count even) or pi
    are taken from cos and sin; the others are exact images under the x-y
    swap, the x flip and the y flip, so the points are mirror-exact.  No
    coordinate is -0.0.
    """
    if not (np.isfinite(radius) and radius > 0.0):
        raise DomainError("radius must be positive and finite")
    count = _whole_count(count, 3, "a circle needs a whole number of at least 3 points")
    theta = 2.0 * np.pi * np.arange(count) / count
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    if count % 8 == 0:
        normals[count // 8] = np.sqrt(0.5)  # cos(pi/4) != sin(pi/4) in floating point
    if count % 4 == 0:  # (pi/4, pi/2]: the swap of pi/2 - theta
        k = np.arange(count // 8 + 1, count // 4 + 1)
        normals[k] = normals[count // 4 - k, ::-1]
    if count % 2 == 0:  # (pi/2, pi]: the x flip of pi - theta
        k = np.arange(count // 4 + 1, count // 2 + 1)
        normals[k] = normals[count // 2 - k] * [-1.0, 1.0]
    k = np.arange(count // 2 + 1, count)  # (pi, 2 pi): the y flip of -theta
    normals[k] = normals[count - k] * [1.0, -1.0]
    points = radius * normals
    weights = np.full(count, 2.0 * np.pi * radius / count)
    return MeasurementSurface(points, weights, normals, region_radius=float(radius))


def cube_surface(edge: float, per_face: int) -> MeasurementSurface:
    """The per_face x per_face cell centres, centred_ticks of pitch edge /
    per_face, on each face of the origin-centred cube, each of weight
    (edge / per_face)^2: no point on a shared edge, and the weights sum to
    the area 6 edge^2."""
    if not (np.isfinite(edge) and edge > 0.0):
        raise DomainError("edge must be positive and finite")
    per_face = _whole_count(per_face, 1, "per_face must be a whole number of at least 1")
    half = 0.5 * edge
    ticks = centred_ticks(0.0, edge / per_face, per_face)
    u, v = lattice_points((ticks, ticks)).T
    points = []
    normals = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            face = np.empty((per_face * per_face, 3))
            face[:, axis] = sign * half
            others = [a for a in range(3) if a != axis]
            face[:, others[0]] = u
            face[:, others[1]] = v
            points.append(face)
            n = np.zeros((per_face * per_face, 3))
            n[:, axis] = sign
            normals.append(n)
    points = np.vstack(points)
    normals = np.vstack(normals)
    weights = np.full(points.shape[0], (edge / per_face) ** 2)
    return MeasurementSurface(points, weights, normals, region_radius=half, region_norm=np.inf)


@dataclass(frozen=True)
class FieldSamples:
    """Complex d-vector field values at the surface points."""

    surface: MeasurementSurface
    values: np.ndarray
    synthesis_info: SweepInfo | None = None  # set on fields that come from a synthesis

    def __post_init__(self):
        if self.values.shape != (self.surface.count, self.surface.dimension):
            raise GeometryError("values must be one d-vector per surface point")


def synthesize_scattered_fields(currents, surface: MeasurementSurface, ctx: WaveContext) -> list[FieldSamples]:
    """Discrete-sum scattered fields E^s_l(x_m) = sum_j Phi(x_m, y_j) J_l(y_j) h^d
    of currents J_1..J_L on one grid, in their order.

    It is the orbit contraction em_core._sweep from the nodes where any
    current is nonzero, and their images, to the surface points, against the
    references F[j, a, b, l d + i] = delta_ai J_l,b(j) h^d, K = d L columns
    per group member.  The group (em_core._symmetry_group) maps the grid's
    ticks onto themselves and the surface points exactly onto each other; it
    acts on the references alone, so the currents need not be symmetric.
    Each field carries the contraction's SweepInfo as synthesis_info.  Every
    measurement point must lie strictly outside the source grid's bounding box.
    """
    if not currents:
        raise DomainError("synthesis needs at least one current")
    grid = currents[0].grid
    if not all(grid.same_nodes(current.grid) for current in currents[1:]):
        raise GeometryError("the currents must share one forward grid")
    lo, hi = grid.bounds
    inside = np.all((surface.points >= lo) & (surface.points <= hi), axis=1)
    if inside.any():
        raise GeometryError("measurement points must lie outside the forward grid box")
    d = ctx.dimension
    axis_perms, signs, point_perms = _symmetry_group(surface, grid)
    stacked = np.stack([current.values for current in currents], axis=1)

    def images(nodes):  # raveled indices (G, n) of the images sigma y of the nodes
        return _image_indices(axis_perms, signs, np.array(np.unravel_index(nodes, grid.counts)), grid.counts)

    # the sources: the orbits of the nodes carrying current, so no field depends on the other currents
    sources = np.unique(images(np.flatnonzero(np.any(stacked != 0.0, axis=(1, 2)))))
    node_perms = np.searchsorted(sources, images(sources))  # sigma y_j = y_node_perms[j], j counting the sources
    refs = np.einsum("ai,jlb->jabli", np.eye(d), stacked[sources] * grid.cell_measure)
    refs = refs.reshape(sources.size, d, d, d * len(currents))
    reps = np.flatnonzero(point_perms.min(axis=0) == np.arange(surface.count))
    values, info = _sweep(ctx, grid.nodes[sources], (axis_perms, signs, node_perms), refs, surface.count,
                          (reps, lambda chunk: (surface.points[chunk], point_perms[:, chunk])))
    return [FieldSamples(surface, values[l * d:(l + 1) * d].T.copy(), info) for l in range(len(currents))]


def add_noise(samples: FieldSamples, epsilon: float, seed: int) -> FieldSamples:
    """Perturb each complex vector component by eps * max_Gamma |E| * zeta.

    zeta has independent standard-normal real and imaginary parts per
    component per point; the draw order is point-major, component-minor,
    real before imaginary, so outputs are bit-reproducible for a given seed.
    """
    if epsilon < 0.0:
        raise DomainError("noise level must be nonnegative")
    if epsilon == 0.0:
        return replace(samples)
    rng = np.random.Generator(_NOISE_BITGEN(seed))
    draws = rng.standard_normal(samples.values.shape + (2,))
    zeta = draws[..., 0] + 1j * draws[..., 1]
    scale = epsilon * np.linalg.norm(samples.values, axis=1).max()
    return replace(samples, values=samples.values + scale * zeta)


def l2_inner_product(f: FieldSamples, g: FieldSamples) -> complex:
    """Weighted hermitian pairing sum_m w_m sum_i f_i(x_m) conj(g_i(x_m))."""
    if not f.surface.same_samples(g.surface):
        raise GeometryError("inner product requires samples on the same surface")
    return complex(np.sum(f.surface.weights * np.sum(f.values * np.conj(g.values), axis=1)))


def l2_norm(f: FieldSamples) -> float:
    return float(np.sqrt(max(l2_inner_product(f, f).real, 0.0)))


def _csv_header(d: int) -> list[str]:
    header = [f"x{i + 1}" for i in range(d)] + ["w"]
    for i in range(d):
        header += [f"Re_E{i + 1}", f"Im_E{i + 1}"]
    return header


def write_field_samples_csv(samples: FieldSamples, path) -> None:
    """CSV schema: x1..xd, w, Re/Im per component, 17 significant digits.

    The table is one %.17g template, with the csv module's excel line ending,
    so the bytes are those of csv.writer writing each value as f"{v:.17g}"."""
    header = ",".join(_csv_header(samples.surface.dimension)).encode()
    table = np.column_stack([samples.surface.points, samples.surface.weights,
                             np.ascontiguousarray(samples.values).view(np.float64)])
    template = (b",".join([b"%.17g"] * table.shape[1]) + b"\r\n") * len(table)
    with open(path, "wb") as fh:
        fh.write(header + b"\r\n" + template % tuple(table.ravel().tolist()))


def read_field_samples_csv(path, surface: MeasurementSurface) -> FieldSamples:
    """Inverse of write_field_samples_csv: the field the file samples on surface.

    The file must have the writer's header for d = 2 or 3, at least one row,
    and one finite number per header column in each row: GeometryError for a
    wrong shape and DomainError for a bad value, naming the line.  Its points
    and weights must equal the surface's.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    if header not in (_csv_header(2), _csv_header(3)):
        raise GeometryError(f"{path}: line 1: header {','.join(header)!r} is not the 2D or 3D field-sample header")
    if len(rows) < 2:
        raise GeometryError(f"{path}: line 2: no data rows")
    arr = np.empty((len(rows) - 1, len(header)))
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise GeometryError(f"{path}: line {line}: {len(row)} values, expected {len(header)}")
        try:
            arr[line - 2] = [float(v) for v in row]
        except ValueError as exc:
            raise DomainError(f"{path}: line {line}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise DomainError(f"{path}: line {bad[0] + 2}: values must be finite")
    d = (len(header) - 1) // 3
    if not (np.array_equal(arr[:, :d], surface.points) and np.array_equal(arr[:, d], surface.weights)):
        raise GeometryError(f"{path}: points or weights differ from the given surface")
    return FieldSamples(surface, arr[:, d + 1 :: 2] + 1j * arr[:, d + 2 :: 2])
