"""Direct sampling indicators: probe fields, the normalized index, combined
index, sampling sweeps, cross-correlation diagnostics, and their export.

The index of a sampling point x_p against data E^s is
    Psi(x_p; q) = |<E^s, Phi(., x_p) q>| / (||E^s|| ||Phi(., x_p) q||)
with all pairings in the weighted L2 product on the measurement surface.
Values lie in [0, 1] by Cauchy-Schwarz and peak near scatterer support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .em_core import (KernelBlock, Lattice, SweepInfo, WaveContext, _lattice_orbits, _sweep, _symmetry_group,
                      green_tensor_from_diff)
from .errors import DomainError, GeometryError
from .measurement import FieldSamples, MeasurementSurface, l2_norm

# index rows per write, in whole lines.  example1 with 20% noise (three
# 160 801-row CSVs as byte rows), run time and peak RSS, medians of 3
# alternating 18-s benchmark runs on a 2-core VM: 1 024 rows 0.385 s 80.2 MB,
# 4 096 rows 0.333 s 80.4 MB, 16 384 rows 0.379 s 81.8 MB.  4 096 is the
# fastest; at 16 384 rows a block's array, its bytes and its text without
# NULs come to about 1.1, 1.1 and 0.8 MB, and the peak rises by 1.4 MB.
_CSV_BLOCK_ROWS = 4_096
_POWERS_OF_TEN = np.array([float(10**k) for k in range(23)])  # exact doubles
_TIE_RTOL = 1e-12  # index values this close, relative to the peak, are tied
_MAXIMA_FLOOR = 0.5  # local maxima are listed above this fraction of the peak


def sampling_grid(box, spacing: float) -> Lattice:
    """The vertex Lattice of pitch spacing over an axis-aligned box.

    An axis [lo, hi] has n = floor((hi - lo) / spacing + 1e-9) + 1 ticks,
    centred_ticks about (lo + hi) / 2: [-2, 2] at spacing 0.01 gives 401,
    endpoints included.  A box end off the lattice splits the spare margin
    evenly between both ends, and a one-tick axis sits at its box centre.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    spacing = float(spacing)
    if not np.isfinite([spacing, *np.ravel(box)]).all():
        raise DomainError("sampling spacing and box ends must be finite")
    if spacing <= 0.0:
        raise DomainError("sampling spacing must be positive")
    if any(hi <= lo for lo, hi in box):
        raise GeometryError("sampling box must have positive extent")
    return Lattice(tuple(0.5 * (lo + hi) for lo, hi in box), spacing,
                   tuple(int(np.floor((hi - lo) / spacing + 1e-9)) + 1 for lo, hi in box))


@dataclass(frozen=True)
class IndexGrid:
    """Real indicator values over a sampling grid, in [0, 1] after normalization."""

    grid: Lattice
    values: np.ndarray  # flat, one value per grid point
    label: str
    sweep_info: SweepInfo | None = None  # set on grids that come from a sweep

    def as_array(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def argmax_location(self) -> np.ndarray:
        ticks = np.unravel_index(int(np.argmax(self.values)), self.grid.shape)
        return np.array([axis[k] for axis, k in zip(self.grid.axes, ticks)])

    def normalized(self) -> "IndexGrid":
        peak = self.values.max()
        scale = 1.0 / peak if peak > 0.0 else 1.0
        return IndexGrid(self.grid, self.values * scale, self.label, self.sweep_info)


def _check_inside(surface: MeasurementSurface, x, what: str) -> None:
    if not surface.contains_strictly(x):
        raise GeometryError(f"{what} must lie strictly inside the measurement surface")


def check_grid_inside(surface: MeasurementSurface, grid: Lattice) -> None:
    """Raise GeometryError unless every extreme point of the grid, each axis
    at its first or last tick, lies strictly inside the surface."""
    for corner in itertools.product(*((axis[0], axis[-1]) for axis in grid.axes)):
        _check_inside(surface, corner, "sampling grid corner")


def probe_field(ctx: WaveContext, surface: MeasurementSurface, x_p, q) -> FieldSamples:
    """Point-source probe Phi(., x_p) q sampled on the measurement surface."""
    x_p = np.asarray(x_p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    _check_inside(surface, x_p, "probe point")
    return FieldSamples(surface, green_tensor_from_diff(ctx, surface.points - x_p) @ q)


def compute_index_grid(ctx: WaveContext, datasets, grid: Lattice) -> list[IndexGrid]:
    """Index values over every sampling point, one sweep for all datasets.

    datasets is a sequence of (FieldSamples, polarization q) pairs on one
    measurement surface.  Returns one grid per dataset
    (single_polarization:<l>) followed by their mean (combined).  The
    numerators <E_l, Phi(., x_c) q_l> are the pairings of one kernel
    contraction against the references conj(w E_l) q_l^T; the probe norms are
    data-free and taken in closed form.
    """
    datasets = list(datasets)
    if not datasets:
        raise DomainError("index sweep needs at least one dataset")
    surface = datasets[0][0].surface
    if not all(surface.same_samples(data.surface) for data, _ in datasets[1:]):
        raise GeometryError("all datasets must share one measurement surface")
    check_grid_inside(surface, grid)
    qs = np.array([np.asarray(q, dtype=np.float64) for _, q in datasets]).T  # (d, L)
    data_norms = np.array([l2_norm(data) for data, _ in datasets])
    if np.any(data_norms == 0.0):
        raise DomainError("index is undefined for identically zero data")
    # F_l = conj(w E_l) q_l^T: the pairing is then conj(<E_l, Phi q_l>), whose
    # magnitude is the numerator
    values = np.stack([data.values for data, _ in datasets], axis=-1)[:, :, np.newaxis]
    refs = (surface.weights[:, np.newaxis, np.newaxis, np.newaxis] * values).conj() * qs
    group = _symmetry_group(surface, grid)
    axis_perms, signs, _ = group
    # the probe norm at sigma x_c for q is the norm at x_c for sigma^T q,
    # (sigma^T q)_p(i) = s_i q_i; columns image-major, as the pairings
    moved_qs = np.empty((len(qs), len(signs), len(datasets)))
    moved_qs[axis_perms.T, np.arange(len(signs))] = signs.T[:, :, np.newaxis] * qs[:, np.newaxis]

    def per_chunk(block: KernelBlock, P: np.ndarray, members: np.ndarray):
        norms = block.probe_norms(moved_qs[:, members].reshape(len(qs), -1)).reshape(P.shape)
        return np.abs(P) / (data_norms * norms)

    per_pol, info = _sweep(ctx, surface.points, group, refs, grid.n_points,
                           _lattice_orbits(group, grid), per_chunk, surface.weights)
    grids = [
        IndexGrid(grid, vals, f"single_polarization:{i}", info)
        for i, vals in enumerate(per_pol)
    ]
    return grids + [IndexGrid(grid, np.mean(per_pol, axis=0), "combined", info)]


def cross_product_maps(ctx: WaveContext, surface: MeasurementSurface, x_q,
                       grid: Lattice, coeffs: dict) -> list[IndexGrid]:
    """Cross-correlation maps against the fixed reference point x_q, one per
    coefficient array A (d, d, d) of coeffs, from one sweep:

        map(x_c) = |sum_m Phi(x_m, x_c) : F[m]|,
        F[m, i, j] = sum_l A[i, j, l] conj(w_m Phi_il(x_m, x_q)).

    The maps follow coeffs' order, each labelled cross:<its label>, and are
    not normalized: the export writes them max-normalized.
    """
    x_q = np.asarray(x_q, dtype=np.float64)
    _check_inside(surface, x_q, "reference point")
    check_grid_inside(surface, grid)
    d = ctx.dimension
    arrays = np.array(list(coeffs.values())).reshape(-1, d, d, d)
    ref = (surface.weights[:, np.newaxis, np.newaxis]
           * green_tensor_from_diff(ctx, surface.points - x_q)).conj()
    refs = np.einsum("sijl,mil->mijs", arrays, ref)
    group = _symmetry_group(surface, grid)
    value_arrays, info = _sweep(ctx, surface.points, group, refs, grid.n_points,
                                _lattice_orbits(group, grid), lambda block, P, members: np.abs(P))
    return [
        IndexGrid(grid, values, f"cross:{label}", info)
        for values, label in zip(value_arrays, coeffs)
    ]


def find_local_maxima(index: IndexGrid):
    """Dominant 8-/26-neighbourhood maxima above _MAXIMA_FLOOR * peak,
    strongest first.

    Values within _TIE_RTOL * peak of each other are tied, so that rounding
    noise between mirror-image points decides nothing: of tied neighbours the
    first in raster order is the maximum, and tied maxima are listed in
    raster order.
    """
    arr = index.as_array()
    d = arr.ndim
    tol = _TIE_RTOL * float(np.abs(arr).max())
    padded = np.pad(arr, 1, constant_values=-np.inf)
    # only the points at or above the floor are candidates, in raster order
    flat = np.flatnonzero(arr >= _MAXIMA_FLOOR * arr.max())
    values = arr.ravel()[flat]
    ticks = np.unravel_index(flat, arr.shape)  # a point's neighbour at offset o is padded[ticks + o]
    dominant = np.ones(flat.size, dtype=bool)
    centre = (1,) * d
    for offset in np.ndindex(*([3] * d)):
        if offset == centre:
            continue
        shifted = padded[tuple(t + o for t, o in zip(ticks, offset))]
        # a neighbour earlier in raster order (offset < centre) must be beaten
        # beyond the tie, a later one only matched within it
        dominant &= (values - shifted > tol) if offset < centre else (values - shifted >= -tol)
    flat, values = flat[dominant], values[dominant]
    groups: list[list[int]] = []
    for k in np.argsort(-values, kind="stable"):
        if groups and values[groups[-1][-1]] - values[k] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    axes = index.grid.axes
    results = []
    for k in (k for group in groups for k in sorted(group)):
        loc = np.unravel_index(flat[k], arr.shape)
        point = np.array([axes[a][loc[a]] for a in range(d)])
        results.append((point, float(values[k])))
    return results


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The text tables of _format_values, built on first use and read-only,
    as every caller shares them: the 40 prefixes b"0." + z zeros + digit d at
    10 z + d, NUL-padded to two 4-byte words, and the 20 000 words b"0000" ...
    b"9999" then the same words with their trailing zeros cut to NULs."""
    groups = [b"%04d" % g for g in range(10_000)]
    prefixes = np.array([b"0." + b"0" * z + b"%d" % d for z in range(4) for d in range(10)], dtype="S8")
    tables = (prefixes.view(np.uint32).reshape(40, 2),
              np.array(groups + [g.rstrip(b"0") for g in groups], dtype="S4").view(np.uint32))
    for table in tables:
        table.flags.writeable = False
    return tables


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into a high half of 26 bits and the rest."""
    c = 134_217_729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _scaled_digits(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """round-half-even(x 10^q), exact while x 10^q lies in [2^53, 2^63).

    10^q is an exact double, and Dekker's two-product gives the rounded
    product p and its error e exactly; p >= 2^53 is an even integer, so
    p + rint(e) rounds ties to even as the exact product would.
    """
    y = _POWERS_OF_TEN[q]
    p = x * y
    (xh, xl), (yh, yl) = _split(x), _split(y)
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _format_values(values: np.ndarray) -> np.ndarray:
    """b"%.17g" % v for each value as one row of an (n, 24) uint8 array,
    NUL-padded inside and at the end: the same bytes once the NULs are dropped.

    In [1e-4, 1), where almost all of a max-normalized grid lies, %.17g
    writes "0.", q - 17 zeros and the 17 digits D = round(v 10^q), with
    q = 16 - floor(log10 v), less their trailing zeros; those rows are a
    prefix word pair ("0.", the zeros, D's lead digit) and four words of
    four digits, the last nonzero one with its trailing zeros cut and the
    all-zero ones after it NUL. The others (0, 1 and above, below 1e-4,
    negative or not finite) are formatted one at a time into their rows.
    """
    values = np.asarray(values, dtype=np.float64)
    fixed = (values >= 1e-4) & (values < 1.0)
    x = np.where(fixed, values, 0.5)
    q = 16 - np.floor(np.log10(x)).astype(np.int64)
    digits = _scaled_digits(x, q)
    # next to a power of ten log10 may miss by one, and D has 16 or 18 digits
    if digits.min() < 10**16 or digits.max() >= 10**17:
        q += digits < 10**16
        q -= digits >= 10**17
        digits = _scaled_digits(x, q)
    prefixes, words = _digit_tables()
    lead = digits // 10**16
    rest = digits - lead * 10**16
    rows = np.empty((len(values), 6), dtype=np.uint32)
    rows[:, :2] = prefixes[10 * (q - 17) + lead]
    for k, unit in enumerate((10**12, 10**8, 10**4)):
        group = rest // unit
        rest -= group * unit
        rows[:, 2 + k] = words[group + 10_000 * (rest == 0)]
    rows[:, 5] = words[10_000 + rest]  # nothing follows the last word
    text = rows.view(np.uint8)
    for i in np.flatnonzero(~fixed).tolist():
        one = b"%.17g" % values[i]
        text[i] = 0
        text[i, :len(one)] = np.frombuffer(one, dtype=np.uint8)
    return text


def write_index_csv(index: IndexGrid, path) -> None:
    """One row per sampling point: coordinates then the index value, 17
    significant digits, as %.17g writes them.

    Each axis's ticks are formatted once, as NUL-padded rows of "%.17g,"
    text, and the leading axes' rows are joined once per line along the last
    axis. A block of whole lines is one (lines, ticks, width) uint8 array
    holding, per row, the leading coordinates, the last coordinate, the
    value's row from _format_values and the newline; it is written with its
    NULs dropped. Writing a block at a time keeps the extra memory to one
    block.
    """
    d = index.grid.dimension
    ticks = [np.array([b"%.17g," % t for t in axis]).view(np.uint8).reshape(len(axis), -1)
             for axis in index.grid.axes]
    leading = np.zeros((1, 0), dtype=np.uint8)
    for axis in ticks[:-1]:
        leading = np.concatenate([np.repeat(leading, len(axis), axis=0),
                                  np.tile(axis, (len(leading), 1))], axis=1)
    last = ticks[-1]
    n_last = len(last)
    a = leading.shape[1]  # the last coordinate's text starts at a, the value's at b
    b = a + last.shape[1]
    per_block = max(1, _CSV_BLOCK_ROWS // n_last)
    with open(path, "wb") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(d)).encode() + b",value\n")
        for start in range(0, len(leading), per_block):
            lines = leading[start:start + per_block]
            values = index.values[start * n_last:(start + len(lines)) * n_last]
            block = np.empty((len(lines), n_last, b + 25), dtype=np.uint8)
            block[:, :, :a] = lines[:, np.newaxis]
            block[:, :, a:b] = last
            block[:, :, b:-1] = _format_values(values).reshape(len(lines), n_last, 24)
            block[:, :, -1] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0"))


def write_index_pgm(index: IndexGrid, path) -> None:
    """16-bit binary PGM, [0, max] mapped linearly onto [0, 65535].

    2D grids map directly (columns along the first axis, rows along the
    second, top row at the largest coordinate); 3D grids are exported as the
    maximum-intensity projection along the last axis.
    """
    arr = index.as_array()
    if arr.ndim == 3:
        arr = arr.max(axis=2)
    peak = arr.max()
    scaled = (arr / peak * 65535.0) if peak > 0 else np.zeros_like(arr)
    image = np.rint(scaled.T[::-1, :]).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode())
        fh.write(image.tobytes())
