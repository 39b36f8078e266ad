"""Wave context, incident plane waves, scatterer contrast, and Green's functions.

The matrix kernel is the divergence-free fundamental solution of the
time-harmonic curl-curl system, Phi = k^2 G I + Hess(G), with G the scalar
Helmholtz fundamental solution.  Closed-form components are used throughout;
the defining k^2 G I + Hess(G) expression survives only as a test oracle.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, GeometryError, SingularityError

_TWO_PI = 2.0 * np.pi

# (target, source, axis) triples per KernelBlock: each (C, M) complex array is then 0.5-0.8 MB and a
# block holds about 4.5 at once, so the blocks of two workers hold about what one block did before
# KernelBlock formed its terms in place.  Block memory grows with the worker count; the peak was
# measured flat for two workers only.  60 k-200 k measured within noise in 2D, 200 k and 3 M slower in
# 3D.  It does not follow the worker count, so that the blocks, and the order of their sums, do not either
_CHUNK_TARGET = 100_000
# below this kr the 3D Im Phi is taken from the series of j0 - j1/x and of
# j2 / x^2 in x^2 (x = kr); five terms each reach double precision there.  The
# closed form loses about eps / x^2 of the whole tensor and 15 eps / x^4 of its
# rhat rhat^T part: 1e-6 of that part at x = 1e-2, 3e-11 at x = 0.1
_IM_SERIES_KR = 0.1
_ISO_SERIES = (2.0 / 3.0, -2.0 / 15.0, 1.0 / 140.0, -1.0 / 5670.0, 1.0 / 399168.0)
_J2_SERIES = (1.0 / 15.0, -1.0 / 210.0, 1.0 / 7560.0, -1.0 / 498960.0, 1.0 / 51891840.0)
# one pinned_blas at a time: OpenBLAS thread counts are process-wide
_BLAS_PIN = threading.Lock()
_SLAB_BUDGET = 1 << 25  # bytes of the stacked image slabs of one pass of _sweep
# _sweep's blocks beyond the identity take the rows they would against this many sources: against
# 14 000 sources, 2 rows made the products read the wide slabs for each pair of rows, four times as slow
_ORBIT_SOURCES = 2_000


@dataclass(frozen=True)
class WaveContext:
    """Spatial dimension plus wavenumber/wavelength pair (k * lambda = 2 pi)."""

    dimension: int
    wavenumber: float
    wavelength: float

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise DimensionMismatchError(f"dimension must be 2 or 3, got {self.dimension}")
        if self.wavenumber <= 0.0 or self.wavelength <= 0.0:
            raise DomainError("wavenumber and wavelength must be positive")
        if abs(self.wavenumber * self.wavelength - _TWO_PI) > 1e-12 * _TWO_PI:
            raise DomainError("wavenumber * wavelength must equal 2*pi")

    @classmethod
    def from_wavelength(cls, dimension: int, wavelength: float) -> "WaveContext":
        return cls(dimension, _TWO_PI / wavelength, wavelength)


def _as_point(ctx: WaveContext, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != ctx.dimension:
        raise DimensionMismatchError(
            f"point has {arr.shape[-1]} coordinates, context dimension is {ctx.dimension}"
        )
    return arr


@dataclass(frozen=True)
class IncidentPlaneWave:
    """Unit-amplitude plane wave p * exp(i k d.x) with p perpendicular to d."""

    direction: np.ndarray
    polarization: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.float64)
        p = np.asarray(self.polarization, dtype=np.float64)
        if d.shape != p.shape or d.ndim != 1:
            raise DimensionMismatchError("direction and polarization must be vectors of the same length")
        if not (np.isfinite(d).all() and np.isfinite(p).all()):
            raise DomainError("direction and polarization must be finite")
        if abs(np.linalg.norm(d) - 1.0) > 1e-12 or abs(np.linalg.norm(p) - 1.0) > 1e-12:
            raise DomainError("direction and polarization must be unit vectors")
        if abs(float(d @ p)) > 1e-12:
            raise DomainError("polarization must be perpendicular to the incident direction")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "polarization", p)

    @property
    def dimension(self) -> int:
        return self.direction.shape[0]


def incident_field(wave: IncidentPlaneWave, ctx: WaveContext, x) -> np.ndarray:
    """E^i(x) = p exp(i k d.x); x may be a point or an (..., d) batch."""
    if wave.dimension != ctx.dimension:
        raise DimensionMismatchError("incident wave dimension does not match context")
    pts = _as_point(ctx, x)
    phase = np.exp(1j * ctx.wavenumber * (pts @ wave.direction))
    return phase[..., np.newaxis] * wave.polarization


@dataclass(frozen=True)
class Shape:
    """Axis-aligned box scatterer with an optional concentric box hole
    (inner_side 0: none); membership uses half-open cells."""

    center: np.ndarray
    outer_side: float
    inner_side: float = 0.0
    eta: complex = 1.0 + 0.0j

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        object.__setattr__(self, "center", center)
        if center.shape not in ((2,), (3,)):
            raise DimensionMismatchError("a shape needs a 2- or 3-vector center")
        if not np.isfinite([*center, self.outer_side, self.inner_side, self.eta]).all():
            raise DomainError("center, sides and eta must be finite")
        if not 0.0 <= self.inner_side < self.outer_side:
            raise DomainError("a shape needs 0 <= inner_side < outer_side")
        object.__setattr__(self, "eta", complex(self.eta))

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def _in_box(self, points: np.ndarray, side: float) -> np.ndarray:
        lo = self.center - 0.5 * side
        hi = self.center + 0.5 * side
        return np.all((points >= lo) & (points < hi), axis=-1)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Inside the outer box and outside the hole; a hole of side 0 has
        lo == hi and so holds no point."""
        return self._in_box(points, self.outer_side) & ~self._in_box(points, self.inner_side)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        half = 0.5 * self.outer_side
        return self.center - half, self.center + half


@dataclass(frozen=True)
class ContrastField:
    """Ordered shape list defining eta(x) = n^2 - 1; later shapes override earlier ones."""

    shapes: tuple[Shape, ...]

    def __init__(self, shapes):
        object.__setattr__(self, "shapes", tuple(shapes))
        if not self.shapes:
            raise GeometryError("contrast field needs at least one shape")
        dims = {s.dimension for s in self.shapes}
        if len(dims) != 1:
            raise DimensionMismatchError("all shapes must share one dimension")

    @property
    def dimension(self) -> int:
        return self.shapes[0].dimension

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        los, his = zip(*(s.bounds for s in self.shapes))
        return np.min(los, axis=0), np.max(his, axis=0)

    def eta_at(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = np.zeros(pts.shape[:-1], dtype=np.complex128)
        for shape in self.shapes:
            mask = shape.contains(pts)
            out[mask] = shape.eta
        return out[0] if scalar else out


def _hankel1_01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H_0^(1), H_1^(1) at x > 0, each J_n + i Y_n written straight into the
    real and imaginary parts of one complex array.  scipy.special is imported
    on the first call, not at module level, so that 3D runs never load it."""
    from scipy import special

    if np.any(x <= 0.0):
        raise DomainError("Hankel functions need a strictly positive argument")
    h0 = np.empty(x.shape, dtype=np.complex128)
    special.j0(x, out=h0.real)
    special.y0(x, out=h0.imag)
    h1 = np.empty(x.shape, dtype=np.complex128)
    special.j1(x, out=h1.real)
    special.y1(x, out=h1.imag)
    return h0, h1


def green_scalar_from_distance(ctx: WaveContext, r) -> np.ndarray:
    """Scalar free-space kernel as a function of separation r > 0."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0.0):
        raise SingularityError("scalar kernel requires strictly positive separation")
    kr = ctx.wavenumber * r
    if ctx.dimension == 2:
        from scipy import special

        return 0.25j * (special.j0(kr) + 1j * special.y0(kr))
    return np.exp(1j * kr) / (4.0 * np.pi * r)


def green_tensor_parts(ctx: WaveContext, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (a, b) of the matrix kernel Phi = a I + b rhat rhat^T at
    an array r of separations r > 0.

    2D: a = (i k^2 / 4)(H_0 - H_1 / (kr)), b = (i k^2 / 4) H_2.
    3D: a = G (k^2 + ik/r - 1/r^2), b = -G (k^2 + 3ik/r - 3/r^2).

    The terms are formed in place, so that at most four complex arrays of r's
    shape are live at once; a separation's values do not depend on the array
    it comes in.
    """
    k = ctx.wavenumber
    if ctx.dimension == 2:
        x = k * r
        h0, h1 = _hankel1_01(x)
        h1_kr = h1 / x
        h2 = np.multiply(np.divide(2.0, x, out=x), h1, out=h1)  # H_2 = (2/x) H_1 - H_0, stable for Y so for H
        h2 -= h0
        h0 -= h1_kr
        del x, h1_kr
        pref = 0.25j * k * k
        return np.multiply(pref, h0, out=h0), np.multiply(pref, h2, out=h2)
    g = 1j * k * r
    np.exp(g, out=g)
    g /= 4.0 * np.pi * r
    inv_r = 1.0 / r
    radial = 1j * k * inv_r
    radial -= inv_r * inv_r
    del inv_r
    # complex products do not commute bitwise: (term) * g is the order that numpy's
    # temporary elision gives g * (term) from 256 KiB on, at every array size
    a = (k * k + radial) * g
    return a, (-(k * k) - np.multiply(3.0, radial, out=radial)) * g


def green_tensor_from_diff(ctx: WaveContext, diff) -> np.ndarray:
    """Matrix kernel Phi for separation vectors diff = x - y, shape (..., d).

    Closed form a I + b rhat rhat^T (see green_tensor_parts); returns shape
    (..., d, d).
    """
    d = ctx.dimension
    diff = np.asarray(diff, dtype=np.float64)
    if diff.shape[-1] != d:
        raise DimensionMismatchError("separation vector length does not match context")
    batch_shape = diff.shape[:-1]
    flat = diff.reshape(-1, d)
    r = np.linalg.norm(flat, axis=-1)
    if np.any(r == 0.0):
        raise SingularityError("matrix kernel is singular at coincident points")
    rhat = flat / r[:, np.newaxis]
    outer = rhat[:, :, np.newaxis] * rhat[:, np.newaxis, :]
    a, b = green_tensor_parts(ctx, r)
    out = a[:, np.newaxis, np.newaxis] * np.eye(d) + b[:, np.newaxis, np.newaxis] * outer
    return out.reshape(batch_shape + (d, d))


def symmetric_slabs(refs: np.ndarray) -> np.ndarray:
    """References F (M, d, d, K) as the slabs (d(d+1)/2, M, K) of KernelBlock.contract:
    F_ii and F_ij + F_ji for each component i <= j, in order."""
    by_component = refs.transpose(1, 2, 0, 3)
    i, j = np.triu_indices(refs.shape[1])
    slabs = by_component[i, j]
    slabs[i != j] += by_component[j, i][i != j]
    return slabs


class KernelBlock:
    """Phi between M sources x_s, the points summed over, and C targets x_t,
    the output rows, none of which is a source:

        Phi_ij(x_s, x_t) = a delta_ij + (b / r^2) diff_i diff_j,   diff = x_s - x_t,

    with (a, b) = green_tensor_parts.  Phi is even in diff, so
    Phi(x_s, x_t) = Phi(x_t, x_s).  A block keeps diag = a and outer_r2 =
    b / r^2 as (C, M) arrays and, given source weights, the second moments of
    probe_norms.  The terms are formed in place, r^2 and the separation
    components diff_i are taken again where needed rather than kept, and
    rho / r^2 lives only while the moments are taken, so that a block holds
    about four and a half complex (C, M) arrays at once, against eight to ten
    when each term was a new array and every component was kept.
    """

    def __init__(self, ctx: WaveContext, sources: np.ndarray, targets: np.ndarray, weights=None):
        self.sources, self.targets = sources, targets
        r = self._squared_distance()
        a, b = green_tensor_parts(ctx, np.sqrt(r, out=r))
        del r
        if weights is not None:
            # A = sum_s w_s |a|^2 and rho = 2 Re(conj(a) b) + |b|^2, of probe_norms
            rho = np.square(a.real)
            part = np.square(a.imag)
            rho += part
            second = rho @ weights
            np.multiply(a.real, b.real, out=rho)
            rho += np.multiply(a.imag, b.imag, out=part)
            rho *= 2.0
            rho += np.square(b.real, out=part)
            rho += np.square(b.imag, out=part)
            del part
        inv_r2 = self._squared_distance()
        np.divide(1.0, inv_r2, out=inv_r2)
        self.diag, self.outer_r2 = a, np.multiply(b, inv_r2, out=b)
        if weights is not None:
            rho *= inv_r2
        del inv_r2
        self.moments = None if weights is None else (second, self._cross_moments(rho, weights))

    def _separation(self, i: int, out=None) -> np.ndarray:
        """Component i of diff = x_s - x_t, shape (C, M)."""
        return np.subtract(self.sources[np.newaxis, :, i], self.targets[:, np.newaxis, i], out=out)

    def _squared_distance(self) -> np.ndarray:
        r2 = np.square(self._separation(0))
        for i in range(1, self.sources.shape[1]):
            r2 += np.square(self._separation(i))
        return r2

    def _component_pairs(self):
        """(i == j, diff_i, diff_j) for each component i <= j, in order, in
        two buffers that every pair reuses."""
        diff_i, diff_j = np.empty(self.diag.shape), np.empty(self.diag.shape)
        d = self.sources.shape[1]
        for i in range(d):
            self._separation(i, out=diff_i)
            for j in range(i, d):
                yield i == j, diff_i, diff_i if i == j else self._separation(j, out=diff_j)

    def _cross_moments(self, rho_r2: np.ndarray, weights: np.ndarray) -> list[np.ndarray]:
        """S_ij = sum_s w_s rho diff_i diff_j / r^2, shape (C,), for each
        component i <= j, in order (see probe_norms)."""
        moment = np.empty_like(rho_r2)
        cross = []
        for _, diff_i, diff_j in self._component_pairs():
            np.multiply(rho_r2, diff_i, out=moment)
            moment *= diff_j
            cross.append(moment @ weights)
        return cross

    def contract(self, slabs: np.ndarray) -> np.ndarray:
        """The pairings P[c, k] = sum_s Phi(x_s, x_c) : F[s, :, :, k], shape (C, K),
        for F held as symmetric_slabs: each component i <= j meets its slab in one GEMM."""
        out = np.zeros((len(self.diag), slabs.shape[2]), dtype=np.complex128)
        phi = np.empty_like(self.diag)
        for (same, diff_i, diff_j), slab in zip(self._component_pairs(), slabs):
            np.multiply(self.outer_r2, diff_i, out=phi)
            phi *= diff_j
            if same:
                phi += self.diag
            out += phi @ slab
        return out

    def probe_norms(self, qs: np.ndarray) -> np.ndarray:
        """||Phi(., x_c) q|| in the product weighted by the block's source
        weights, for every target and every column q of qs (d, L); returns
        shape (C, L).

        Data-free closed form: |Phi q|^2 = |a|^2 |q|^2 + rho (diff.q)^2 / r^2
        for real q, rho = 2 Re(conj(a) b) + |b|^2.  Its weighted sum is
        A |q|^2 + q^T S q with the second moments A = sum_s w_s |a|^2 and
        S_ij = sum_s w_s rho diff_i diff_j / r^2, taken once per block, when
        it is built, whatever the number of columns.
        """
        if self.moments is None:
            raise DomainError("probe_norms needs a block built with source weights")
        second, cross = self.moments
        out = np.outer(second, np.sum(qs * qs, axis=0))
        moment = iter(cross)
        for i in range(len(qs)):
            for j in range(i, len(qs)):
                out += np.outer(next(moment), (1.0 if i == j else 2.0) * qs[i] * qs[j])
        return np.sqrt(out)


def _thread_count() -> int:
    """Worker threads for run_tasks: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _blas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS
    (scipy-openblas64, 64-bit symbols scipy_openblas_{get,set}_num_threads64_),
    or None where they are absent; looked up on first use, not at import.
    dlsym on numpy's extension also searches the libraries it links, so the
    library is found wherever the wheel put it."""
    try:
        lib = ctypes.CDLL(importlib.import_module("numpy._core._multiarray_umath").__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def pinned_blas():
    """Run the block with numpy's OpenBLAS on one thread, and restore its
    thread count after it, also when the block raises.  OpenBLAS rounds some
    products differently on one thread and on several, so what the block
    computes does not depend on the ambient thread count; and OpenBLAS
    threads busy-wait for a while after a threaded call, taking cores from
    whatever runs next.  Where the thread symbols are absent the build is
    left as it is.  One pin at a time in the process, as the thread count is
    process-wide: the pin is not re-entrant.
    """
    blas = _blas_threads()
    with _BLAS_PIN:
        if blas is None:
            yield
            return
        get_threads, set_threads = blas
        saved = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(saved)


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None under another C library."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


@dataclass(frozen=True)
class BlockRun:
    """How run_tasks ran: its tasks (run_blocks' kernel blocks), its worker
    threads, and whether BLAS was pinned to one thread meanwhile."""

    blocks: int
    threads: int
    blas_pinned: bool


def run_tasks(tasks: Sequence[Callable[[], object]]) -> BlockRun:
    """Call each task once on up to _thread_count() worker threads.

    Worker w runs task w first and the workers then take the rest in turn, so
    that with no more tasks than workers each task has a worker of its own,
    task 0 the calling thread.  The calling thread works as one of the
    workers, which adds one malloc arena rather than one per worker, and one
    task runs on the calling thread alone.  The whole run, whatever the
    worker count, runs under pinned_blas: numpy's OpenBLAS on one thread, its
    thread count restored after the run, so a task's result depends neither
    on the worker count nor on the ambient BLAS thread count.  Where numpy's
    OpenBLAS thread symbols are absent the run uses one worker and reports
    BLAS unpinned.  The first exception a task
    raises propagates once every worker has stopped.  Before and after a run
    on several workers the free heap is returned to the system (glibc's
    malloc_trim).  A task must not call run_tasks or enter pinned_blas: the
    pin is held for the whole run and is not re-entrant.
    """
    threads = _thread_count()
    blas = _blas_threads()
    workers = 1 if blas is None else max(1, min(threads, len(tasks)))
    pending = iter(range(workers, len(tasks)))
    take = threading.Lock()
    failed = threading.Event()

    def drain(index):
        while index is not None and index < len(tasks) and not failed.is_set():
            try:
                tasks[index]()
            except BaseException:
                failed.set()
                raise
            with take:
                index = next(pending, None)

    # a pool thread's arrays come from its own malloc arena, which cannot
    # reuse the free pages the main arena keeps; hand those back before the
    # run, and the pool arena's after it, so that neither peaks on top of the
    # other
    trim = _malloc_trim() if workers > 1 else None
    if trim is not None:
        trim(0)
    with pinned_blas():
        # the pool starts its threads on submit, so one worker starts none
        with ThreadPoolExecutor(max(1, workers - 1)) as pool:
            futures = [pool.submit(drain, w) for w in range(1, workers)]
            drain(0)
            for future in futures:
                future.result()
    if trim is not None:
        trim(0)
    return BlockRun(len(tasks), workers, blas is not None)


def run_blocks(work: Callable[[int, int], None], n_targets: int, n_sources: int, dimension: int,
               min_rows: int = 1) -> BlockRun:
    """Call work(lo, hi) once for each block [lo, hi) of the n_targets
    targets of KernelBlocks against n_sources sources, about _CHUNK_TARGET
    (target, source, axis) triples and at least min_rows targets each, as the
    tasks of run_tasks.

    The block size does not depend on the worker count, so no result depends
    on it as long as each call writes only its own targets' slots.
    """
    step = max(1, min_rows, _CHUNK_TARGET // max(1, n_sources * dimension))
    # freeing one mmapped block raises glibc's mmap threshold to its size (and
    # its heap trim threshold to twice that), so each block's arrays stay on
    # the heap instead of being unmapped and faulted in again per block
    np.empty(8 * step * n_sources, dtype=np.complex128)
    return run_tasks([functools.partial(work, lo, min(lo + step, n_targets)) for lo in range(0, n_targets, step)])


@dataclass(frozen=True)
class SweepInfo:
    """What one orbit contraction (_sweep) evaluated: its group's order, the
    orbit representatives, the (source, target) pairs evaluated and the pairs
    they served, its chunks, its worker threads, and whether BLAS was pinned
    to one thread (run_blocks)."""

    group_order: int
    orbits: int
    kernel_pairs: int
    grid_pairs: int
    chunks: int
    threads: int
    blas_pinned: bool


def centred_ticks(centre: float, pitch: float, n: int) -> np.ndarray:
    """The n ticks centre + pitch (i - (n - 1) / 2): every lattice's, so that
    ticks centred on 0 are each other's negatives bit for bit."""
    return centre + pitch * (np.arange(n) - (n - 1) / 2)


def lattice_points(axes) -> np.ndarray:
    """The points (N, d) of the tensor lattice with ticks axes, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _symmetry_group(surface, lattice):
    """The signed permutations sigma, (sigma v)_i = s_i v_p(i), under which
    both the surface (sigma x_m = x_pi(m) and w_pi(m) = w_m) and the lattice
    (axis p(i)'s ticks are s_i times axis i's) are invariant bit for bit, as
    centred_ticks makes them about 0.  Returns the axis permutations p (G, d),
    the signs s (G, d) and the point permutations pi (G, M), the identity
    first.  Each candidate pairs the sorted points with the sorted mapped
    points, which must then be equal; exact invariances compose, so the
    result is a group.
    """
    points = surface.points
    axes = lattice.axes
    d = len(axes)
    order = np.lexsort(points.T)
    found = []
    for p in itertools.permutations(range(d)):
        for s in itertools.product((1.0, -1.0), repeat=d):
            if not all(np.array_equal(axes[j], axes[i] if si > 0.0 else -axes[i][::-1])
                       for i, (j, si) in enumerate(zip(p, s))):
                continue
            mapped = np.array(s) * points[:, p]
            perm = np.empty(surface.count, dtype=np.intp)
            perm[np.lexsort(mapped.T)] = order
            if np.array_equal(points[perm], mapped) and np.array_equal(surface.weights[perm], surface.weights):
                found.append((p, s, perm))
    axis_perms, signs, point_perms = (np.array(column) for column in zip(*found))
    return axis_perms, signs, point_perms


def _image_indices(axis_perms, signs, ticks: np.ndarray, dims) -> np.ndarray:
    """Raveled lattice indices (G, C) of the images sigma x of the lattice
    points with tick indices ticks (d, C): axis i takes tick k_p(i), mirrored
    to n_i - 1 - k_p(i) where s_i < 0."""
    moved = ticks[axis_perms]
    mirrored = np.where(signs[:, :, np.newaxis] < 0.0, np.array(dims)[:, np.newaxis] - 1 - moved, moved)
    return np.ravel_multi_index(tuple(mirrored.transpose(1, 0, 2)), dims)


def _orbit_representatives(axis_perms, signs, dims) -> np.ndarray:
    """Raveled indices (R,) of the lattice points whose raveled index is the
    smallest in their orbit, ascending.

    They are picked from the sign-flip orthant (the lower half, centre tick
    included, of each axis whose flip alone is in the group), which holds
    every orbit's smallest index, so no (N, G) array is built.
    """
    d = signs.shape[1]
    flips_only = np.all(axis_perms == np.arange(d), axis=1)
    halved = np.any(signs[flips_only & (np.sum(signs < 0.0, axis=1) == 1)] < 0.0, axis=0)
    shape = np.array(dims)
    orthant = tuple(np.where(halved, (shape + 1) // 2, shape))
    ticks = np.array(np.unravel_index(np.arange(np.prod(orthant)), orthant))
    index = np.ravel_multi_index(tuple(ticks), dims)
    smallest = np.ones(index.shape, dtype=bool)
    # flips of halved axes only never lower an orthant point's index
    for g in np.flatnonzero(~flips_only | np.any((signs < 0.0) & ~halved, axis=1)):
        smallest &= _image_indices(axis_perms[g:g + 1], signs[g:g + 1], ticks, dims)[0] >= index
    return index[smallest]


def _lattice_orbits(group, axes):
    """The orbits argument of _sweep on the lattice with ticks axes."""
    axis_perms, signs, _ = group
    dims = tuple(len(axis) for axis in axes)

    def locate(reps):
        ticks = np.array(np.unravel_index(reps, dims))
        points = np.column_stack([axis[k] for axis, k in zip(axes, ticks)])
        return points, _image_indices(axis_perms, signs, ticks, dims)

    return _orbit_representatives(axis_perms, signs, dims), locate


def _orbit_slots(images: np.ndarray) -> np.ndarray:
    """The mask (G, C) of the slots that the images (G, C) of C orbit
    representatives write: a slot that several group elements reach (a
    nontrivial stabilizer) is written by the first in group order."""
    order = np.argsort(images, axis=0, kind="stable")
    ranked = np.take_along_axis(images, order, axis=0)
    first = np.ones(images.shape, dtype=bool)
    np.put_along_axis(first, order[1:], ranked[1:] != ranked[:-1], axis=0)
    return first


def _image_slabs(base: np.ndarray, axis_perms, signs, source_perms) -> np.ndarray:
    """The references F_sigma[m] = sigma^T F[pi(m)] sigma of members sigma, as
    symmetric_slabs stacked (d(d+1)/2, M, G, K), from base = symmetric_slabs(F):
    slab (a, b) of sigma is s_i s_j times base slab {i, j} at the sources
    pi(m), i = p^-1(a) and j = p^-1(b), in one gather.  Addition commutes and
    a sign flip is exact, so each is bit for bit symmetric_slabs of F_sigma.
    """
    d = axis_perms.shape[1]
    rows, cols = np.triu_indices(d)
    slab_of = np.empty((d, d), dtype=np.intp)
    slab_of[rows, cols] = slab_of[cols, rows] = np.arange(len(base))
    inverse = np.argsort(axis_perms, axis=1)
    i, j = inverse[:, rows], inverse[:, cols]  # (G, d(d+1)/2)
    slabs = base[slab_of[i, j].T[:, np.newaxis], source_perms.T[np.newaxis]]
    flips = np.take_along_axis(signs, i, axis=1) * np.take_along_axis(signs, j, axis=1) < 0.0
    return np.negative(slabs, out=slabs, where=flips.T[:, np.newaxis, :, np.newaxis])


def _sweep(ctx, sources, group, refs, n_targets, orbits, per_chunk_fn=None, probe_weights=None):
    """The pairings P[c, k] = sum_m Phi(x_m, x_c) : F[m, :, :, k] of refs F
    (M, d, d, K) at the M sources x_m, for each of n_targets targets x_c,
    evaluating Phi once per orbit of a group (_symmetry_group) that maps the
    sources and the targets onto themselves.

    For a signed permutation sigma with sigma x_m = x_pi(m),
        Phi(x_m, sigma x_c) = sigma Phi(x_pi^-1(m), x_c) sigma^T,
    so the pairing at an image sigma x_c is the pairing at x_c against
    F_sigma[m] = sigma^T F[pi(m)] sigma (_image_slabs): the group, given as
    (p, s, pi), acts on the references alone.  orbits is (reps, locate): the
    representatives' target indices (R,), and locate(some reps) gives their
    points (C, d) and their images (G, C), the target indices of sigma x_c.
    Each chunk is one KernelBlock of run_blocks, built with probe_weights
    where per_chunk_fn(block, P, members) maps the pairings P (C, G', K) of
    the members members (G',) to real values of P's shape; without it the
    values are the pairings.  Each target is written once, by the first group
    element that reaches it, so results do not depend on the thread count.
    The members go in passes whose stacked slabs fit _SLAB_BUDGET, one
    run_blocks each, so that their memory does not grow with the group order;
    each pass evaluates Phi anew.  Returns the values (K, n_targets) and a
    SweepInfo.
    """
    n_images, d = group[1].shape
    n_columns = refs.shape[3]
    base = symmetric_slabs(refs)
    reps, locate = orbits
    outputs = np.empty((n_columns, n_targets), dtype=np.complex128 if per_chunk_fn is None else np.float64)

    def one_pass(members):
        slabs = _image_slabs(base, *(part[members] for part in group))
        slabs = slabs.reshape(len(slabs), len(sources), len(members) * n_columns)

        def work(lo, hi):
            points, images = locate(reps[lo:hi])
            block = KernelBlock(ctx, sources, points, probe_weights)
            values = block.contract(slabs).reshape(hi - lo, len(members), n_columns)
            if per_chunk_fn is not None:
                values = per_chunk_fn(block, values, members)
            first = _orbit_slots(images)[members]
            outputs[:, images[members][first]] = values.transpose(2, 1, 0)[:, first]

        return run_blocks(work, len(reps), len(sources), d, min_rows)

    per_pass = max(1, _SLAB_BUDGET // max(1, base.nbytes))
    min_rows = 1 if n_images == 1 else _CHUNK_TARGET // (_ORBIT_SOURCES * d)
    runs = [one_pass(np.arange(lo, min(lo + per_pass, n_images))) for lo in range(0, n_images, per_pass)]
    info = SweepInfo(n_images, len(reps), len(runs) * len(reps) * len(sources), n_targets * len(sources),
                     sum(run.blocks for run in runs), runs[-1].threads, runs[-1].blas_pinned)
    return outputs, info


def curl_green_tensor_from_diff(ctx: WaveContext, diff, v) -> np.ndarray:
    """curl_x (Phi(x, y) v) for separations diff = x - y, shape (..., d).

    The Hessian term is a gradient, so only k^2 G v contributes:
    curl = k^2 G'(r) rhat x v, with G' = -(ik/4) H_1(kr) in 2D and
    G (ik - 1/r) in 3D.  Returns the scalar (out-of-plane) curl, shape (...),
    in 2D and shape (..., 3) in 3D.
    """
    diff = np.asarray(diff, dtype=np.float64)
    if diff.shape[-1] != ctx.dimension:
        raise DimensionMismatchError("separation vector length does not match context")
    r = np.linalg.norm(diff, axis=-1)
    if np.any(r == 0.0):
        raise SingularityError("the curl kernel is singular at coincident points")
    k = ctx.wavenumber
    if ctx.dimension == 2:
        d_green = -0.25j * k * _hankel1_01(k * r)[1]
        return (k * k * d_green / r) * (diff[..., 0] * v[1] - diff[..., 1] * v[0])
    d_green = np.exp(1j * k * r) / (4.0 * np.pi * r) * (1j * k - 1.0 / r)
    return (k * k * d_green / r)[..., np.newaxis] * np.cross(diff, v)


def im_green_tensor_from_diff(ctx: WaveContext, diff) -> np.ndarray:
    """Im Phi for separations diff; finite (and isotropic) at zero separation."""
    d = ctx.dimension
    diff = np.asarray(diff, dtype=np.float64)
    if diff.shape[-1] != d:
        raise DimensionMismatchError("separation vector length does not match context")
    batch_shape = diff.shape[:-1]
    flat = diff.reshape(-1, d)
    r = np.linalg.norm(flat, axis=-1)
    k = ctx.wavenumber
    eye = np.eye(d)
    out = np.empty((flat.shape[0], d, d))
    coincident = r == 0.0
    if coincident.any():
        out[coincident] = (k * k / 8.0) * eye if d == 2 else (k**3 / (6.0 * np.pi)) * eye
    regular = ~coincident
    if d == 3:
        # the closed form below cancels catastrophically as kr -> 0; there
        # Im Phi = (k^3 / 4 pi)[(j0 - j1/x) I + j2 rhat rhat^T], x = kr, in series
        series = regular & (k * r < _IM_SERIES_KR)
        regular &= ~series
        if series.any():
            x2 = np.square(k * r[series])
            rhat = flat[series] / r[series][:, np.newaxis]
            outer = rhat[:, :, np.newaxis] * rhat[:, np.newaxis, :]
            iso = np.polynomial.polynomial.polyval(x2, _ISO_SERIES)
            j2 = x2 * np.polynomial.polynomial.polyval(x2, _J2_SERIES)
            out[series] = (k**3 / (4.0 * np.pi)) * (
                iso[:, np.newaxis, np.newaxis] * eye + j2[:, np.newaxis, np.newaxis] * outer
            )
    if regular.any():
        rr = r[regular]
        rhat = flat[regular] / rr[:, np.newaxis]
        outer = rhat[:, :, np.newaxis] * rhat[:, np.newaxis, :]
        kr = k * rr
        if d == 2:
            # jv(2, .) rather than the recurrence, which loses J_2's
            # relative accuracy for kr <= 2
            from scipy import special

            j0 = special.j0(kr)
            j1 = special.j1(kr)
            j2 = special.jv(2, kr)
            out[regular] = 0.25 * k * k * (
                (j0 - j1 / kr)[:, np.newaxis, np.newaxis] * eye
                + j2[:, np.newaxis, np.newaxis] * outer
            )
        else:
            s = np.sin(kr)[:, np.newaxis, np.newaxis]
            c = np.cos(kr)[:, np.newaxis, np.newaxis]
            inv_r = (1.0 / rr)[:, np.newaxis, np.newaxis]
            out[regular] = (
                s * (k * k * (eye - outer) - inv_r * inv_r * (eye - 3.0 * outer))
                + k * c * inv_r * (eye - 3.0 * outer)
            ) * (inv_r / (4.0 * np.pi))
    return out.reshape(batch_shape + (d, d))
