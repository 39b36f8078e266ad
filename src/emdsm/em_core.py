"""Wave context, incident plane waves, scatterer contrast, and Green's functions.

The matrix kernel is the divergence-free fundamental solution of the
time-harmonic curl-curl system, Phi = k^2 G I + Hess(G), with G the scalar
Helmholtz fundamental solution.  Closed-form components are used throughout;
the defining k^2 G I + Hess(G) expression survives only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, GeometryError, SingularityError

_TWO_PI = 2.0 * np.pi

_SHAPE_KINDS = ("axis_square", "square_ring", "axis_cube")

# (target, source, axis) triples per KernelBlock: each (C, M) complex array is then 0.5-0.8 MB, so a
# block stays near a 2 MB L2; 60 k-200 k measured within noise in 2D, 200 k and 3 M slower in 3D
_CHUNK_TARGET = 100_000


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

    @classmethod
    def from_wavenumber(cls, dimension: int, wavenumber: float) -> "WaveContext":
        return cls(dimension, wavenumber, _TWO_PI / wavenumber)


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
    """Axis-aligned box-type scatterer; membership uses half-open cells."""

    kind: str
    center: np.ndarray
    outer_side: float
    inner_side: float = 0.0
    eta: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.kind not in _SHAPE_KINDS:
            raise DomainError(f"unknown shape kind {self.kind!r}")
        center = np.asarray(self.center, dtype=np.float64)
        object.__setattr__(self, "center", center)
        expected_dim = 3 if self.kind == "axis_cube" else 2
        if center.shape != (expected_dim,):
            raise DimensionMismatchError(f"{self.kind} needs a {expected_dim}-vector center")
        if self.outer_side <= 0.0:
            raise DomainError("outer_side must be positive")
        if self.kind == "square_ring":
            if not 0.0 <= self.inner_side < self.outer_side:
                raise DomainError("ring needs 0 <= inner_side < outer_side")
        elif self.inner_side != 0.0:
            raise DomainError("inner_side is only meaningful for square_ring")
        object.__setattr__(self, "eta", complex(self.eta))

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def _in_box(self, points: np.ndarray, side: float) -> np.ndarray:
        lo = self.center - 0.5 * side
        hi = self.center + 0.5 * side
        return np.all((points >= lo) & (points < hi), axis=-1)

    def contains(self, points: np.ndarray) -> np.ndarray:
        inside = self._in_box(points, self.outer_side)
        if self.kind == "square_ring" and self.inner_side > 0.0:
            inside &= ~self._in_box(points, self.inner_side)
        return inside

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


def contrast_eval(contrast: ContrastField, x) -> complex:
    """eta at a single point (0 outside every shape, 0 in ring holes)."""
    return complex(contrast.eta_at(np.asarray(x, dtype=np.float64)))


def hankel1_012(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H_0^(1), H_1^(1), H_2^(1) at x > 0 from the cephes J_0, Y_0, J_1, Y_1.

    H_2 follows from the upward recurrence (2/x) H_1 - H_0, which is stable
    for Y and so for H.  scipy.special is imported here, not at module level,
    so that 3D runs never load it.
    """
    from scipy import special

    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise DomainError("Hankel functions need a strictly positive argument")
    h0 = special.j0(x) + 1j * special.y0(x)
    h1 = special.j1(x) + 1j * special.y1(x)
    return h0, h1, (2.0 / x) * h1 - h0


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


def green_scalar(ctx: WaveContext, x, y) -> complex:
    """G(x, y): (i/4) H_0^(1)(k|x-y|) in 2D, e^{ik|x-y|}/(4 pi |x-y|) in 3D."""
    xp = _as_point(ctx, x)
    yp = _as_point(ctx, y)
    r = np.linalg.norm(xp - yp, axis=-1)
    if np.any(r == 0.0):
        raise SingularityError("green_scalar called with coincident points")
    out = green_scalar_from_distance(ctx, r)
    return complex(out) if np.ndim(out) == 0 else out


def green_tensor_parts(ctx: WaveContext, r) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (a, b) of the matrix kernel Phi = a I + b rhat rhat^T at
    separations r > 0.

    2D: a = (i k^2 / 4)(H_0 - H_1 / (kr)), b = (i k^2 / 4) H_2.
    3D: a = G (k^2 + ik/r - 1/r^2), b = -G (k^2 + 3ik/r - 3/r^2).
    """
    k = ctx.wavenumber
    if ctx.dimension == 2:
        h0, h1, h2 = hankel1_012(k * r)
        pref = 0.25j * k * k
        return pref * (h0 - h1 / (k * r)), pref * h2
    g = np.exp(1j * k * r) / (4.0 * np.pi * r)
    inv_r = 1.0 / r
    radial = 1j * k * inv_r - inv_r * inv_r
    return g * (k * k + radial), g * (-(k * k) - 3.0 * radial)


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


def block_targets(n_sources: int, dimension: int) -> int:
    """Targets per KernelBlock against n_sources: about _CHUNK_TARGET (target, source, axis) triples."""
    return max(1, _CHUNK_TARGET // (n_sources * dimension))


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

    with a = diag and b = outer (green_tensor_parts).  Phi is even in diff, so
    Phi(x_s, x_t) = Phi(x_t, x_s).  The d separation components are taken once,
    as d (C, M) arrays (d C M floats), and r^2 is their sum of squares.
    """

    def __init__(self, ctx: WaveContext, sources: np.ndarray, targets: np.ndarray):
        self.diffs = [sources[np.newaxis, :, i] - targets[:, np.newaxis, i] for i in range(ctx.dimension)]
        r2 = sum(diff * diff for diff in self.diffs)
        self.inv_r2 = 1.0 / r2
        self.diag, self.outer = green_tensor_parts(ctx, np.sqrt(r2))

    def contract(self, slabs: np.ndarray) -> np.ndarray:
        """The pairings P[c, k] = sum_s Phi(x_s, x_c) : F[s, :, :, k], shape (C, K),
        for F held as symmetric_slabs: each component i <= j meets its slab in one GEMM."""
        out = np.zeros((len(self.inv_r2), slabs.shape[2]), dtype=np.complex128)
        outer_r2 = self.outer * self.inv_r2
        slab = iter(slabs)
        for i, diff_i in enumerate(self.diffs):
            scaled = outer_r2 * diff_i
            for j in range(i, len(self.diffs)):
                phi_ij = scaled * self.diffs[j]
                if i == j:
                    phi_ij += self.diag
                out += phi_ij @ next(slab)
        return out

    def probe_norms(self, qs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """||Phi(., x_c) q|| in the product weighted by weights (M,) over the sources,
        for every target and every column q of qs (d, L); returns shape (C, L).

        Data-free closed form: |Phi q|^2 = |a|^2 |q|^2 + rho (diff.q)^2 / r^2
        for real q, rho = 2 Re(conj(a) b) + |b|^2.  Its weighted sum is
        A |q|^2 + q^T S q with the second moments A = sum_s w_s |a|^2 and
        S_ij = sum_s w_s rho diff_i diff_j / r^2, taken once per block
        whatever the number of columns.
        """
        a, b = self.diag, self.outer
        abs_a2 = a.real**2 + a.imag**2
        radial = (2.0 * (a.real * b.real + a.imag * b.imag) + b.real**2 + b.imag**2) * self.inv_r2
        out = np.outer(abs_a2 @ weights, np.sum(qs * qs, axis=0))
        for i, diff_i in enumerate(self.diffs):
            scaled = radial * diff_i
            for j in range(i, len(self.diffs)):
                s_ij = (scaled * self.diffs[j]) @ weights
                out += np.outer(s_ij, (1.0 if i == j else 2.0) * qs[i] * qs[j])
        return np.sqrt(out)


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
        d_green = -0.25j * k * hankel1_012(k * r)[1]
        return (k * k * d_green / r) * (diff[..., 0] * v[1] - diff[..., 1] * v[0])
    d_green = np.exp(1j * k * r) / (4.0 * np.pi * r) * (1j * k - 1.0 / r)
    return (k * k * d_green / r)[..., np.newaxis] * np.cross(diff, v)


def green_tensor(ctx: WaveContext, x, y) -> np.ndarray:
    """Phi(x, y) = k^2 G I + Hess G in closed form; symmetric d x d matrix."""
    xp = _as_point(ctx, x)
    yp = _as_point(ctx, y)
    return green_tensor_from_diff(ctx, xp - yp)


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


def im_green_tensor(ctx: WaveContext, x, y) -> np.ndarray:
    xp = _as_point(ctx, x)
    yp = _as_point(ctx, y)
    return im_green_tensor_from_diff(ctx, xp - yp)


def im_trace_green_tensor(ctx: WaveContext, r) -> np.ndarray:
    """(d-1) k^2 Im G(r): k^2 J_0(kr)/4 in 2D, 2 k^2 sin(kr)/(4 pi r) in 3D.

    Peaks at zero separation, which is what makes the trace combination a
    sharp probe of source locations.
    """
    r = np.asarray(r, dtype=np.float64)
    k = ctx.wavenumber
    if ctx.dimension == 2:
        if np.any(r < 0.0):
            raise DomainError("separation must be nonnegative")
        from scipy import special

        return 0.25 * k * k * special.j0(k * r)
    if np.any(r <= 0.0):
        raise DomainError("separation must be positive in 3D")
    return 2.0 * k * k * np.sin(k * r) / (4.0 * np.pi * r)
