"""Forward scattering: discretize and solve the volume current equation.

The current J = eta * E satisfies J - eta * int G(x,y) (PJ)(y) dy = eta * E^i
with P = k^2 I + grad div.  Mid-point quadrature on a uniform cell-centred
grid turns this into a linear system whose G part is block-Toeplitz, applied
by FFT convolution with one kernel table; P is applied by central finite
differences with zero extension outside the grid.  J is supported inside the
scatterers, so the extension is exact for J, but not for P J: P J is nonzero
one node beyond J's support, where the scatterer's surface polarization
charge lies, and build_grid's grid ends at the scatterers' box, so it drops
that layer.

The system is solved by restarted GMRES (Saad and Schultz, SIAM J. Sci.
Stat. Comput. 7 (1986) 856), a numpy port of scipy 1.17.1's gmres that
rounds as it does, with LAPACK's zlartg for the Givens rotations; emdsm
therefore makes no scipy BLAS or LAPACK call.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .em_core import (BlockRun, ContrastField, IncidentPlaneWave, Lattice, WaveContext, green_scalar_from_distance,
                      incident_field, pinned_blas, run_tasks)
from .errors import DegenerateGridError, DomainError, GeometryError, SolverError

_SELF_TERM_ORDERS = (16, 32, 64, 128, 256)
_SELF_TERM_RTOL = 1e-8
_DENSE_BLOCK_COLUMNS = 256  # unit vectors per apply when building the dense matrix
_SAFMIN = 2.0**-1022  # LAPACK's safe minimum for binary64, and its reciprocal
_SAFMAX = 1.0 / _SAFMIN
_RTMIN = math.sqrt(_SAFMIN)
_RTMAX = math.sqrt(_SAFMAX / 4)


def build_grid(contrast: ContrastField, h: float) -> Lattice:
    """The Lattice of cell centres, pitch h, of the smallest cell-centred grid
    whose cell union covers the contrast box, centred on the box."""
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"mesh size must be finite and positive, got {h!r}")
    lo, hi = contrast.bounding_box
    extent = hi - lo
    if np.any(h > extent * (1.0 + 1e-12)):
        raise DegenerateGridError(
            f"mesh size {h} exceeds the scatterer bounding box extent {extent}"
        )
    counts = np.maximum(np.ceil(extent / h - 1e-9).astype(int), 1)
    origin = 0.5 * (lo + hi) - 0.5 * counts * h  # the lower corner of the covered box
    return Lattice(tuple(float(o + int(n) * h / 2) for o, n in zip(origin, counts)), float(h),
                   tuple(int(n) for n in counts))


def _gauss_rule(order: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _gauss_ladder(integral) -> complex:
    """integral(order) at the first of _SELF_TERM_ORDERS within _SELF_TERM_RTOL of the one before."""
    prev = None
    for order in _SELF_TERM_ORDERS:
        total = integral(order)
        if prev is not None and abs(total - prev) <= _SELF_TERM_RTOL * abs(total):
            return total
        prev = total
    raise SolverError("self-cell quadrature ladder did not converge")


def _self_term_2d(ctx: WaveContext, h: float) -> complex:
    # G has a -(1/2pi) log r singularity; integrate the regularized part with
    # a tensor Gauss ladder and add the square's log integral in closed form.
    a = 0.5 * h
    log_integral = 4.0 * a * a * (np.log(a) + 0.5 * np.log(2.0) + 0.25 * np.pi - 1.5)

    def integral(order):
        x, w = _gauss_rule(order, -a, a)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        r = np.hypot(xx, yy)
        regular = green_scalar_from_distance(ctx, r) + np.log(r) / (2.0 * np.pi)
        return np.einsum("i,j,ij->", w, w, regular) - log_integral / (2.0 * np.pi)

    return complex(_gauss_ladder(integral) / (h * h))


def _self_term_3d(k: float, h: float) -> complex:
    # Split the cube into six pyramids from the centre; the pyramid map
    # (z, u, v) -> (zu, zv, z) removes the 1/r singularity entirely.
    a = 0.5 * h

    def integral(order):
        z, wz = _gauss_rule(order, 0.0, a)
        u, wu = _gauss_rule(order, -1.0, 1.0)
        s = np.sqrt(1.0 + u[:, None] ** 2 + u[None, :] ** 2)
        wuv = wu[:, None] * wu[None, :]
        zs = z[:, None, None] * s[None, :, :]
        integrand = z[:, None, None] * np.exp(1j * k * zs) / (4.0 * np.pi * s[None, :, :])
        return 6.0 * np.einsum("i,ijk,jk->", wz, integrand, wuv)

    return complex(_gauss_ladder(integral) / h**3)


@lru_cache(maxsize=64)
def diagonal_self_term(ctx: WaveContext, h: float) -> complex:
    """Cell average of G over one centred cell, (1/h^d) int_cell G(x, 0) dx."""
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"cell size must be finite and positive, got {h!r}")
    return _self_term_2d(ctx, h) if ctx.dimension == 2 else _self_term_3d(ctx.wavenumber, h)


def _first_difference(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(f[i+1] - f[i-1]) / 2h along axis, with f = 0 beyond the grid."""
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[0] = f[1]
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    np.negative(f[-2], out=out[-1])
    out *= 0.5 / h
    return np.moveaxis(out, 0, axis)


def _second_difference(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(f[i-1] - 2 f[i] + f[i+1]) / h^2 along axis, with f = 0 beyond the grid."""
    f = np.moveaxis(f, axis, 0)
    out = -2.0 * f
    out[1:] += f[:-1]
    out[:-1] += f[1:]
    out *= 1.0 / (h * h)
    return np.moveaxis(out, 0, axis)


def _apply_p(fields: np.ndarray, k: float, h: float) -> np.ndarray:
    """Discrete P = k^2 I + grad div on component-first grid arrays of shape
    (d, *counts, *batch), by central differences with zero extension.

    Second and first derivative stencils are (1,-2,1)/h^2 and (-1,0,1)/(2h) along
    the axes of the grid array; the mixed terms chain two first-derivative ones.
    """
    fields = np.asarray(fields, dtype=np.complex128)
    d = fields.shape[0]
    out = k**2 * fields
    # d_j J_j once per component; row i takes d_i of the sum over j != i
    firsts = [_first_difference(fields[j], j, h) for j in range(d)]
    for i in range(d):
        cross = sum(firsts[j] for j in range(d) if j != i)
        out[i] += _second_difference(fields[i], i, h)
        out[i] += _first_difference(cross, i, h)
    return out


@dataclass(frozen=True)
class SolverSpec:
    """Restarted GMRES settings: relative tolerance, restart length, maximum restarts."""

    tol: float = 1e-8
    restart: int = 50
    maxiter: int = 500

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"solver tol must be finite and positive, got {self.tol!r}")
        if self.restart < 1 or self.maxiter < 1:
            raise DomainError(
                f"solver restart and maxiter must be >= 1, got {self.restart!r} and {self.maxiter!r}"
            )


@dataclass(frozen=True)
class InducedCurrentField:
    """Nodal current J (zero wherever eta vanishes) plus solve diagnostics;
    residual_history holds GMRES's relative residual after each iteration."""

    grid: Lattice
    values: np.ndarray
    residual: float = 0.0
    residual_history: tuple[float, ...] = ()

    @property
    def iterations(self) -> int:
        return len(self.residual_history)


def _abssq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _rotation(f: complex, g: complex, w: float) -> tuple[float, complex, complex]:
    """zlartg's c, s, r of the (scaled) pair f, g, where f carries the extra
    factor w: the common tail of its unscaled and scaled branches."""
    f2, g2 = _abssq(f), _abssq(g)
    h2 = f2 * (w * w) + g2
    if f2 >= h2 * _SAFMIN:
        c = math.sqrt(f2 / h2)
        r = f / complex(c)
        if f2 > _RTMIN and h2 < 2 * _RTMAX:
            s = g.conjugate() * (f / complex(math.sqrt(f2 * h2)))
        else:
            s = g.conjugate() * (r / complex(h2))
    else:
        d = math.sqrt(f2 * h2)
        c = f2 / d
        r = f / complex(c) if c >= _SAFMIN else f * complex(h2 / d)
        s = g.conjugate() * (f / complex(d))
    return c, s, r


def _givens(f: complex, g: complex) -> tuple[float, complex, complex]:
    """c, s, r of the plane rotation [c s; -conj(s) c] [f; g] = [r; 0], c
    real: LAPACK's zlartg, as the OpenBLAS in scipy 1.17.1's wheel builds
    it, scaled branches included.

    It rounds as the compiled Fortran does.  A real operand of a complex
    product or quotient enters as complex(x), so the zero imaginary part
    takes part and sets the signs of zero parts, and CPython's complex
    division is Smith's algorithm, as gfortran's is.  Square roots are
    math.sqrt: x ** 0.5 may differ in the last bit.
    """
    f, g = complex(f), complex(g)
    if g == 0:
        return 1.0, 0j, f
    if f == 0:
        if g.real == 0.0 or g.imag == 0.0:
            r = complex(abs(g.imag) if g.real == 0.0 else abs(g.real))
            return 0.0, g.conjugate() / r, r
        g1 = max(abs(g.real), abs(g.imag))
        if _RTMIN < g1 < math.sqrt(_SAFMAX / 2):
            d = math.sqrt(_abssq(g))
            return 0.0, g.conjugate() / complex(d), complex(d)
        u = min(_SAFMAX, max(_SAFMIN, g1))
        gs = g / complex(u)
        d = math.sqrt(_abssq(gs))
        return 0.0, gs.conjugate() / complex(d), complex(d * u)
    f1 = max(abs(f.real), abs(f.imag))
    g1 = max(abs(g.real), abs(g.imag))
    if _RTMIN < f1 < _RTMAX and _RTMIN < g1 < _RTMAX:
        return _rotation(f, g, 1.0)
    u = min(_SAFMAX, max(_SAFMIN, f1, g1))
    v = min(_SAFMAX, max(_SAFMIN, f1)) if f1 / u < _RTMIN else u  # f's own scale if g's would lose it
    c, s, r = _rotation(f / complex(v), g / complex(u), v / u)
    return c * (v / u), s, r * complex(u)


def _gmres(matvec, b: np.ndarray, spec: SolverSpec) -> tuple[np.ndarray, float, list[float], bool]:
    """Restarted GMRES on matvec from x0 = 0, without a preconditioner.

    A port of scipy 1.17.1's gmres at atol = 0 with callback_type "pr_norm",
    step for step in its order (modified Gram-Schmidt, restart and ptol
    logic, triangular solve, x update), so that it returns the same bits.
    Returns x, the relative norm of the last b - A x, the relative residual
    estimate after each inner iteration, and whether the last b - A x met
    spec.tol.
    """
    x = np.zeros_like(b)
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return x, 0.0, [], True
    atol = spec.tol * float(bnrm2)
    if bnrm2 < atol:  # tol > 1: x0 = 0 meets it
        return x, 1.0, [], True
    eps = np.finfo(b.dtype).eps
    restart = min(spec.restart, b.size)
    ptol_max_factor = 1.0
    ptol = bnrm2 * min(ptol_max_factor, atol / bnrm2)
    # the Krylov basis gets an anonymous mapping of its own, unmapped when v
    # goes: from malloc (np.empty) the first basis is mmapped, and freeing it
    # raises glibc's mmap threshold above its size, so later bases come from
    # the solving thread's malloc arena, where the freed basis stays resident
    # as the arena's top chunk, malloc_trim(0) or not
    v = np.frombuffer(mmap.mmap(-1, (restart + 1) * b.nbytes), dtype=b.dtype).reshape(restart + 1, b.size)
    h = np.zeros((restart, restart + 1), dtype=b.dtype)  # column col of the Hessenberg matrix is h[col]
    givens = np.zeros((restart, 2), dtype=b.dtype)
    r = b
    history: list[float] = []
    for _ in range(spec.maxiter):
        v[0] = r
        tmp = np.linalg.norm(v[0])
        v[0] *= 1 / tmp
        S = np.zeros(restart + 1, dtype=b.dtype)
        S[0] = tmp
        breakdown = False
        for col in range(restart):
            w = matvec(v[col])
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                tmp = np.vdot(v[k], w)
                h[col, k] = tmp
                w -= tmp * v[k]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            v[col + 1] = w
            if h1 <= eps * h0:  # exact solution in the Krylov space
                h[col, col + 1] = 0
                breakdown = True
            else:
                v[col + 1] *= 1 / h1
            for k in range(col):
                c, s = givens[k, 0], givens[k, 1]
                n0, n1 = h[col, [k, k + 1]]
                h[col, [k, k + 1]] = [c * n0 + s * n1, -s.conj() * n0 + c * n1]
            c, s, mag = _givens(h[col, col], h[col, col + 1])
            givens[col] = [c, s]
            h[col, [col, col + 1]] = mag, 0
            tmp = -np.conjugate(s) * S[col]
            S[[col, col + 1]] = [c * S[col], tmp]
            presid = np.abs(tmp)
            history.append(float(presid / bnrm2))
            if presid <= ptol or breakdown:
                break
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]
        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # the inner estimate passed, the true residual did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, float(rnorm / bnrm2), history, bool(rnorm <= atol)


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast FFT length."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


class ForwardSystem:
    """Discrete operator J |-> J - diag(eta) G (P J) h^d on all grid nodes.

    On the uniform grid G(x_a, x_b) depends only on the lattice offset a - b,
    so G is tabulated once on the (2n - 1)^d offsets (the averaged self-cell
    at offset 0) and applied as a zero-padded FFT convolution (block-Toeplitz
    matvec, CG-FFT): O(N log N) time and O(N) memory.  Rows with eta = 0
    reduce to the identity, so only the eta-supported rows of G (P J) are
    kept.  Assembled once per scene, it solves each incident wave by
    restarted GMRES; dense_matrix applies the same operator to unit vectors,
    and dense_solve factors it: the reference the GMRES solve is checked
    against.
    """

    def __init__(self, contrast: ContrastField, ctx: WaveContext, grid: Lattice):
        if contrast.dimension != ctx.dimension:
            raise GeometryError("contrast and context dimensions differ")
        if grid.dimension != ctx.dimension:
            raise GeometryError("grid and context dimensions differ")
        if any(n < 3 for n in grid.shape):
            raise DegenerateGridError("P stencil needs at least 3 nodes per axis")
        self.ctx = ctx
        self.grid = grid
        self.contrast_at_nodes = contrast.eta_at(grid.points)
        self.active = np.flatnonzero(self.contrast_at_nodes != 0.0)
        counts = grid.shape
        offsets = np.meshgrid(
            *[np.arange(1 - n, n) * grid.pitch for n in counts], indexing="ij", sparse=True
        )
        r = np.sqrt(sum(o * o for o in offsets))
        centre = tuple(n - 1 for n in counts)
        r[centre] = 1.0
        table = green_scalar_from_distance(ctx, r)
        table[centre] = diagonal_self_term(ctx, grid.pitch)
        # circular embedding: offset o sits at index o mod L, and L >= 2n - 1
        # keeps the wrap-around images of the zero-padded input out of range
        self._fft_shape = tuple(_fft_length(2 * n - 1) for n in counts)
        embedded = np.zeros(self._fft_shape, dtype=np.complex128)
        embedded[np.ix_(*[np.arange(1 - n, n) % m for n, m in zip(counts, self._fft_shape)])] = table
        self._kernel_hat = np.fft.fftn(embedded)

    def _convolve(self, values: np.ndarray) -> np.ndarray:
        """sum_b G(x_a - x_b) values_b for every node a; values has shape
        (*counts, *batch) and the result (N, *batch).

        One axis at a time, so each 1D transform pads only its own axis and
        the inverse transforms crop as they go; the full padded block is
        transformed on the last axis only.
        """
        counts = self.grid.shape
        batch = values.shape[len(counts):]
        out = values
        for axis, length in enumerate(self._fft_shape):
            out = np.fft.fft(out, n=length, axis=axis)
        out *= self._kernel_hat.reshape(self._fft_shape + (1,) * len(batch))
        for axis in reversed(range(len(counts))):
            out = np.fft.ifft(out, axis=axis)[(slice(None),) * axis + (slice(counts[axis]),)]
        return out.reshape((-1,) + batch)

    @property
    def system_dimension(self) -> int:
        return self.ctx.dimension * self.grid.n_points

    def apply(self, flat: np.ndarray) -> np.ndarray:
        """The operator on a (d N,) vector or on each column of a (d N, B) block."""
        d = self.ctx.dimension
        batch = flat.shape[1:]
        pj = _apply_p(flat.reshape((d,) + self.grid.shape + batch), self.ctx.wavenumber, self.grid.pitch)
        out = flat.astype(np.complex128, order="C")
        if self.active.size:
            fields = out.reshape((d, self.grid.n_points) + batch)
            scale = self.contrast_at_nodes[self.active] * self.grid.pitch**d
            for i in range(d):
                fields[i, self.active] -= (self._convolve(pj[i])[self.active].T * scale).T
        return out

    def dense_matrix(self) -> np.ndarray:
        """The system matrix, built by apply on blocks of unit vectors."""
        dim = self.system_dimension
        a = np.empty((dim, dim), dtype=np.complex128)
        for start in range(0, dim, _DENSE_BLOCK_COLUMNS):
            stop = min(start + _DENSE_BLOCK_COLUMNS, dim)
            a[:, start:stop] = self.apply(np.eye(dim, stop - start, -start))
        return a

    def dense_solve(self, rhs: np.ndarray) -> np.ndarray:
        """LU solve of the dense matrix, checked to a relative residual of 1e-8.

        The solve and the failure path's condition number run under
        em_core.pinned_blas, on one thread of numpy's OpenBLAS: the
        solution's bits do not depend on the host's core count, and no
        OpenBLAS threads are left busy-waiting after the call.  Must not be
        called from a run_tasks task, which already holds the pin.
        """
        matrix = self.dense_matrix()
        with pinned_blas():
            try:
                solution = np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"dense factorization failed: {exc}") from exc
            rhs_norm = np.linalg.norm(rhs)
            if rhs_norm > 0.0:
                residual = float(np.linalg.norm(self.apply(solution) - rhs) / rhs_norm)
                if residual > 1e-8:
                    raise SolverError(
                        f"dense solve residual {residual:.2e} exceeds 1e-8; "
                        f"condition estimate {np.linalg.cond(matrix, 1):.2e}"
                    )
        return solution

    def rhs(self, wave: IncidentPlaneWave) -> np.ndarray:
        e_inc = incident_field(wave, self.ctx, self.grid.points)
        return (self.contrast_at_nodes[:, None] * e_inc).T.reshape(-1)

    def solve(self, wave: IncidentPlaneWave, spec: SolverSpec = SolverSpec()) -> InducedCurrentField:
        """The current of one incident wave by restarted GMRES with spec (the
        numpy port of scipy's, _gmres), on apply.  The reported residual is
        the relative norm of the solver's own last b - A x; the history holds
        its residual estimate after each inner iteration."""
        flat, residual, history, converged = _gmres(self.apply, self.rhs(wave), spec)
        if not converged:
            raise SolverError(
                f"GMRES did not converge in {spec.maxiter} iterations; "
                f"final relative residual {residual:.2e}"
            )
        values = flat.reshape(self.ctx.dimension, self.grid.n_points).T.copy()
        values[self.contrast_at_nodes == 0.0] = 0.0
        return InducedCurrentField(
            self.grid, values, residual=residual, residual_history=tuple(history),
        )

    def solve_all(self, waves, spec: SolverSpec = SolverSpec()) -> tuple[list[InducedCurrentField], BlockRun]:
        """solve for each wave, one em_core.run_tasks task per wave, so that
        the solves run concurrently and each wholly on one worker with BLAS
        pinned to one thread: its bits depend neither on the worker count nor
        on the ambient BLAS thread count.  Returns the currents in the order
        of waves and how the run went."""
        currents = [None] * len(waves)

        def task(l):
            currents[l] = self.solve(waves[l], spec)

        run = run_tasks([partial(task, l) for l in range(len(waves))])
        return currents, run
