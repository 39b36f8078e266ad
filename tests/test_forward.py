"""Grid construction, singular self-cell quadrature, the P stencil, the FFT
operator, the solve, and convergence under mesh refinement."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special
from scipy.integrate import dblquad, quad
from scipy.linalg.lapack import zlartg
from scipy.sparse.linalg import LinearOperator, gmres

from emdsm import em_core as em, forward as fw, harness, measurement as ms
from emdsm.errors import DegenerateGridError, DomainError, GeometryError, SolverError

CTX2 = em.WaveContext.from_wavelength(2, 1.0)
CTX3 = em.WaveContext.from_wavelength(3, 1.0)

WAVE1 = em.IncidentPlaneWave(np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2))
SQUARE1 = [em.Shape([-0.25, 0.0], 0.3, eta=1.0)]
CONTRAST1 = em.ContrastField(SQUARE1)


def solve(contrast, ctx, h, spec=fw.SolverSpec()):
    """The current of WAVE1 on the forward system of contrast at mesh size h."""
    return fw.ForwardSystem(contrast, ctx, fw.build_grid(contrast, h)).solve(WAVE1, spec)


def polar_self_cell_oracle(k: float, h: float) -> complex:
    """Adaptive quadrature of the 2D kernel cell average in polar coordinates,
    which removes the logarithmic singularity exactly."""
    a = 0.5 * h

    def inner(theta, part):
        rmax = a / np.cos(theta)
        val, _ = quad(
            lambda r: part(0.25j * scipy.special.hankel1(0, k * r)) * r,
            0.0, rmax, limit=400, epsabs=1e-13, epsrel=1e-13,
        )
        return val

    re, _ = quad(lambda t: inner(t, np.real), 0, np.pi / 4, limit=400, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(lambda t: inner(t, np.imag), 0, np.pi / 4, limit=400, epsabs=1e-13, epsrel=1e-13)
    return 8.0 * (re + 1j * im) / h**2


def spherical_self_cell_oracle(k: float, h: float) -> complex:
    """3D cell average via exact radial integration and adaptive quadrature
    over the face-parametrized solid angle."""
    a = 0.5 * h

    def radial(r_max):
        ik = 1j * k
        return np.exp(ik * r_max) * (r_max / ik + 1.0 / k**2) - 1.0 / k**2

    def f(alpha, beta, part):
        s = np.sqrt(1.0 + alpha**2 + beta**2)
        return part(radial(a * s)) / s**3

    re, _ = dblquad(lambda al, be: f(al, be, np.real), -1, 1, -1, 1, epsabs=1e-12)
    im, _ = dblquad(lambda al, be: f(al, be, np.imag), -1, 1, -1, 1, epsabs=1e-12)
    return 6.0 * (re + 1j * im) / (4.0 * np.pi) / h**3


class TestBuildGrid:
    def test_example1_counts(self):
        grid = fw.build_grid(em.ContrastField(SQUARE1), 0.05)
        assert grid.counts == (6, 6)
        assert grid.n_nodes == 36

    def test_ring_counts(self):
        ring = em.ContrastField([em.Shape([0.0, 0.0], 0.6, 0.4)])
        assert fw.build_grid(ring, 0.05).counts == (12, 12)

    def test_cells_cover_bounding_box(self):
        contrast = em.ContrastField([em.Shape([0.1, -0.2], 0.35)])
        grid = fw.build_grid(contrast, 0.04)
        lo, hi = grid.bounds
        blo, bhi = contrast.bounding_box
        assert np.all(lo <= blo + 1e-12) and np.all(hi >= bhi - 1e-12)

    def test_nodes_are_cell_centers(self):
        grid = fw.build_grid(em.ContrastField(SQUARE1), 0.1)
        lo, _ = grid.bounds
        np.testing.assert_allclose(grid.nodes[0], lo + 0.05, atol=1e-15)

    def test_oversized_mesh_rejected(self):
        with pytest.raises(DegenerateGridError):
            fw.build_grid(em.ContrastField(SQUARE1), 0.5)

    def test_nonpositive_mesh_rejected(self):
        with pytest.raises(DomainError):
            fw.build_grid(em.ContrastField(SQUARE1), -0.1)


class TestSelfTerm:
    def test_2d_against_polar_oracle(self):
        for h in (0.02, 0.05):
            mine = fw.diagonal_self_term(CTX2, h)
            oracle = polar_self_cell_oracle(2 * np.pi, h)
            assert abs(mine - oracle) / abs(oracle) < 1e-7

    def test_3d_against_spherical_oracle(self):
        mine = fw.diagonal_self_term(CTX3, 0.04)
        oracle = spherical_self_cell_oracle(2 * np.pi, 0.04)
        assert abs(mine - oracle) / abs(oracle) < 1e-8

    def test_2d_imaginary_part_limit(self):
        # Im G -> 1/4 as the cell shrinks
        assert fw.diagonal_self_term(CTX2, 0.005).imag == pytest.approx(0.25, abs=2e-4)

    def test_2d_real_part_log_growth(self):
        vals = [fw.diagonal_self_term(CTX2, h).real for h in (0.04, 0.004, 0.0004)]
        diffs = np.diff(vals)
        # each decade adds about log(10)/(2 pi)
        np.testing.assert_allclose(diffs, np.log(10.0) / (2 * np.pi), rtol=0.05)


def apply_p(grid, ctx, field):
    """fw._apply_p on a nodal (N, d) field, reshaped to and from grid arrays."""
    d = grid.dimension
    return fw._apply_p(field.T.reshape((d,) + grid.counts), ctx.wavenumber, grid.mesh_size).reshape(d, -1).T


class TestPStencil:
    def test_constant_field_gives_k2(self):
        grid = fw.build_grid(em.ContrastField(SQUARE1), 0.02)
        c = np.array([0.3 + 0.1j, -0.7 + 0.2j])
        out = apply_p(grid, CTX2, np.tile(c, (grid.n_nodes, 1)))
        mask = np.zeros(grid.counts, bool)
        mask[2:-2, 2:-2] = True
        interior = out[mask.reshape(-1)]
        np.testing.assert_allclose(
            interior, np.tile(CTX2.wavenumber**2 * c, (interior.shape[0], 1)), rtol=1e-13
        )

    def test_plane_wave_grad_div_vanishes_at_second_order(self):
        # the grad-div part annihilates a solenoidal plane wave; the stencil
        # residual (P - k^2) E^i decays at O(h^2) on interior nodes
        errs = []
        for h in (0.04, 0.02, 0.01):
            grid = fw.build_grid(em.ContrastField(SQUARE1), h)
            e_inc = em.incident_field(WAVE1, CTX2, grid.nodes)
            residual = apply_p(grid, CTX2, e_inc) - CTX2.wavenumber**2 * e_inc
            mask = np.zeros(grid.counts, bool)
            mask[1:-1, 1:-1] = True
            errs.append(np.abs(residual[mask.reshape(-1)]).max())
        assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.15)
        assert np.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.15)

    def test_axis_fields_and_cross_stencil(self):
        grid = fw.build_grid(em.ContrastField(SQUARE1), 0.03)
        nodes = grid.nodes
        # linear-in-x1 first component: all second differences vanish inside
        field = np.zeros((grid.n_nodes, 2), complex)
        field[:, 0] = 2.0 * nodes[:, 0] + 1.0
        out = apply_p(grid, CTX2, field) - CTX2.wavenumber**2 * field
        mask = np.zeros(grid.counts, bool)
        mask[1:-1, 1:-1] = True
        np.testing.assert_allclose(out[mask.reshape(-1)], 0.0, atol=1e-10)

    def test_needs_three_nodes_per_axis(self):
        grid = fw.build_grid(em.ContrastField(SQUARE1), 0.15)  # 2x2
        with pytest.raises(DegenerateGridError):
            fw.ForwardSystem(em.ContrastField(SQUARE1), CTX2, grid)


class TestForwardSystem:
    def test_zero_contrast_operator_is_identity(self):
        contrast = em.ContrastField([em.Shape([-0.25, 0.0], 0.3, eta=0.0)])
        system = fw.ForwardSystem(contrast, CTX2, fw.build_grid(contrast, 0.05))
        rng = np.random.default_rng(0)
        v = rng.standard_normal(system.system_dimension) + 1j * rng.standard_normal(system.system_dimension)
        np.testing.assert_array_equal(system.apply(v), v)
        np.testing.assert_array_equal(system.dense_matrix(), np.eye(system.system_dimension))

    def test_dense_matrix_matches_matrix_free_apply(self):
        system = fw.ForwardSystem(CONTRAST1, CTX2, fw.build_grid(CONTRAST1, 0.05))
        a = system.dense_matrix()
        rng = np.random.default_rng(1)
        v = rng.standard_normal(system.system_dimension) + 1j * rng.standard_normal(system.system_dimension)
        np.testing.assert_allclose(system.apply(v), a @ v, rtol=1e-12)

    def test_system_dimension(self):
        system = fw.ForwardSystem(CONTRAST1, CTX2, fw.build_grid(CONTRAST1, 0.05))
        assert system.system_dimension == 2 * 36


def system_on_grid(ctx, counts, h=0.05):
    """Forward system on a cell-centred grid with the given node counts,
    every node active, with two contrast values so eta varies."""
    d = len(counts)
    grid = fw.VolumeGrid(h, np.zeros(d), tuple(counts))
    side = 2.0 * h * max(counts)
    contrast = em.ContrastField([
        em.Shape(np.full(d, 0.5 * h * max(counts)), side, eta=1.0),
        em.Shape(np.full(d, 0.0), 2.0 * h * min(counts), eta=0.4 + 0.3j),
    ])
    return fw.ForwardSystem(contrast, ctx, grid)


def kron_p_matrix(grid, ctx):
    """P = k^2 I + grad div as one sparse (d N, d N) matrix of Kronecker
    stencil blocks: (1,-2,1)/h^2 on block (i, i) along axis i, and the
    (-1,0,1)/(2h) stencils along axes i and j on block (i, j)."""
    h = grid.mesh_size
    d = grid.dimension
    second = [sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / (h * h) for n in grid.counts]
    first = [sp.diags([-1.0, 1.0], [-1, 1], shape=(n, n)) / (2.0 * h) for n in grid.counts]
    eyes = [sp.identity(n) for n in grid.counts]
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            block = sp.identity(1)
            for axis in range(d):
                if axis == i and axis == j:
                    factor = second[axis]
                elif axis in (i, j):
                    factor = first[axis]
                else:
                    factor = eyes[axis]
                block = sp.kron(block, factor, format="csr")
            row.append(block)
        rows.append(row)
    return (sp.bmat(rows, format="csr") + ctx.wavenumber**2 * sp.identity(d * grid.n_nodes)).tocsr()


def dense_oracle(system):
    """I - diag(eta h^d) G P from the direct-sum G rows and the Kronecker P."""
    d, n = system.ctx.dimension, system.grid.n_nodes
    g = np.zeros((n, n), dtype=np.complex128)
    active = system.active
    g[active] = (system.contrast_at_nodes[active] * system.grid.cell_measure)[:, None] \
        * direct_g_rows(system, active)
    p = kron_p_matrix(system.grid, system.ctx).toarray()
    return np.eye(d * n) - np.kron(np.eye(d), g) @ p


def direct_g_rows(system, rows):
    """G(x_a, x_b) for the nodes a in rows from the node differences, with
    the averaged self-cell on the diagonal."""
    nodes = system.grid.nodes
    r = np.linalg.norm(nodes[rows][:, None, :] - nodes[None, :, :], axis=-1)
    self_hits = r == 0.0
    r[self_hits] = 1.0
    g = em.green_scalar_from_distance(system.ctx, r)
    g[self_hits] = fw.diagonal_self_term(system.ctx, system.grid.mesh_size)
    return g


class TestFFTOperator:
    @pytest.mark.parametrize("ctx, counts", [
        (CTX2, (12, 7)), (CTX2, (3, 9)), (CTX3, (50, 10, 10)), (CTX3, (7, 3, 5)),
    ])
    def test_apply_matches_direct_sum(self, ctx, counts):
        system = system_on_grid(ctx, counts)
        assert system.active.size == system.grid.n_nodes
        n, d = system.grid.n_nodes, ctx.dimension
        rng = np.random.default_rng(7)
        v = rng.standard_normal(d * n) + 1j * rng.standard_normal(d * n)
        # every corner (the largest offsets, where wrap-around would show)
        # plus a random sample of rows
        corners = np.ravel_multi_index(
            np.array(list(np.ndindex(*([2] * d)))).T * (np.array(counts)[:, None] - 1), counts
        )
        rows = np.union1d(corners, rng.choice(n, size=min(n, 200), replace=False))
        pj = apply_p(system.grid, ctx, v.reshape(d, n).T)
        eta = system.contrast_at_nodes[rows]
        correction = eta[:, None] * (direct_g_rows(system, rows) @ pj) * system.grid.cell_measure
        expected = v.reshape(d, n)[:, rows] - correction.T
        got = system.apply(v).reshape(d, n)[:, rows]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("ctx, counts", [(CTX2, (5, 4)), (CTX3, (3, 4, 5))])
    def test_dense_matrix_equals_apply_on_unit_vectors(self, ctx, counts):
        system = system_on_grid(ctx, counts)
        a = system.dense_matrix()
        oracle = dense_oracle(system)
        np.testing.assert_allclose(a, oracle, rtol=0.0, atol=1e-13 * np.abs(oracle).max())

    def test_g_rows_match_direct_sum(self):
        # the G part of the dense matrix, every node active, against the direct sum
        system = system_on_grid(CTX3, (7, 3, 5))
        oracle = dense_oracle(system)
        np.testing.assert_allclose(system.dense_matrix(), oracle, rtol=0.0,
                                   atol=1e-13 * np.abs(oracle).max())

    @pytest.mark.parametrize("ctx, counts", [(CTX2, (12, 7)), (CTX2, (3, 9)), (CTX3, (7, 3, 5))])
    def test_p_stencil_matches_kronecker_oracle(self, ctx, counts):
        grid = fw.VolumeGrid(0.05, np.zeros(len(counts)), counts)
        d, n = len(counts), grid.n_nodes
        rng = np.random.default_rng(3)
        field = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        expected = (kron_p_matrix(grid, ctx) @ field.T.reshape(-1)).reshape(d, n).T
        got = apply_p(grid, ctx, field)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max())

    @pytest.mark.parametrize("ctx, counts", [(CTX2, (12, 7)), (CTX3, (7, 3, 5))])
    def test_block_apply_equals_columnwise_apply(self, ctx, counts):
        system = system_on_grid(ctx, counts)
        rng = np.random.default_rng(5)
        block = rng.standard_normal((system.system_dimension, 4)) \
            + 1j * rng.standard_normal((system.system_dimension, 4))
        got = system.apply(block)
        assert got.shape == block.shape
        for col in range(block.shape[1]):
            np.testing.assert_allclose(got[:, col], system.apply(block[:, col]), rtol=1e-14, atol=0.0)

    def test_no_dense_rows_on_the_matvec_path(self):
        # 2 000 active rows of 5 000 nodes would be 160 MB of G rows
        contrast = em.ContrastField([
            em.Shape([0.4, 0.3, 0.3], 0.2), em.Shape([-0.4, 0.3, 0.3], 0.2),
        ])
        tracemalloc.start()
        try:
            system = fw.ForwardSystem(contrast, CTX3, fw.build_grid(contrast, 0.02))
            system.apply(np.ones(system.system_dimension, complex))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_rows = system.active.size * system.grid.n_nodes * 16
        assert system.active.size == 2000 and system.grid.n_nodes == 5000
        assert peak < dense_rows / 10


def dense_vs_gmres(contrast):
    """Max relative difference of the GMRES current (tol 1e-10) from the dense
    LU reference at h = 0.03, and the GMRES current."""
    system = fw.ForwardSystem(contrast, CTX2, fw.build_grid(contrast, 0.03))
    dense = system.dense_solve(system.rhs(WAVE1)).reshape(2, -1).T
    iterative = system.solve(WAVE1, fw.SolverSpec(tol=1e-10))
    return np.abs(dense - iterative.values).max() / np.abs(dense).max(), iterative


class TestSolve:
    def test_zero_contrast_zero_current(self):
        contrast = em.ContrastField([em.Shape([-0.25, 0.0], 0.3, eta=0.0)])
        current = solve(contrast, CTX2, 0.05)
        assert np.all(current.values == 0.0)

    def test_born_regime_against_iterate_oracle(self):
        # deviation from eta E^i must match the first-order correction term
        # eta * G (P (eta E^i)) h^d computed directly, and stay small
        eta = 1e-3
        contrast = em.ContrastField([em.Shape([-0.25, 0.0], 0.3, eta=eta)])
        system = fw.ForwardSystem(contrast, CTX2, fw.build_grid(contrast, 0.02))
        e_inc = em.incident_field(WAVE1, CTX2, system.grid.nodes)
        target = system.contrast_at_nodes[:, None] * e_inc
        correction = np.zeros_like(target)
        w = direct_g_rows(system, system.active) @ apply_p(system.grid, CTX2, target)
        correction[system.active] = (
            system.contrast_at_nodes[system.active][:, None] * w * system.grid.cell_measure
        )
        oracle_dev = np.linalg.norm(correction, axis=1).max() / np.linalg.norm(target, axis=1).max()

        current = system.solve(WAVE1)
        dev = np.linalg.norm(current.values - target, axis=1).max() / np.linalg.norm(target, axis=1).max()
        # frozen from the oracle: 5.21e-3 at eta = 1e-3, h = 0.02
        assert oracle_dev == pytest.approx(5.206e-3, rel=0.01)
        assert dev == pytest.approx(oracle_dev, rel=0.02)
        assert dev < 6e-3

    def test_born_deviation_scales_linearly_in_eta(self):
        etas = (1e-4, 1e-3, 1e-2)
        devs = []
        for eta in etas:
            contrast = em.ContrastField([em.Shape([-0.25, 0.0], 0.3, eta=eta)])
            system = fw.ForwardSystem(contrast, CTX2, fw.build_grid(contrast, 0.02))
            current = system.solve(WAVE1)
            target = system.contrast_at_nodes[:, None] * em.incident_field(WAVE1, CTX2, system.grid.nodes)
            devs.append(
                np.linalg.norm(current.values - target, axis=1).max()
                / np.linalg.norm(target, axis=1).max()
            )
        slope = np.polyfit(np.log(etas), np.log(devs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.2)

    def test_dense_vs_gmres(self):
        rel, iterative = dense_vs_gmres(em.ContrastField(SQUARE1))
        assert rel <= 1e-8
        assert iterative.iterations > 0

    def test_dense_vs_gmres_ring_geometry(self):
        rel, _ = dense_vs_gmres(em.ContrastField([em.Shape([0.0, 0.0], 0.6, 0.4, eta=1.0)]))
        assert rel <= 1e-8

    def test_dense_solve_residual_failure_names_condition(self, monkeypatch):
        system = fw.ForwardSystem(CONTRAST1, CTX2, fw.build_grid(CONTRAST1, 0.05))
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda matrix, rhs: 1.001 * solve(matrix, rhs))
        with pytest.raises(SolverError, match=r"residual \S+ exceeds 1e-8; condition estimate \S+"):
            system.dense_solve(system.rhs(WAVE1))

    def test_dense_solve_bit_identical_across_ambient_blas_threads(self, two_blas_threads):
        # the LU runs on numpy's OpenBLAS, which rounds otherwise on two threads
        # at these 128 unknowns; at h 0.05 (72 unknowns) it rounds alike
        system = fw.ForwardSystem(CONTRAST1, CTX2, fw.build_grid(CONTRAST1, 0.04))
        set_threads = em._blas_threads()[1]
        solutions = []
        for blas in (1, 2):
            set_threads(blas)
            solutions.append(system.dense_solve(system.rhs(WAVE1)))
            assert two_blas_threads() == blas
        np.testing.assert_array_equal(solutions[0].view(np.uint64), solutions[1].view(np.uint64))

    def test_current_vanishes_outside_support(self):
        ring = em.ContrastField([em.Shape([0.0, 0.0], 0.6, 0.4, eta=1.0)])
        current = solve(ring, CTX2, 0.05)
        hole = ~ring.shapes[0].contains(current.grid.nodes)
        assert np.all(current.values[hole] == 0.0)
        assert np.any(current.values != 0.0)

    def test_residual_reported(self):
        current = solve(CONTRAST1, CTX2, 0.05)
        assert current.residual <= 1e-8

    def test_gmres_nonconvergence_raises(self):
        with pytest.raises(SolverError, match="GMRES"):
            solve(CONTRAST1, CTX2, 0.02, fw.SolverSpec(tol=1e-14, maxiter=1, restart=2))

    def test_scattered_field_grid_convergence(self):
        # E^s at a fixed exterior point converges at first order or better
        surf = ms.MeasurementSurface(
            np.array([[3.0, 1.0]]), np.array([1.0]), np.array([[1.0, 0.0]]), region_radius=3.2
        )
        vals = {}
        for h in (0.04, 0.02, 0.01):
            current = solve(CONTRAST1, CTX2, h)
            vals[h] = ms.synthesize_scattered_fields([current], surf, CTX2)[0].values[0]
        d1 = np.linalg.norm(vals[0.04] - vals[0.02])
        d2 = np.linalg.norm(vals[0.02] - vals[0.01])
        assert d1 / d2 >= 2.0 ** 0.9

    @pytest.mark.parametrize("contrast, ctx", [
        (CONTRAST1, CTX3), (em.ContrastField([em.Shape([0.0, 0.0, 0.0], 0.3)]), CTX2),
    ])
    def test_mismatched_dimension_rejected(self, contrast, ctx):
        with pytest.raises(GeometryError, match="contrast and context dimensions differ"):
            fw.ForwardSystem(contrast, ctx, fw.build_grid(contrast, 0.1))

    def test_grid_of_another_dimension_rejected(self):
        grid = fw.VolumeGrid(0.1, np.zeros(3), (3, 3, 3))
        with pytest.raises(GeometryError, match="grid and context dimensions differ"):
            fw.ForwardSystem(CONTRAST1, CTX2, grid)


@pytest.mark.parametrize("kwargs", [
    {"restart": 0}, {"maxiter": 0}, {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")},
])
def test_solver_spec_rejects_settings_gmres_cannot_run(kwargs):
    with pytest.raises(DomainError, match="solver"):
        fw.SolverSpec(**kwargs)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.complex128).tobytes() == np.asarray(b, dtype=np.complex128).tobytes()


class TestGivens:
    """fw._givens against LAPACK's zlartg as scipy exposes it, bit for bit."""

    @staticmethod
    def assert_matches_zlartg(pairs):
        for f, g in pairs:
            expected, got = zlartg(f, g), fw._givens(f, g)
            assert all(same_bits(e, o) for e, o in zip(expected, got)), (f, g, expected, got)

    @staticmethod
    def random_complex(rng, n, lo, hi):
        """n complex numbers of magnitudes 10^lo to 10^hi and uniform phase,
        a tenth of their parts set to +0 and a tenth to -0."""
        z = 10.0 ** rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.random(n))
        parts = np.stack([z.real, z.imag])
        pick = rng.random(parts.shape)
        parts[pick < 0.1] = 0.0
        parts[(pick >= 0.1) & (pick < 0.2)] = -0.0
        return [complex(re, im) for re, im in parts.T]

    @pytest.mark.parametrize("lo, hi", [
        (-30, 30),  # the unscaled branches
        (-300, 300),  # the scaled branches too: parts below 2^-511 or above 2^510
        (-323, -290),  # subnormal and tiny
        (290, 308),  # huge
    ])
    def test_random_pairs(self, lo, hi):
        rng = np.random.default_rng(7)
        f, g = (self.random_complex(rng, 2000, lo, hi) for _ in range(2))
        self.assert_matches_zlartg(zip(f, g))

    def test_zero_real_and_imaginary_operands(self):
        self.assert_matches_zlartg([
            (1 + 2j, 0), (1 + 2j, -0.0), (0, 1 + 2j), (0, 0), (-0.0, 0),
            (0, 3.0), (0, -3.0), (0, 2j), (0, -2j), (0, complex(-0.0, -2.0)), (0, complex(-3.0, -0.0)),
            (1 + 1j, 2.0), (1 + 1j, -2j), (2.0, 1.0), (1j, 1.0), (complex(-0.0, 1.5), complex(-0.0, 1.5)),
            (0, 1e-200 + 1e-200j), (0, 1e300 + 1e300j), (1e-320, 1.0), (1.0, 1e-320),
            (5e-324, 5e-324j), (1e300 + 1e300j, 1.0), (1e-160, 1e160j),
        ])


def scipy_gmres(system, rhs, spec):
    """What ForwardSystem.solve got from scipy's gmres with the same settings:
    the solution, the relative norm of apply(x) - rhs, the pr_norm history
    and whether gmres reported convergence."""
    dim = system.system_dimension
    history = []
    x, info = gmres(LinearOperator((dim, dim), matvec=system.apply, dtype=np.complex128), rhs,
                    rtol=spec.tol, atol=0.0, restart=spec.restart, maxiter=spec.maxiter,
                    callback=history.append, callback_type="pr_norm")
    residual = float(np.linalg.norm(system.apply(x) - rhs) / np.linalg.norm(rhs))
    return x, residual, [float(r) for r in history], info == 0


class TestGmresPort:
    """The numpy GMRES against scipy's gmres, bit for bit: solution, residual and history."""

    @pytest.mark.parametrize("name, h, spec", [
        ("example1", 0.02, fw.SolverSpec()),
        ("example3d", 0.05, fw.SolverSpec()),
        # several restart cycles, so the ptol update runs between them
        ("example1", 0.02, fw.SolverSpec(tol=1e-10, restart=5)),
        ("example3d", 0.05, fw.SolverSpec(restart=5)),
    ])
    def test_solve_matches_scipy(self, name, h, spec):
        config = harness.preset(name)
        system = fw.ForwardSystem(config.contrast, config.ctx, fw.build_grid(config.contrast, h))
        wave = config.incidents[0]
        x, residual, history, converged = scipy_gmres(system, system.rhs(wave), spec)
        assert converged and len(history) > 5  # at restart 5, more than one cycle
        current = system.solve(wave, spec)
        active = system.contrast_at_nodes != 0.0
        assert same_bits(current.values[active], x.reshape(system.ctx.dimension, -1).T[active])
        assert np.all(current.values[~active] == 0.0)
        assert current.residual == residual
        assert current.residual_history == tuple(history)

    def test_tolerance_above_one_keeps_x0_as_scipy_does(self):
        system = fw.ForwardSystem(CONTRAST1, CTX2, fw.build_grid(CONTRAST1, 0.05))
        spec = fw.SolverSpec(tol=2.0)
        got = fw._gmres(system.apply, system.rhs(WAVE1), spec)
        expected = scipy_gmres(system, system.rhs(WAVE1), spec)
        assert same_bits(got[0], expected[0]) and not got[0].any()
        assert got[1:] == expected[1:] == (1.0, [], True)

    def test_non_converging_spec_matches_scipy(self):
        # the spec of test_gmres_nonconvergence_raises
        system = fw.ForwardSystem(CONTRAST1, CTX2, fw.build_grid(CONTRAST1, 0.02))
        spec = fw.SolverSpec(tol=1e-14, maxiter=1, restart=2)
        got = fw._gmres(system.apply, system.rhs(WAVE1), spec)
        expected = scipy_gmres(system, system.rhs(WAVE1), spec)
        assert same_bits(got[0], expected[0])
        assert got[1:] == expected[1:]
        assert not got[3] and len(got[2]) == 2


class TestSolveAll:
    @pytest.fixture(scope="class")
    def fine_3d(self):
        # example3d at h = 0.02: 15 000 unknowns, long enough vectors that
        # OpenBLAS threads the dot products of an unpinned solve
        config = harness.preset("example3d")
        system = fw.ForwardSystem(config.contrast, config.ctx, fw.build_grid(config.contrast, 0.02))
        return system, config.incidents

    @staticmethod
    def assert_same_bits(runs):
        for currents in runs[1:]:
            for got, first in zip(currents, runs[0]):
                np.testing.assert_array_equal(got.values, first.values)
                assert got.residual_history == first.residual_history

    def test_bit_identical_across_thread_counts(self, monkeypatch, fine_3d):
        system, waves = fine_3d
        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(em, "_thread_count", lambda: threads)
            currents, run = system.solve_all(waves)
            assert run.blocks == len(waves)
            assert run.threads == (threads if em._blas_threads() is not None else 1)
            runs.append(currents)
        self.assert_same_bits(runs)

    def test_bit_identical_across_ambient_blas_threads(self, monkeypatch, two_blas_threads, fine_3d):
        monkeypatch.setattr(em, "_thread_count", lambda: 2)
        system, waves = fine_3d
        set_threads = em._blas_threads()[1]
        runs = []
        for blas in (1, 2):
            set_threads(blas)
            runs.append(system.solve_all(waves)[0])
            assert two_blas_threads() == blas
        self.assert_same_bits(runs)

    def test_keeps_the_iteration_counts_of_solve(self, fine_3d):
        system, waves = fine_3d
        currents, _ = system.solve_all(waves)
        assert [c.iterations for c in currents] == [system.solve(w).iterations for w in waves]
        for current in currents:
            assert current.residual <= fw.SolverSpec().tol

    def test_a_failing_solve_raises(self, monkeypatch):
        monkeypatch.setattr(em, "_thread_count", lambda: 2)
        system = fw.ForwardSystem(CONTRAST1, CTX2, fw.build_grid(CONTRAST1, 0.02))
        with pytest.raises(SolverError, match="GMRES did not converge in 1 iterations"):
            system.solve_all([WAVE1, WAVE1], fw.SolverSpec(tol=1e-14, maxiter=1, restart=2))

    def test_the_spec_reaches_each_solve(self):
        # the same system and waves converge under the default spec, so only
        # the spec given to solve_all can make the solves fail
        system = fw.ForwardSystem(CONTRAST1, CTX2, fw.build_grid(CONTRAST1, 0.05))
        currents, _ = system.solve_all([WAVE1, WAVE1])
        assert all(current.residual <= 1e-8 for current in currents)
        with pytest.raises(SolverError, match="GMRES"):
            system.solve_all([WAVE1, WAVE1], fw.SolverSpec(maxiter=1, restart=2, tol=1e-14))


def synthesized_data(name: str, h: float) -> np.ndarray:
    """Exact near-field data of a preset scene at forward mesh size h, all incidents."""
    config = harness.preset(name)
    system = fw.ForwardSystem(config.contrast, config.ctx, fw.build_grid(config.contrast, h))
    currents, _ = system.solve_all(config.incidents, config.solver)
    fields = ms.synthesize_scattered_fields(currents, config.surface.build(), config.ctx)
    return np.stack([samples.values for samples in fields])


class TestMeshConvergence:
    # observed orders log2(|E_h - E_h/2| / |E_h/2 - E_h/4|): example1 1.01,
    # example4 0.80, example3d 0.53; each gate is its order minus 0.1
    @pytest.mark.parametrize("name, h, min_order", [
        ("example1", 0.02, 0.9),
        ("example4", 0.02, 0.7),
        ("example3d", 0.04, 0.43),
    ])
    def test_synthesized_data_converge_under_refinement(self, name, h, min_order):
        coarse, mid, fine = (synthesized_data(name, h / 2**i) for i in range(3))
        d1 = np.linalg.norm(coarse - mid)
        d2 = np.linalg.norm(mid - fine)
        assert np.log2(d1 / d2) >= min_order
