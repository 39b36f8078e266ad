"""Surfaces, quadrature, field synthesis, the noise model, and CSV round-trips."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdsm import em_core as em, forward as fw, harness, measurement as ms
from emdsm.errors import DomainError, GeometryError

CTX2 = em.WaveContext.from_wavelength(2, 1.0)
CTX3 = em.WaveContext.from_wavelength(3, 1.0)


def example1_samples(h=0.02, count=30, radius=5.0):
    wave = em.IncidentPlaneWave(np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2))
    contrast = em.ContrastField([em.Shape([-0.25, 0.0], 0.3, eta=1.0)])
    current = fw.ForwardSystem(contrast, CTX2, fw.build_grid(contrast, h)).solve(wave)
    return ms.synthesize_scattered_fields([current], ms.circle_surface(radius, count), CTX2)[0], current


class TestCircleSurface:
    def test_paper_configuration(self):
        surf = ms.circle_surface(5.0, 30)
        assert surf.count == 30
        assert surf.weights[0] == pytest.approx(np.pi / 3, rel=1e-15)
        assert surf.weights.sum() == pytest.approx(10 * np.pi, rel=1e-12)

    def test_quarter_symmetry(self):
        surf = ms.circle_surface(1.0, 4)
        np.testing.assert_allclose(
            surf.points, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15
        )

    def test_points_on_circle_and_normals_outward(self):
        surf = ms.circle_surface(5.0, 17)
        np.testing.assert_allclose(np.linalg.norm(surf.points, axis=1), 5.0, rtol=1e-12)
        np.testing.assert_allclose(surf.points / 5.0, surf.normals, atol=1e-14)

    def test_count_floor(self):
        with pytest.raises(DomainError):
            ms.circle_surface(5.0, 2)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_rejects_non_finite_radius(self, radius):
        with pytest.raises(DomainError):
            ms.circle_surface(radius, 32)

    def test_trig_quadrature_exactness(self):
        # e^{im theta} integrates to zero exactly for 0 < m < count
        surf = ms.circle_surface(5.0, 30)
        theta = np.arctan2(surf.points[:, 1], surf.points[:, 0])
        for m in range(1, 15):
            val = np.sum(surf.weights * np.exp(1j * m * theta))
            assert abs(val) < 1e-10


def descriptor_rule(kind, size, x, margin):
    """Interior test of the former string-encoded surfaces ("circle:<radius>:<count>",
    "cube:<edge>:<per_face>"), kept as the oracle for the typed region."""
    descriptor = f"{kind}:{size!r}:1"
    x = np.asarray(x, dtype=np.float64)
    if descriptor.startswith("circle"):
        return float(np.linalg.norm(x)) < float(descriptor.split(":")[1]) - margin
    return bool(np.all(np.abs(x) < 0.5 * float(descriptor.split(":")[1]) - margin))


class TestRegion:
    @settings(max_examples=60, deadline=None)
    @given(size=st.floats(0.1, 20.0), scale=st.floats(0.0, 1.2), margin=st.sampled_from([0.0, 0.1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_contains_matches_descriptor_rule(self, size, scale, margin, seed):
        rng = np.random.default_rng(seed)
        circle = ms.circle_surface(size, 8)
        cube = ms.cube_surface(size, 1)
        on_circle = np.array([size - margin, 0.0])
        on_cube = np.array([0.5 * size - margin, 0.0, 0.0])
        for x in (scale * size * rng.uniform(-1, 1, 2), on_circle, np.nextafter(on_circle, 0.0)):
            assert circle.contains_strictly(x, margin) == descriptor_rule("circle", size, x, margin)
        for x in (scale * size * rng.uniform(-1, 1, 3), on_cube, np.nextafter(on_cube, 0.0)):
            assert cube.contains_strictly(x, margin) == descriptor_rule("cube", size, x, margin)

    def test_surface_needs_its_region(self):
        circle = ms.circle_surface(5.0, 8)
        with pytest.raises(TypeError, match="region_radius"):
            ms.MeasurementSurface(circle.points, circle.weights, circle.normals)


class TestCubeSurface:
    def test_paper_configuration(self):
        surf = ms.cube_surface(10.0, 10)
        assert surf.count == 600
        assert surf.weights[0] == pytest.approx(1.0)
        assert surf.weights.sum() == pytest.approx(600.0)

    def test_face_centers(self):
        surf = ms.cube_surface(2.0, 1)
        assert surf.count == 6
        np.testing.assert_allclose(np.sort(np.abs(surf.points).max(axis=1)), np.ones(6))
        np.testing.assert_allclose(np.linalg.norm(surf.points, axis=1), np.ones(6))

    def test_no_shared_edge_points(self):
        surf = ms.cube_surface(10.0, 10)
        assert np.unique(np.round(surf.points, 12), axis=0).shape[0] == 600

    def test_normals_match_faces(self):
        surf = ms.cube_surface(4.0, 3)
        along = np.einsum("mi,mi->m", surf.points, surf.normals)
        np.testing.assert_allclose(along, 2.0, rtol=1e-14)

    @pytest.mark.parametrize("edge", [np.nan, np.inf])
    def test_rejects_non_finite_edge(self, edge):
        with pytest.raises(DomainError):
            ms.cube_surface(edge, 10)


@pytest.mark.parametrize("surface, size, count", [
    (ms.circle_surface, 5.0, np.nan),
    (ms.cube_surface, 10.0, np.nan),
    (ms.cube_surface, 10.0, 2.5),
    (ms.circle_surface, 5.0, 8.5),
])
def test_rejects_a_count_that_is_not_a_whole_number(surface, size, count):
    with pytest.raises(DomainError, match="whole number"):
        surface(size, count)


@pytest.mark.parametrize("surface, size, count", [(ms.circle_surface, 5.0, 32), (ms.cube_surface, 10.0, 10)])
def test_numpy_integer_counts_give_the_same_surface(surface, size, count):
    assert surface(size, np.int64(count)).same_samples(surface(size, count))


class TestSynthesis:
    def test_zero_current_zero_field(self):
        contrast = em.ContrastField([em.Shape([-0.25, 0.0], 0.3, eta=0.0)])
        wave = em.IncidentPlaneWave(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        current = fw.ForwardSystem(contrast, CTX2, fw.build_grid(contrast, 0.05)).solve(wave)
        samples = ms.synthesize_scattered_fields([current], ms.circle_surface(5.0, 30), CTX2)[0]
        assert np.all(samples.values == 0.0)

    def test_single_active_node_is_one_term_quadrature(self):
        contrast = em.ContrastField([em.Shape([0.0, 0.0], 0.3, eta=1.0)])
        grid = fw.build_grid(contrast, 0.1)
        values = np.zeros((grid.n_nodes, 2), complex)
        j0 = 4
        values[j0] = [1.0 + 2.0j, -0.5j]
        current = fw.InducedCurrentField(grid, values)
        surf = ms.circle_surface(5.0, 8)
        samples = ms.synthesize_scattered_fields([current], surf, CTX2)[0]
        expected = np.array([
            em.green_tensor_from_diff(CTX2, m - grid.nodes[j0]) @ values[j0] for m in surf.points
        ]) * grid.cell_measure
        np.testing.assert_allclose(samples.values, expected, rtol=1e-14)

    def test_linear_in_current(self):
        contrast = em.ContrastField([em.Shape([0.0, 0.0], 0.3, eta=1.0)])
        grid = fw.build_grid(contrast, 0.05)
        rng = np.random.default_rng(1)
        j1 = rng.standard_normal((grid.n_nodes, 2)) + 1j * rng.standard_normal((grid.n_nodes, 2))
        j2 = rng.standard_normal((grid.n_nodes, 2)) + 1j * rng.standard_normal((grid.n_nodes, 2))
        surf = ms.circle_surface(5.0, 12)

        def field(vals):
            return ms.synthesize_scattered_fields([fw.InducedCurrentField(grid, vals)], surf, CTX2)[0].values

        a, b = 1.3 - 0.7j, -0.2 + 2.1j
        np.testing.assert_allclose(
            field(a * j1 + b * j2), a * field(j1) + b * field(j2), atol=1e-12
        )

    def test_radiation_decay_rate(self):
        samples5, current = example1_samples()
        norms = {}
        for radius in (5.0, 10.0, 20.0):
            surf = ms.circle_surface(radius, 30)
            vals = ms.synthesize_scattered_fields([current], surf, CTX2)[0].values
            norms[radius] = np.linalg.norm(vals, axis=1)
        for a, b in ((5.0, 10.0), (10.0, 20.0)):
            ratio = np.mean(norms[a] / norms[b])
            assert ratio == pytest.approx(np.sqrt(2.0), rel=0.1)

    @pytest.mark.parametrize("ctx, count", [(CTX2, 30), (CTX3, 2)])
    def test_matches_kernel_tensor_sum_in_any_chunking(self, ctx, count, monkeypatch):
        d = ctx.dimension
        contrast = em.ContrastField([em.Shape(np.zeros(d), 0.3)])
        grid = fw.build_grid(contrast, 0.05)
        rng = np.random.default_rng(2)
        values = rng.standard_normal((grid.n_nodes, d)) + 1j * rng.standard_normal((grid.n_nodes, d))
        values[::3] = 0.0
        current = fw.InducedCurrentField(grid, values)
        surf = ms.circle_surface(5.0, count) if d == 2 else ms.cube_surface(10.0, count)
        phi = em.green_tensor_from_diff(ctx, surf.points[:, None, :] - grid.nodes[None, :, :])
        expected = np.einsum("mjab,jb->ma", phi, values) * grid.cell_measure
        default = ms.synthesize_scattered_fields([current], surf, ctx)[0].values
        monkeypatch.setattr(em, "_CHUNK_TARGET", 1)  # one surface point per block
        one_target = ms.synthesize_scattered_fields([current], surf, ctx)[0].values
        for got in (default, one_target):
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-14 * np.abs(expected).max())

    @pytest.mark.parametrize("ctx, count", [(CTX2, 30), (CTX3, 2)])
    def test_bit_identical_across_thread_counts(self, ctx, count, monkeypatch):
        d = ctx.dimension
        grid = fw.build_grid(em.ContrastField([em.Shape(np.zeros(d), 0.3)]), 0.05)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((grid.n_nodes, d)) + 1j * rng.standard_normal((grid.n_nodes, d))
        values[::3] = 0.0
        current = fw.InducedCurrentField(grid, values)
        surf = ms.circle_surface(5.0, count) if d == 2 else ms.cube_surface(10.0, count)
        # 4 surface points per block: blocks straddle every worker's share,
        # and 5 workers outnumber the cores
        active = np.count_nonzero(np.any(values != 0.0, axis=1))
        monkeypatch.setattr(em, "_CHUNK_TARGET", 4 * active * d)
        runs = []
        for threads in (1, 2, 5):
            monkeypatch.setattr(em, "_thread_count", lambda: threads)
            runs.append(ms.synthesize_scattered_fields([current], surf, ctx)[0].values)
        for got in runs[1:]:
            np.testing.assert_array_equal(got, runs[0])

    def test_bit_identical_across_thread_counts_where_blas_threads_round(self, monkeypatch, two_blas_threads):
        # blocks of 133 targets against 250 sources: OpenBLAS rounds this
        # GEMM differently on one thread and on two, so one worker must pin
        # BLAS as several do
        grid = fw.build_grid(em.ContrastField([em.Shape(np.zeros(3), 0.35)]), 0.05)
        rng = np.random.default_rng(4)
        values = rng.standard_normal((grid.n_nodes, 3)) + 1j * rng.standard_normal((grid.n_nodes, 3))
        values[:grid.n_nodes - 250] = 0.0
        current = fw.InducedCurrentField(grid, values)
        surf = ms.cube_surface(10.0, 9)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 133 * 250 * 3)
        runs = []
        for threads in (1, 2, 5):
            monkeypatch.setattr(em, "_thread_count", lambda: threads)
            runs.append(ms.synthesize_scattered_fields([current], surf, CTX3)[0].values)
        for got in runs[1:]:
            np.testing.assert_array_equal(got, runs[0])

    @staticmethod
    def random_currents(ctx, count, seed):
        """count random currents on one grid of a cube or square of side 0.3,
        each zero on its own third of the nodes, and a surface around it."""
        d = ctx.dimension
        grid = fw.build_grid(em.ContrastField([em.Shape(np.zeros(d), 0.3)]), 0.05)
        rng = np.random.default_rng(seed)
        currents = []
        for l in range(count):
            values = rng.standard_normal((grid.n_nodes, d)) + 1j * rng.standard_normal((grid.n_nodes, d))
            values[l::3] = 0.0
            currents.append(fw.InducedCurrentField(grid, values))
        surf = ms.circle_surface(5.0, 30) if d == 2 else ms.cube_surface(10.0, 2)
        return currents, surf

    @pytest.mark.parametrize("ctx", [CTX2, CTX3])
    def test_many_currents_match_one_current_calls(self, ctx):
        currents, surf = self.random_currents(ctx, 3, 6)
        fields = ms.synthesize_scattered_fields(currents, surf, ctx)
        assert len(fields) == 3
        for current, samples in zip(currents, fields):
            assert samples.surface is surf
            alone = ms.synthesize_scattered_fields([current], surf, ctx)[0].values
            assert np.abs(samples.values - alone).max() <= 1e-15 * np.abs(alone).max()

    @pytest.mark.parametrize("ctx", [CTX2, CTX3])
    def test_many_currents_bit_identical_across_thread_counts(self, ctx, monkeypatch):
        currents, surf = self.random_currents(ctx, 2, 7)
        # 4 surface points per block, and 5 workers outnumber the cores
        monkeypatch.setattr(em, "_CHUNK_TARGET", 4 * currents[0].grid.n_nodes * ctx.dimension)
        runs = []
        for threads in (1, 2, 5):
            monkeypatch.setattr(em, "_thread_count", lambda: threads)
            runs.append([samples.values for samples in ms.synthesize_scattered_fields(currents, surf, ctx)])
        for got in runs[1:]:
            for values, first in zip(got, runs[0]):
                np.testing.assert_array_equal(values, first)

    def test_currents_on_different_grids_rejected(self):
        current, _ = self.random_currents(CTX2, 1, 8)
        shifted = fw.InducedCurrentField(
            fw.VolumeGrid(current[0].grid.mesh_size, current[0].grid.origin + 0.01, current[0].grid.counts),
            current[0].values,
        )
        with pytest.raises(GeometryError, match="one forward grid"):
            ms.synthesize_scattered_fields([current[0], shifted], ms.circle_surface(5.0, 30), CTX2)

    def test_no_currents_rejected(self):
        with pytest.raises(DomainError, match="at least one current"):
            ms.synthesize_scattered_fields([], ms.circle_surface(5.0, 30), CTX2)

    def test_measurement_point_inside_grid_rejected(self):
        _, current = example1_samples(h=0.05)
        inside = ms.MeasurementSurface(
            np.array([[-0.25, 0.0]]), np.array([1.0]), np.array([[1.0, 0.0]]), region_radius=0.1
        )
        with pytest.raises(GeometryError):
            ms.synthesize_scattered_fields([current], inside, CTX2)


def direct_synthesis(currents, surface, ctx):
    """Oracle of the orbit synthesis: the synthesis as it was before it used
    the group, one KernelBlock pairing per block of all surface points."""
    grid, d = currents[0].grid, ctx.dimension
    stacked = np.stack([current.values for current in currents], axis=1)
    active = np.flatnonzero(np.any(stacked != 0.0, axis=(1, 2)))
    values = np.zeros((surface.count, d * len(currents)), dtype=np.complex128)
    refs = np.einsum("ai,jlb->jabli", np.eye(d), stacked[active] * grid.cell_measure)
    slabs = em.symmetric_slabs(refs.reshape(active.size, d, d, -1))

    def work(start, stop):
        values[start:stop] = em.KernelBlock(ctx, grid.nodes[active], surface.points[start:stop]).contract(slabs)

    em.run_blocks(work, surface.count, active.size, d)
    return [values[:, l * d:(l + 1) * d].copy() for l in range(len(currents))]


def preset_currents(name):
    """The forward currents of a preset, its surface and its context."""
    config = harness.preset(name)
    system = fw.ForwardSystem(config.contrast, config.ctx, fw.build_grid(config.contrast, config.forward_h))
    return system.solve_all(config.incidents, config.solver)[0], config.surface.build(), config.ctx


class TestOrbitSynthesis:
    """The synthesis evaluates Phi once per orbit of the group that maps the
    grid's ticks onto themselves and the surface points exactly onto each
    other."""

    def test_symmetric_scene_matches_the_direct_synthesis(self):
        # example3d: the two cubes allow the x flip and the y-z swap
        currents, surface, ctx = preset_currents("example3d")
        fields = ms.synthesize_scattered_fields(currents, surface, ctx)
        info = fields[0].synthesis_info
        active = np.count_nonzero(np.any(currents[0].values != 0.0, axis=1))
        assert (info.group_order, info.orbits) == (4, 155)
        assert (info.kernel_pairs, info.grid_pairs) == (155 * active, surface.count * active)
        for samples, expected in zip(fields, direct_synthesis(currents, surface, ctx)):
            np.testing.assert_allclose(samples.values, expected, rtol=1e-13)

    @pytest.mark.parametrize("name,order,orbits", [("example1", 2, 16), ("example2b", 1, 30), ("example4", 4, 8)])
    def test_circle_scenes_match_the_direct_synthesis(self, name, order, orbits):
        # example1's square allows the y flip, example4's ring both flips; the
        # 30-point circle's two points on the x axis are fixed by the y flip
        currents, surface, ctx = preset_currents(name)
        fields = ms.synthesize_scattered_fields(currents, surface, ctx)
        assert (fields[0].synthesis_info.group_order, fields[0].synthesis_info.orbits) == (order, orbits)
        for samples, expected in zip(fields, direct_synthesis(currents, surface, ctx)):
            np.testing.assert_allclose(samples.values, expected, rtol=1e-13)

    def test_sources_take_the_images_of_an_asymmetric_support(self):
        # a centred cube less one corner: the group is the cube's 48 members,
        # and the sources add the missing corner's nodes with zero current
        contrast = em.ContrastField([em.Shape(np.zeros(3), 0.4), em.Shape(np.full(3, 0.1), 0.2, eta=0.0)])
        grid = fw.build_grid(contrast, 0.1)
        supported = contrast.eta_at(grid.nodes) != 0.0
        assert (grid.n_nodes, np.count_nonzero(supported)) == (64, 56)
        surface = ms.cube_surface(10.0, 4)
        rng = np.random.default_rng(14)
        currents = []
        for _ in range(2):
            values = rng.standard_normal((grid.n_nodes, 3)) + 1j * rng.standard_normal((grid.n_nodes, 3))
            values[~supported] = 0.0
            currents.append(fw.InducedCurrentField(grid, values))
        fields = ms.synthesize_scattered_fields(currents, surface, CTX3)
        info = fields[0].synthesis_info
        assert (info.group_order, info.orbits, info.kernel_pairs) == (48, 3, 3 * 64)
        # random currents leave some values far below the largest, so the
        # rounding is bounded against the largest
        for samples, expected in zip(fields, direct_synthesis(currents, surface, CTX3)):
            assert np.abs(samples.values - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_passes_of_members_match_one_pass(self, monkeypatch):
        # a slab budget of 5 members' slabs splits the cube's 48 into 10 passes
        currents, surface = TestSynthesis.random_currents(CTX3, 2, 16)
        one = ms.synthesize_scattered_fields(currents, surface, CTX3)
        sources = one[0].synthesis_info.kernel_pairs // one[0].synthesis_info.orbits
        monkeypatch.setattr(em, "_SLAB_BUDGET", 5 * 6 * sources * 6 * 16)
        passes = ms.synthesize_scattered_fields(currents, surface, CTX3)
        assert one[0].synthesis_info.group_order == 48
        assert passes[0].synthesis_info.kernel_pairs == 10 * one[0].synthesis_info.kernel_pairs
        # the kernel values are the same; the products sum fewer columns
        for got, expected in zip(passes, one):
            assert np.abs(got.values - expected.values).max() <= 1e-15 * np.abs(expected.values).max()

    def test_bit_identical_across_thread_counts(self, monkeypatch):
        # example3d's cubes with currents that have no symmetry of their own,
        # 4 representatives per block, and 5 workers outnumber the cores
        config = harness.preset("example3d")
        grid = fw.build_grid(config.contrast, config.forward_h)
        supported = config.contrast.eta_at(grid.nodes) != 0.0
        rng = np.random.default_rng(15)
        values = rng.standard_normal((grid.n_nodes, 3)) + 1j * rng.standard_normal((grid.n_nodes, 3))
        values[~supported] = 0.0
        current = fw.InducedCurrentField(grid, values)
        surface = config.surface.build()
        monkeypatch.setattr(em, "_CHUNK_TARGET", 4 * np.count_nonzero(supported) * 3)
        runs = []
        for threads in (1, 2, 5):
            monkeypatch.setattr(em, "_thread_count", lambda: threads)
            runs.append(ms.synthesize_scattered_fields([current], surface, CTX3)[0])
        assert runs[0].synthesis_info.group_order == 4 and runs[0].synthesis_info.chunks == 39
        for got in runs[1:]:
            np.testing.assert_array_equal(got.values.view(np.uint64), runs[0].values.view(np.uint64))


class TestNoise:
    def test_zero_epsilon_identity(self):
        samples, _ = example1_samples(h=0.05)
        out = ms.add_noise(samples, 0.0, 3)
        np.testing.assert_array_equal(out.values, samples.values)

    def test_deterministic_for_seed(self):
        samples, _ = example1_samples(h=0.05)
        a = ms.add_noise(samples, 0.2, 7)
        b = ms.add_noise(samples, 0.2, 7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_linear_in_epsilon_for_fixed_seed(self):
        samples, _ = example1_samples(h=0.05)
        base = ms.add_noise(samples, 0.05, 11).values - samples.values
        for eps in (0.1, 0.2, 0.4):
            delta = ms.add_noise(samples, eps, 11).values - samples.values
            np.testing.assert_allclose(delta, (eps / 0.05) * base, rtol=1e-12)

    def test_noisy_samples_keep_surface_and_synthesis_info(self):
        samples, _ = example1_samples(h=0.05)
        noisy = ms.add_noise(samples, 0.2, 7)
        assert noisy.surface is samples.surface
        assert samples.synthesis_info is not None
        assert noisy.synthesis_info is samples.synthesis_info

    def test_negative_epsilon_rejected(self):
        samples, _ = example1_samples(h=0.05)
        with pytest.raises(DomainError):
            ms.add_noise(samples, -0.1, 0)

    def test_perturbation_statistics_vs_monte_carlo_oracle(self):
        # mean over seeds of ||E_noisy - E||_inf / max|E| against an
        # independent draw of the same statistic
        samples, _ = example1_samples(h=0.05)
        eps = 0.2
        scale = np.linalg.norm(samples.values, axis=1).max()
        stats = []
        for seed in range(1000):
            noisy = ms.add_noise(samples, eps, seed)
            stats.append(np.linalg.norm(noisy.values - samples.values, axis=1).max() / scale)
        observed = np.mean(stats)

        rng = np.random.default_rng(987654321)
        draws = rng.standard_normal((20000, samples.surface.count, 2, 2))
        zeta = draws[..., 0] + 1j * draws[..., 1]
        oracle = eps * np.mean(np.linalg.norm(zeta, axis=2).max(axis=1))
        assert observed == pytest.approx(oracle, rel=0.05)


class TestInnerProduct:
    def test_positive_definite(self):
        samples, _ = example1_samples(h=0.05)
        ip = ms.l2_inner_product(samples, samples)
        assert ip.imag == pytest.approx(0.0, abs=1e-16)
        assert ip.real > 0
        zero = ms.FieldSamples(samples.surface, np.zeros_like(samples.values))
        assert ms.l2_inner_product(zero, zero) == 0

    def test_surface_mismatch_rejected(self):
        samples, current = example1_samples(h=0.05)
        other = ms.synthesize_scattered_fields([current], ms.circle_surface(6.0, 30), CTX2)[0]
        with pytest.raises(GeometryError):
            ms.l2_inner_product(samples, other)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_hermitian_and_cauchy_schwarz(self, data):
        count = data.draw(st.integers(4, 12))
        surf = ms.circle_surface(2.0, count)
        finite = st.floats(-5, 5, allow_nan=False)
        def draw_field():
            flat = data.draw(st.lists(finite, min_size=4 * count, max_size=4 * count))
            arr = np.array(flat).reshape(count, 2, 2)
            return ms.FieldSamples(surf, arr[..., 0] + 1j * arr[..., 1])
        f, g = draw_field(), draw_field()
        fg = ms.l2_inner_product(f, g)
        assert fg == pytest.approx(np.conj(ms.l2_inner_product(g, f)), abs=1e-9)
        assert abs(fg) <= ms.l2_norm(f) * ms.l2_norm(g) * (1 + 1e-12) + 1e-12


def csv_writer_oracle(samples, path) -> bytes:
    """The file csv.writer writes with each value as f"{v:.17g}"."""
    d = samples.surface.dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(d)] + ["w"]
                        + [f"{part}_E{i + 1}" for i in range(d) for part in ("Re", "Im")])
        for m in range(samples.surface.count):
            row = [*samples.surface.points[m], samples.surface.weights[m]]
            for i in range(d):
                row += [samples.values[m, i].real, samples.values[m, i].imag]
            writer.writerow([f"{v:.17g}" for v in row])
    return path.read_bytes()


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        samples, _ = example1_samples(h=0.05)
        noisy = ms.add_noise(samples, 0.2, 5)
        path = tmp_path / "samples.csv"
        ms.write_field_samples_csv(noisy, path)
        back = ms.read_field_samples_csv(path, surface=noisy.surface)
        np.testing.assert_array_equal(back.values, noisy.values)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,w,Re_E1,Im_E1,Re_E2,Im_E2"

    def test_read_rejects_other_surface(self, tmp_path):
        surf = ms.circle_surface(5.0, 8)
        path = tmp_path / "samples.csv"
        ms.write_field_samples_csv(ms.FieldSamples(surf, np.ones((8, 2), complex)), path)
        assert ms.read_field_samples_csv(path, surface=surf).surface is surf
        moved = ms.circle_surface(5.5, 8)
        reweighted = ms.MeasurementSurface(surf.points, 2.0 * surf.weights, surf.normals, region_radius=5.0)
        for other in (moved, reweighted):
            with pytest.raises(GeometryError):
                ms.read_field_samples_csv(path, surface=other)

    @pytest.mark.parametrize("surf", [ms.circle_surface(5.0, 9), ms.cube_surface(2.0, 2)])
    def test_bytes_match_csv_writer_oracle(self, tmp_path, surf):
        d = surf.dimension
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0]
        rng = np.random.default_rng(9)
        parts = rng.standard_normal((surf.count, d, 2)) * 10.0 ** rng.integers(-300, 300, (surf.count, d, 2))
        parts.ravel()[:len(special)] = special
        parts.ravel()[-len(special):] = special[::-1]
        samples = ms.FieldSamples(surf, parts.view(np.complex128)[..., 0])  # 1j * inf would put nan in Re
        path = tmp_path / "samples.csv"
        ms.write_field_samples_csv(samples, path)
        assert path.read_bytes() == csv_writer_oracle(samples, tmp_path / "oracle.csv")

    @pytest.mark.parametrize("values", [
        -np.arange(1.0, 21.0) / 7.0,
        np.linspace(1e-300, 9.9e-5, 20),
        np.arange(-10.0, 10.0),
        np.arange(1.0, 21.0) ** 7 / 3.0,
    ], ids=["negative", "below_1e-4", "integral", "one_and_above"])
    def test_bytes_match_csv_writer_by_value_class(self, tmp_path, values):
        surf = ms.circle_surface(5.0, 5)
        samples = ms.FieldSamples(surf, values.view(np.complex128).reshape(surf.count, 2))
        path = tmp_path / "samples.csv"
        ms.write_field_samples_csv(samples, path)
        assert path.read_bytes() == csv_writer_oracle(samples, tmp_path / "oracle.csv")

    @pytest.mark.parametrize("edit, error, match", [
        # Im_E2 deleted from the header and every row
        (lambda rows: [row[:-1] for row in rows], GeometryError, "line 1: header"),
        (lambda rows: [], GeometryError, "line 1: header"),
        (lambda rows: rows[:1], GeometryError, "line 2: no data rows"),
        (lambda rows: rows[:3] + [rows[3][:-1]] + rows[4:], GeometryError, "line 4: 6 values, expected 7"),
        (lambda rows: rows[:2] + [["abc"] + rows[2][1:]] + rows[3:], DomainError, "line 3: could not convert"),
        (lambda rows: rows[:5] + [rows[5][:4] + ["nan"] + rows[5][5:]] + rows[6:], DomainError,
         "line 6: values must be finite"),
    ], ids=["missing_column", "empty", "header_only", "ragged_row", "abc_cell", "nan_cell"])
    def test_malformed_file_raises_naming_the_line(self, tmp_path, edit, error, match):
        path = tmp_path / "samples.csv"
        surf = ms.circle_surface(5.0, 8)
        ms.write_field_samples_csv(ms.FieldSamples(surf, np.ones((8, 2), complex)), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        with pytest.raises(error, match=f"^{re.escape(str(path))}: {match}"):
            ms.read_field_samples_csv(path, surface=surf)

    def test_3d_header(self, tmp_path):
        surf = ms.cube_surface(2.0, 1)
        rng = np.random.default_rng(10)
        samples = ms.FieldSamples(surf, rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        path = tmp_path / "samples3d.csv"
        ms.write_field_samples_csv(samples, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,w,Re_E1,Im_E1,Re_E2,Im_E2,Re_E3,Im_E3"
        np.testing.assert_array_equal(ms.read_field_samples_csv(path, surface=surf).values, samples.values)
