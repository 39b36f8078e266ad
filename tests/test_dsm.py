"""Sampling grids, index properties, cross-correlation maps, and exports."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdsm import dsm, em_core as em, forward as fw, harness, measurement as ms
from emdsm.errors import DomainError, GeometryError, SingularityError

CTX2 = em.WaveContext.from_wavelength(2, 1.0)
CTX3 = em.WaveContext.from_wavelength(3, 1.0)
P1 = np.array([1.0, -1.0]) / np.sqrt(2)
P2 = np.array([1.0, 1.0]) / np.sqrt(2)
SURF = ms.circle_surface(5.0, 30)


def component(i, j, d=2):
    """The cross-map coefficients A[i, j, j] = 1 of the kernel component Phi_ij."""
    coeffs = np.zeros((d,) * 3)
    coeffs[i, j, j] = 1.0
    return coeffs


def diagonal(d=2):
    return sum(component(i, i, d) for i in range(d))


def probes(*qs):
    """The cross-map coefficients A[i, j, l] = sum over qs of q_j q_l, for every i."""
    d = len(qs[0])
    return np.broadcast_to(sum(np.outer(q, q) for q in qs), (d,) * 3)


@pytest.fixture(scope="module")
def example1_data():
    wave1 = em.IncidentPlaneWave(np.array([1.0, 1.0]) / np.sqrt(2), P1)
    wave2 = em.IncidentPlaneWave(np.array([-1.0, 1.0]) / np.sqrt(2), P2)
    contrast = em.ContrastField([em.Shape([-0.25, 0.0], 0.3, eta=1.0)])
    system = fw.ForwardSystem(contrast, CTX2, fw.build_grid(contrast, 0.02))
    out = []
    for wave in (wave1, wave2):
        samples = ms.synthesize_scattered_fields([system.solve(wave)], SURF, CTX2)[0]
        out.append((samples, wave.polarization))
    return out


class TestSamplingGrid:
    def test_paper_lattice_count(self):
        grid = dsm.sampling_grid([(-2, 2), (-2, 2)], 0.01)
        assert grid.shape == (401, 401)
        assert grid.n_points == 160801

    def test_lattice_includes_endpoints(self):
        grid = dsm.sampling_grid([(-2, 2), (-2, 2)], 0.01)
        assert grid.axes[0][0] == -2.0
        assert grid.axes[0][-1] == pytest.approx(2.0)

    def test_3d_default_count(self):
        grid = dsm.sampling_grid([(-2, 2)] * 3, 0.05)
        assert grid.shape == (81, 81, 81)

    def test_rejects_bad_spacing(self):
        with pytest.raises(DomainError):
            dsm.sampling_grid([(-2, 2)], 0.0)

    @pytest.mark.parametrize("box,spacing", [([(-2, 2)], np.nan), ([(-2, 2)], np.inf), ([(-2, np.inf)], 0.1),
                                             ([(-np.inf, 2)], 0.1), ([(-2, 2), (np.nan, 1)], 0.1)])
    def test_rejects_non_finite_box_or_spacing(self, box, spacing):
        with pytest.raises(DomainError):
            dsm.sampling_grid(box, spacing)

    def test_one_point_grid_sits_at_its_box_centre(self):
        grid = dsm.sampling_grid([(0.1, 0.6), (-1.0, -0.3)], 1.0)
        assert grid.n_points == 1
        np.testing.assert_array_equal(grid.points, [[0.5 * (0.1 + 0.6), 0.5 * (-1.0 - 0.3)]])

    def test_axes_built_once_and_read_only(self):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.5)
        assert grid.axes is grid.axes
        with pytest.raises(ValueError):
            grid.axes[0][0] = 0.0

    @pytest.mark.parametrize("box,spacing", [([(-1.0, 1.3), (-0.7, 1.0)], 0.1),
                                             ([(-1.0, 1.0), (-0.5, 1.5), (0.0, 1.0)], 0.25)])
    def test_argmax_location_is_the_argmax_point(self, box, spacing):
        grid = dsm.sampling_grid(box, spacing)
        rng = np.random.default_rng(3)
        for argmax in (0, int(rng.integers(grid.n_points)), grid.n_points - 1):
            values = rng.random(grid.n_points)
            values[argmax] = 2.0
            location = dsm.IndexGrid(grid, values, "test").argmax_location()
            np.testing.assert_array_equal(location, grid.points[argmax])


class TestProbeField:
    def test_on_axis_3d_alignment(self):
        surf = ms.cube_surface(10.0, 10)
        probe = dsm.probe_field(CTX3, surf, [0.0, 0.0, 0.0], np.array([1.0, 0.0, 0.0]))
        # points on the x axis see a purely x-directed probe
        on_axis = np.abs(surf.points[:, 1:]).max(axis=1) < 1e-12
        if on_axis.any():
            np.testing.assert_allclose(probe.values[on_axis][:, 1:], 0.0, atol=1e-14)
        # generic points are not aligned
        assert np.abs(probe.values[:, 1:]).max() > 0

    def test_probe_never_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            x_p = rng.uniform(-2, 2, 2)
            probe = dsm.probe_field(CTX2, SURF, x_p, P1)
            assert ms.l2_norm(probe) > 0

    def test_probe_scale_follows_radiation_decay(self):
        inner = dsm.probe_field(CTX2, ms.circle_surface(5.0, 64), [0.3, -0.2], P1)
        outer = dsm.probe_field(CTX2, ms.circle_surface(10.0, 64), [0.3, -0.2], P1)
        ratio = np.mean(
            np.linalg.norm(outer.values, axis=1) / np.linalg.norm(inner.values, axis=1)
        )
        assert ratio == pytest.approx(np.sqrt(0.5), rel=0.1)

    def test_point_outside_rejected(self):
        with pytest.raises(GeometryError):
            dsm.probe_field(CTX2, SURF, [6.0, 0.0], P1)


def index_at(ctx, datasets, x_p):
    """compute_index_grid on the one-point grid {x_p}: the per-dataset
    values followed by the combined one."""
    grid = dsm.sampling_grid([(c - 0.25, c + 0.25) for c in x_p], 1.0)
    assert grid.n_points == 1
    return [float(index.values[0]) for index in dsm.compute_index_grid(ctx, datasets, grid)]


def psi_oracle(ctx, data, x_p, q):
    """Psi at x_p from its definition: the probe from green_tensor_from_diff,
    the pairing and the norms from l2_inner_product and l2_norm."""
    x_p = np.asarray(x_p, dtype=float)
    probe = ms.FieldSamples(data.surface, em.green_tensor_from_diff(ctx, data.surface.points - x_p) @ q)
    return abs(ms.l2_inner_product(data, probe)) / (ms.l2_norm(data) * ms.l2_norm(probe))


class TestIndexPsi:
    def test_self_probe_is_one(self):
        probe = dsm.probe_field(CTX2, SURF, [0.4, -0.3], P1)
        single, _ = index_at(CTX2, [(probe, P1)], [0.4, -0.3])
        assert single == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_complex_rescaling(self, example1_data):
        samples, q = example1_data[0]
        scaled = ms.FieldSamples(samples.surface, 3j * samples.values)
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.25)
        plain = dsm.compute_index_grid(CTX2, [(samples, q)], grid)[0]
        rescaled = dsm.compute_index_grid(CTX2, [(scaled, q)], grid)[0]
        np.testing.assert_allclose(rescaled.values, plain.values, rtol=1e-12)

    def test_larger_at_scatterer_than_far_away(self, example1_data):
        samples, q = example1_data[0]
        near, _ = index_at(CTX2, [(samples, q)], [-0.25, 0.0])
        far, _ = index_at(CTX2, [(samples, q)], [1.5, 1.5])
        assert near > far

    def test_zero_data_rejected(self):
        zero = ms.FieldSamples(SURF, np.zeros((30, 2), complex))
        with pytest.raises(DomainError):
            index_at(CTX2, [(zero, P1)], [0.0, 0.0])

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(-2, 2), y=st.floats(-2, 2),
        re=st.lists(st.floats(-3, 3), min_size=60, max_size=60),
        im=st.lists(st.floats(-3, 3), min_size=60, max_size=60),
    )
    def test_always_in_unit_interval(self, x, y, re, im):
        values = (np.array(re) + 1j * np.array(im)).reshape(30, 2)
        if not np.any(values):
            return
        data = ms.FieldSamples(SURF, values)
        single, _ = index_at(CTX2, [(data, P1)], [x, y])
        assert 0.0 <= single <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_surface_permutation(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
        perm = rng.permutation(30)
        shuffled = replace(SURF, points=SURF.points[perm], weights=SURF.weights[perm],
                           normals=SURF.normals[perm])
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.5)
        plain = dsm.compute_index_grid(CTX2, [(ms.FieldSamples(SURF, values), P1)], grid)[0]
        permuted = dsm.compute_index_grid(
            CTX2, [(ms.FieldSamples(shuffled, values[perm]), P1)], grid)[0]
        np.testing.assert_allclose(permuted.values, plain.values, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("ctx,surface,box", [
        (CTX2, SURF, [(-1.5, 1.5), (-1.0, 1.2)]),
        (CTX3, ms.cube_surface(10.0, 4), [(-1.0, 1.0), (-0.5, 0.5), (0.0, 1.0)]),
    ])
    def test_grid_matches_definition(self, ctx, surface, box):
        rng = np.random.default_rng(7)
        d = ctx.dimension
        qs = [np.eye(d)[0], np.ones(d) / np.sqrt(d)]
        datasets = [
            (ms.FieldSamples(surface, rng.standard_normal((surface.count, d))
                             + 1j * rng.standard_normal((surface.count, d))), q)
            for q in qs
        ]
        grid = dsm.sampling_grid(box, 0.5)
        grids = dsm.compute_index_grid(ctx, datasets, grid)
        for (data, q), index in zip(datasets, grids):
            expected = [psi_oracle(ctx, data, x_p, q) for x_p in grid.points]
            np.testing.assert_allclose(index.values, expected, rtol=0, atol=1e-12)


class TestCombined:
    def test_single_dataset_equals_psi(self, example1_data):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.25)
        single, combined = dsm.compute_index_grid(CTX2, example1_data[:1], grid)
        np.testing.assert_array_equal(combined.values, single.values)

    def test_duplicate_dataset_mean_unchanged(self, example1_data):
        once = index_at(CTX2, example1_data[:1], [0.2, -0.1])[-1]
        twice = index_at(CTX2, example1_data[:1] * 2, [0.2, -0.1])[-1]
        assert twice == pytest.approx(once, rel=1e-14)

    def test_permutation_invariant(self, example1_data):
        forward_order = index_at(CTX2, example1_data, [0.0, 0.3])
        reversed_order = index_at(CTX2, example1_data[::-1], [0.0, 0.3])
        assert reversed_order == pytest.approx(forward_order[1::-1] + forward_order[2:], rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            index_at(CTX2, [], [0.0, 0.0])

    def test_datasets_on_different_surfaces_rejected(self, example1_data):
        (first, q1), (second, q2) = example1_data
        moved = ms.circle_surface(5.5, 30)
        reweighted = replace(SURF, weights=2.0 * SURF.weights)
        for other in (moved, reweighted):
            with pytest.raises(GeometryError):
                index_at(CTX2, [(first, q1), (ms.FieldSamples(other, second.values), q2)], [0.0, 0.0])

    def test_example1_combined_peak_location(self, example1_data):
        grid = dsm.sampling_grid([(-2, 2), (-2, 2)], 0.02)
        combined = dsm.compute_index_grid(CTX2, example1_data, grid)[-1]
        loc = combined.argmax_location()
        assert np.linalg.norm(loc - np.array([-0.25, 0.0])) <= 0.1
        assert np.all(combined.values >= 0) and np.all(combined.values <= 1 + 1e-12)


class TestIndexGridSweep:
    def test_output_matches_grid_count(self, example1_data):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.1)
        out = dsm.compute_index_grid(CTX2, example1_data, grid)
        assert [index.label for index in out] == [
            "single_polarization:0", "single_polarization:1", "combined"]
        for index in out:
            assert index.values.shape == (grid.n_points,)

    def test_combined_is_mean_of_single(self, example1_data):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.1)
        g1, g2, comb = dsm.compute_index_grid(CTX2, example1_data, grid)
        np.testing.assert_allclose(comb.values, 0.5 * (g1.values + g2.values), rtol=1e-13)

    def test_far_region_quieter_than_peak(self, example1_data):
        grid = dsm.sampling_grid([(-2, 2), (-2, 2)], 0.05)
        comb = dsm.compute_index_grid(CTX2, example1_data, grid)[-1]
        far = np.linalg.norm(grid.points - np.array([-0.25, 0.0]), axis=1) > 1.2
        assert comb.values[far].mean() < comb.values.max() / 3

    def test_grid_outside_surface_rejected(self, example1_data):
        grid = dsm.sampling_grid([(-6, 6), (-6, 6)], 1.0)
        with pytest.raises(GeometryError):
            dsm.compute_index_grid(CTX2, example1_data, grid)

    def test_thread_count_does_not_change_values(self, example1_data, monkeypatch):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.05)
        monkeypatch.setattr(em, "_thread_count", lambda: 1)
        serial = dsm.compute_index_grid(CTX2, example1_data, grid)[-1]
        monkeypatch.setattr(em, "_thread_count", lambda: 2)
        threaded = dsm.compute_index_grid(CTX2, example1_data, grid)[-1]
        np.testing.assert_array_equal(serial.values, threaded.values)

    def test_one_point_chunks_match_default_chunks(self, example1_data, monkeypatch):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.1)
        default = dsm.compute_index_grid(CTX2, example1_data, grid)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 1)
        one_point = dsm.compute_index_grid(CTX2, example1_data, grid)
        assert grid.n_points > 1
        for a, b in zip(default, one_point):
            np.testing.assert_allclose(a.values, b.values, rtol=0.0, atol=1e-14)
            np.testing.assert_array_equal(a.argmax_location(), b.argmax_location())
            np.testing.assert_array_equal([p for p, _ in dsm.find_local_maxima(a)],
                                          [p for p, _ in dsm.find_local_maxima(b)])

    def test_read_back_data_gives_identical_grid(self, example1_data, tmp_path):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.1)
        noisy = [(ms.add_noise(data, 0.2, 1 + l), q) for l, (data, q) in enumerate(example1_data)]
        read_back = []
        for l, (data, q) in enumerate(noisy):
            path = tmp_path / f"incident{l}.csv"
            ms.write_field_samples_csv(data, path)
            read_back.append((ms.read_field_samples_csv(path, surface=SURF), q))
        for before, after in zip(dsm.compute_index_grid(CTX2, noisy, grid),
                                 dsm.compute_index_grid(CTX2, read_back, grid)):
            np.testing.assert_array_equal(after.values, before.values)


def random_datasets(rng, surface, qs):
    return [(ms.FieldSamples(surface, rng.standard_normal((surface.count, len(q)))
                             + 1j * rng.standard_normal((surface.count, len(q)))), q) for q in qs]


def pinned_run(threads):
    """(threads, blas_pinned) of a run of several chunks on threads workers:
    one unpinned worker where numpy's OpenBLAS thread symbols are absent."""
    return (threads, True) if em._blas_threads() is not None else (1, False)


CIRCLE32 = ms.circle_surface(5.0, 32)
CUBE = ms.cube_surface(10.0, 4)
# 30 points turned by 0.1 rad, the last 15 the exact negatives of the first:
# the point inversion is their only symmetry
_TURNED = np.column_stack([np.cos(0.1 + np.pi * np.arange(30) / 15), np.sin(0.1 + np.pi * np.arange(30) / 15)])
_TURNED[15:] = -_TURNED[:15]
TURNED30 = ms.MeasurementSurface(5.0 * _TURNED, SURF.weights, _TURNED, region_radius=5.0)


def matrices(group):
    """The orthogonal matrices (G, d, d) of a group's signed permutations,
    sigma[i, p(i)] = s_i."""
    axis_perms, signs, _ = group
    n_images, d = signs.shape
    mats = np.zeros((n_images, d, d))
    mats[np.arange(n_images)[:, np.newaxis], np.arange(d), axis_perms] = signs
    return mats


class TestMirrorOrbits:
    """The sweep evaluates the kernel at one representative per orbit of its
    signed-permutation group and serves the other points from it; these cases
    cover full, partial and trivial groups, mirror and diagonal planes, and
    thread counts."""

    @pytest.mark.parametrize("ctx,surface,box,spacing,order,orbits", [
        # a 30-point circle has both mirror lines but no diagonal one: the
        # flips only; odd tick counts, 5 x 5 of 9 x 9
        (CTX2, SURF, [(-1.0, 1.0), (-1.0, 1.0)], 0.25, 4, 25),
        # asymmetric x ticks (-1 .. 1.1), symmetric y ticks: the y flip only
        (CTX2, SURF, [(-1.0, 1.1), (-1.0, 1.0)], 0.1, 2, 22 * 11),
        # an odd-count circle has a point at angle 0 but none at pi: no x flip
        (CTX2, ms.circle_surface(5.0, 31), [(-1.0, 1.0), (-1.0, 1.0)], 0.25, 2, 9 * 5),
        # every signed permutation (3-cycles included): |k| sorted, 3 of {0, 1, 2}
        (CTX3, CUBE, [(-1.0, 1.0)] * 3, 0.5, 48, 10),
        # 32 points: flips and the diagonal swap; 0 <= k1 <= k2 <= 4
        (CTX2, CIRCLE32, [(-1.0, 1.0), (-1.0, 1.0)], 0.25, 8, 15),
        # z ticks unlike x and y: the x-y square's 8 times the z flip; 6 x 4
        (CTX3, CUBE, [(-1.0, 1.0), (-1.0, 1.0), (-1.5, 1.5)], 0.5, 16, 24),
        # the inversion alone, no single flip: the centre and 40 pairs of 9 x 9
        (CTX2, TURNED30, [(-1.0, 1.0), (-1.0, 1.0)], 0.25, 2, 41),
    ])
    def test_sweep_matches_definition(self, ctx, surface, box, spacing, order, orbits):
        d = ctx.dimension
        datasets = random_datasets(np.random.default_rng(9), surface, [np.eye(d)[0], np.ones(d) / np.sqrt(d)])
        grid = dsm.sampling_grid(box, spacing)
        grids = dsm.compute_index_grid(ctx, datasets, grid)
        # one chunk runs on the calling thread, whatever the worker count
        assert grids[0].sweep_info == dsm.SweepInfo(
            group_order=order, orbits=orbits, kernel_pairs=orbits * surface.count,
            grid_pairs=grid.n_points * surface.count, chunks=1, threads=1,
            blas_pinned=em._blas_threads() is not None)
        for (data, q), index in zip(datasets, grids):
            expected = [psi_oracle(ctx, data, x_p, q) for x_p in grid.points]
            np.testing.assert_allclose(index.values, expected, rtol=0, atol=1e-12)

    @staticmethod
    def cross_maps_on_both_boxes(surface):
        """The cross maps on a symmetric box, and on a box extended by ticks
        on one side of each axis (trivial group) restricted to the first;
        returns both group orders once the maps are checked equal."""
        x_q = np.array([-0.25, 0.1])
        coeffs = {"component_11": component(0, 0), "component_12": component(0, 1),
                  "component_21": component(1, 0), "diagonal_sum": diagonal(),
                  "polarization_1": probes(P1), "polarization_sum": probes(P1, P2)}
        symmetric = dsm.sampling_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.1)
        asymmetric = dsm.sampling_grid([(-1.0, 1.3), (-1.2, 1.0)], 0.1)
        common = np.all(np.abs(asymmetric.points) <= 1.0 + 1e-9, axis=1)
        assert common.sum() == symmetric.n_points
        sym_maps = dsm.cross_product_maps(CTX2, surface, x_q, symmetric, coeffs)
        asym_maps = dsm.cross_product_maps(CTX2, surface, x_q, asymmetric, coeffs)
        for sym, asym in zip(sym_maps, asym_maps):
            values = asym.values[common]
            np.testing.assert_allclose(sym.values, values, rtol=0, atol=1e-14 * values.max())
        return sym_maps[0].sweep_info.group_order, asym_maps[0].sweep_info.group_order

    def test_cross_maps_equal_on_symmetric_and_asymmetric_boxes(self):
        assert self.cross_maps_on_both_boxes(SURF) == (4, 1)

    def test_cross_maps_equal_with_the_diagonal_swap(self):
        assert self.cross_maps_on_both_boxes(CIRCLE32) == (8, 1)

    def test_cross_maps_3d_match_definition_on_the_cube_group(self):
        # axis swaps and 3-cycles act on references whose weights are not
        # symmetric in i and j, against the direct definition
        # sum_m w_m sum_ijl A_ijl Phi_ij(x_m, x_c) conj(Phi_il(x_m, x_q))
        grid = dsm.sampling_grid([(-1.0, 1.0)] * 3, 0.5)
        x_q = np.array([-0.25, 0.1, 0.3])
        q1 = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
        q2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
        coeffs = {"component_13": component(0, 2, 3), "component_31": component(2, 0, 3),
                  "diagonal_sum": diagonal(3), "polarization_1": probes(q1), "polarization_sum": probes(q1, q2)}
        maps = dsm.cross_product_maps(CTX3, CUBE, x_q, grid, coeffs)
        assert maps[0].sweep_info.group_order == 48
        phi = em.green_tensor_from_diff(CTX3, CUBE.points[np.newaxis, :, :] - grid.points[:, np.newaxis, :])
        ref = em.green_tensor_from_diff(CTX3, CUBE.points - x_q).conj()
        for a, index in zip(coeffs.values(), maps):
            corr = np.abs(np.einsum("cmij,m,mil,ijl->c", phi, CUBE.weights, ref, a))
            np.testing.assert_allclose(index.values, corr, rtol=0, atol=1e-12 * corr.max())

    @pytest.mark.parametrize("threads", [2, 5])
    def test_threads_bit_identical_with_mirror_planes(self, example1_data, monkeypatch, threads):
        # 21 x 21 orthant points in chunks of 37: chunks straddle the mirror
        # lines; 5 workers outnumber the cores, and a short switch interval
        # interleaves their writes
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.05)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 37 * 60)
        monkeypatch.setattr(em, "_thread_count", lambda: 1)
        serial = dsm.compute_index_grid(CTX2, example1_data, grid)
        monkeypatch.setattr(em, "_thread_count", lambda: threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = dsm.compute_index_grid(CTX2, example1_data, grid)
        finally:
            sys.setswitchinterval(interval)
        info = threaded[0].sweep_info
        assert (info.group_order, info.orbits, info.chunks) == (4, 441, 12)
        assert (info.threads, info.blas_pinned) == pinned_run(threads)
        assert (serial[0].sweep_info.threads, serial[0].sweep_info.blas_pinned) == pinned_run(1)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("threads", [2, 5])
    def test_threads_bit_identical_across_the_diagonal(self, monkeypatch, threads):
        # 21 * 22 / 2 representatives k1 <= k2 of the 41 x 41 grid in chunks
        # of 37: chunks straddle the x = y plane, whose points two group
        # elements reach from their representative
        datasets = random_datasets(np.random.default_rng(11), CIRCLE32, [P1, P2])
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.05)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 37 * 64)
        monkeypatch.setattr(em, "_thread_count", lambda: 1)
        serial = dsm.compute_index_grid(CTX2, datasets, grid)
        monkeypatch.setattr(em, "_thread_count", lambda: threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = dsm.compute_index_grid(CTX2, datasets, grid)
        finally:
            sys.setswitchinterval(interval)
        info = threaded[0].sweep_info
        assert (info.group_order, info.orbits, info.chunks) == (8, 231, 7)
        assert (info.threads, info.blas_pinned) == pinned_run(threads)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.values, b.values)
        for (data, q), index in zip(datasets, serial):
            diagonal = np.flatnonzero(np.abs(grid.points[:, 0] - grid.points[:, 1]) < 1e-12)[::4]
            expected = [psi_oracle(CTX2, data, grid.points[c], q) for c in diagonal]
            np.testing.assert_allclose(index.values[diagonal], expected, rtol=0, atol=1e-12)

    def test_blas_restored_after_a_sweep_and_a_raising_chunk(self, example1_data, monkeypatch, two_blas_threads):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.05)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 37 * 60)
        monkeypatch.setattr(em, "_thread_count", lambda: 2)
        info = dsm.compute_index_grid(CTX2, example1_data, grid)[0].sweep_info
        assert (info.chunks, info.threads, info.blas_pinned) == (12, 2, True)
        assert two_blas_threads() == 2
        parts = em.green_tensor_parts
        calls = []

        def third_chunk_fails(ctx, r):
            calls.append(None)
            if len(calls) == 3:
                raise SingularityError("kernel failed in the third chunk")
            return parts(ctx, r)

        monkeypatch.setattr(em, "green_tensor_parts", third_chunk_fails)
        with pytest.raises(SingularityError, match="third chunk"):
            dsm.compute_index_grid(CTX2, example1_data, grid)
        assert two_blas_threads() == 2

    def test_absent_blas_symbols_fall_back_to_one_worker(self, example1_data, monkeypatch):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.05)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 37 * 60)
        monkeypatch.setattr(em, "_thread_count", lambda: 1)
        serial = dsm.compute_index_grid(CTX2, example1_data, grid)
        monkeypatch.setattr(em, "_thread_count", lambda: 2)
        monkeypatch.setattr(em, "_blas_threads", lambda: None)
        fallback = dsm.compute_index_grid(CTX2, example1_data, grid)
        info = fallback[0].sweep_info
        assert (info.chunks, info.threads, info.blas_pinned) == (12, 1, False)
        for a, b in zip(serial, fallback):
            np.testing.assert_array_equal(a.values, b.values)

    def test_unequal_mirror_weights_drop_the_flip(self):
        weights = SURF.weights.copy()
        weights[1] *= 1.5  # the point at angle 12 degrees loses both mirror partners
        surface = replace(SURF, weights=weights)
        datasets = random_datasets(np.random.default_rng(10), surface, [P1])
        grid = dsm.sampling_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.5)
        [index, _] = dsm.compute_index_grid(CTX2, datasets, grid)
        assert index.sweep_info.group_order == 1
        expected = [psi_oracle(CTX2, datasets[0][0], x_p, P1) for x_p in grid.points]
        np.testing.assert_allclose(index.values, expected, rtol=0, atol=1e-12)

    def test_unequal_weights_keep_the_flips_and_drop_the_swap(self):
        # no circle point is fixed by both flips, so the smallest change the
        # flips survive is one new weight on the flip orbit {angle 0, angle
        # pi}; the swap maps angle 0 to pi/2, whose weight stayed
        weights = CIRCLE32.weights.copy()
        weights[[0, 16]] *= 1.5
        surface = replace(CIRCLE32, weights=weights)
        datasets = random_datasets(np.random.default_rng(12), surface, [P1, P2])
        grid = dsm.sampling_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.25)
        grids = dsm.compute_index_grid(CTX2, datasets, grid)
        assert (grids[0].sweep_info.group_order, grids[0].sweep_info.orbits) == (4, 25)
        for (data, q), index in zip(datasets, grids):
            expected = [psi_oracle(CTX2, data, x_p, q) for x_p in grid.points]
            np.testing.assert_allclose(index.values, expected, rtol=0, atol=1e-12)

    def test_cube_group_is_the_full_signed_permutation_group(self):
        group = em._symmetry_group(CUBE, dsm.sampling_grid([(-1.0, 1.0)] * 3, 0.5))
        axis_perms, signs, point_perms = group
        assert len(signs) == 48
        np.testing.assert_array_equal(axis_perms[0], [0, 1, 2])
        np.testing.assert_array_equal(signs[0], [1.0, 1.0, 1.0])
        assert {tuple(p) for p in axis_perms} >= {(1, 2, 0), (2, 0, 1)}  # the 3-cycles
        for mat, perm in zip(matrices(group), point_perms):
            np.testing.assert_array_equal(CUBE.points @ mat.T, CUBE.points[perm])

    @pytest.mark.parametrize("surface,box,spacing", [
        (CIRCLE32, [(-1.0, 1.0)] * 2, 0.05),
        (SURF, [(-0.9, 0.9), (-1.0, 1.0)], 0.2),
        (ms.circle_surface(5.0, 31), [(-1.0, 1.0)] * 2, 0.25),
        (TURNED30, [(-1.0, 1.0)] * 2, 0.25),
        (CUBE, [(-1.0, 1.0)] * 3, 0.5),
        (CUBE, [(-0.75, 0.75), (-0.75, 0.75), (-1.0, 1.0)], 0.5),
    ])
    def test_group_is_closed_under_products(self, surface, box, spacing):
        mats = matrices(em._symmetry_group(surface, dsm.sampling_grid(box, spacing)))
        codes = {tuple(m.ravel()) for m in mats}
        assert {tuple((a @ b).ravel()) for a in mats for b in mats} == codes

    def test_points_off_their_mirrors_by_an_ulp_drop_the_flips(self):
        # each flip pairs every point with one a rounding apart; no tolerance
        # accepts them, so the group is the identity
        grid = dsm.sampling_grid([(-1.0, 1.0)] * 2, 0.5)
        for points, order in ((np.array([[3.0, 4.0], [-3.0, 4.0], [3.0, -4.0], [-3.0, -4.0]]), 4),
                              (np.array([[3.0, 4.0], [np.nextafter(-3.0, 0.0), 4.0], [3.0, -4.0],
                                         [-3.0, np.nextafter(-4.0, 0.0)]]), 1)):
            surface = ms.MeasurementSurface(points, np.ones(4), np.zeros_like(points), region_radius=5.0)
            assert len(em._symmetry_group(surface, grid)[1]) == order

    @pytest.mark.parametrize("surface,box,spacing,order", [
        (CIRCLE32, [(-1.0, 1.0)] * 2, 0.2, 8),                      # 11 x 11
        (CIRCLE32, [(-0.9, 0.9)] * 2, 0.2, 8),                      # 10 x 10
        (SURF, [(-0.9, 0.9), (-1.0, 1.0)], 0.2, 4),                 # 10 x 11
        (CUBE, [(-1.0, 1.0)] * 3, 0.5, 48),                         # 5^3
        (CUBE, [(-0.75, 0.75)] * 3, 0.5, 48),                       # 4^3
        (CUBE, [(-0.75, 0.75), (-0.75, 0.75), (-1.0, 1.0)], 0.5, 16),  # 4 x 4 x 5
        (TURNED30, [(-0.9, 0.9)] * 2, 0.2, 2),                      # 10 x 10
    ])
    def test_representatives_write_every_slot_once(self, surface, box, spacing, order):
        grid = dsm.sampling_grid(box, spacing)
        axis_perms, signs, _ = em._symmetry_group(surface, grid)
        assert len(signs) == order
        reps = em._orbit_representatives(axis_perms, signs, grid.shape)
        images = em._image_indices(axis_perms, signs, np.array(np.unravel_index(reps, grid.shape)), grid.shape)
        first = em._orbit_slots(images)
        np.testing.assert_array_equal(np.sort(images[first]), np.arange(grid.n_points))
        # each representative is the smallest raveled index of its orbit,
        # and the identity (first) writes it
        every = np.array(np.unravel_index(np.arange(grid.n_points), grid.shape))
        smallest = em._image_indices(axis_perms, signs, every, grid.shape).min(axis=0)
        np.testing.assert_array_equal(reps, np.unique(smallest))
        np.testing.assert_array_equal(images[0], reps)
        assert first[0].all()


def assert_maps_lattice_onto_itself(axes, group):
    """Every member sigma, (sigma x)_i = s_i x_p(i), maps the lattice's ticks
    onto themselves bit for bit: s_i times axis p(i) is axis i."""
    for p, s in zip(group[0], group[1]):
        for i, axis in enumerate(axes):
            np.testing.assert_array_equal(np.sort(s[i] * axes[p[i]]), axis)


class TestMirrorExactness:
    """The constructors' points and ticks are exact mirrors: every member of
    the symmetry group maps them onto themselves with ==."""

    @pytest.mark.parametrize("count", [*range(3, 65), 512])
    def test_circle_points(self, count):
        surface = ms.circle_surface(5.0, count)
        group = em._symmetry_group(surface, dsm.sampling_grid([(-2.0, 2.0)] * 2, 0.01))
        # the y flip; the x flip for an even count; the x-y swap for a count divisible by 4
        assert len(group[1]) == (8 if count % 4 == 0 else 4 if count % 2 == 0 else 2)
        for mat, perm in zip(matrices(group), group[2]):
            np.testing.assert_array_equal(surface.points @ mat.T, surface.points[perm])
        assert not np.signbit(surface.points[surface.points == 0.0]).any()  # no -0.0 for the CSV to print

    def test_circle_points_move_by_rounding_only(self):
        for count in (30, 31, 32, 512):
            theta = 2.0 * np.pi * np.arange(count) / count
            on_circle = 5.0 * np.column_stack([np.cos(theta), np.sin(theta)])
            np.testing.assert_allclose(ms.circle_surface(5.0, count).points, on_circle, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("surface,box,spacing,order", [
        (CIRCLE32, [(-2.0, 2.0)] * 2, 0.01, 8),                   # the paper's 401 x 401
        (CIRCLE32, [(-0.9, 0.9)] * 2, 0.2, 8),                    # 10 x 10
        (SURF, [(-2.0, 2.0), (-0.3, 0.3)], 0.1, 4),               # 41 x 7
        (CUBE, [(-2.0, 2.0)] * 3, 0.05, 48),                      # the example3d lattice
        (CUBE, [(-0.7, 0.7), (-0.7, 0.7), (-1.1, 1.1)], 0.2, 16),  # 8 x 8 x 12
        (CIRCLE32, [(-2.0, 2.0)] * 2, 0.03, 8),                   # 134 x 134, ends off the lattice
        (CUBE, [(-2.0, 2.0)] * 3, 0.07, 48),                      # 58^3, ends off the lattice
    ])
    def test_symmetric_sampling_grids(self, surface, box, spacing, order):
        grid = dsm.sampling_grid(box, spacing)
        group = em._symmetry_group(surface, grid)
        assert len(group[1]) == order
        assert_maps_lattice_onto_itself(grid.axes, group)
        for mat, perm in zip(matrices(group), group[2]):
            np.testing.assert_array_equal(surface.points @ mat.T, surface.points[perm])

    def test_off_lattice_box_end_splits_the_margin(self):
        # hi = 1.05 is 0.05 beyond the lattice from lo = -1: 21 ticks, 0.025 in from either end
        ticks = dsm.sampling_grid([(-1.0, 1.05)], 0.1).axes[0]
        assert len(ticks) == 21
        assert ticks[0] + 1.0 == pytest.approx(0.025) and 1.05 - ticks[-1] == pytest.approx(0.025)
        np.testing.assert_allclose(np.diff(ticks), 0.1, rtol=1e-12)
        # a symmetric box off the lattice keeps its mirror image bit for bit
        ticks = dsm.sampling_grid([(-0.97, 0.97)], 0.1).axes[0]
        assert len(ticks) == 20 and ticks[-1] == pytest.approx(0.95)
        np.testing.assert_array_equal(ticks, -ticks[::-1])

    @pytest.mark.parametrize("edge", [1.0, 2.0, 3.0, 4.4, 7.0, 10.0])
    def test_cube_points(self, edge):
        for per_face in range(1, 17):
            surface = ms.cube_surface(edge, per_face)
            group = em._symmetry_group(surface, dsm.sampling_grid([(-0.25, 0.25)] * 3, 0.25))
            assert len(group[1]) == 48, per_face
            for mat, perm in zip(matrices(group), group[2]):
                np.testing.assert_array_equal(surface.points @ mat.T, surface.points[perm])

    @pytest.mark.parametrize("name,order", [("example1", 2), ("example2a", 1), ("example2b", 1),
                                            ("example3", 1), ("example4", 4), ("example3d", 4)])
    def test_preset_forward_grids(self, name, order):
        config = harness.preset(name)
        grid = fw.build_grid(config.contrast, config.forward_h)
        group = em._symmetry_group(config.surface.build(), grid)
        assert len(group[1]) == order
        assert_maps_lattice_onto_itself(grid.axes, group)


class TestCrossMaps:
    def test_polarization_sum_equals_component_combination(self):
        # sum over the diagonal polarization pair == Phi11 + 2 Phi12 + Phi22
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.1)
        x_q = np.array([-0.25, 0.0])
        surf = ms.circle_surface(5.0, 64)
        [pol] = dsm.cross_product_maps(CTX2, surf, x_q, grid, {"polarization_sum": probes(P1, P2)})

        phi = em.green_tensor_from_diff(CTX2, surf.points[np.newaxis, :, :] - grid.points[:, np.newaxis, :])
        ref = em.green_tensor_from_diff(CTX2, surf.points - x_q)
        corr = 0.0
        for (i, j), coeff in (((0, 0), 1.0), ((0, 1), 2.0), ((1, 1), 1.0)):
            corr = corr + coeff * np.einsum("cm,m,m->c", phi[..., i, j], surf.weights, ref[:, i, j].conj())
        np.testing.assert_allclose(pol.values, np.abs(corr), rtol=1e-10)

    def test_diagonal_sum_peaks_at_reference_point(self):
        grid = dsm.sampling_grid([(-2, 2), (-2, 2)], 0.02)
        [index] = dsm.cross_product_maps(CTX2, SURF, [-0.25, 0.0], grid, {"diagonal_sum": diagonal()})
        loc = index.argmax_location()
        assert np.linalg.norm(loc - np.array([-0.25, 0.0])) <= 0.011

    def test_component_maps_show_directional_sidelobes(self):
        grid = dsm.sampling_grid([(-2, 2), (-2, 2)], 0.04)
        x_q = np.array([-0.25, 0.0])
        [comp] = dsm.cross_product_maps(CTX2, SURF, x_q, grid, {"component_11": component(0, 0)})
        far = np.linalg.norm(grid.points - x_q, axis=1) > 0.5
        assert comp.values[far].max() >= 0.5 * comp.values.max()

    def test_combined_maps_suppress_sidelobes(self):
        grid = dsm.sampling_grid([(-2, 2), (-2, 2)], 0.04)
        x_q = np.array([-0.25, 0.0])
        far = np.linalg.norm(grid.points - x_q, axis=1) > 0.5
        coeffs = {"diagonal_sum": diagonal(), "component_11": component(0, 0),
                  "component_22": component(1, 1), "polarization_sum": probes(P1, P2),
                  "polarization_1": probes(P1), "polarization_2": probes(P2)}
        diag, comp11, comp22, combined, pol1, pol2 = (
            index.values[far].max() / index.values.max()
            for index in dsm.cross_product_maps(CTX2, SURF, x_q, grid, coeffs)
        )
        assert diag < comp11
        assert diag < comp22
        assert combined < pol1
        assert combined < pol2

    def test_labels_follow_selectors(self):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.5)
        coeffs = {"component_12": component(0, 1), "diagonal_sum": diagonal(), "polarization_1": probes(P1),
                  "polarization_2": probes(P2), "polarization_sum": probes(P1, P2)}
        maps = dsm.cross_product_maps(CTX2, SURF, [0.0, 0.0], grid, coeffs)
        assert [index.label for index in maps] == [
            "cross:component_12", "cross:diagonal_sum", "cross:polarization_1",
            "cross:polarization_2", "cross:polarization_sum"]


def whole_array_maxima(index):
    """find_local_maxima as it was before it compared the candidates only:
    every grid point against its 8/26 neighbours, then the floor.  The oracle
    of the candidate version, kept verbatim."""
    arr = index.as_array()
    d = arr.ndim
    tol = dsm._TIE_RTOL * float(np.abs(arr).max())
    padded = np.pad(arr, 1, constant_values=-np.inf)
    dominant = np.ones(arr.shape, dtype=bool)
    centre = (1,) * d
    for offset in np.ndindex(*([3] * d)):
        if offset == centre:
            continue
        shifted = padded[tuple(slice(o, o + n) for o, n in zip(offset, arr.shape))]
        dominant &= (arr - shifted > tol) if offset < centre else (arr - shifted >= -tol)
    dominant &= arr >= dsm._MAXIMA_FLOOR * arr.max()
    flat = np.flatnonzero(dominant)
    values = arr.ravel()[flat]
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


def assert_same_maxima(got, expected):
    assert [(p.tolist(), v) for p, v in got] == [(p.tolist(), v) for p, v in expected]


class TestLocalMaxima:
    def test_single_bump(self):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.05)
        values = np.exp(-8 * np.sum(grid.points**2, axis=1))
        maxima = dsm.find_local_maxima(dsm.IndexGrid(grid, values, "test"))
        assert len(maxima) == 1
        np.testing.assert_allclose(maxima[0][0], [0.0, 0.0], atol=1e-12)

    def test_floor_filters_weak_peaks(self, monkeypatch):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.05)
        pts = grid.points
        values = (
            np.exp(-160 * np.sum((pts - [0.5, 0.0]) ** 2, axis=1))
            + 0.4 * np.exp(-160 * np.sum((pts + [0.5, 0.0]) ** 2, axis=1))
        )
        index = dsm.IndexGrid(grid, values, "test")
        assert len(dsm.find_local_maxima(index)) == 1
        monkeypatch.setattr(dsm, "_MAXIMA_FLOOR", 0.3)
        assert len(dsm.find_local_maxima(index)) == 2

    def test_sorted_descending(self):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.05)
        pts = grid.points
        values = (
            np.exp(-160 * np.sum((pts - [0.5, 0.0]) ** 2, axis=1))
            + 0.8 * np.exp(-160 * np.sum((pts + [0.5, 0.0]) ** 2, axis=1))
        )
        maxima = dsm.find_local_maxima(dsm.IndexGrid(grid, values, "test"))
        vals = [v for _, v in maxima]
        assert vals == sorted(vals, reverse=True)

    def test_ulp_noise_on_mirror_symmetric_grid_keeps_list(self):
        # symmetric under x1 <-> x2: a ridge peak whose top is the tied pair of
        # diagonal neighbours (0.5, 0.55), (0.55, 0.5), and two mirror-image
        # peaks of equal height; rounding noise alone decides between the pairs
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.05)
        x1, x2 = grid.points.T
        values = np.exp(-40 * (x1 + x2 - 1.05) ** 2 - 4 * (x1 - x2) ** 2) + sum(
            0.8 * np.exp(-40 * ((x1 - a) ** 2 + (x2 - b) ** 2)) for a, b in ((-0.5, 0.3), (0.3, -0.5))
        )
        square = values.reshape(grid.shape)
        values = (0.5 * (square + square.T)).ravel()
        expected = [[0.5, 0.55], [-0.5, 0.3], [0.3, -0.5]]
        reference = dsm.find_local_maxima(dsm.IndexGrid(grid, values, "test"))
        np.testing.assert_allclose([p for p, _ in reference], expected, atol=1e-12)
        rng = np.random.default_rng(11)
        for _ in range(20):
            step = rng.integers(-1, 2, values.shape)
            noisy = np.where(step > 0, np.nextafter(values, np.inf),
                             np.where(step < 0, np.nextafter(values, -np.inf), values))
            maxima = dsm.find_local_maxima(dsm.IndexGrid(grid, noisy, "test"))
            assert [p.tolist() for p, _ in maxima] == [p.tolist() for p, _ in reference]

    @pytest.mark.parametrize("box", [[(-1, 1), (-1, 1)], [(-1, 1), (-0.5, 0.5), (-1, 0)]])
    def test_candidates_only_match_the_whole_array_oracle(self, box):
        # plateaus (few levels), ties within _TIE_RTOL (one-ulp-scale jitter)
        # and grids down to one tick on an axis
        rng = np.random.default_rng(5)
        for spacing in (2.0, 1.0, 0.5, 0.25, 0.1):
            grid = dsm.sampling_grid(box, spacing)
            for _ in range(30):
                levels = rng.integers(1, 6)
                values = rng.integers(0, levels + 1, grid.n_points) / levels
                values *= 1.0 + 1e-14 * rng.integers(-2, 3, grid.n_points)
                index = dsm.IndexGrid(grid, values, "test")
                assert_same_maxima(dsm.find_local_maxima(index), whole_array_maxima(index))


class TestExports:
    def test_index_csv(self, tmp_path):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.5)
        index = dsm.IndexGrid(grid, np.linspace(0, 1, grid.n_points), "test")
        path = tmp_path / "index.csv"
        dsm.write_index_csv(index, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == grid.n_points + 1

    @pytest.mark.parametrize("box", [
        [(-3, -1), (-2, 0.5)],
        [(-1, 0), (-0.5, 0.5), (-2, -1.5)],
        [(-1, 0), (0.3, 0.4), (-2, -1.5)],  # a one-tick leading axis
        [(-1, 0), (-0.5, 0.5), (0.3, 0.4)],  # a one-tick last axis
        [(-0.5, 0), (-4, 4)],  # a last axis of 33 ticks, longer than a block
    ])
    def test_index_csv_bytes_match_per_row_writer(self, tmp_path, monkeypatch, box):
        def per_row_writer(index, path):
            d = index.grid.dimension
            with open(path, "w") as fh:
                fh.write(",".join(f"x{i + 1}" for i in range(d)) + ",value\n")
                for row, val in zip(index.grid.points, index.values):
                    fh.write(",".join(f"{c:.17g}" for c in row) + f",{val:.17g}\n")

        grid = dsm.sampling_grid(box, 0.25)
        values = np.random.default_rng(3).random(grid.n_points)
        values[:4] = [0.0, 1.0, 1e-300, 1.0 / 3.0]
        index = dsm.IndexGrid(grid, values, "test")
        # a block size that leaves a partial last block
        monkeypatch.setattr(dsm, "_CSV_BLOCK_ROWS", 7)
        assert grid.n_points % 7 != 0
        dsm.write_index_csv(index, tmp_path / "blocked.csv")
        per_row_writer(index, tmp_path / "per_row.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()

    def test_value_formatting_matches_percent_17g(self):
        rng = np.random.default_rng(5)
        powers = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        cases = {
            "uniform": rng.random(1_000_000),
            "log-uniform": 10.0 ** rng.uniform(-4.2, 0.0, 1_000_000),
            # just below a power of ten, log10 rounds up to its exponent
            "next to powers of ten": np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, 1.0)]),
            # on [0.1, 1) the 18th significant digit is an exact 5: ties go to even
            "ties": np.arange(1, 2**18, 2) * 2.0**-18,
            "below one": 1.0 - np.arange(1, 2**16) * 2.0**-53,
            "one at a time": np.array([0.0, 1.0, 1.0 + 2.0**-52, 3.0, -0.5, 1e-300, 5e-324, np.nan, np.inf]),
        }
        for name, values in cases.items():
            rows = dsm._format_values(values)
            assert rows.shape == (len(values), 24) and rows.dtype == np.uint8
            pairs = zip(values.tolist(), (row.tobytes().replace(b"\0", b"") for row in rows))
            wrong = [(v, text) for v, text in pairs if text != b"%.17g" % v]
            assert not wrong, f"{name}: {len(wrong)} values, first {wrong[:3]}"

    @pytest.mark.parametrize("box", [[(-3, -1), (-2, 0.5)], [(-1, 0), (-0.5, 0.5), (-2, -1.5)]])
    def test_index_csv_partial_last_block_of_lines(self, tmp_path, monkeypatch, box):
        grid = dsm.sampling_grid(box, 0.25)
        index = dsm.IndexGrid(grid, np.random.default_rng(4).random(grid.n_points), "test")
        dsm.write_index_csv(index, tmp_path / "default.csv")
        # blocks of two or more whole last-axis lines, the last block partial
        monkeypatch.setattr(dsm, "_CSV_BLOCK_ROWS", 2 * grid.shape[-1] + 1)
        assert (grid.n_points // grid.shape[-1]) % 2 != 0
        dsm.write_index_csv(index, tmp_path / "small_blocks.csv")
        text = (tmp_path / "small_blocks.csv").read_text()
        assert text == (tmp_path / "default.csv").read_text()
        rows = np.loadtxt(tmp_path / "small_blocks.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows, np.column_stack([grid.points, index.values]))

    def test_pgm_header_and_size(self, tmp_path):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.1)
        values = np.linspace(0, 1, grid.n_points)
        path = tmp_path / "index.pgm"
        dsm.write_index_pgm(dsm.IndexGrid(grid, values, "test"), path)
        blob = path.read_bytes()
        header, rest = blob.split(b"\n65535\n", 1)
        assert header == b"P5\n21 21"
        assert len(rest) == 21 * 21 * 2
        image = np.frombuffer(rest, dtype=">u2").reshape(21, 21)
        assert image.max() == 65535

    def test_pgm_orientation_top_row_is_max_x2(self, tmp_path):
        grid = dsm.sampling_grid([(0, 1), (0, 1)], 0.5)
        # value = x2 so the top image row should be brightest
        values = grid.points[:, 1].copy()
        path = tmp_path / "orient.pgm"
        dsm.write_index_pgm(dsm.IndexGrid(grid, values, "test"), path)
        image = np.frombuffer(path.read_bytes().split(b"\n65535\n", 1)[1], dtype=">u2").reshape(3, 3)
        assert image[0].min() == 65535
        assert image[-1].max() == 0

    def test_normalized_maps_to_unit_peak(self):
        grid = dsm.sampling_grid([(-1, 1), (-1, 1)], 0.5)
        index = dsm.IndexGrid(grid, np.linspace(0.2, 0.8, grid.n_points), "test")
        assert index.normalized().values.max() == pytest.approx(1.0)
