"""Wave context, incident fields, contrast, and Green-function identities."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from emdsm import em_core as em
from emdsm.errors import DimensionMismatchError, DomainError, GeometryError, SingularityError

CTX2 = em.WaveContext.from_wavelength(2, 1.0)
CTX3 = em.WaveContext.from_wavelength(3, 1.0)


def random_pair(rng, dim, min_sep=0.3, max_sep=3.0):
    while True:
        x = rng.uniform(-2.0, 2.0, dim)
        y = rng.uniform(-2.0, 2.0, dim)
        if min_sep <= np.linalg.norm(x - y) <= max_sep:
            return x, y


def fd_hessian_tensor(ctx, diff, h=1e-4):
    """Oracle: k^2 G I plus the Hessian of G by nested 4th-order differences."""
    d = ctx.dimension

    def g(v):
        return em.green_scalar_from_distance(ctx, np.linalg.norm(v))

    def d1(f, v, axis):
        e = np.zeros(d)
        e[axis] = 1.0
        return (-f(v + 2 * h * e) + 8 * f(v + h * e) - 8 * f(v - h * e) + f(v - 2 * h * e)) / (12 * h)

    hess = np.zeros((d, d), complex)
    for i in range(d):
        for j in range(d):
            hess[i, j] = d1(lambda w: d1(g, w, j), np.asarray(diff, float), i)
    return ctx.wavenumber**2 * g(np.asarray(diff, float)) * np.eye(d) + hess


class TestWaveContext:
    def test_wavelength_wavenumber_coupling(self):
        ctx = em.WaveContext.from_wavelength(2, 2.0)
        assert ctx.wavenumber * ctx.wavelength == pytest.approx(2 * np.pi, rel=1e-15)

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(DomainError):
            em.WaveContext(2, 1.0, 1.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionMismatchError):
            em.WaveContext.from_wavelength(4, 1.0)


class TestIncidentWave:
    def test_requires_orthogonal_polarization(self):
        with pytest.raises(DomainError):
            em.IncidentPlaneWave(np.array([1.0, 0.0]), np.array([0.6, 0.8]))

    def test_requires_unit_vectors(self):
        with pytest.raises(DomainError):
            em.IncidentPlaneWave(np.array([2.0, 0.0]), np.array([0.0, 1.0]))

    def test_value_at_origin_is_polarization(self):
        w = em.IncidentPlaneWave(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(em.incident_field(w, CTX2, [0.0, 0.0]), w.polarization)

    def test_half_wavelength_flips_sign(self):
        w = em.IncidentPlaneWave(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        val = em.incident_field(w, CTX2, [0.5, 0.3])
        np.testing.assert_allclose(val, [0.0, -1.0], atol=1e-12)

    def test_unit_modulus_everywhere(self):
        w = em.IncidentPlaneWave(np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2))
        pts = np.random.default_rng(0).uniform(-5, 5, (50, 2))
        vals = em.incident_field(w, CTX2, pts)
        np.testing.assert_allclose(np.linalg.norm(vals, axis=1), 1.0, rtol=1e-14)

    def test_satisfies_vector_helmholtz(self):
        # curl curl E - k^2 E = 0 via nested central differences
        w = em.IncidentPlaneWave(np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2))
        h = 1e-4
        x0 = np.array([0.37, -0.21])

        def field(pt):
            return em.incident_field(w, CTX2, pt)

        def curl(pt):
            dx = (field(pt + [h, 0]) - field(pt - [h, 0])) / (2 * h)
            dy = (field(pt + [0, h]) - field(pt - [0, h])) / (2 * h)
            return dx[1] - dy[0]

        curlcurl = np.array([
            (curl(x0 + [0, h]) - curl(x0 - [0, h])) / (2 * h),
            -(curl(x0 + [h, 0]) - curl(x0 - [h, 0])) / (2 * h),
        ])
        residual = curlcurl - CTX2.wavenumber**2 * field(x0)
        assert np.abs(residual).max() / CTX2.wavenumber**2 <= 1e-4


class TestContrast:
    def test_example1_value(self):
        c = em.ContrastField([em.Shape("axis_square", [-0.25, 0.0], 0.3, eta=1.0)])
        assert em.contrast_eval(c, [-0.25, 0.0]) == 1.0 + 0.0j

    def test_ring_hole_is_zero(self):
        ring = em.ContrastField([em.Shape("square_ring", [0.0, 0.0], 0.6, 0.4, eta=1.0)])
        assert em.contrast_eval(ring, [0.0, 0.0]) == 0.0
        assert em.contrast_eval(ring, [0.25, 0.0]) == 1.0

    def test_outside_support_is_zero(self):
        c = em.ContrastField([em.Shape("axis_square", [-0.25, 0.0], 0.3, eta=1.0)])
        assert em.contrast_eval(c, [5.0, 5.0]) == 0.0

    def test_half_open_membership(self):
        s = em.Shape("axis_square", [0.0, 0.0], 1.0)
        assert s.contains(np.array([-0.5, 0.0]))
        assert not s.contains(np.array([0.5, 0.0]))

    def test_later_shape_wins_overlap(self):
        c = em.ContrastField([
            em.Shape("axis_square", [0.0, 0.0], 1.0, eta=1.0),
            em.Shape("axis_square", [0.0, 0.0], 0.5, eta=2.0),
        ])
        assert em.contrast_eval(c, [0.0, 0.0]) == 2.0

    def test_needs_a_shape(self):
        with pytest.raises(GeometryError):
            em.ContrastField([])

    def test_ring_needs_smaller_hole(self):
        with pytest.raises(DomainError):
            em.Shape("square_ring", [0.0, 0.0], 0.4, 0.6)


class TestGreenScalar:
    def test_3d_full_wavelength(self):
        val = em.green_scalar(CTX3, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert val == pytest.approx(1.0 / (4 * np.pi), abs=1e-15)

    def test_3d_half_wavelength(self):
        val = em.green_scalar(CTX3, [0.0, 0.0, 0.0], [0.5, 0.0, 0.0])
        assert val == pytest.approx(-1.0 / (2 * np.pi), abs=1e-15)

    def test_2d_unit_argument(self):
        r = 1.0 / (2 * np.pi)
        val = em.green_scalar(CTX2, [0.0, 0.0], [r, 0.0])
        assert val == pytest.approx(-0.0220642411 + 0.1912994217j, abs=1e-9)

    def test_symmetry(self):
        x, y = np.array([0.3, -0.2]), np.array([-0.8, 0.9])
        assert em.green_scalar(CTX2, x, y) == em.green_scalar(CTX2, y, x)

    def test_coincident_raises(self):
        with pytest.raises(SingularityError):
            em.green_scalar(CTX2, [0.1, 0.1], [0.1, 0.1])


class TestGreenTensor:
    def test_trace_identity_500_pairs_both_dims(self):
        rng = np.random.default_rng(42)
        for ctx in (CTX2, CTX3):
            d = ctx.dimension
            worst = 0.0
            for _ in range(500):
                x, y = random_pair(rng, d, min_sep=0.05)
                phi = em.green_tensor(ctx, x, y)
                g = em.green_scalar(ctx, x, y)
                worst = max(worst, abs(np.trace(phi) - (d - 1) * ctx.wavenumber**2 * g)
                            / abs(ctx.wavenumber**2 * g))
            assert worst <= 1e-11

    def test_closed_form_vs_fd_hessian_oracle(self):
        # step 1e-3 balances truncation against kernel evaluation noise
        # (~5e-12 relative near the series/asymptotic switch), keeping the
        # nested-difference oracle itself below the 1e-5 comparison tolerance
        rng = np.random.default_rng(3)
        for ctx in (CTX2, CTX3):
            for _ in range(100):
                x, y = random_pair(rng, ctx.dimension)
                phi = em.green_tensor(ctx, x, y)
                np.testing.assert_allclose(phi, fd_hessian_tensor(ctx, x - y, h=1e-3), atol=1e-5)

    def test_spec_pair_vs_fd_hessian_at_pinned_step(self):
        diff = np.array([0.3, 0.4])
        phi = em.green_tensor_from_diff(CTX2, diff)
        np.testing.assert_allclose(phi, fd_hessian_tensor(CTX2, diff, h=1e-4), atol=1e-5)

    def test_symmetric_matrix_and_even_in_separation(self):
        rng = np.random.default_rng(5)
        for ctx in (CTX2, CTX3):
            x, y = random_pair(rng, ctx.dimension)
            phi = em.green_tensor(ctx, x, y)
            np.testing.assert_array_equal(phi, phi.T)
            np.testing.assert_allclose(phi, em.green_tensor(ctx, y, x), rtol=1e-13)

    def test_3d_axis_separation_is_diagonal(self):
        phi = em.green_tensor(CTX3, [0.7, 0.0, 0.0], [0.0, 0.0, 0.0])
        off = phi - np.diag(np.diag(phi))
        assert np.abs(off).max() == 0.0

    def test_divergence_free_observed_order(self):
        # columnwise div, central differences, refinement order >= 1.9
        x0 = np.array([0.4, 0.3])
        y0 = np.array([-0.3, -0.1])

        def div_residual(h):
            res = np.zeros(2, complex)
            for j in range(2):
                for i in range(2):
                    e = np.zeros(2)
                    e[i] = h
                    res[j] += (
                        em.green_tensor(CTX2, x0 + e, y0)[i, j]
                        - em.green_tensor(CTX2, x0 - e, y0)[i, j]
                    ) / (2 * h)
            return np.abs(res).max()

        r1, r2, r3 = div_residual(1e-2), div_residual(5e-3), div_residual(2.5e-3)
        assert np.log2(r1 / r2) >= 1.9
        assert np.log2(r2 / r3) >= 1.9

    def test_curlcurl_residual_away_from_singularity(self):
        # curl curl (Phi q) = k^2 Phi q away from the source, nested differences
        ctx = CTX2
        q = np.array([0.6, 0.8])
        y0 = np.array([-0.4, 0.2])
        x0 = np.array([0.9, 0.7])
        h = 1e-3

        def field(pt):
            return em.green_tensor(ctx, pt, y0) @ q

        def curl(pt):
            dx = (field(pt + [h, 0]) - field(pt - [h, 0])) / (2 * h)
            dy = (field(pt + [0, h]) - field(pt - [0, h])) / (2 * h)
            return dx[1] - dy[0]

        curlcurl = np.array([
            (curl(x0 + [0, h]) - curl(x0 - [0, h])) / (2 * h),
            -(curl(x0 + [h, 0]) - curl(x0 - [h, 0])) / (2 * h),
        ])
        target = ctx.wavenumber**2 * field(x0)
        assert np.abs(curlcurl - target).max() / np.abs(target).max() <= 1e-3

    def test_coincident_raises(self):
        with pytest.raises(SingularityError):
            em.green_tensor(CTX2, [0.0, 0.0], [0.0, 0.0])

    def test_curl_kernel_matches_fd_curl(self):
        # oracle: curl of Phi(., y) v by 4th-order central differences of the
        # closed-form kernel; step 1e-4 puts its error near 1e-11
        h = 1e-4
        rng = np.random.default_rng(8)
        for ctx in (CTX2, CTX3):
            d = ctx.dimension
            for _ in range(10):
                x, y = random_pair(rng, d)
                v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                grad = np.empty((d, d), complex)  # grad[a] = d/dx_a of Phi(x, y) v
                for a in range(d):
                    e = h * np.eye(d)[a]
                    grad[a] = sum(c * em.green_tensor_from_diff(ctx, x - y + s * e) @ v
                                  for s, c in ((2, -1), (1, 8), (-1, -8), (-2, 1))) / (12 * h)
                fd = grad[0, 1] - grad[1, 0] if d == 2 else np.array(
                    [grad[1, 2] - grad[2, 1], grad[2, 0] - grad[0, 2], grad[0, 1] - grad[1, 0]])
                closed = em.curl_green_tensor_from_diff(ctx, x - y, v)
                assert np.shape(closed) == np.shape(fd)
                np.testing.assert_allclose(closed, fd, rtol=1e-9, atol=1e-9 * np.abs(fd).max())

    def test_curl_kernel_batches_and_rejects_coincident(self):
        diffs = np.array([[0.3, 0.4, 0.1], [-1.0, 0.2, 0.5]])
        v = np.array([0.6, -0.8, 0.0])
        batched = em.curl_green_tensor_from_diff(CTX3, diffs, v)
        for diff, row in zip(diffs, batched):
            np.testing.assert_allclose(row, em.curl_green_tensor_from_diff(CTX3, diff, v), rtol=1e-14)
        with pytest.raises(SingularityError):
            em.curl_green_tensor_from_diff(CTX2, [0.0, 0.0], v[:2])


class TestImParts:
    def test_im_tensor_matches_tensor_imag(self):
        rng = np.random.default_rng(9)
        for ctx in (CTX2, CTX3):
            x, y = random_pair(rng, ctx.dimension)
            np.testing.assert_allclose(
                em.im_green_tensor(ctx, x, y), em.green_tensor(ctx, x, y).imag, atol=1e-14
            )

    def test_im_tensor_coincident_limits(self):
        k = 2 * np.pi
        np.testing.assert_allclose(
            em.im_green_tensor(CTX2, [0.3, 0.1], [0.3, 0.1]), (k**2 / 8) * np.eye(2), rtol=1e-14
        )
        np.testing.assert_allclose(
            em.im_green_tensor(CTX3, [0.0] * 3, [0.0] * 3), (k**3 / (6 * np.pi)) * np.eye(3), rtol=1e-14
        )
        # continuity toward the limit
        near = em.im_green_tensor(CTX2, [0.0, 0.0], [1e-7, 0.0])
        np.testing.assert_allclose(near, (k**2 / 8) * np.eye(2), rtol=1e-10)

    def test_im_trace_2d_peak_value(self):
        assert em.im_trace_green_tensor(CTX2, 0.0) == pytest.approx(np.pi**2, rel=1e-14)

    def test_im_trace_3d_small_separation_limit(self):
        k = 2 * np.pi
        assert em.im_trace_green_tensor(CTX3, 1e-10) == pytest.approx(
            2 * k**2 * k / (4 * np.pi), rel=1e-9
        )

    def test_im_trace_vanishes_at_first_bessel_zero(self):
        # root of J_0 located with the series oracle via bisection
        from tests.test_specfun import j_series_oracle

        lo, hi = 2.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if j_series_oracle(0, mid, 60) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404825557695773, rel=1e-10)
        assert abs(em.im_trace_green_tensor(CTX2, root / CTX2.wavenumber)) < 1e-10

    def test_im_tensor_small_kr_against_jv(self):
        # J_2 at small kr, where the upward recurrence from J_0, J_1 would
        # lose its relative accuracy
        k = CTX2.wavenumber
        for r in (1e-6, 1e-3, 0.05, 0.3):
            kr = k * r
            rhat = np.array([0.6, 0.8])
            expected = 0.25 * k * k * (
                (sp.jv(0, kr) - sp.jv(1, kr) / kr) * np.eye(2) + sp.jv(2, kr) * np.outer(rhat, rhat)
            )
            got = em.im_green_tensor_from_diff(CTX2, r * rhat)
            # elementwise: the off-diagonal entries are J_2 alone
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    def test_im_trace_max_at_zero_separation(self):
        r = np.linspace(1e-6, 3.0, 400)
        assert em.im_trace_green_tensor(CTX2, 0.0) > em.im_trace_green_tensor(CTX2, r).max()


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    coords=st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6),
)
def test_trace_identity_property(dim, coords):
    ctx = CTX2 if dim == 2 else CTX3
    x = np.array(coords[:dim])
    y = np.array(coords[3:3 + dim])
    if np.linalg.norm(x - y) < 1e-2:
        return
    phi = em.green_tensor(ctx, x, y)
    g = em.green_scalar(ctx, x, y)
    assert abs(np.trace(phi) - (dim - 1) * ctx.wavenumber**2 * g) <= 1e-11 * abs(ctx.wavenumber**2 * g)


def test_3d_kernels_do_not_load_scipy_special():
    # scipy.special is imported inside the 2D branches only
    code = (
        "import sys, emdsm\n"
        "from emdsm import em_core as em\n"
        "ctx = em.WaveContext.from_wavelength(3, 1.0)\n"
        "em.green_tensor(ctx, [0.0, 0.0, 0.0], [0.3, 0.1, -0.2])\n"
        "em.im_green_tensor(ctx, [0.0, 0.0, 0.0], [0.3, 0.1, -0.2])\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special loaded'\n"
    )
    src = str(Path(em.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
