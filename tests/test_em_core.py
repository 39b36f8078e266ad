"""Wave context, incident fields, contrast, Green-function identities, and
the cylindrical Bessel and Hankel values behind the 2D kernels (the
scipy-backed H_0, H_1 of em_core._hankel1_01, the H_2 inside
green_tensor_parts and the J_n in Im Phi) against independent series
oracles, published tables and identities."""

import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from emdsm import em_core as em
from emdsm import measurement as ms
from emdsm.errors import DimensionMismatchError, DomainError, GeometryError, SingularityError

from .conftest import run_python

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

    @pytest.mark.parametrize("wavelength", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_non_finite_or_zero_wavelength(self, wavelength):
        with pytest.raises(DomainError, match="finite and positive"):
            em.WaveContext.from_wavelength(2, wavelength)


class TestIncidentWave:
    def test_requires_orthogonal_polarization(self):
        with pytest.raises(DomainError):
            em.IncidentPlaneWave(np.array([1.0, 0.0]), np.array([0.6, 0.8]))

    def test_requires_unit_vectors(self):
        with pytest.raises(DomainError):
            em.IncidentPlaneWave(np.array([2.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("direction, polarization", [
        ([np.nan, 1.0], [1.0, 0.0]), ([1.0, 0.0], [0.0, np.inf]),
    ])
    def test_requires_finite_vectors(self, direction, polarization):
        # a NaN norm passes the unit-length test, so finiteness is its own check
        with pytest.raises(DomainError, match="finite"):
            em.IncidentPlaneWave(np.array(direction), np.array(polarization))

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
        c = em.ContrastField([em.Shape([-0.25, 0.0], 0.3, eta=1.0)])
        assert c.eta_at([-0.25, 0.0]) == 1.0 + 0.0j

    def test_ring_hole_is_zero(self):
        ring = em.ContrastField([em.Shape([0.0, 0.0], 0.6, 0.4, eta=1.0)])
        assert ring.eta_at([0.0, 0.0]) == 0.0
        assert ring.eta_at([0.25, 0.0]) == 1.0

    def test_outside_support_is_zero(self):
        c = em.ContrastField([em.Shape([-0.25, 0.0], 0.3, eta=1.0)])
        assert c.eta_at([5.0, 5.0]) == 0.0

    def test_half_open_membership(self):
        s = em.Shape([0.0, 0.0], 1.0)
        assert s.contains(np.array([-0.5, 0.0]))
        assert not s.contains(np.array([0.5, 0.0]))

    def test_later_shape_wins_overlap(self):
        c = em.ContrastField([
            em.Shape([0.0, 0.0], 1.0, eta=1.0),
            em.Shape([0.0, 0.0], 0.5, eta=2.0),
        ])
        assert c.eta_at([0.0, 0.0]) == 2.0

    def test_needs_a_shape(self):
        with pytest.raises(GeometryError):
            em.ContrastField([])

    def test_ring_needs_smaller_hole(self):
        with pytest.raises(DomainError):
            em.Shape([0.0, 0.0], 0.4, 0.6)

    @pytest.mark.parametrize("inner", [-0.1, 0.4])
    def test_hole_must_fit_inside(self, inner):
        with pytest.raises(DomainError, match="0 <= inner_side < outer_side"):
            em.Shape([0.0, 0.0], 0.4, inner)

    @pytest.mark.parametrize("center", [[0.0], [0.0] * 4, [[0.0, 0.0]]])
    def test_center_is_a_2_or_3_vector(self, center):
        with pytest.raises(DimensionMismatchError):
            em.Shape(center, 0.4)

    @pytest.mark.parametrize("center, side, eta", [
        ([np.nan, 0.0], 0.3, 1.0), ([0.0, 0.0], np.inf, 1.0), ([0.0, 0.0], 0.3, complex(1.0, np.nan)),
    ])
    def test_shape_requires_finite_values(self, center, side, eta):
        with pytest.raises(DomainError, match="finite"):
            em.Shape(center, side, eta=eta)


class TestGreenScalar:
    def test_3d_full_wavelength(self):
        val = em.green_scalar_from_distance(CTX3, 1.0)
        assert val == pytest.approx(1.0 / (4 * np.pi), abs=1e-15)

    def test_3d_half_wavelength(self):
        val = em.green_scalar_from_distance(CTX3, 0.5)
        assert val == pytest.approx(-1.0 / (2 * np.pi), abs=1e-15)

    def test_2d_unit_argument(self):
        r = 1.0 / (2 * np.pi)
        val = em.green_scalar_from_distance(CTX2, r)
        assert val == pytest.approx(-0.0220642411 + 0.1912994217j, abs=1e-9)

    def test_symmetry(self):
        x, y = np.array([0.3, -0.2]), np.array([-0.8, 0.9])
        assert (em.green_scalar_from_distance(CTX2, np.linalg.norm(x - y))
                == em.green_scalar_from_distance(CTX2, np.linalg.norm(y - x)))

    def test_coincident_raises(self):
        with pytest.raises(SingularityError):
            em.green_scalar_from_distance(CTX2, 0.0)


class TestGreenTensor:
    def test_trace_identity_500_pairs_both_dims(self):
        rng = np.random.default_rng(42)
        for ctx in (CTX2, CTX3):
            d = ctx.dimension
            worst = 0.0
            for _ in range(500):
                x, y = random_pair(rng, d, min_sep=0.05)
                phi = em.green_tensor_from_diff(ctx, x - y)
                g = em.green_scalar_from_distance(ctx, np.linalg.norm(x - y))
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
                phi = em.green_tensor_from_diff(ctx, x - y)
                np.testing.assert_allclose(phi, fd_hessian_tensor(ctx, x - y, h=1e-3), atol=1e-5)

    def test_spec_pair_vs_fd_hessian_at_pinned_step(self):
        diff = np.array([0.3, 0.4])
        phi = em.green_tensor_from_diff(CTX2, diff)
        np.testing.assert_allclose(phi, fd_hessian_tensor(CTX2, diff, h=1e-4), atol=1e-5)

    def test_symmetric_matrix_and_even_in_separation(self):
        rng = np.random.default_rng(5)
        for ctx in (CTX2, CTX3):
            x, y = random_pair(rng, ctx.dimension)
            phi = em.green_tensor_from_diff(ctx, x - y)
            np.testing.assert_array_equal(phi, phi.T)
            np.testing.assert_allclose(phi, em.green_tensor_from_diff(ctx, y - x), rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 1_000, 16_383])
    def test_3d_parts_do_not_depend_on_the_array_size(self, n):
        # numpy forms some products of arrays of 16 384 and more complex
        # values in another operand order; a separation's bits must not
        # follow the size of the array it comes in
        r = np.random.default_rng(11).uniform(0.05, 10.0, 100_000)
        large = em.green_tensor_parts(CTX3, r.copy())
        small = em.green_tensor_parts(CTX3, r[:n].copy())
        for part, whole in zip(small, large):
            np.testing.assert_array_equal(part.view(np.uint64), whole[:n].view(np.uint64))

    def test_3d_axis_separation_is_diagonal(self):
        phi = em.green_tensor_from_diff(CTX3, [0.7, 0.0, 0.0])
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
                        em.green_tensor_from_diff(CTX2, x0 + e - y0)[i, j]
                        - em.green_tensor_from_diff(CTX2, x0 - e - y0)[i, j]
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
            return em.green_tensor_from_diff(ctx, pt - y0) @ q

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
            em.green_tensor_from_diff(CTX2, [0.0, 0.0])

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


def im_trace(ctx, r):
    """Tr Im Phi = (d - 1) k^2 Im G at separations r along the first axis."""
    diff = np.multiply.outer(r, np.eye(ctx.dimension)[0])
    return np.trace(em.im_green_tensor_from_diff(ctx, diff), axis1=-2, axis2=-1)


def im_green_3d_oracle(k: float, r: float):
    """A separation of length about r along (3, 4, 12) / 13 whose components
    and length are exact, and Im Phi there in rational arithmetic:
    [sin(kr)(k^2 (I - rr) - (I - 3 rr) / r^2) + k cos(kr)(I - 3 rr) / r] / (4 pi r),
    with sin and cos their degree-30 Taylor polynomials, and k and pi the
    doubles."""
    bits = 40 - math.floor(math.log2(r / 13))
    scale = Fraction(round(r / 13 * 2**bits), 2**bits)  # 3, 4 and 12 times it are exact doubles
    r, k, pi = 13 * scale, Fraction(k), Fraction(math.pi)
    sin = cos = Fraction(0)
    term = Fraction(1)  # (kr)^n / n!
    for n in range(31):
        if n % 2:
            sin += (-1) ** (n // 2) * term
        else:
            cos += (-1) ** (n // 2) * term
        term *= k * r / (n + 1)
    out = np.empty((3, 3))
    for i, a in enumerate((3, 4, 12)):
        for j, b in enumerate((3, 4, 12)):
            eye, rr = int(i == j), Fraction(a * b, 169)
            out[i, j] = (sin * (k * k * (eye - rr) - (eye - 3 * rr) / (r * r))
                         + k * cos * (eye - 3 * rr) / r) / (4 * pi * r)
    return np.array([3.0, 4.0, 12.0]) * float(scale), out


class TestImParts:
    def test_im_tensor_matches_tensor_imag(self):
        rng = np.random.default_rng(9)
        for ctx in (CTX2, CTX3):
            x, y = random_pair(rng, ctx.dimension)
            np.testing.assert_allclose(
                em.im_green_tensor_from_diff(ctx, x - y), em.green_tensor_from_diff(ctx, x - y).imag, atol=1e-14
            )

    def test_im_tensor_coincident_limits(self):
        k = 2 * np.pi
        np.testing.assert_allclose(
            em.im_green_tensor_from_diff(CTX2, [0.0, 0.0]), (k**2 / 8) * np.eye(2), rtol=1e-14
        )
        np.testing.assert_allclose(
            em.im_green_tensor_from_diff(CTX3, [0.0] * 3), (k**3 / (6 * np.pi)) * np.eye(3), rtol=1e-14
        )
        # continuity toward the limit
        near = em.im_green_tensor_from_diff(CTX2, [-1e-7, 0.0])
        np.testing.assert_allclose(near, (k**2 / 8) * np.eye(2), rtol=1e-10)

    def test_im_trace_2d_peak_value(self):
        assert im_trace(CTX2, 0.0) == pytest.approx(np.pi**2, rel=1e-14)

    def test_im_trace_3d_small_separation_limit(self):
        # 2 k^2 Im G = 2 k^2 sin(kr) / (4 pi r), which tends to k^3 / (2 pi)
        k = 2 * np.pi
        assert im_trace(CTX3, 0.0) == pytest.approx(k**3 / (2 * np.pi), rel=1e-14)
        r = 1e-4
        assert im_trace(CTX3, r) == pytest.approx(2 * k**2 * np.sin(k * r) / (4 * np.pi * r), rel=1e-9)

    @pytest.mark.parametrize("r", [1e-12, 1e-8, 1e-5])
    def test_im_tensor_3d_small_separation_against_exact_oracle(self, r):
        # the closed form cancels catastrophically here: at r = 1e-10 its
        # trace reads 0 and its Phi_yy -461 times the limit
        diff, exact = im_green_3d_oracle(CTX3.wavenumber, r)
        np.testing.assert_allclose(em.im_green_tensor_from_diff(CTX3, diff), exact, rtol=2e-15, atol=0.0)

    def test_im_tensor_3d_continuous_across_the_series_switch(self):
        # just below the switch the series, just above it the closed form,
        # whose rhat rhat^T part is good to about 15 eps / (kr)^4 there
        x = em._IM_SERIES_KR
        below, above = (im_green_3d_oracle(CTX3.wavenumber, x * f / CTX3.wavenumber) for f in (1 - 1e-9, 1 + 1e-9))
        np.testing.assert_allclose(em.im_green_tensor_from_diff(CTX3, below[0]), below[1], rtol=2e-15, atol=0.0)
        np.testing.assert_allclose(em.im_green_tensor_from_diff(CTX3, above[0]), above[1], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(em.im_green_tensor_from_diff(CTX3, below[0]),
                                   em.im_green_tensor_from_diff(CTX3, above[0]), rtol=1e-8, atol=0.0)

    def test_im_trace_vanishes_at_first_bessel_zero(self):
        # root of J_0 located with the series oracle via bisection
        lo, hi = 2.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if j_series_oracle(0, mid, 60) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404825557695773, rel=1e-10)
        assert abs(im_trace(CTX2, root / CTX2.wavenumber)) < 1e-10

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
        assert im_trace(CTX2, 0.0) > im_trace(CTX2, r).max()


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
    phi = em.green_tensor_from_diff(ctx, x - y)
    g = em.green_scalar_from_distance(ctx, np.linalg.norm(x - y))
    assert abs(np.trace(phi) - (dim - 1) * ctx.wavenumber**2 * g) <= 1e-11 * abs(ctx.wavenumber**2 * g)


def test_3d_kernels_do_not_load_scipy_special():
    # scipy.special is imported inside the 2D branches only
    code = (
        "import sys, emdsm, numpy as np\n"
        "from emdsm import em_core as em\n"
        "ctx = em.WaveContext.from_wavelength(3, 1.0)\n"
        "em.green_tensor_from_diff(ctx, [-0.3, -0.1, 0.2])\n"
        "em.im_green_tensor_from_diff(ctx, [-0.3, -0.1, 0.2])\n"
        "em.KernelBlock(ctx, np.array([[0.3, 0.1, -0.2]]), np.zeros((1, 3)))\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special loaded'\n"
    )
    run_python(code)


@pytest.mark.parametrize("name, spacing, absent", [
    # a 3D run loads no scipy at all; a 2D run loads scipy.special alone
    ("example3d", 0.25, "scipy"),
    ("example1", 0.1, "scipy.sparse"),
])
def test_a_run_does_not_load_scipy_sparse(tmp_path, name, spacing, absent):
    run_python(
        "import sys\n"
        "import emdsm.cli\n"
        "from emdsm import harness\n"
        f"harness.run_experiment(harness.preset({name!r}, sampling_spacing={spacing}, out={str(tmp_path)!r}))\n"
        f"loaded = [m for m in sys.modules if m == {absent!r} or m.startswith({absent + '.'!r})]\n"
        "assert not loaded, loaded\n"
    )


EULER_GAMMA = 0.57721566490153286060651209

# published table values (Abramowitz & Stegun style references)
TABLE = {
    ("j", 0, 1.0): 0.7651976865579666,
    ("j", 1, 1.0): 0.4400505857449335,
    ("y", 0, 1.0): 0.08825696421567696,
    ("y", 1, 1.0): -0.7812128213002887,
}


def j_series_oracle(order: int, x: float, terms: int = 40) -> float:
    """Ascending series summed in exact rational arithmetic (x rational)."""
    xq = Fraction(x).limit_denominator(10**12)
    half = xq / 2
    term = half**order / math.factorial(order)
    total = term
    for m in range(1, terms):
        term *= -(half * half) / (m * (m + order))
        total += term
    return float(total)


def y0_series_oracle(x: float, terms: int = 40) -> float:
    """Log series for Y_0 with rational inner sums."""
    xq = Fraction(x).limit_denominator(10**12)
    q = xq * xq / 4
    total = Fraction(0)
    term = Fraction(1)
    harmonic = Fraction(0)
    for m in range(1, terms):
        term *= q / (m * m)
        harmonic += Fraction(1, m)
        total += (-1) ** (m + 1) * harmonic * term
    j0 = j_series_oracle(0, x, terms)
    return (2.0 / math.pi) * ((math.log(x / 2.0) + EULER_GAMMA) * j0 + float(total))


def y1_series_oracle(x: float, terms: int = 40) -> float:
    xq = Fraction(x).limit_denominator(10**12)
    q = xq * xq / 4
    term = Fraction(1)
    h_m = Fraction(0)
    h_m1 = Fraction(1)
    total = (h_m + h_m1) * term
    gamma_part = float(term)
    for m in range(1, terms):
        term *= -q / (m * (m + 1))
        h_m += Fraction(1, m)
        h_m1 += Fraction(1, m + 1)
        total += (h_m + h_m1) * term
        gamma_part += float(term)
    series = float(total) - 2.0 * EULER_GAMMA * gamma_part
    j1 = j_series_oracle(1, x, terms)
    return (2.0 / math.pi) * math.log(x / 2.0) * j1 - 2.0 / (math.pi * x) - x / (2.0 * math.pi) * series


# k = 1, so that green_tensor_parts' b = (i/4) H_2(r) and x = kr = r
UNIT_K = em.WaveContext(2, 1.0, 2 * np.pi)


def hankel(order: int, x):
    """H_n^(1)(x) for n = 0, 1, 2 as the 2D kernels see it: H_0, H_1 from
    _hankel1_01, H_2 as green_tensor_parts' b / (i k^2 / 4)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    h = em._hankel1_01(flat)[order] if order < 2 else em.green_tensor_parts(UNIT_K, flat)[1] / 0.25j
    return h.reshape(x.shape)[()]


def jy(order: int, x):
    """(J_n(x), Y_n(x)) as the 2D kernels see them."""
    h = hankel(order, x)
    return h.real, h.imag


def test_oracles_match_published_tables():
    assert j_series_oracle(0, 1.0) == pytest.approx(TABLE[("j", 0, 1.0)], rel=1e-14)
    assert j_series_oracle(1, 1.0) == pytest.approx(TABLE[("j", 1, 1.0)], rel=1e-14)
    assert y0_series_oracle(1.0) == pytest.approx(TABLE[("y", 0, 1.0)], rel=1e-13)
    assert y1_series_oracle(1.0) == pytest.approx(TABLE[("y", 1, 1.0)], rel=1e-13)


def test_j_at_zero():
    # J_0(0) = 1, J_1(x)/x -> 1/2, J_2(0) = 0: Im Phi's regular branch meets
    # the coincident-point value k^2/8 I, and the trace peaks at k^2/4
    k = CTX2.wavenumber
    near = em.im_green_tensor_from_diff(CTX2, [1e-200, 0.0])
    np.testing.assert_array_equal(near, (k * k / 8.0) * np.eye(2))
    assert im_trace(CTX2, 0.0) == 0.25 * k * k


def test_j_against_series_oracle():
    for order in (0, 1, 2):
        for x in (0.05, 0.7, 1.0, 3.3, 7.9, 11.5):
            assert jy(order, x)[0] == pytest.approx(j_series_oracle(order, x, 60), rel=1e-10)


def test_y_against_series_oracle():
    for x in (0.02, 0.4, 1.0, 2.9, 8.1):
        assert jy(0, x)[1] == pytest.approx(y0_series_oracle(x, 60), rel=1e-10)
        assert jy(1, x)[1] == pytest.approx(y1_series_oracle(x, 60), rel=1e-10)


def test_y0_log_blowup_near_zero():
    assert jy(0, 1e-9)[1] < -10.0


def test_hankel_is_j_plus_iy_exactly():
    # orders 0 and 1 are the cephes values untouched
    x = np.linspace(0.3, 150.0, 500)
    h0, h1 = em._hankel1_01(x)
    np.testing.assert_array_equal(h0.real, sp.j0(x))
    np.testing.assert_array_equal(h0.imag, sp.y0(x))
    np.testing.assert_array_equal(h1.real, sp.j1(x))
    np.testing.assert_array_equal(h1.imag, sp.y1(x))


def test_hankel_recurrence_pins_order_two():
    x = 3.7
    h0, h1, h2 = (hankel(order, x) for order in (0, 1, 2))
    assert h2 == pytest.approx(2.0 * h1 / x - h0, rel=1e-12)
    assert h2 == pytest.approx(sp.hankel1(2, x), rel=1e-13)


def test_large_argument_amplitude():
    # |H_0(x)| sqrt(x) -> sqrt(2/pi)
    x = 100.0
    h0 = hankel(0, x)
    assert abs(h0) * math.sqrt(x) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-5)
    # phase against the leading asymptotic form
    ref = math.sqrt(2.0 / (math.pi * x)) * np.exp(1j * (x - math.pi / 4.0))
    assert h0 == pytest.approx(ref, rel=2e-3)


def test_domain_errors():
    # y0(0) is -inf: the helper must refuse rather than return it
    with pytest.raises(DomainError):
        em._hankel1_01(np.array(0.0))
    with pytest.raises(DomainError):
        em._hankel1_01(np.array([1.0, -2.0]))
    with pytest.raises(SingularityError):
        em.green_scalar_from_distance(CTX2, 0.0)
    with pytest.raises(SingularityError):
        em.green_tensor_from_diff(CTX2, [0.0, 0.0])


def test_wronskian_on_random_sample():
    # J_n Y_n' - J_n' Y_n = 2/(pi x), derivatives via the recurrence
    rng = np.random.default_rng(7)
    x = rng.uniform(0.01, 100.0, 200)
    for order in (0, 1, 2):
        j, y = jy(order, x)
        if order == 0:
            jp, yp = (-v for v in jy(1, x))
        else:
            j_lo, y_lo = jy(order - 1, x)
            jp = j_lo - order * j / x
            yp = y_lo - order * y / x
        w = j * yp - jp * y
        ref = 2.0 / (np.pi * x)
        assert np.max(np.abs(w - ref) / ref) < 1e-9


def test_recurrence_closure_on_random_sample():
    # one more upward step from the helper's H_1, H_2 must land on AMOS H_3
    rng = np.random.default_rng(11)
    x = rng.uniform(0.01, 100.0, 200)
    h1, h2 = hankel(1, x), hankel(2, x)
    h3 = 4.0 * h2 / x - h1
    ref = sp.hankel1(3, x)
    assert np.max(np.abs(h3 - ref) / np.abs(ref)) < 1e-10


def test_derivative_identity_vs_finite_differences():
    # d/dx H_0 = -H_1, checked against 4th-order central differences
    h = 1e-5

    def h0(v):
        return hankel(0, v)

    for x in (0.5, 1.7, 6.3, 20.0, 80.0):
        fd = (-h0(x + 2 * h) + 8.0 * h0(x + h) - 8.0 * h0(x - h) + h0(x - 2 * h)) / (12.0 * h)
        assert abs(fd - (-hankel(1, x))) < 1e-7


@settings(max_examples=150, deadline=None)
@given(
    order=st.integers(min_value=0, max_value=2),
    x=st.floats(min_value=1e-6, max_value=200.0, allow_nan=False),
)
def test_matches_scipy_within_contract(order, x):
    # the helper against AMOS hankel1(n, x) on [1e-6, 200]
    ref = sp.hankel1(order, x)
    assert abs(hankel(order, x) - ref) <= 1e-13 * abs(ref)


def test_vectorized_matches_scalar():
    x = np.array([0.2, 1.0, 11.9, 12.1, 60.0])
    for order in (0, 1, 2):
        scal = np.array([hankel(order, v) for v in x])
        np.testing.assert_array_equal(hankel(order, x), scal)


@pytest.mark.parametrize("ctx, surface, pts", [
    (CTX2, ms.circle_surface(5.0, 30), np.array([[-0.25, 0.0], [0.4, 0.1], [1.3, -1.7]])),
    (CTX3, ms.cube_surface(10.0, 3), np.array([[0.4, 0.3, 0.3], [-1.1, 0.0, 1.7]])),
], ids=["2d", "3d"])
def test_hankel_runs_fast_path_matches_public_api(ctx, surface, pts):
    # the shared kernel block against the public closed-form kernel
    block = em.KernelBlock(ctx, surface.points, pts)
    phi = em.green_tensor_from_diff(ctx, surface.points[np.newaxis, :, :] - pts[:, np.newaxis, :])
    # one-hot symmetrized references, one column per (component i <= j,
    # surface point m), pick out each entry: P[c, (n, m)] = Phi_ij(x_m, x_c)
    pairs = list(zip(*np.triu_indices(ctx.dimension)))
    slabs = np.eye(len(pairs) * surface.count).reshape(len(pairs), surface.count, -1)
    contracted = block.contract(slabs).reshape(len(pts), len(pairs), surface.count)
    for n, (i, j) in enumerate(pairs):
        np.testing.assert_allclose(contracted[:, n], phi[..., i, j], rtol=1e-12)
        np.testing.assert_allclose(contracted[:, n], phi[..., j, i], rtol=1e-12)
    if ctx.dimension == 2:
        r = np.linalg.norm(surface.points - pts[0], axis=1)
        h0 = em._hankel1_01(CTX2.wavenumber * r)[0]
        np.testing.assert_array_equal(em.green_scalar_from_distance(CTX2, r), 0.25j * h0)


@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["2d", "3d"])
def test_symmetric_slabs_match_f_plus_f_transpose(ctx):
    d = ctx.dimension
    rng = np.random.default_rng(5)
    refs = rng.standard_normal((7, d, d, 4)) + 1j * rng.standard_normal((7, d, d, 4))
    both = refs + refs.transpose(0, 2, 1, 3)
    slabs = em.symmetric_slabs(refs)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    assert slabs.shape == (len(pairs), 7, 4)
    for n, (i, j) in enumerate(pairs):
        np.testing.assert_array_equal(slabs[n], refs[:, i, i] if i == j else both[:, i, j])
    # contracted against a block they give the full Frobenius pairing
    sources = rng.uniform(3.0, 4.0, (7, d))
    targets = rng.uniform(-1.0, 1.0, (5, d))
    phi = em.green_tensor_from_diff(ctx, sources[np.newaxis, :, :] - targets[:, np.newaxis, :])
    np.testing.assert_allclose(em.KernelBlock(ctx, sources, targets).contract(slabs),
                               np.einsum("cmij,mijk->ck", phi, refs), rtol=1e-12)


def per_member_image_slabs(refs, axis_perms, signs, source_perms):
    """Oracle of em_core._image_slabs: each F_sigma[m] = sigma^T F[pi(m)] sigma
    formed in full, then its symmetric_slabs."""
    d = refs.shape[1]
    slabs = np.empty((d * (d + 1) // 2, refs.shape[0], len(signs), refs.shape[3]), dtype=np.complex128)
    moved = np.empty_like(refs)
    for g, (p, s, perm) in enumerate(zip(axis_perms, signs, source_perms)):
        moved[:, p[:, np.newaxis], p] = np.multiply.outer(s, s)[:, :, np.newaxis] * refs[perm]
        slabs[:, :, g] = em.symmetric_slabs(moved)
    return slabs


class TestSymmetryGroup:
    def test_image_slabs_are_the_per_member_slabs_bit_for_bit(self):
        cube = ms.cube_surface(10.0, 2)
        group = em._symmetry_group(cube, em.Lattice((0.0,) * 3, 0.5, (4, 4, 4)))
        assert len(group[1]) == 48
        rng = np.random.default_rng(13)
        refs = rng.standard_normal((cube.count, 3, 3, 4)) + 1j * rng.standard_normal((cube.count, 3, 3, 4))
        np.testing.assert_array_equal(em._image_slabs(em.symmetric_slabs(refs), *group).view(np.uint64),
                                      per_member_image_slabs(refs, *group).view(np.uint64))


class TestRunBlocks:
    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_blocks_cover_every_target_once(self, monkeypatch, threads):
        # 5 workers outnumber the cores, and a short switch interval
        # interleaves their takes from the shared block list
        monkeypatch.setattr(em, "_thread_count", lambda: threads)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 7 * 10 * 2)  # 7 targets per block against 10 sources
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = em.run_blocks(lambda lo, hi: seen.append((lo, hi)), 500, 10, 2)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == [(lo, min(lo + 7, 500)) for lo in range(0, 500, 7)]
        assert run.blocks == 72
        assert (run.threads, run.blas_pinned) == ((threads, True) if em._blas_threads() is not None
                                                  else (1, False))

    def test_one_block_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(em, "_thread_count", lambda: 4)
        callers = []
        run = em.run_blocks(lambda lo, hi: callers.append(threading.get_ident()), 5, 10, 3)
        assert callers == [threading.get_ident()]
        assert run == em.BlockRun(1, 1, em._blas_threads() is not None)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_pinned_during_the_run_and_restored(self, monkeypatch, two_blas_threads, threads):
        # one worker pins too, so that BLAS rounds alike at every worker count
        monkeypatch.setattr(em, "_thread_count", lambda: threads)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 1)
        during = []
        run = em.run_blocks(lambda lo, hi: during.append(two_blas_threads()), 6, 1, 1)
        assert during == [1] * 6 and run.blas_pinned
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("failing", [0, 3, 5])
    def test_raising_block_surfaces_and_blas_restored(self, monkeypatch, two_blas_threads, failing):
        monkeypatch.setattr(em, "_thread_count", lambda: 2)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 1)

        def work(lo, hi):
            if lo == failing:
                raise SingularityError(f"block {lo}")

        with pytest.raises(SingularityError, match=f"block {failing}"):
            em.run_blocks(work, 6, 1, 1)
        assert two_blas_threads() == 2

    def test_absent_blas_symbols_run_one_worker(self, monkeypatch):
        monkeypatch.setattr(em, "_thread_count", lambda: 3)
        monkeypatch.setattr(em, "_CHUNK_TARGET", 1)
        monkeypatch.setattr(em, "_blas_threads", lambda: None)
        callers = set()
        run = em.run_blocks(lambda lo, hi: callers.add(threading.get_ident()), 6, 1, 1)
        assert callers == {threading.get_ident()}
        assert run == em.BlockRun(6, 1, False)

    def test_tasks_up_to_the_worker_count_run_one_per_worker(self, monkeypatch):
        # each task waits for the others, so they must run at once; task 0
        # runs on the calling thread
        if em._blas_threads() is None:
            pytest.skip("without OpenBLAS's thread symbols tasks run on one worker")
        monkeypatch.setattr(em, "_thread_count", lambda: 3)
        barrier = threading.Barrier(3, timeout=10.0)
        callers = [None] * 3

        def task(n):
            barrier.wait()
            callers[n] = threading.get_ident()

        run = em.run_tasks([lambda n=n: task(n) for n in range(3)])
        assert run == em.BlockRun(3, 3, True)
        assert callers[0] == threading.get_ident() and len(set(callers)) == 3

    def test_default_threads_are_the_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert em._thread_count() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert em._thread_count() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert em._thread_count() == 3
