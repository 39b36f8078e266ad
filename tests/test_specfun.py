"""The cylindrical Bessel and Hankel values behind the 2D kernels (the
scipy-backed em_core.hankel1_012 and the J_n in Im Phi) against independent
series oracles, published tables and identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from emdsm import dsm
from emdsm import em_core as em
from emdsm import measurement as ms
from emdsm.errors import DomainError, SingularityError

CTX2 = em.WaveContext.from_wavelength(2, 1.0)

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


def jy(order: int, x):
    """(J_n(x), Y_n(x)) as the 2D kernels see them."""
    h = em.hankel1_012(x)[order]
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
    assert em.im_trace_green_tensor(CTX2, 0.0) == 0.25 * k * k


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
    h0, h1, _ = em.hankel1_012(x)
    np.testing.assert_array_equal(h0.real, sp.j0(x))
    np.testing.assert_array_equal(h0.imag, sp.y0(x))
    np.testing.assert_array_equal(h1.real, sp.j1(x))
    np.testing.assert_array_equal(h1.imag, sp.y1(x))


def test_hankel_recurrence_pins_order_two():
    x = 3.7
    h0, h1, h2 = em.hankel1_012(x)
    assert h2 == pytest.approx(2.0 * h1 / x - h0, rel=1e-12)
    assert h2 == pytest.approx(sp.hankel1(2, x), rel=1e-13)


def test_large_argument_amplitude():
    # |H_0(x)| sqrt(x) -> sqrt(2/pi)
    x = 100.0
    h0 = em.hankel1_012(x)[0]
    assert abs(h0) * math.sqrt(x) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-5)
    # phase against the leading asymptotic form
    ref = math.sqrt(2.0 / (math.pi * x)) * np.exp(1j * (x - math.pi / 4.0))
    assert h0 == pytest.approx(ref, rel=2e-3)


def test_domain_errors():
    # y0(0) is -inf: the helper must refuse rather than return it
    with pytest.raises(DomainError):
        em.hankel1_012(0.0)
    with pytest.raises(DomainError):
        em.hankel1_012(np.array([1.0, -2.0]))
    with pytest.raises(SingularityError):
        em.green_scalar_from_distance(CTX2, 0.0)
    with pytest.raises(SingularityError):
        em.green_tensor_from_diff(CTX2, [0.0, 0.0])
    with pytest.raises(DomainError):
        em.im_trace_green_tensor(CTX2, -1.0)


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
    _, h1, h2 = em.hankel1_012(x)
    h3 = 4.0 * h2 / x - h1
    ref = sp.hankel1(3, x)
    assert np.max(np.abs(h3 - ref) / np.abs(ref)) < 1e-10


def test_derivative_identity_vs_finite_differences():
    # d/dx H_0 = -H_1, checked against 4th-order central differences
    h = 1e-5

    def h0(v):
        return em.hankel1_012(v)[0]

    for x in (0.5, 1.7, 6.3, 20.0, 80.0):
        fd = (-h0(x + 2 * h) + 8.0 * h0(x + h) - 8.0 * h0(x - h) + h0(x - 2 * h)) / (12.0 * h)
        assert abs(fd - (-em.hankel1_012(x)[1])) < 1e-7


@settings(max_examples=150, deadline=None)
@given(
    order=st.integers(min_value=0, max_value=2),
    x=st.floats(min_value=1e-6, max_value=200.0, allow_nan=False),
)
def test_matches_scipy_within_contract(order, x):
    # the helper against AMOS hankel1(n, x) on [1e-6, 200]
    ref = sp.hankel1(order, x)
    assert abs(em.hankel1_012(x)[order] - ref) <= 1e-13 * abs(ref)


def test_vectorized_matches_scalar():
    x = np.array([0.2, 1.0, 11.9, 12.1, 60.0])
    vec = em.hankel1_012(x)
    for order in (0, 1, 2):
        scal = np.array([em.hankel1_012(v)[order] for v in x])
        np.testing.assert_array_equal(vec[order], scal)


def test_hankel_runs_fast_path_matches_public_api():
    # the sweep's kernel pieces against the public closed-form kernel
    surface = ms.circle_surface(5.0, 30)
    pts = np.array([[-0.25, 0.0], [0.4, 0.1], [1.3, -1.7]])
    parts = dsm._KernelParts(CTX2, surface, pts)
    phi = em.green_tensor_from_diff(CTX2, surface.points[np.newaxis, :, :] - pts[:, np.newaxis, :])
    # one-hot reference columns pick out each surface point: T[c, i, j, m] = Phi_ij(x_m, x_c)
    one_hot = np.repeat(np.eye(surface.count)[:, np.newaxis, :], 2, axis=1)
    contracted = parts.contract(one_hot).transpose(0, 3, 1, 2)
    np.testing.assert_allclose(contracted, phi, rtol=1e-12)
    r = np.linalg.norm(surface.points - pts[0], axis=1)
    h0 = em.hankel1_012(CTX2.wavenumber * r)[0]
    np.testing.assert_array_equal(em.green_scalar_from_distance(CTX2, r), 0.25j * h0)
