"""The analytic checks: the boundary lemma, the radiation-zone
approximation, the fig1/fig2 map coefficients and the verify kinds."""

import numpy as np
import pytest

from emdsm import checks, dsm, em_core as em, measurement as ms
from emdsm.em_core import WaveContext, green_scalar_from_distance, green_tensor_from_diff
from emdsm.errors import ConfigError, GeometryError

CTX2 = em.WaveContext.from_wavelength(2, 1.0)
CTX3 = em.WaveContext.from_wavelength(3, 1.0)
P1 = np.array([1.0, -1.0]) / np.sqrt(2)
P2 = np.array([1.0, 1.0]) / np.sqrt(2)
SURF = ms.circle_surface(5.0, 30)


def sphere_surface(radius: float) -> ms.MeasurementSurface:
    """12 Gauss-Legendre nodes in cos(theta) times 24 trapezoid nodes in phi
    on the origin-centred sphere."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    phi = 2.0 * np.pi * np.arange(24) / 24
    cos_t, phi = np.meshgrid(nodes, phi, indexing="ij")
    sin_t = np.sqrt(1.0 - cos_t**2)
    normals = np.column_stack([(sin_t * np.cos(phi)).ravel(), (sin_t * np.sin(phi)).ravel(), cos_t.ravel()])
    weights = np.repeat(weights, 24) * (2.0 * np.pi / 24) * radius**2
    return ms.MeasurementSurface(radius * normals, weights, normals, region_radius=radius)


class TestBoundaryLemma:
    def test_identity_holds_and_error_small(self):
        surf = ms.circle_surface(5.0, 512)
        check = checks.verify_boundary_lemma(CTX2, surf, [-0.25, 0.0], [0.4, 0.1], P1, P2)
        assert check.rel_err <= 1e-3
        assert abs(check.rhs) > 0

    def test_error_trend_over_point_counts(self):
        errs = [
            checks.verify_boundary_lemma(
                CTX2, ms.circle_surface(5.0, n), [-0.25, 0.0], [0.4, 0.1], P1, P2
            ).rel_err
            for n in (8, 12, 16)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_cube_faces_converge_at_second_order(self):
        # the example3d cubes' centres and polarizations on the face midpoint
        # rule of an edge-10 cube: the error falls 4x per halving of the cell
        p = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
        q = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
        errs = [checks.verify_boundary_lemma(CTX3, ms.cube_surface(10.0, n), [0.4, 0.3, 0.3],
                                          [-0.4, 0.3, 0.3], p, q).rel_err
                for n in (16, 32, 64)]
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        np.testing.assert_allclose(orders, 2.0, atol=0.1)
        assert errs[-1] <= 2e-4

    def test_swap_conjugate_negates_lhs(self):
        surf = ms.circle_surface(5.0, 256)
        a = checks.verify_boundary_lemma(CTX2, surf, [-0.25, 0.0], [0.4, 0.1], [1.0, 0.0], [0.0, 1.0])
        b = checks.verify_boundary_lemma(CTX2, surf, [0.4, 0.1], [-0.25, 0.0], [0.0, 1.0], [1.0, 0.0])
        assert b.lhs == pytest.approx(-np.conj(a.lhs), rel=1e-9)

    def test_coincident_points_rejected(self):
        with pytest.raises(GeometryError):
            checks.verify_boundary_lemma(CTX2, SURF, [0.1, 0.1], [0.1, 0.1], P1, P2)

    def test_points_near_surface_rejected(self):
        with pytest.raises(GeometryError):
            checks.verify_boundary_lemma(CTX2, SURF, [4.9, 0.0], [0.0, 0.0], P1, P2)


class TestCorrelationApprox:
    def test_error_decays_with_radius(self):
        rows = checks.verify_correlation_approx(
            CTX2, [5.0, 10.0, 20.0, 40.0], [-0.25, 0.0], [-0.25, 0.0], P1, P1
        )
        errs = [row.err for row in rows]
        assert errs[-1] < errs[0]
        assert all(errs[i] > errs[i + 1] for i in range(3))

    def test_coincident_points_modest_error_at_r5(self):
        rows = checks.verify_correlation_approx(CTX2, [5.0], [-0.25, 0.0], [-0.25, 0.0], P1, P1)
        assert rows[0].err <= 0.15
        assert rows[0].lhs.real > 0
        assert abs(rows[0].lhs.imag) < 0.05 * rows[0].lhs.real

    def test_symmetric_under_p_q_exchange(self):
        a = checks.verify_correlation_approx(CTX2, [5.0], [-0.25, 0.0], [0.4, 0.1], P1, P2)[0]
        b = checks.verify_correlation_approx(CTX2, [5.0], [0.4, 0.1], [-0.25, 0.0], P2, P1)[0]
        assert a.lhs == pytest.approx(np.conj(b.lhs), rel=1e-12)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-12)

    @pytest.mark.parametrize("x_q,q", [
        ([-0.4, 0.3, 0.3], np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)),  # the example3d pair
        ([0.4, 0.3, 0.3], np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)),   # coincident, p = q
    ], ids=["pair", "coincident"])
    def test_spheres_converge_at_second_order_in_3d(self, x_q, q):
        # the example3d centres and polarizations on spheres, whose normals
        # are radial, unlike a cube's: the error falls as 1/R^2
        x_p, p = np.array([0.4, 0.3, 0.3]), np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
        rhs = CTX3.wavenumber * (p @ em.im_green_tensor_from_diff(CTX3, x_p - np.array(x_q)) @ q)
        errs = []
        for radius in (5.0, 10.0, 20.0, 40.0):
            surf = sphere_surface(radius)
            lhs = ms.l2_inner_product(dsm.probe_field(CTX3, surf, x_p, p), dsm.probe_field(CTX3, surf, x_q, q))
            errs.append(abs(lhs - rhs) / abs(rhs))
        assert all(errs[i] > errs[i + 1] for i in range(3))
        np.testing.assert_allclose(np.log2(np.array(errs[:-1]) / errs[1:]), 2.0, atol=0.1)
        assert errs[-1] <= 1e-4


class TestDiagnosticMaps:
    @pytest.mark.parametrize("d", [2, 3])
    def test_diagnostic_maps_match_their_definitions(self, d):
        q1, q2 = np.random.default_rng(d).standard_normal((2, d))
        fig1 = checks.diagnostic_maps("fig1", [q1, q2])
        fig2 = checks.diagnostic_maps("fig2", [q1, q2])
        cells = list(np.ndindex(d, d, d))
        components = {"component_11": (0, 0), "component_22": (1, 1), "component_12": (0, 1)}
        assert list(fig1) == [*components, "diagonal_sum"]
        for label, (i, j) in components.items():
            expected = [float((a, b, c) == (i, j, j)) for a, b, c in cells]
            np.testing.assert_array_equal(fig1[label].ravel(), expected)
        np.testing.assert_array_equal(fig1["diagonal_sum"].ravel(), [float(a == b == c) for a, b, c in cells])
        polarizations = {"polarization_1": [q1], "polarization_2": [q2], "polarization_sum": [q1, q2]}
        assert list(fig2) == list(polarizations)
        for label, qs in polarizations.items():
            expected = [sum(q[j] * q[l] for q in qs) for _, j, l in cells]
            np.testing.assert_array_equal(fig2[label].ravel(), expected)


class TestVerify:
    def test_trace(self, verify_results):
        result = verify_results["trace"]
        assert result["passed"]
        assert all(c["value"] <= 1e-11 for c in result["checks"])

    def test_trace_matches_per_pair_loop(self, verify_results):
        """The batched check against one kernel call per accepted pair, drawn
        from the same generator one pair at a time."""
        rng = np.random.default_rng(2024)
        oracle = []
        for dim in (2, 3):
            ctx = WaveContext.from_wavelength(dim, 1.0)
            worst, n = 0.0, 0
            while n < 500:
                x = rng.uniform(-2.0, 2.0, dim)
                y = rng.uniform(-2.0, 2.0, dim)
                if np.linalg.norm(x - y) < 0.05:
                    continue
                n += 1
                g = complex(green_scalar_from_distance(ctx, np.linalg.norm(x - y, axis=-1)))
                dev = abs(np.trace(green_tensor_from_diff(ctx, x - y)) - (dim - 1) * ctx.wavenumber**2 * g)
                worst = max(worst, dev / abs(ctx.wavenumber**2 * g))
            oracle.append(worst)
        values = [check["value"] for check in verify_results["trace"]["checks"]]
        np.testing.assert_array_max_ulp(np.array(values), np.array(oracle), maxulp=4)

    def test_lemma(self, verify_results):
        result = verify_results["lemma"]
        assert result["passed"]

    def test_xpq(self, verify_results):
        result = verify_results["xpq"]
        assert result["passed"]

    def test_born(self, verify_results):
        result = verify_results["born"]
        assert result["passed"]
        order = result["checks"][0]["value"]
        assert abs(order - 1.0) <= 0.2

    def test_solver_cross(self, verify_results):
        result = verify_results["solver_cross"]
        assert result["passed"]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown verify kind"):
            checks.verify("maxwell")
