"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Criteria 8a and 9 encode multi-peak counts that the method cannot deliver at
these parameters (the correlation kernel's first side lobes sit above half
peak for multi-scatterer scenes, and the 0.283-separated pair lies below the
half-wavelength resolution limit); they are implemented verbatim and left to
report honestly.  The ideal-data tests next to them show both effects on
point-dipole data, with no forward solve.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from emdsm import checks, dsm, em_core as em, harness
from emdsm.measurement import FieldSamples

from .conftest import timed_run

TRUTH = {
    "example1": np.array([[-0.25, 0.0]]),
    "example2a": np.array([[-0.8, -0.7], [0.3, 0.8]]),
    "example2b": np.array([[-0.45, -0.35], [0.05, 0.15]]),
    "example3": np.array([[-5 / 8, -5 / 8], [-17 / 40, -17 / 40], [-21 / 40, 1 / 8]]),
    "example3d": np.array([[0.4, 0.3, 0.3], [-0.4, 0.3, 0.3]]),
}


def announce(number: int, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")


def combined_entry(report):
    return next(e for e in report.indices if e["label"] == "combined")


def maxima_locations(entry):
    return [np.array(m["location"]) for m in entry["maxima"]]


def test_criterion_1_trace_identity(verify_results):
    result = verify_results["trace"]
    elapsed = result["seconds"]
    worst = max(c["value"] for c in result["checks"])
    ok = result["passed"] and elapsed < 1.0
    announce(1, ok, f"trace identity max rel dev {worst:.2e} (tol 1e-11), {elapsed:.2f} s")
    assert worst <= 1e-11
    assert elapsed < 1.0


def test_criterion_2_green_tensor_vs_fd_oracle():
    from tests.test_em_core import CTX2, CTX3, fd_hessian_tensor, random_pair

    start = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for ctx in (CTX2, CTX3):
        for _ in range(100):
            x, y = random_pair(rng, ctx.dimension)
            phi = em.green_tensor_from_diff(ctx, x - y)
            worst = max(worst, np.abs(phi - fd_hessian_tensor(ctx, x - y, h=1e-3)).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    announce(2, ok, f"closed form vs FD Hessian max abs dev {worst:.2e} (tol 1e-5), {elapsed:.2f} s")
    assert worst <= 1e-5
    assert elapsed < 5.0


def test_criterion_3_boundary_identity(verify_results):
    result = verify_results["lemma"]
    elapsed = result["seconds"]
    err512 = result["checks"][0]["value"]
    errs = result["checks"][1]["value"]
    ok = result["passed"] and elapsed < 10.0
    announce(3, ok, f"boundary identity rel err {err512:.2e} at 512 pts (tol 1e-13), "
                    f"trend at 8/12/16 pts {['%.2e' % e for e in errs]}, {elapsed:.2f} s")
    assert err512 <= 1e-13
    assert errs[0] > errs[1] > errs[2]
    assert elapsed < 10.0


def test_criterion_4_correlation_approximation(verify_results):
    result = verify_results["xpq"]
    elapsed = result["seconds"]
    err5 = result["checks"][0]["value"]
    errs = result["checks"][1]["value"]
    ok = result["passed"] and elapsed < 10.0
    announce(4, ok, f"correlation approx err(R=5) {err5:.3f} (tol 0.15), "
                    f"decay {['%.1e' % e for e in errs]}, {elapsed:.2f} s")
    assert err5 <= 0.15
    assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    assert elapsed < 10.0


def test_criterion_5_born_regime():
    start = time.perf_counter()
    devs = checks.born_deviations()
    order = float(np.polyfit(np.log([1e-4, 1e-3, 1e-2]), np.log(devs), 1)[0])
    elapsed = time.perf_counter() - start
    ok = abs(order - 1.0) <= 0.2 and elapsed < 30.0
    announce(5, ok, f"Born deviation order {order:.3f} (target 1 +/- 0.2), {elapsed:.2f} s")
    assert abs(order - 1.0) <= 0.2
    assert elapsed < 30.0


def test_criterion_6_solver_cross_check(verify_results):
    result = verify_results["solver_cross"]
    elapsed = result["seconds"]
    rel = result["checks"][0]["value"]
    ok = rel <= 1e-8 and elapsed < 30.0
    announce(6, ok, f"dense vs GMRES(1e-10) rel diff {rel:.2e} (tol 1e-8), {elapsed:.2f} s")
    assert rel <= 1e-8
    assert elapsed < 30.0


def test_criterion_7_example1_localization(example1_runs):
    truth = TRUTH["example1"][0]
    details = []
    ok = True
    for key in ("exact", 1, 2, 3):
        report, elapsed = example1_runs[key]
        loc = np.array(combined_entry(report)["argmax"]["location"])
        dist = np.linalg.norm(loc - truth)
        details.append(f"{key}: dist {dist:.3f} in {elapsed:.0f} s")
        ok &= dist <= 0.10 and elapsed < 120.0
    announce(7, ok, "argmax vs (-0.25, 0): " + "; ".join(details))
    for key in ("exact", 1, 2, 3):
        report, elapsed = example1_runs[key]
        loc = np.array(combined_entry(report)["argmax"]["location"])
        assert np.linalg.norm(loc - truth) <= 0.10
        assert elapsed < 120.0


def test_criterion_8a_example2a_two_maxima(tmp_path):
    config = harness.preset("example2a", out=str(tmp_path))
    report, elapsed = timed_run(config)
    maxima = maxima_locations(combined_entry(report))
    dists = [np.linalg.norm(TRUTH["example2a"] - loc, axis=1).min() for loc in maxima]
    count_ok = len(maxima) == 2
    location_ok = len(maxima) >= 2 and all(d <= 0.15 for d in dists[:2])
    ok = count_ok and all(d <= 0.15 for d in dists) and elapsed < 180.0
    announce(8, ok, f"example2a: {len(maxima)} maxima above half peak (need exactly 2), "
                    f"nearest-center distances {['%.2f' % d for d in dists]}, {elapsed:.0f} s")
    assert location_ok, "the two strongest maxima must sit on the true scatterers"
    assert elapsed < 180.0
    assert count_ok, (
        f"expected exactly 2 local maxima above 0.5*peak, found {len(maxima)}: "
        "first correlation side lobes exceed half peak in multi-scatterer scenes"
    )


def test_criterion_8b_example2b_two_maxima_with_noise(tmp_path):
    ok = True
    details = []
    truth = TRUTH["example2b"]
    for tag, eps in (("exact", None), ("eps0.2", 0.2)):
        config = harness.preset("example2b", noise=eps, seed=1 if eps else None,
                                out=str(tmp_path / tag))
        report, elapsed = timed_run(config)
        maxima = maxima_locations(combined_entry(report))
        matched = []
        for center in truth:
            cand = [np.linalg.norm(loc - center) for loc in maxima]
            matched.append(min(cand) if cand else np.inf)
        details.append(f"{tag}: center dists {['%.3f' % d for d in matched]} in {elapsed:.0f} s")
        ok &= all(d <= 0.15 for d in matched) and elapsed < 180.0
    announce(8, ok, "example2b two distinct maxima: " + "; ".join(details))
    assert ok


def test_criterion_9_example3_three_maxima(tmp_path):
    config = harness.preset("example3", out=str(tmp_path))
    report, elapsed = timed_run(config)
    maxima = maxima_locations(combined_entry(report))
    truth = TRUTH["example3"]
    # greedy bijection: each true center must claim a distinct maximum within 0.15
    available = list(range(len(maxima)))
    assignment = []
    for center in truth:
        best, best_d = None, np.inf
        for idx in available:
            d = np.linalg.norm(maxima[idx] - center)
            if d < best_d:
                best, best_d = idx, d
        if best is not None and best_d <= 0.15:
            available.remove(best)
            assignment.append(best_d)
    bijection_ok = len(assignment) == 3
    count_ok = len(maxima) == 3
    ok = bijection_ok and count_ok and elapsed < 180.0
    announce(9, ok, f"example3: {len(maxima)} maxima above floor, "
                    f"{len(assignment)} matched within 0.15, {elapsed:.0f} s")
    assert elapsed < 180.0
    assert bijection_ok and count_ok, (
        f"expected 3 maxima bijecting to the true centers, found {len(maxima)} maxima "
        f"with {len(assignment)} matches: the 0.283-separated pair lies below the "
        "half-wavelength resolution of the correlation kernel and merges"
    )


def ideal_maxima(points, box=None):
    """Combined-index maxima, strongest first, of ideal point-dipole data
    E^s_l = sum_i Phi(., y_i) E^i_l(y_i) from the points y_i, with example1's
    incidents, surface and sampling spacing; box defaults to example1's."""
    config = harness.preset("example1")
    surface = config.surface.build()
    datasets = []
    for wave in config.incidents:
        values = sum(em.green_tensor_from_diff(config.ctx, surface.points - y) @ e
                     for y, e in zip(points, em.incident_field(wave, config.ctx, points)))
        datasets.append((FieldSamples(surface, values), wave.polarization))
    grid = dsm.sampling_grid(box or config.sampling_box, config.sampling_spacing)
    return [p for p, _ in dsm.find_local_maxima(dsm.compute_index_grid(config.ctx, datasets, grid)[-1])]


def diagonal_pair(separation):
    """Two points at the separation on the diagonal through (-0.525, -0.525),
    the midpoint of example3's closest pair."""
    offset = 0.5 * separation * np.sqrt(0.5)
    return np.array([[-0.525 - offset] * 2, [-0.525 + offset] * 2])


PAIR_BOX = ((-1.5, 0.5), (-1.5, 0.5))


def test_ideal_example2a_data_have_side_lobes_above_half_peak():
    # criterion 8a's count fails on the kernel, not on the forward data
    centres = TRUTH["example2a"]
    maxima = ideal_maxima(centres)
    assert len(maxima) > 2
    for centre in centres:
        assert min(np.linalg.norm(p - centre) for p in maxima[:2]) <= 0.05


def test_ideal_pair_at_example3_separation_merges():
    # criterion 9's closest pair, 0.283 apart, is below the kernel's resolution
    maxima = ideal_maxima(diagonal_pair(0.283), PAIR_BOX)
    for y in diagonal_pair(0.283):
        assert min(np.linalg.norm(p - y) for p in maxima) > 0.1


@pytest.mark.parametrize("separation", [0.35, 0.5])
def test_ideal_pair_above_the_resolution_limit_resolves(separation):
    maxima = ideal_maxima(diagonal_pair(separation), PAIR_BOX)
    for y in diagonal_pair(separation):
        assert min(np.linalg.norm(p - y) for p in maxima) <= 0.05


def test_criterion_10_diagnostic_ratios():
    start = time.perf_counter()
    ratios = checks.diagnostic_ratios()
    elapsed = time.perf_counter() - start
    diag = ratios["diagonal_sum"]
    combined = ratios["polarization_sum"]
    singles = {k: ratios[k] for k in
               ("component_11", "component_22", "component_12", "polarization_1", "polarization_2")}
    ok = (
        all(diag < ratios[k] for k in ("component_11", "component_22", "component_12"))
        and all(combined < ratios[k] for k in ("polarization_1", "polarization_2"))
        and elapsed < 60.0
    )
    announce(10, ok, f"off-peak ratios: diag {diag:.2f}, combined {combined:.2f}, "
                     f"singles {['%.2f' % v for v in singles.values()]}, {elapsed:.0f} s")
    for key in ("component_11", "component_22", "component_12"):
        assert diag < ratios[key]
    for key in ("polarization_1", "polarization_2"):
        assert combined < ratios[key]
    assert elapsed < 60.0


def test_criterion_11_example3d_localization(example3d_runs):
    truth = TRUTH["example3d"]
    details = []
    ok = True
    total = 0.0
    for tag in ("exact", "noisy"):
        report, elapsed = example3d_runs[tag]
        total += elapsed
        maxima = maxima_locations(combined_entry(report))
        matched = []
        for center in truth:
            cand = [np.linalg.norm(loc - center) for loc in maxima]
            matched.append(min(cand) if cand else np.inf)
        two_ok = len(maxima) >= 2 and all(d <= 0.2 for d in matched)
        details.append(f"{tag}: {len(maxima)} maxima, center dists {['%.2f' % d for d in matched]}")
        ok &= two_ok
    ok &= total < 600.0
    announce(11, ok, "; ".join(details) + f"; total {total:.0f} s (< 600)")
    for tag in ("exact", "noisy"):
        report, _ = example3d_runs[tag]
        maxima = maxima_locations(combined_entry(report))
        for center in truth:
            assert min(np.linalg.norm(loc - center) for loc in maxima) <= 0.2
    assert total < 600.0


def test_criterion_12_bit_identical_reruns(example1_runs, tmp_path):
    config = harness.preset("example1", noise=0.2, seed=1, out=str(tmp_path))
    report, _ = timed_run(config)
    first_dir = Path(example1_runs[1][0].config["outputs"]["directory"])
    identical = True
    compared = 0
    for path in sorted(first_dir.glob("*.csv")):
        other = tmp_path / path.name
        compared += 1
        identical &= other.exists() and other.read_bytes() == path.read_bytes()
    ok = identical and compared >= 3
    announce(12, ok, f"{compared} CSV outputs bit-identical across reruns: {identical}")
    assert compared >= 3
    assert identical
