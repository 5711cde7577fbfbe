"""Tests for ball summaries (``core._balls`` as ``certify`` reads it),
separation certificates and analytic bounds."""

import json
import math

import numpy as np
import pytest

from axiomlab.core import Dataset, Partition, _balls, _sq_dists
from axiomlab.kmeans import kmeans_ideal
from axiomlab.separation import (
    absolute_gap_bound,
    certify,
    motion_gap_bound,
    seeding_success,
)


def _line(*xs):
    return Dataset(np.array(xs, dtype=float)[:, None])


def _ball_1d(center, radius, size, rng):
    """1-d cluster with centroid exactly at `center` and max radius `radius`.

    Built from mirrored offset pairs (plus a center point for odd sizes),
    so the mean stays on the nominal center up to round-off.
    """
    inner = size - 2
    offs = [-radius, radius]
    for o in rng.uniform(0.0, radius, size=inner // 2):
        offs += [-o, o]
    if inner % 2:
        offs.append(0.0)
    return center + np.array(offs)


# ---------------------------------------------------------------------------
# ball summaries
# ---------------------------------------------------------------------------


def test_ball_summaries_basics():
    ds = Dataset([[0.0, 0.0], [2.0, 0.0], [-2.0, 0.0], [10.0, 10.0]])
    gamma = Partition([[0, 1, 2], [3]])
    cert = certify(ds, gamma)
    # the symmetric cluster's center is the origin and its radius 2; the
    # singleton's radius is 0, so the ball gap is the center distance less 2
    dist = math.hypot(10.0, 10.0)
    assert cert["pairwise_center_distances"][0][1] == pytest.approx(dist)
    assert cert["rho"] == pytest.approx(2.0)
    assert cert["absolute_actual"] == pytest.approx(dist - 2.0)
    # the bound weighs the radii by the sizes 3 and 1
    assert cert["absolute_required"] == absolute_gap_bound([3, 1], [2.0, 0.0])["bound"]


def test_ball_summaries_radius_matches_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(15):
        n = int(rng.integers(4, 12))
        ds = Dataset(rng.normal(size=(n, 3)))
        gamma = Partition([list(range(n - 2)), [n - 2, n - 1]])
        centers, radii = _balls(ds.points, gamma.clusters)
        for center, radius, block in zip(centers, radii, gamma.clusters):
            sub = ds.points[list(block)]
            mu = sub.mean(axis=0)
            brute = max(float(np.linalg.norm(x - mu)) for x in sub)
            assert radius == pytest.approx(brute, rel=1e-12)
            assert all(
                float(np.linalg.norm(x - center)) <= radius + 1e-12 for x in sub
            )


def _reference_balls(points, gamma):
    # the broadcast form the ball kernel replaced
    out = []
    for block in gamma.clusters:
        sub = points[list(block)]
        center = sub.mean(axis=0)
        radius = float(np.max(np.sqrt(np.sum((sub - center) ** 2, axis=1))))
        out.append((center, radius))
    return out


def _ball_cases():
    # m below 8, at 8 (numpy's eight accumulators) and above; half-integer
    # grids with repeated points, and spread-out floats
    rng = np.random.default_rng(71)
    for m in (1, 2, 3, 8, 9, 11):
        for t in range(40):
            n = int(rng.integers(2, 14))
            if t % 2:
                pts = rng.integers(-4, 5, size=(n, m)) / 2
            else:
                pts = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3)
            labels = rng.integers(0, 4, size=n)
            labels[:2] = (0, 1)  # at least two clusters
            yield Dataset(pts), Partition.from_labels(labels)


def test_ball_summaries_match_the_broadcast_form():
    for ds, gamma in _ball_cases():
        centers, radii = _balls(ds.points, gamma.clusters)
        for got, r, (center, radius) in zip(
                centers, radii, _reference_balls(ds.points, gamma)):
            assert np.array_equal(got, center) and r == radius


def test_certify_center_table_matches_the_broadcast_form():
    for ds, gamma in _ball_cases():
        centers = np.stack([c for c, _ in _reference_balls(ds.points, gamma)])
        want = np.sqrt(
            np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=-1))
        cert = certify(ds, gamma)
        assert np.array_equal(cert["pairwise_center_distances"], want)
        # the certificate is the dict it is saved as
        assert json.loads(json.dumps(cert)) == cert


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certify_two_unit_balls_four_apart():
    # boundary-inclusive: center distance exactly 4 max radius passes
    ds = _line(-1.0, 1.0, 3.0, 5.0)
    cert = certify(ds, Partition([[0, 1], [2, 3]]))
    assert cert["nice_ball"]
    assert cert["perfect_ball"]
    assert cert["rho"] == pytest.approx(1.0)
    assert cert["pairwise_center_distances"][0][1] == pytest.approx(4.0)


def test_certify_two_unit_balls_three_apart():
    ds = _line(-1.0, 1.0, 2.0, 4.0)
    cert = certify(ds, Partition([[0, 1], [2, 3]]))
    assert not cert["nice_ball"]
    assert not cert["perfect_ball"]
    assert cert["core"]
    assert cert["core_pairs"][0]["gap"] == pytest.approx(1.0)
    assert cert["core_pairs"][0]["core_radius"] == pytest.approx(0.5)


def test_certify_absolute_for_big_gap():
    # two 50-point unit-radius clusters with ball gap 6: the sufficient
    # bound evaluates to 2 sqrt(200) sqrt(100/2500) = 5.657 < 6
    rng = np.random.default_rng(71)
    a = _ball_1d(0.0, 1.0, 50, rng)
    b = _ball_1d(8.0, 1.0, 50, rng)
    ds = Dataset(np.concatenate([a, b])[:, None])
    gamma = Partition([range(50), range(50, 100)])
    cert = certify(ds, gamma)
    assert cert["absolute_required"] == pytest.approx(5.656854249492381, abs=1e-9)
    assert cert["absolute_actual"] == pytest.approx(6.0, abs=1e-9)
    assert cert["absolute_cases"]["case2"] == pytest.approx(2.449489742783178, abs=1e-9)
    assert list(cert) == [
        "nice_ball", "perfect_ball", "rho", "core", "core_pairs", "absolute",
        "absolute_required", "absolute_actual", "absolute_cases",
        "pairwise_center_distances"]
    assert json.loads(json.dumps(cert)) == cert and cert["absolute"] is True
    assert cert["absolute_cases"]["case1"] == cert["absolute_required"]


def _reference_certify(dataset, gamma):
    # the pair-by-pair loop the pair-list expressions replaced
    k = gamma.k
    centers, radii = _balls(dataset.points, gamma.clusters)
    radii = radii.tolist()
    dist = np.sqrt(_sq_dists(centers.T, centers))
    nice = True
    core = True
    core_pairs = []
    min_ball_gap = min_center_dist = np.inf
    for i in range(k):
        for j in range(i + 1, k):
            rho_pair = max(radii[i], radii[j])
            if dist[i, j] < 4.0 * rho_pair:
                nice = False
            gap = dist[i, j] - 2.0 * rho_pair
            core_pairs.append(
                {"pair": [i, j], "gap": float(gap), "core_radius": float(gap / 2.0)}
            )
            if gap <= 0.0:
                core = False
            ball_gap = dist[i, j] - radii[i] - radii[j]
            min_ball_gap = min(min_ball_gap, ball_gap)
            min_center_dist = min(min_center_dist, dist[i, j])
    rho = max(radii)
    bound = absolute_gap_bound([len(b) for b in gamma.clusters], radii)
    return {
        "nice_ball": nice,
        "perfect_ball": bool(min_center_dist >= 4.0 * rho),
        "rho": rho,
        "core": core,
        "core_pairs": core_pairs,
        "absolute": bool(min_ball_gap >= bound["bound"]),
        "absolute_required": bound["bound"],
        "absolute_actual": float(min_ball_gap),
        "absolute_cases": {"case1": bound["case1"], "case2": bound["case2"]},
        "pairwise_center_distances": dist.tolist(),
    }


def _certify_cases():
    rng = np.random.default_rng(97)
    # random clusterings, every third one on a half-integer grid (ties)
    for t in range(900):
        k = int(rng.integers(2, 7))
        n = k + int(rng.integers(0, 10))
        m = int(rng.integers(1, 4))
        if t % 3:
            pts = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-2, 2)
        else:
            pts = rng.integers(-3, 4, size=(n, m)) / 2
        labels = rng.integers(0, k, size=n)
        labels[:k] = range(k)  # k clusters, singletons among them
        yield Dataset(pts), Partition.from_labels(labels)
    # clusters {c - r, c + r} (r = 0: the single point c) on one axis, each
    # center exactly 4 max(r_A, r_B) past the one before
    for t in range(300):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        radii = rng.integers(0, 3, size=k) / 2
        centers = np.concatenate(
            [[0.0], np.cumsum(4.0 * np.maximum(radii[:-1], radii[1:]))])
        rows, labels = [], []
        for j, (c, r) in enumerate(zip(centers, radii)):
            for x in sorted({c - r, c + r}):
                rows.append([x] + [0.0] * (m - 1))
                labels.append(j)
        yield Dataset(rows), Partition.from_labels(labels)


def test_certify_matches_the_pairwise_loop():
    seen = {"nice": 0, "not nice": 0, "core": 0, "not core": 0, "singleton": 0}
    for ds, gamma in _certify_cases():
        got = certify(ds, gamma)
        assert json.dumps(got) == json.dumps(_reference_certify(ds, gamma))
        seen["nice" if got["nice_ball"] else "not nice"] += 1
        seen["core" if got["core"] else "not core"] += 1
        seen["singleton"] += any(len(b) == 1 for b in gamma.clusters)
    # every branch of the certificates is reached
    assert min(seen.values()) > 50, seen


def test_certify_validation():
    ds = _line(0.0, 1.0)
    with pytest.raises(ValueError):
        certify(ds, Partition([[0, 1]]))
    with pytest.raises(ValueError):  # the partition covers three points
        certify(ds, Partition([[0, 1], [2]]))
    # radii whose squares overflow float64 are named as Lloyd and seeding
    # name them, before absolute_gap_bound would refuse them as inf: the
    # gaps inf - inf would be NaN; so are finite radii whose center
    # distances overflow, which json.dumps would write as Infinity
    for far, gamma in [(_line(0.0, 1e200, 2e200, 3e200), [[0, 1], [2, 3]]),
                       (_line(0.0, 1e200, 2e200, -1e200), [[0, 1], [2, 3]]),
                       (_line(0.0, 1e200, 2e200, -1e200), [[0], [1, 2, 3]]),
                       (_line(0.0, 0.0, 1e200, 1e200), [[0, 1], [2, 3]])]:
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^squared distances overflow float64$"):
            certify(far, Partition(gamma))


# ---------------------------------------------------------------------------
# motion gap bound
# ---------------------------------------------------------------------------


def test_motion_gap_bound_equal_case():
    r = 1.7
    bound = motion_gap_bound(10, r, 10, r)
    assert bound == pytest.approx(r * (math.sqrt(3.0) - 1.0), abs=1e-12)


def test_motion_gap_bound_small_second_cluster_limit():
    bound = motion_gap_bound(10**9, 1.0, 1, 2.0)
    assert bound == pytest.approx(2.0 * math.sqrt(2.0) - 1.0, rel=1e-6)


def test_motion_gap_bound_floor_and_validation():
    assert motion_gap_bound(5, 100.0, 5, 1.0) == 0.0
    with pytest.raises(ValueError):
        motion_gap_bound(0, 1.0, 5, 1.0)
    with pytest.raises(ValueError):
        motion_gap_bound(5, -1.0, 5, 1.0)
    with pytest.raises(ValueError):
        motion_gap_bound(5, 1.0, 5, 0.0)
    # NaN and inf fail the checks instead of giving nan or a 0.0 floor
    for args in [(3, math.inf, 3, 1.0), (3, 1.0, 3, math.inf),
                 (math.nan, 1.0, 3, 1.0), (3, 1.0, math.inf, 1.0),
                 (3, math.nan, 3, 1.0), (3, 1.0, 3, math.nan)]:
        with pytest.raises(ValueError):
            motion_gap_bound(*args)


# ---------------------------------------------------------------------------
# absolute gap bound
# ---------------------------------------------------------------------------


def test_absolute_gap_bound_frozen_example():
    out = absolute_gap_bound([50, 50], [1.0, 1.0])
    assert out["case1"] == pytest.approx(5.656854249492381, abs=1e-12)
    assert out["case2"] == pytest.approx(2.449489742783178, abs=1e-12)
    assert out["bound"] == out["case1"]


def test_absolute_gap_bound_zero_radii_and_imbalance():
    assert absolute_gap_bound([3, 7], [0.0, 0.0])["bound"] == 0.0
    assert (
        absolute_gap_bound([18, 2], [1.0, 1.0])["case2"]
        > absolute_gap_bound([10, 10], [1.0, 1.0])["case2"]
    )
    with pytest.raises(ValueError):
        absolute_gap_bound([10, 10], [1.0])  # one radius short
    with pytest.raises(ValueError):
        absolute_gap_bound([10, 0], [1.0, 1.0])  # an empty cluster
    with pytest.raises(ValueError):
        absolute_gap_bound([10], [1.0])
    # a one-point cluster's radius 0 is legal; negative, NaN and inf are not
    assert absolute_gap_bound([1, 1], [0.0, 0.0])["bound"] == 0.0
    for radii in ([-1.0, 1.0], [math.nan, 1.0], [1.0, math.inf]):
        with pytest.raises(ValueError):
            absolute_gap_bound([2, 2], radii)
    for sizes in ([2, math.nan], [math.inf, 2]):
        with pytest.raises(ValueError):
            absolute_gap_bound(sizes, [1.0, 1.0])


# ---------------------------------------------------------------------------
# seeding success
# ---------------------------------------------------------------------------


def test_seeding_success_frozen_values():
    q = seeding_success(0.5, 2)
    assert q == pytest.approx(0.5)
    q = seeding_success(1.0 / 3.0, 3)
    assert q == pytest.approx(2.0 / 9.0)


def test_seeding_success_balanced_share_equals_factorial_ratio():
    # p = 1/k collapses the product to k!/k^k
    for k in (2, 3, 4):
        q = seeding_success(1.0 / k, k)
        assert q == pytest.approx(math.factorial(k) / k**k, rel=1e-12)


def test_seeding_success_validation():
    with pytest.raises(ValueError):
        seeding_success(0.6, 2)  # p > 1/k
    with pytest.raises(ValueError):
        seeding_success(0.0, 2)
    with pytest.raises(ValueError):
        seeding_success(0.5, 1)
    with pytest.raises(ValueError):
        seeding_success(math.nan, 3)
    with pytest.raises(ValueError):
        seeding_success(0.25, math.nan)


# ---------------------------------------------------------------------------
# absolute implies global (spot check; the full sweep runs in acceptance)
# ---------------------------------------------------------------------------


def test_absolute_certificate_implies_global_optimum():
    rng = np.random.default_rng(83)
    for _ in range(5):
        r = float(rng.uniform(0.5, 2.0))
        a = _ball_1d(0.0, r, 5, rng)
        b = _ball_1d(2.0 * r + 6.5 * r, r, 5, rng)
        ds = Dataset(np.concatenate([a, b])[:, None])
        gamma = Partition([range(5), range(5, 10)])
        cert = certify(ds, gamma)
        assert cert["absolute"]
        assert kmeans_ideal(ds, 2).partition == gamma
