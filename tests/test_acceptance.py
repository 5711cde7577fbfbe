"""Acceptance suite: one test per headline claim, with pinned tolerances.

Each test is self-contained and states its property, sample sizes, and
numeric tolerances explicitly, so a failure here points at a broken
guarantee rather than a broken helper.  Runtime ceilings are asserted
where a claim includes one.
"""

import math
import time

import numpy as np
import pytest

from axiomlab.constructions import (
    fixture_table,
    krich_line,
    rotated_segments,
    threshold_clustering,
    wing_partition,
)
from axiomlab.core import (
    Dataset,
    Partition,
    distance_matrix,
)
from axiomlab.harness import run_suite, variance_grid
from axiomlab.kmeans import (
    KMeansConfig,
    _increment,
    is_local_min,
    kmeans,
    kmeans_ideal,
    kmeans_ideal_minima,
    objective_q,
)
from axiomlab.separation import motion_gap_bound, seeding_success
from axiomlab.transforms import centric_matrix_transform, centric_transform, scale


def test_01_objective_dual_form_identity():
    """Centroid-scatter and size-weighted-pairwise forms of the objective
    agree to rel 1e-9 on 1000 random instances (n <= 50, m <= 5), < 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 6))
        pts = rng.normal(size=(n, m))
        k = int(rng.integers(1, min(n, 6) + 1))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        part = Partition.from_labels(labels)
        centroid_form = sum(
            float(((pts[list(b)] - pts[list(b)].mean(axis=0)) ** 2).sum())
            for b in part.clusters
        )
        pairwise_form = 0.0
        for b in part.clusters:
            sub = pts[list(b)]
            diff = sub[:, None, :] - sub[None, :, :]
            pairwise_form += float((diff ** 2).sum()) / (2.0 * len(b))
        assert centroid_form == pytest.approx(pairwise_form, rel=1e-9)
        assert objective_q(Dataset(pts), part) == pytest.approx(
            centroid_form, rel=1e-9)
    assert time.perf_counter() - start < 5.0


def test_02_single_point_move_identities():
    """The closed-form removal gain (n/(n-1))|x-mu|^2 and addition cost
    (n/(n+1))|x-mu|^2 match direct scatter recomputation to rel 1e-9 on
    1000 random single-point moves."""
    rng = np.random.default_rng(48)

    def scatter(block):
        return float(((block - block.mean(axis=0)) ** 2).sum())

    for _ in range(1000):
        n = int(rng.integers(4, 30))
        pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        half = int(rng.integers(2, n - 1))
        src, dst = pts[:half], pts[half:]
        i = int(rng.integers(half))

        gain_formula = half / (half - 1.0) * float(
            ((src[i] - src.mean(axis=0)) ** 2).sum())
        gain_direct = scatter(src) - scatter(np.delete(src, i, axis=0))
        assert gain_formula == pytest.approx(gain_direct, rel=1e-9, abs=1e-12)
        assert float(_increment(src[i], src.mean(axis=0), src.sum(axis=0),
                                half, -1)) == pytest.approx(
            gain_direct, rel=1e-9, abs=1e-12)

        nb = len(dst)
        cost_formula = nb / (nb + 1.0) * float(
            ((src[i] - dst.mean(axis=0)) ** 2).sum())
        cost_direct = scatter(np.vstack([dst, src[i]])) - scatter(dst)
        assert cost_formula == pytest.approx(cost_direct, rel=1e-9, abs=1e-12)
        assert float(_increment(src[i], dst.mean(axis=0), dst.sum(axis=0),
                                nb, +1)) == pytest.approx(
            cost_direct, rel=1e-9, abs=1e-12)


def test_03_exhaustive_optimum_is_scale_invariant():
    """The set of exhaustive global minimizers is identical under scaling
    by 0.1, 3, and 10 on 100 random instances (n <= 8, k in {2,3}), < 60 s."""
    start = time.perf_counter()
    for child in np.random.SeedSequence(23).spawn(100):
        rng = np.random.default_rng(child)
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        ds = Dataset(rng.normal(size=(n, int(rng.integers(1, 4)))))
        base = kmeans_ideal_minima(ds, k)
        for alpha in (0.1, 3.0, 10.0):
            assert kmeans_ideal_minima(scale(ds, alpha), k) == base
    assert time.perf_counter() - start < 60.0


def test_04_k_richness_of_the_exhaustive_and_sampled_optimisers():
    """Every cluster-size composition with n <= 9 is recovered exactly by
    the exhaustive optimiser from the line construction (100%), and a
    single uniformly seeded restart recovers balanced k-cluster lines at
    a rate >= k!/k^k minus 3 sigma over 10^4 trials for k in {2,3,4}."""
    recovered = 0
    for n in range(2, 10):
        stack = [(n, n - 1, ())]
        while stack:
            left, cap, acc = stack.pop()
            if left == 0:
                if len(acc) >= 2:
                    ds, part = krich_line(acc)
                    assert kmeans_ideal(ds, len(acc)).partition == part
                    recovered += 1
                continue
            for first in range(min(left, cap), 0, -1):
                stack.append((left - first, first, acc + (first,)))
    assert recovered == 87  # sum over n of (partition counts of n) - 1

    trials = 10000
    for k in (2, 3, 4):
        ds, part = krich_line((3,) * k)
        q = seeding_success(1.0 / k, k)
        hits = 0
        for child in np.random.SeedSequence(2026 + k).spawn(trials):
            cfg = KMeansConfig(k=k, seeding="uniform-random", restarts=1,
                               rng_seed=int(child.generate_state(1)[0]))
            if kmeans(ds, cfg).partition == part:
                hits += 1
        sigma = math.sqrt(q * (1.0 - q) / trials)
        assert hits / trials >= q - 3.0 * sigma


def test_05_centric_shrink_preserves_local_minima():
    """On 1 000 random instances (n <= 30): every Lloyd result that is a
    genuine single-point-move local minimum stays one after shrinking a
    random cluster about its centroid by 0.9, 0.5, and 0.1 (100%)."""
    checked = 0
    for child in np.random.SeedSequence(31).spawn(1000):
        rng = np.random.default_rng(child)
        n = int(rng.integers(6, 31))
        k = int(rng.integers(2, 4))
        ds = Dataset(rng.normal(size=(n, int(rng.integers(1, 4)))))
        cfg = KMeansConfig(k=k, seeding="uniform-random", restarts=1,
                           rng_seed=int(rng.integers(2 ** 31)))
        res = kmeans(ds, cfg)
        ok, _ = is_local_min(ds, res.partition)
        if not ok:
            continue
        checked += 1
        cluster = int(rng.integers(res.partition.k))
        for lam in (0.9, 0.5, 0.1):
            shrunk = centric_transform(ds, res.partition, cluster, lam)
            ok, witness = is_local_min(shrunk, res.partition)
            assert ok, witness
    # about half the Lloyd fixed points are genuine local minima (472 of
    # the 1 000 here)
    assert checked >= 450


def test_06_centric_shrink_preserves_the_global_minimum():
    """On 200 random instances (n <= 10, k in {2,3}) the exhaustive global
    minimizer stays in the argmin set after shrinking any one of its own
    clusters by 0.9, 0.5, or 0.1 (100%), in under 10 min."""
    start = time.perf_counter()
    for child in np.random.SeedSequence(17).spawn(200):
        rng = np.random.default_rng(child)
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, min(4, n)))
        ds = Dataset(rng.normal(size=(n, int(rng.integers(1, 4)))))
        best = kmeans_ideal(ds, k).partition
        cluster = int(rng.integers(best.k))
        for lam in (0.9, 0.5, 0.1):
            shrunk = centric_transform(ds, best, cluster, lam)
            assert best in kmeans_ideal_minima(shrunk, k)
    assert time.perf_counter() - start < 600.0


def test_07_four_rho_separation_never_leaks():
    """Monte Carlo over 1000 two-ball instances with centers >= 4 max(r_A,
    r_B) apart and one random seed per ball: the first assignment never
    crosses over and convergence keeps the ball partition (0 violations)."""
    rep = run_suite("separation-4rho", trials=1000)
    assert rep["passed"]
    assert rep["checks"][0]["trials"] == 1000
    assert rep["checks"][0]["violations"] == 0


def test_08_core_points_never_cross_at_two_rho_plus_g():
    """Monte Carlo over 1000 two-ball instances at center distance 2 rho
    + g with arbitrary in-ball seeds: no point within g/2 of a true center
    is ever assigned to the other seed (0 violations)."""
    rep = run_suite("core-preservation", trials=1000)
    assert rep["passed"]
    assert rep["checks"][0]["trials"] == 1000
    assert rep["checks"][0]["violations"] == 0


def test_09_motion_gap_bound_is_conservative():
    """The equal-cluster gap bound equals r(sqrt(3)-1) to 1e-12, and at
    gap exactly equal to the bound no takeover of up to half the second
    cluster is profitable, exhaustively over n1 + n2 <= 200 with the
    worst-case split placed at the facing edge."""
    for r in (0.5, 1.0, 2.5):
        assert abs(motion_gap_bound(10, r, 10, r) - r * (math.sqrt(3.0) - 1.0)) < 1e-12

    for n1 in range(1, 101):
        for n2 in range(2, 201 - n1):
            r1 = r2 = 1.0
            g = motion_gap_bound(n1, r1, n2, r2)
            for n21 in range(1, n2 // 2 + 1):
                n22 = n2 - n21
                r21 = r2
                r22 = n21 * r21 / n22  # center of mass stays put
                gain = (n1 * n21 / (n1 + n21)) * (r1 + r2 + g - r21) ** 2
                cost = n21 * r21 ** 2 + n22 * r22 ** 2
                assert gain >= cost - 1e-9, (n1, n2, n21)


def test_10_certified_absolute_instances_are_global_minima():
    """On at least 100 randomized instances (n <= 10) whose separation
    certificate reports the absolute condition, exhaustive search confirms
    the certified partition is the global minimum in 100% of cases."""
    rep = run_suite("absolute-global", trials=110)
    assert rep["passed"]
    assert rep["checks"][0]["trials"] >= 100  # certified instances actually hit
    assert rep["checks"][0]["violations"] == 0


# Signed coordinates of the six-point table: the third axis is imaginary,
# so it enters every squared distance with a minus sign.
SIX_POINT_COORDS = np.array(
    [
        [5.0, 10.0, 1.0],
        [-5.0, 10.0, 1.0],
        [2.0, 10.0, -1.0],
        [5.0, -10.0, 1.0],
        [-5.0, -10.0, 1.0],
        [2.0, -10.0, -1.0],
    ]
)
SIX_POINT_SIGNS = np.array([1.0, 1.0, -1.0])


def test_11_six_point_table_is_not_euclidean_yet_has_tiny_objective():
    """The bundled six-point table violates the triangle inequality with
    first witness (0, 2, 1); its double-centered spectrum has a negative
    eigenvalue below -1, and above 1e-4 of the largest |eigenvalue| exactly
    three axes remain, signed (+1, +1, -1); the signed coordinates rebuild
    the table within 1e-3; the signed-geometry objective gives 100 (+-1)
    for the natural triples and 6e-6 (+-1e-4) for the printed pairing with
    its imaginary centers."""
    d = fixture_table().values
    n = d.shape[0]

    # d(i,k) + d(k,j) < d(i,j), with a 1e-12 relative slack, at the first
    # distinct (i, j, k) in i, j, k order
    lhs = d[:, None, :] + d.T[None, :, :]  # [i, j, k] = d(i,k) + d(k,j)
    eye = np.eye(n, dtype=bool)
    distinct = ~(eye[:, :, None] | eye[:, None, :] | eye[None, :, :])
    bad = distinct & (lhs < d[:, :, None] * (1.0 - 1e-12))
    i, j, k = np.argwhere(bad)[0]
    assert (i, k, j) == (0, 2, 1)
    assert lhs[i, j, k] < d[i, j]

    center = np.eye(n) - 1.0 / n
    spectrum = np.linalg.eigvalsh(-0.5 * center @ (d * d) @ center)
    assert spectrum[0] < -1.0
    # the table is printed with three decimals: judge above rounding noise
    kept = spectrum[np.abs(spectrum) > 1e-4 * np.abs(spectrum).max()]
    kept = kept[np.argsort(-np.abs(kept))]
    assert np.sign(kept).tolist() == [1.0, 1.0, -1.0]

    x, signs = SIX_POINT_COORDS, SIX_POINT_SIGNS
    diff = x[:, None, :] - x[None, :, :]
    rebuilt = np.sqrt(np.clip((diff * diff) @ signs, 0.0, None))
    assert np.abs(rebuilt - d).max() < 1e-3

    def signed_objective(blocks, centers):
        return sum(float(np.sum(((x[b] - c) ** 2) @ signs))
                   for b, c in zip(blocks, centers))

    triples = [[0, 1, 2], [3, 4, 5]]
    q_triples = signed_objective(triples, [x[b].mean(axis=0) for b in triples])
    assert q_triples == pytest.approx(100.0, abs=1.0)
    q_pairs = signed_objective(
        [[0, 1, 3, 4], [2, 5]],
        [[0.0, 0.0, 1.0 - math.sqrt(125.0)], [0.0, 0.0, math.sqrt(104.0) - 1.0]])
    assert q_pairs == pytest.approx(6e-6, abs=1e-4)


def test_12_wing_rotation_shifts_the_sampled_optimum():
    """With 100 restarts: the flat segment cross splits into its wings
    (explained variance 0.40 +- 0.03, centers (+-17, 0, 0) +- 1.5); the
    rotated variant moves the optimum (explained variance 0.59 +- 0.03,
    cluster sizes 1800/2200 +- 100).  Under 30 s."""
    start = time.perf_counter()
    cfg = KMeansConfig(k=2, seeding="plus-plus", restarts=100, rng_seed=11)

    flat = rotated_segments(False, points_per_segment=1000, rng=11)
    res = kmeans(flat, cfg)
    assert res.explained_variance == pytest.approx(0.40, abs=0.03)
    assert res.partition == wing_partition(1000)
    by_x = res.centers[np.argsort(res.centers[:, 0])]
    assert np.allclose(by_x[0], [-17.0, 0.0, 0.0], atol=1.5)
    assert np.allclose(by_x[1], [17.0, 0.0, 0.0], atol=1.5)

    rot = rotated_segments(True, points_per_segment=1000, rng=11)
    res = kmeans(rot, cfg)
    assert res.explained_variance == pytest.approx(0.59, abs=0.03)
    sizes = sorted(len(c) for c in res.partition.clusters)
    assert abs(sizes[0] - 1800) <= 100
    assert abs(sizes[1] - 2200) <= 100
    assert time.perf_counter() - start < 30.0


def test_13_variance_grid_lands_within_all_bands():
    """All 15 cells of the measured explained-variance grid (k = 2..6 for
    the original mixture, its two-group collapse, and its centric shrink)
    fall within the allowed bands: +-3 points for original and centric,
    +-1 for the collapse column.  The reference mixture behind the targets
    is unpublished, so this is a tolerance comparison, not an exact one."""
    grid = variance_grid()
    assert len(grid["rows"]) == 15
    off = ["%s k=%d dev %+0.2f" % (r["regime"], r["k"], r["deviation"])
           for r in grid["rows"] if not r["within"]]
    assert grid["all_within"], "out-of-band cells: %s" % ", ".join(off)


def test_14_interference_witness_holds():
    """The four-point witness stands: a legal within-shrink/cross-stretch
    followed by rescaling to the original diameter leaves one cross-cluster
    pair strictly closer than it ever was."""
    rep = run_suite("interference")
    assert rep["passed"]
    assert len(rep["witnesses"]) == 1
    w = rep["witnesses"][0]
    assert w["params"]["after"] < w["params"]["before"]
    # independent replay of the recorded numbers
    d_before = distance_matrix(Dataset(np.array(w["points"])))
    d_moved = distance_matrix(Dataset(np.array(w["params"]["moved_points"])))
    i, j = w["params"]["pair"]
    assert w["params"]["alpha"] * d_moved.values[i, j] < d_before.values[i, j]


def test_15_threshold_clustering_conforms_on_random_lines():
    """Threshold clustering is scale-invariant and centric-consistent on
    500 random 1-D instances: the partition never changes under scaling
    by 0.1, 3, or 10, nor under distance-level shrinks of any of its own
    multi-point clusters by 0.9, 0.5, or 0.1."""
    shrink_checks = 0
    for child in np.random.SeedSequence(99).spawn(500):
        rng = np.random.default_rng(child)
        n = int(rng.integers(4, 25))
        ds = Dataset(np.sort(rng.uniform(0.0, 1.0, n))[:, None])
        part = threshold_clustering(ds)
        for alpha in (0.1, 3.0, 10.0):
            assert threshold_clustering(scale(ds, alpha)) == part

        d = distance_matrix(ds)
        assert threshold_clustering(d) == part
        big = [i for i, c in enumerate(part.clusters) if len(c) >= 2]
        if not big:
            continue
        cluster = big[int(rng.integers(len(big)))]
        for lam in (0.9, 0.5, 0.1):
            shrunk = centric_matrix_transform(d, part, cluster, lam)
            assert threshold_clustering(shrunk) == part
            shrink_checks += 1
    assert shrink_checks > 1000
