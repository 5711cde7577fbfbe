"""Tests for the k-means objective, Lloyd iteration and optimisers.

Small fixtures are hand-checked; the exhaustive optimiser is verified
against an independent brute-force route (full partition enumeration plus
the two-route objective).  The O(n^2) pairwise form of the objective, the
per-restart ``lloyd`` loop, the scalar single-point-move scan, the numpy
branch-and-bound walk, and Lloyd's broadcast assignment, per-cluster mask
statistics and row-major k-means++ seeding live here as oracles for the
faster routes the package uses.
"""

import ast
import itertools
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import pdist

import axiomlab
from axiomlab import core
from axiomlab.constructions import gaussian_mixture, rotated_segments
from axiomlab.core import (
    CrossCheckError,
    Dataset,
    Partition,
    _sq_dists,
)
from axiomlab.kmeans import (
    REL_TOL,
    ClusteringResult,
    KMeansConfig,
    explained_variance,
    is_local_min,
    kmeans,
    kmeans_ideal,
    kmeans_ideal_minima,
    lloyd,
    objective_q,
    seed,
)
from axiomlab import kmeans as kmeans_module
from axiomlab.kmeans import (
    _FLOAT_ROUTE_MAX,
    _assign_arrays,
    _cluster_stats,
    _dive,
    _fix_empty_clusters,
    _ideal_search,
    _increment,
    _lloyd_core,
    _pick,
    _seed,
)
from brute_force import enumerate_partitions, exact_minima, exact_q
from dp_1d import kmeans_1d


def _line(*xs):
    return Dataset(np.array(xs, dtype=float)[:, None])


# ---------------------------------------------------------------------------
# config and result types
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        KMeansConfig(k=1)
    with pytest.raises(ValueError):
        KMeansConfig(k=2, seeding="fancy")
    with pytest.raises(ValueError):
        KMeansConfig(k=2, restarts=0)
    cfg = KMeansConfig(k=3, restarts=5, rng_seed=42)
    assert cfg.seeding == "plus-plus"


def test_left_out_seeds_never_draw_os_entropy():
    # a generator needs its seed; k-means without one runs at seed 0
    with pytest.raises(TypeError):
        gaussian_mixture()
    with pytest.raises(TypeError):
        rotated_segments(False, points_per_segment=3)
    ds = rotated_segments(True, points_per_segment=20, rng=4)
    a, b = (kmeans(ds, KMeansConfig(k=2, restarts=3)) for _ in range(2))
    assert a.partition == b.partition and a.q == b.q
    assert a.q == kmeans(ds, KMeansConfig(k=2, restarts=3, rng_seed=0)).q


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_hand_value():
    # {0,1} has scatter 0.5, {10,11} has scatter 0.5
    ds = _line(0.0, 1.0, 10.0, 11.0)
    q = objective_q(ds, Partition([[0, 1], [2, 3]]))
    assert q == pytest.approx(1.0, abs=1e-12)
    # single cluster: mean 5.5, deviations (5.5, 4.5, 4.5, 5.5)
    assert objective_q(ds, Partition([[0, 1, 2, 3]])) == pytest.approx(101.0)
    with pytest.raises(ValueError):
        objective_q(ds, Partition([[0, 1], [2]]))


def pairwise_q(ds, part):
    """Oracle: per cluster, all squared point-point distances over its size."""
    return sum(
        float(np.sum(pdist(ds.points[list(b)], "sqeuclidean"))) / len(b)
        for b in part.clusters if len(b) > 1
    )


def test_objective_dual_forms_agree_on_random_data():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        m = int(rng.integers(1, 5))
        ds = Dataset(rng.normal(size=(n, m)) * rng.uniform(0.1, 10))
        labels = rng.integers(0, 3, size=n)
        labels[:3] = [0, 1, 2]
        part = Partition.from_labels(labels)
        q = objective_q(ds, part)  # raises if the two routes disagree
        direct = sum(
            float(np.sum((ds.points[list(b)] - ds.points[list(b)].mean(0)) ** 2))
            for b in part.clusters
        )
        assert q == pytest.approx(direct, rel=1e-12)
        assert q == pytest.approx(pairwise_q(ds, part), rel=1e-9)


def test_objective_survives_data_far_from_the_origin():
    # about the origin, sum |x|^2 - |sum x|^2 / n cancels ~1e12 against
    # ~1e12 here; the shifted route must not trip the cross-check
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 5))
        ds = Dataset(rng.normal(size=(n, m)) + 1e6)
        labels = rng.integers(0, 3, size=n)
        labels[: min(n, 3)] = np.arange(min(n, 3))
        part = Partition.from_labels(labels)
        assert objective_q(ds, part) == pytest.approx(
            pairwise_q(ds, part), rel=1e-9)


def test_explained_variance():
    ds = _line(0.0, 1.0, 10.0, 11.0)
    part = Partition([[0, 1], [2, 3]])
    tss = float(np.sum((ds.points - ds.points.mean(0)) ** 2))
    assert explained_variance(ds, part) == pytest.approx(1.0 - 1.0 / tss)
    # all-coincident data: zero total scatter counts as fully explained
    same = Dataset([[2.0], [2.0], [2.0]])
    assert explained_variance(same, Partition([[0, 1], [2]])) == 1.0
    with pytest.raises(TypeError):
        explained_variance(ds, "not a result")


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_seed_uniform_random_without_replacement():
    ds = _line(0.0, 1.0, 2.0, 3.0, 4.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        centers = seed(ds, 3, "uniform-random", rng)
        assert centers.shape == (3, 1)
        assert len(np.unique(centers)) == 3  # distinct indices, distinct values


def test_seed_plus_plus_prefers_far_points():
    # two coincident points and one far away: whatever the first pick is,
    # the chosen pair of values is always {0, 10}
    ds = _line(0.0, 0.0, 10.0)
    for s in range(50):
        centers = seed(ds, 2, "plus-plus", np.random.default_rng(s))
        assert sorted(centers.ravel().tolist()) == [0.0, 10.0]


def test_seed_all_points_when_k_equals_n():
    ds = _line(3.0, 1.0, 2.0)
    for strategy in ("uniform-random", "plus-plus"):
        centers = seed(ds, 3, strategy, np.random.default_rng(1))
        assert np.array_equal(centers, ds.points)


def _pick_weights():
    """10 000 weight vectors a plus-plus pick can meet: n from 2 to 5 000
    (log-uniform), some entries zero, a single non-zero entry, and weights
    from 1e-150 to 1e150, on one scale or spread over all of them."""
    rng = np.random.default_rng(29)
    for i in range(10_000):
        n = int(round(2 * 2500 ** rng.random())) if i > 1 else (2, 5000)[i]
        scale = 10.0 ** rng.uniform(-150, 150)
        kind = i % 4
        if kind == 0:
            w = rng.random(n) * scale
        elif kind == 1:
            w = 10.0 ** rng.uniform(-150, 150, size=n)
        elif kind == 2:
            w = rng.integers(0, 3, size=n) * scale  # exact ties in the sums
        else:
            w = np.zeros(n)
        w[rng.random(n) < rng.random()] = 0.0
        w[rng.integers(n)] = scale  # at least one non-zero weight
        yield w


@pytest.mark.pinned
def test_plus_plus_pick_is_rng_choice():
    # the written-out pick takes rng.choice's index and leaves the
    # generator where choice leaves it; a p that does not sum to 1 is
    # refused by both
    def same(w, total, rng_seed):
        mine, theirs = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
        assert _pick(w, total, mine) == int(theirs.choice(len(w), p=w / total))
        assert mine.random() == theirs.random()
    singles = 0
    for i, w in enumerate(_pick_weights()):
        same(w, float(w.sum()), i)
        singles += np.count_nonzero(w) == 1
    assert singles > 2500
    # the draw u lands on a step of the cdf, where the search must take
    # the right side, or between a step and its value before the cdf is
    # divided by its last entry (p sums to 1 - 1e-8, which choice allows)
    draws = [(i, np.random.default_rng(i).random()) for i in range(400)]
    for i, u in [(i, u) for i, u in draws if u >= 0.5]:  # 1 - u is exact
        same(np.array([0.0, u, 0.0, 1.0 - u]), 1.0, i)
        w = np.array([u * (1.0 + 5e-9), 1.0 - u * (1.0 + 5e-9)])
        same(w, float(w.sum()) * (1.0 + 1e-8), i)
    with pytest.raises(ValueError, match="probabilities do not sum to 1"):
        _pick(w, 2.0 * float(w.sum()), np.random.default_rng(0))
    with pytest.raises(ValueError, match="Probabilities do not sum to 1"):
        np.random.default_rng(0).choice(len(w), p=w / (2.0 * float(w.sum())))


def _plus_plus_cases():
    """(dataset, k) on both Lloyd routes: random points, a half-integer
    grid with repeated points, coincident points (the total == 0 pick)
    and k == n."""
    rng = np.random.default_rng(43)
    for n, m in [(6, 2), (12, 3), (21, 3), (64, 1), (65, 1), (300, 2), (4000, 3)]:
        yield Dataset(rng.normal(size=(n, m))), int(rng.integers(2, min(6, n) + 1))
        yield Dataset(rng.integers(-3, 4, size=(n, m)) / 2), int(rng.integers(2, 7))
    yield Dataset([[1.0, 2.0]] * 7), 3
    yield Dataset([[0.0]] * 5 + [[4.0]] * 5), 4
    yield Dataset(np.r_[np.zeros((40, 2)), np.ones((40, 2))]), 3
    yield Dataset(rng.normal(size=(5, 2))), 5
    yield Dataset(rng.normal(size=(40, 2))), 40


def test_seed_tables_change_no_kmeans_result():
    # a plus-plus seeding's table is _sq_dists of its centers, byte for
    # byte, and results with it are those of the same starts with the
    # first table made again
    def without_table(*args):
        return _seed(*args)[0], None
    met = []
    def counting(*args):
        run = _lloyd_core(*args)
        met.append(run is None)
        return run
    for ds, k in _plus_plus_cases():
        centers, table = _seed(ds, k, "plus-plus", np.random.default_rng(k))
        assert (table is None) == (k == ds.n)
        if table is not None:
            assert table.tobytes() == _sq_dists(ds.columns, centers).tobytes()
        for restarts, rng_seed in itertools.product((1, 10), (0, 1)):
            config = KMeansConfig(k=k, restarts=restarts, rng_seed=rng_seed)
            with mock.patch.object(kmeans_module, "_lloyd_core", counting):
                got = kmeans(ds, config)
            with mock.patch.object(kmeans_module, "_seed", without_table):
                want = kmeans(ds, config)
            assert_same_result(got, want)
            assert got.centers.tobytes() == want.centers.tobytes()
    assert any(met)


def test_seed_validation():
    ds = _line(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        seed(ds, 1, "plus-plus", np.random.default_rng(0))
    with pytest.raises(ValueError):
        seed(ds, 4, "plus-plus", np.random.default_rng(0))
    with pytest.raises(ValueError):
        seed(ds, 2, "fancy", np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Lloyd
# ---------------------------------------------------------------------------


def test_lloyd_two_pairs():
    ds = _line(0.0, 1.0, 10.0, 11.0)
    res = lloyd(ds, [[0.0], [10.0]])
    assert res.partition == Partition([[0, 1], [2, 3]])
    assert res.q == pytest.approx(1.0, abs=1e-12)
    assert res.converged
    assert res.iterations == 1  # membership never changes after the start
    assert np.allclose(res.centers, [[0.5], [10.5]])
    # k is the number of centers, 2 <= k <= n
    for centers in ([[0.0]], [[0.0]] * 5):
        with pytest.raises(ValueError, match="need 2 <= k <= n"):
            lloyd(ds, centers)
    # a non-finite center would lose every comparison and be refilled by
    # the empty-cluster repair, so it is refused
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            lloyd(ds, [[bad], [0.0]])


def test_lloyd_centers_are_cluster_means_in_canonical_order():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ds = Dataset(rng.normal(size=(12, 2)))
        res = kmeans(ds, KMeansConfig(k=3, rng_seed=int(rng.integers(1 << 30))))
        for center, block in zip(res.centers, res.partition.clusters):
            assert np.allclose(center, ds.points[list(block)].mean(axis=0))


def test_lloyd_handles_empty_cluster_by_reseeding_farthest():
    # every point is nearer the first center, so the second cluster comes
    # up empty and gets the farthest point (index 0) re-homed into it; no
    # repair would leave one cluster of all three
    pts = np.array([[0.0], [1.0], [10.0]])
    means, scatters, members, updates, converged = _lloyd_core(
        Dataset(pts), np.array([[100.0], [200.0]])
    )
    assert converged
    assert sorted(map(len, members)) == [1, 2]
    # the returned statistics belong to the final labelling
    for j in range(2):
        mine = pts[members[j]]
        assert np.array_equal(means[j], mine.mean(axis=0))
        assert scatters[j] == float(np.sum((mine - mine.mean(axis=0)) ** 2))
    assert sorted(np.concatenate(members).tolist()) == [0, 1, 2]
    res = lloyd(Dataset(pts), [[100.0], [200.0]])
    assert res.partition == Partition([[0, 1], [2]])


def test_empty_cluster_repair_moves_the_farthest_eligible_point():
    # clusters 2 and 3 are empty.  Point 3 is farthest from its center
    # (30 away) but alone in cluster 1, so it is skipped; the repair takes
    # point 2 (5 from center 0), then point 1, the farther of the two left
    # in cluster 0.  Re-homing the nearest eligible point would take 0.
    pts = np.array([[0.0], [1.0], [5.0], [130.0]])
    centers = np.array([[0.0], [100.0], [50.0], [70.0]])
    labels = np.array([0, 0, 0, 1])
    d2 = _sq_dists(Dataset(pts).columns, centers)
    _fix_empty_clusters(d2, labels, 4)
    assert labels.tolist() == [0, 3, 2, 1]
    # nothing empty, nothing moved
    _fix_empty_clusters(d2, labels, 4)
    assert labels.tolist() == [0, 3, 2, 1]


def test_lloyd_iteration_cap(monkeypatch):
    monkeypatch.setattr(kmeans_module, "_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(9)
    ds = Dataset(rng.normal(size=(40, 2)))
    res = lloyd(ds, ds.points[:4])
    assert res.iterations == 1
    # capped runs may or may not have converged, but the result is still
    # internally consistent
    for center, block in zip(res.centers, res.partition.clusters):
        assert np.allclose(center, ds.points[list(block)].mean(axis=0))


def test_kmeans_restarts_reproducible():
    rng = np.random.default_rng(17)
    ds = Dataset(rng.normal(size=(30, 2)))
    cfg = KMeansConfig(k=3, seeding="uniform-random", restarts=7, rng_seed=123)
    a = kmeans(ds, cfg)
    b = kmeans(ds, cfg)
    assert a.partition == b.partition
    assert np.array_equal(a.centers, b.centers)
    assert a.q == b.q


def per_restart_results(ds, cfg):
    """Oracle: a full ``lloyd`` result for every restart, in order."""
    out = []
    for child in np.random.SeedSequence(cfg.rng_seed).spawn(cfg.restarts):
        centers = seed(ds, cfg.k, cfg.seeding, np.random.default_rng(child))
        out.append(lloyd(ds, centers))
    return out


def first_best(results):
    best = results[0]
    for res in results[1:]:
        if res.q < best.q:
            best = res
    return best


@pytest.mark.parametrize("seeding", ["uniform-random", "plus-plus"])
@pytest.mark.parametrize("restarts", [1, 2, 7])
def test_kmeans_equals_per_restart_lloyd_loop(seeding, restarts):
    rng = np.random.default_rng(restarts)
    for _ in range(8):
        n = int(rng.integers(6, 40))
        k = int(rng.integers(2, 5))
        ds = Dataset(rng.normal(size=(n, int(rng.integers(1, 4)))) * 3.0)
        cfg = KMeansConfig(k=k, seeding=seeding, restarts=restarts,
                           rng_seed=int(rng.integers(1 << 30)))
        got = kmeans(ds, cfg)
        want = first_best(per_restart_results(ds, cfg))
        assert got.partition == want.partition
        assert got.q == want.q
        assert got.explained_variance == want.explained_variance
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert np.array_equal(got.centers, want.centers)


@pytest.mark.parametrize("seeding", ["uniform-random", "plus-plus"])
@pytest.mark.parametrize("rng_seed", [0, 2**32 + 1, 2**63, 2**64 + 5])
def test_kmeans_restart_streams_hold_at_large_seeds(seeding, rng_seed):
    # kmeans builds restart i's generator from its spawn key; the oracle
    # spawns children off SeedSequence(rng_seed) and calls default_rng
    rng = np.random.default_rng(rng_seed % 1000)
    for n, m in ((12, 2), (30, 3)):  # n * m below and above the cutoff
        assert (n * m <= _FLOAT_ROUTE_MAX) == (n == 12)
        ds = Dataset(rng.normal(size=(n, m)))
        for restarts in (1, 3, 12):
            cfg = KMeansConfig(k=3, seeding=seeding, restarts=restarts,
                               rng_seed=rng_seed)
            got = kmeans(ds, cfg)
            want = first_best(per_restart_results(ds, cfg))
            assert (got.partition, got.q, got.iterations) == (
                want.partition, want.q, want.iterations)
            assert np.array_equal(got.centers, want.centers)


def test_kmeans_exact_tie_keeps_the_first_restart():
    # unit square, k=2: top/bottom and left/right both cost exactly 1.0
    square = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tied = 0
    for rng_seed in range(40):
        cfg = KMeansConfig(k=2, seeding="uniform-random", restarts=6,
                           rng_seed=rng_seed)
        results = per_restart_results(square, cfg)
        optima = [r for r in results if r.q == 1.0]
        if len({r.partition for r in optima}) < 2:
            continue
        tied += 1
        got = kmeans(square, cfg)
        assert got.q == 1.0
        assert got.partition == optima[0].partition
    assert tied >= 5  # the tie is actually exercised


# ---------------------------------------------------------------------------
# exhaustive optimisation
# ---------------------------------------------------------------------------


def brute_force_best(ds, k):
    best_q, best_p = np.inf, None
    for p in enumerate_partitions(ds.n, k=k):
        q = objective_q(ds, p)
        if q < best_q:
            best_q, best_p = q, p
    return best_q, best_p


def test_kmeans_ideal_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(4, 8))
        k = int(rng.integers(2, 4))
        if k > n:
            continue
        ds = Dataset(rng.normal(size=(n, 2)))
        res = kmeans_ideal(ds, k)
        bq, bp = brute_force_best(ds, k)
        assert res.q == pytest.approx(bq, rel=1e-12)
        assert res.partition == bp
        assert res.converged


def _reference_ideal_search(dataset, k, collect_tol=None, dive=True):
    """The branch-and-bound walk on numpy rows that ``_ideal_search``
    replaced, as its oracle, under the same rules: each child is tested,
    and each leaf scored, in its parent's loop before anything is entered;
    an entered child's cluster gets a new sum array and the old one goes
    back on return; and with collect_tol (unless ``dive`` is False) the
    bound starts at the widened leaf of a greedy dive."""
    pts = dataset.points
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n, got k=%d, n=%d" % (k, n))

    counts = [0] * k
    sums = [np.zeros(pts.shape[1]) for _ in range(k)]
    rgs = [0] * n
    state = {"best_q": np.inf, "best_rgs": None, "leaves": 0, "near": []}

    # the least objective a tolerance is taken of: eps * (largest |coordinate|)^2
    floor = np.finfo(float).eps * np.max(np.abs(pts)) ** 2

    def widen(q):
        return q + collect_tol * max(q, floor)

    def delta(c, s, x):
        # the cost of adding x to a cluster of c points with sum s
        return 0.0 if c == 0 else c / (c + 1) * float(np.sum((x - s / c) ** 2))

    def children(i, used):
        # a new cluster only, once every point left must open one
        return [used] if used + (n - i) == k else range(min(used + 1, k))

    start = np.inf
    if collect_tol is not None and dive:
        d_counts, d_sums, total, used = [0] * k, list(sums), 0.0, 0
        for i, x in enumerate(pts):
            j = min(children(i, used), key=lambda j: delta(d_counts[j], d_sums[j], x))
            total += delta(d_counts[j], d_sums[j], x)
            d_counts[j] += 1
            d_sums[j] = d_sums[j] + x
            used = max(used, j + 1)
        if total < np.inf:
            start = widen(total)

    def bound():
        if state["best_rgs"] is None:
            return start
        incumbent = state["best_q"]
        if collect_tol is None:
            return incumbent
        return min(start, widen(incumbent))

    def rec(i, used, partial):
        for j in children(i, used):
            x = pts[i]
            child_partial = partial + delta(counts[j], sums[j], x)
            if child_partial > bound():
                continue
            rgs[i] = j
            if i == n - 1:
                state["leaves"] += 1
                if child_partial < state["best_q"]:
                    state["best_q"] = child_partial
                    state["best_rgs"] = rgs.copy()
                if collect_tol is not None:
                    state["near"].append((child_partial, rgs.copy()))
                continue
            counts[j] += 1
            old = sums[j]
            sums[j] = old + x
            rec(i + 1, max(used, j + 1), child_partial)
            counts[j] -= 1
            sums[j] = old

    rec(0, 0, 0.0)
    if state["best_rgs"] is None:
        raise ValueError("every partition's objective overflows float64")
    return state["best_rgs"], state["best_q"], state["leaves"], state["near"]


# halves on a small grid force ties and repeated points; the wide floats
# exercise rounding over six decades
_GRID_COORD = st.integers(-4, 4).map(lambda v: v / 2)
_WIDE_COORD = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


@st.composite
def _search_instance(draw, dims, coords):
    m = draw(dims)
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, min(4, n)))
    coord = draw(st.sampled_from(coords))
    rows = draw(st.lists(st.lists(coord, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    collect_tol = draw(st.sampled_from([None, 1e-9]))
    return Dataset(rows), k, collect_tol


# twelve half-integer grid points with repeats: two blobs of six, with
# four optimal partitions at k = 3 and at k = 4
_TIED_12 = Dataset([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5],
                    [0.0, 0.0], [0.5, 0.5], [2.0, 0.0], [2.5, 0.0],
                    [2.0, 0.5], [2.5, 0.5], [2.0, 0.0], [2.5, 0.5]])


def _cap_cases():
    """Twelve searches at n = 12, the default cap, where the suites and the
    exact benchmark search (the strategy draws n <= 9): for k = 2..4 and
    m = 1..3, normal points with axes scaled over 1e-3 .. 1e3, whose sums
    round (the walk's sums must not depend on the order it entered
    subtrees in), then ``_TIED_12`` at k = 2..4."""
    rng = np.random.default_rng(12)
    cases = [(Dataset(rng.normal(size=(12, m))
                      * 10.0 ** rng.uniform(-3, 3, size=m)), k)
             for k in (2, 3, 4) for m in (1, 2, 3)]
    return cases + [(_TIED_12, k) for k in (2, 3, 4)]


# the walk keeps the first three axes apart from the rest: at m = 3 and
# m = 4, -0.0 beside 0.0 in every axis, and coincident points
_SIGNED_ZEROS = [[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, 1.0, 0.0],
                 [0.5, -0.0, -0.0, 2.0], [0.0, 0.0, 1.0, -0.0],
                 [-0.5, 0.5, 0.0, 0.5], [-0.0, -0.0, -0.0, -0.0]]
_LAYOUT_EDGES = [(Dataset([row[:m] for row in _SIGNED_ZEROS]), k)
                 for m in (3, 4) for k in (1, 2, 3)]


def _at_the_cap(test):
    """Add :func:`_cap_cases` and ``_LAYOUT_EDGES`` as explicit examples,
    with and without collect_tol."""
    for ds, k in _cap_cases() + _LAYOUT_EDGES:
        for collect_tol in (None, 1e-9):
            test = example((ds, k, collect_tol))(test)
    return test


def _minima_from_inf(ds, k):
    """The oracle walk's minima with the bound started at inf, not at a
    dive, cut as kmeans_ideal_minima cuts them."""
    _, q, _, near = _reference_ideal_search(ds, k, REL_TOL, dive=False)
    cut = q + REL_TOL * max(q, np.finfo(float).eps * np.max(np.abs(ds.points)) ** 2)
    return [Partition.from_labels(np.asarray(r)) for p, r in near if p <= cut]


@settings(max_examples=200, derandomize=True, deadline=None)
@_at_the_cap
@given(_search_instance(st.integers(1, 7), [_GRID_COORD, _WIDE_COORD]))
def test_ideal_search_matches_numpy_walk(instance):
    # same float operations in the same order up to m = 7: every prune,
    # leaf, incumbent and near-optimum partial sum is equal bit for bit
    ds, k, collect_tol = instance
    assert (_ideal_search(ds, k, collect_tol)
            == _reference_ideal_search(ds, k, collect_tol))
    if collect_tol is not None:
        assert kmeans_ideal_minima(ds, k) == _minima_from_inf(ds, k)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_search_instance(st.sampled_from([8, 11]), [_WIDE_COORD]))
def test_ideal_search_wide_points_match_numpy_walk(instance):
    # numpy sums eight or more axes pairwise, so partial sums may differ
    # in the last bit, but the walk and its result must not
    ds, k, collect_tol = instance
    rgs, q, leaves, near = _ideal_search(ds, k, collect_tol)
    ref_rgs, ref_q, ref_leaves, ref_near = _reference_ideal_search(
        ds, k, collect_tol)
    assert (rgs, leaves) == (ref_rgs, ref_leaves)
    assert q == pytest.approx(ref_q, rel=1e-12)
    assert [r for _, r in near] == [r for _, r in ref_near]
    for (p, _), (ref_p, _) in zip(near, ref_near):
        assert p == pytest.approx(ref_p, rel=1e-12)


def test_overflowing_partial_sums_match_numpy_walk():
    # differences near 2e154 square past float64's largest value: partial
    # sums reach inf; the dive's leaf overflows, so the bound starts at
    # inf and the leaves before the first finite one enter the near list
    # as inf; at k = 1 every partition overflows
    huge = [[-1e154], [-1.2e154], [1e154], [0.0]]
    with np.errstate(over="ignore"):
        for rows in (huge, [r + [0.0, -0.0, 1e153] for r in huge]):  # m = 1, 4
            ds = Dataset(rows)
            for collect_tol in (None, 1e-9):
                assert (_ideal_search(ds, 2, collect_tol)
                        == _reference_ideal_search(ds, 2, collect_tol))
            assert math.inf in [p for p, _ in _ideal_search(ds, 2, 1e-9)[3]]
            for search in (_ideal_search, _reference_ideal_search):
                with pytest.raises(ValueError, match="^every partition's "
                                   "objective overflows float64$"):
                    search(ds, 1, 1e-9)


def _tie_families():
    """Every 4- to 7-point subset of the 3 x 3 integer grid, and {0} plus
    every 3 to 5 points of {1, ..., 8} on a line, each at k = 2 and 3:
    exact and rounded ties in every size."""
    grid = list(itertools.product([0.0, 1.0, 2.0], repeat=2))
    line = [(float(v),) for v in range(1, 9)]
    layouts = [c for size in range(4, 8) for c in itertools.combinations(grid, size)]
    layouts += [((0.0,),) + c for size in range(3, 6)
                for c in itertools.combinations(line, size)]
    return [(Dataset(rows), k) for rows in layouts for k in (2, 3)]


def test_minima_on_the_tie_families_match_the_walk_from_inf():
    pairs = several = 0
    for ds, k in _tie_families():
        minima = kmeans_ideal_minima(ds, k)
        assert minima == _minima_from_inf(ds, k)
        pairs += 1
        several += len(minima) > 1
    assert (pairs, several) == (1108, 439)


def test_minima_keep_a_near_tie_above_the_dive():
    # the dive lands on {0 | 1, 2} at (1 - d)^2 / 2; {0, 2 | 1} costs 2d
    # more, within REL_TOL, and comes first, so only the widened starting
    # bound keeps it
    rows = [[0.0], [2.0], [1.0 + 1e-10]]
    lower, upper = Partition([[0], [1, 2]]), Partition([[0, 2], [1]])
    gap = exact_q(rows, upper) - exact_q(rows, lower)
    assert 0 < gap < REL_TOL * exact_q(rows, lower)
    points = [(x, 0.0, 0.0, ()) for x, in rows]  # the walk's padded layout
    assert _dive(points, 2, [0.0, 0.5, 2 / 3]) == _ideal_search(Dataset(rows), 2)[1]
    assert kmeans_ideal_minima(Dataset(rows), 2) == [upper, lower]


def _replay(rows, labels, k):
    """A leaf's partial sum rebuilt from its labels alone, with the walk's
    increments and each cluster's sums added up in point order."""
    counts, sums, total = [0] * k, [[0.0] * len(rows[0]) for _ in range(k)], 0.0
    for x, j in zip(rows, labels):
        c = counts[j]
        if c:
            d2 = 0.0
            for xa, sa in zip(x, sums[j]):
                t = xa - sa / c
                d2 += t * t
            total += c / (c + 1) * d2
        counts[j] += 1
        sums[j] = [sa + xa for sa, xa in zip(sums[j], x)]
    return total


def test_partial_sums_depend_on_the_labels_alone():
    for ds, k in _cap_cases():
        near = _ideal_search(ds, k, REL_TOL)[3]
        rows = ds.points.tolist()
        assert [p for p, _ in near] == [_replay(rows, r, k) for _, r in near]


# per _cap_cases() search: kmeans_ideal's partition and leaf count
# (``iterations``) and kmeans_ideal_minima's partitions, as canonical labels;
# a change to the walk's prune, its tie rule or the partial sums it compares
# can move them
_CAP_PINS = [
    ("011110000101", 9, ["011110000101"]),
    ("011100000000", 14, ["011100000000"]),
    ("000100001010", 4, ["000100001010"]),
    ("011111120112", 20, ["011111120112"]),
    ("011020000102", 16, ["011020000102"]),
    ("000110222112", 22, ["000110222112"]),
    ("012302233320", 43, ["012302233320"]),
    ("001121133030", 54, ["001121133030"]),
    ("012203310121", 34, ["012203310121"]),
    ("000000111111", 13, ["000000111111"]),
    ("000000112212", 24, ["000000112212", "000000121212",
                          "001101222222", "010101222222"]),
    ("001101223323", 36, ["001101223323", "001101232323",
                          "010101223323", "010101232323"]),
]


@pytest.mark.pinned
@pytest.mark.parametrize("case, pin", zip(_cap_cases(), _CAP_PINS))
def test_exhaustive_search_at_the_cap_is_pinned(case, pin):
    ds, k = case
    res = kmeans_ideal(ds, k)
    minima = kmeans_ideal_minima(ds, k)

    def text(partition):
        return "".join(map(str, partition.labels()))

    assert (text(res.partition), res.iterations,
            [text(p) for p in minima]) == pin


def test_kmeans_ideal_tie_goes_to_canonical_order():
    # unit square, k=2: top/bottom and left/right splits both cost 1.0;
    # the restricted-growth-string order sees {{0,1},{2,3}} first
    square = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    res = kmeans_ideal(square, 2)
    assert res.q == pytest.approx(1.0, abs=1e-12)
    assert res.partition == Partition([[0, 1], [2, 3]])


# three partitions cost exactly 4 at k = 2; the walk's partial sum for the
# last of them, {0,1,3 | 2,4,5}, rounds one ulp below 4
_ROUNDED_TIE = [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, 0.0], [1.0, 1.0],
                [2.0, 2.0]]


def test_exact_referee_finds_every_minimiser():
    assert exact_minima(_ROUNDED_TIE, 2) == [
        Partition([[0, 1, 2, 3, 4], [5]]), Partition([[0, 1, 3, 4], [2, 5]]),
        Partition([[0, 1, 3], [2, 4, 5]])]
    assert exact_minima(_ROUNDED_TIE, 2) == kmeans_ideal_minima(
        Dataset(_ROUNDED_TIE), 2)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 14")
def test_kmeans_ideal_returns_the_earliest_exact_minimiser():
    # the strict < incumbent rule keeps the rounded-down partial sum
    assert kmeans_ideal(Dataset(_ROUNDED_TIE), 2).partition == Partition(
        [[0, 1, 2, 3, 4], [5]])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 14")
def test_kmeans_keeps_the_first_of_restarts_that_tie_exactly():
    # restarts 1 and 3 end in {0, 1, 2 | 3, 4} and {0, 1 | 2, 3, 4}, both
    # exactly 11/6, but their float q round apart (0x1.d555555555556p+0
    # and 0x1.d555555555555p+0), so the later restart wins
    rows = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0]]
    ds = Dataset(rows)
    cfg = KMeansConfig(k=2, seeding="uniform-random", restarts=8, rng_seed=1)
    first, _, third = per_restart_results(ds, cfg)[:3]
    if first.partition == third.partition or (
            exact_q(rows, first.partition) != exact_q(rows, third.partition)):
        pytest.fail("restarts 1 and 3 no longer tie exactly")
    assert kmeans(ds, cfg).partition == first.partition


def test_kmeans_ideal_minima_collects_all_optima():
    square = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    minima = kmeans_ideal_minima(square, 2)
    assert Partition([[0, 1], [2, 3]]) in minima
    assert Partition([[0, 2], [1, 3]]) in minima
    assert Partition([[0, 3], [1, 2]]) not in minima
    assert len(minima) == 2
    assert len(kmeans_ideal_minima(_TIED_12, 3)) == 4


def test_kmeans_1d_oracle_is_exact_far_from_the_origin():
    # runs near 1e9: the prefix-sum cost s2 - s1^2 / c has nothing left
    q, runner_up, part = kmeans_1d([1e9, 1e9 + 1.0, 1e9 + 10.0, 1e9 + 11.0], 2)
    assert (q, part) == (1.0, Partition([[0, 1], [2, 3]]))
    assert runner_up == pytest.approx(182.0 / 3.0)  # {0}, {1, 10, 11}
    assert kmeans_1d([3.0, 1.0], 2) == (0.0, math.inf, Partition([[0], [1]]))


def test_kmeans_ideal_matches_the_1d_dynamic_programme():
    rng = np.random.default_rng(20111)
    unique = 0
    for _ in range(300):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 5))
        xs = rng.uniform(-100.0, 100.0) + rng.lognormal(0.0, 2.0) * rng.normal(size=n)
        res = kmeans_ideal(Dataset(xs[:, None]), k)
        q, runner_up, part = kmeans_1d(xs.tolist(), k)
        assert math.isclose(res.q, q, rel_tol=1e-9, abs_tol=0.0)
        if runner_up - q > REL_TOL * max(1.0, q):
            unique += 1
            assert res.partition == part
    assert unique >= 250  # the partition check is not vacuous


def test_kmeans_ideal_respects_cap(monkeypatch):
    monkeypatch.setattr(core, "ENUMERATION_CAP", 5)
    ds = _line(*range(6))
    with pytest.raises(ValueError, match="exhaustive search supports"):
        kmeans_ideal(ds, 2)


def test_float64_overflow_is_named(monkeypatch):
    # the squared distances of these points overflow float64: seeding,
    # Lloyd on either route and exhaustive search say so, not numpy's
    # "Probabilities contain NaN", a cross-check's "inf and inf disagree"
    # or a search that finds no partition
    ds = _line(0.0, 1e200, 2e200, -1e200)
    for cutoff in (_FLOAT_ROUTE_MAX, 0):  # the float route, then the array route
        monkeypatch.setattr(kmeans_module, "_FLOAT_ROUTE_MAX", cutoff)
        for run in [lambda: kmeans(ds, KMeansConfig(k=2)),
                    lambda: kmeans(ds, KMeansConfig(k=2, seeding="uniform-random",
                                                    restarts=3)),
                    lambda: lloyd(ds, [[0.0], [1e200]]),
                    lambda: lloyd(ds, [[-1e200], [0.0], [2e200]])]:
            with np.errstate(over="ignore"), pytest.raises(
                    ValueError, match="^squared distances overflow float64$"):
                run()
    for search in (kmeans_ideal, kmeans_ideal_minima):
        with pytest.raises(ValueError,
                           match="^every partition's objective overflows float64$"):
            search(ds, 2)


def test_an_objective_increase_raises_at_any_scale(monkeypatch):
    # the descent check's slack is relative to the objective and to the
    # data's scale: an injected step that quadruples the objective raises
    # on both routes at scale 1 and at scale 2**-40, where every objective
    # is below 1e-21 and an absolute slack of 1e-12 would pass it
    for scale in (1.0, 2.0 ** -40):
        ds = Dataset(_line(0.0, 1.0, 2.0, 10.0, 11.0, 12.0).points * scale)
        real_float_stats = kmeans_module._float_stats
        steps = itertools.count(1)
        def growing(*args):
            means, scatters, members = real_float_stats(*args)
            return means, [next(steps) * scale * scale] * len(scatters), members
        real_assign_arrays = kmeans_module._assign_arrays
        def first_table_low(*args):
            labels, counts, key, q_table = real_assign_arrays(*args)
            return labels, counts, key, q_table and min(q_table, scale * scale)
        for cutoff, name, stub in ((_FLOAT_ROUTE_MAX, "_float_stats", growing),
                                   (0, "_assign_arrays", first_table_low)):
            monkeypatch.setattr(kmeans_module, "_FLOAT_ROUTE_MAX", cutoff)
            lloyd(ds, [[0.0], [scale]])  # unpatched, the run passes
            with mock.patch.object(kmeans_module, name, stub), pytest.raises(
                    CrossCheckError, match="^Lloyd objective increased"):
                lloyd(ds, [[0.0], [scale]])


# ---------------------------------------------------------------------------
# bit-identity oracle for Lloyd, restarts and result building
# ---------------------------------------------------------------------------


def _reference_scatter(pts):
    if len(pts) == 0:
        return 0.0
    diff = pts - pts.mean(axis=0)
    return float(np.sum(diff * diff))


def _reference_partition_scatter(pts, labels, k):
    total = 0.0
    for j in range(k):
        total += _reference_scatter(pts[labels == j])
    return total


def _reference_canonical_q(pts, labels):
    _, first = np.unique(labels, return_index=True)
    q = 0.0
    for j in labels[np.sort(first)]:
        q += _reference_scatter(pts[labels == j])
    return q


def _reference_seed(dataset, k, strategy, rng):
    """``seed`` as it was before the plus-plus distances came from the
    column kernel, kept verbatim as the oracle."""
    pts = dataset.points
    n = dataset.n
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n, got k=%d, n=%d" % (k, n))
    if strategy not in ("uniform-random", "plus-plus"):
        raise ValueError("unknown seeding strategy %r" % (strategy,))
    if k == n:
        return pts.copy()
    if strategy == "uniform-random":
        idx = rng.choice(n, size=k, replace=False)
        return pts[idx].copy()
    chosen = [int(rng.integers(n))]
    d2 = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        if total == 0.0:
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            nxt = int(rng.choice(np.flatnonzero(mask)))
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((pts - pts[nxt]) ** 2, axis=1))
    return pts[chosen].copy()


def _reference_assign(pts, centers):
    d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
    return np.argmin(d2, axis=1)


def _reference_cluster_stats(pts, labels, k):
    """Each cluster's mean and scatter from one boolean mask per cluster,
    as Lloyd computed them before the column kernels."""
    means = np.empty((k, pts.shape[1]))
    scatters = []
    for j in range(k):
        sub = pts[labels == j]
        mean = sub.mean(axis=0)
        diff = sub - mean
        means[j] = mean
        scatters.append(float(np.sum(diff * diff)))
    return means, scatters


def _reference_fix_empty_clusters(pts, centers, labels, k):
    """Repair empty clusters in place; returns the number of points moved."""
    events = 0
    for c in range(k):
        while not np.any(labels == c):
            counts = np.bincount(labels, minlength=k)
            eligible = counts[labels] > 1
            if not np.any(eligible):
                raise RuntimeError("cannot repopulate empty cluster %d" % c)
            dist2 = np.sum((pts - centers[labels]) ** 2, axis=1)
            dist2[~eligible] = -np.inf
            labels[int(np.argmax(dist2))] = c
            events += 1
    return events


def _reference_lloyd_core(pts, centers, max_iterations):
    """Lloyd as it was before each cluster's statistics were computed once
    per step, kept as the oracle (means and scatters recomputed for the
    monotonicity check, the center update and the result; the
    empty-cluster repair called on every step).  The descent slack is the
    package's, written out: REL_TOL of the previous objective plus REL_TOL
    of eps * (largest |coordinate|)**2."""
    k = centers.shape[0]
    centers = centers.astype(float).copy()
    floor = REL_TOL * np.finfo(float).eps * float(np.max(np.abs(pts))) ** 2
    prev = None
    updates = 0
    q_prev = np.inf
    converged = False
    while True:
        labels = _reference_assign(pts, centers)
        _reference_fix_empty_clusters(pts, centers, labels, k)
        if prev is not None and np.array_equal(labels, prev):
            converged = True
            break
        q_here = _reference_partition_scatter(pts, labels, k)
        if not q_here <= q_prev * (1.0 + REL_TOL) + floor:
            raise CrossCheckError(
                "Lloyd objective increased from %r to %r" % (q_prev, q_here)
            )
        q_prev = q_here
        if updates >= max_iterations:
            break
        for j in range(k):
            centers[j] = pts[labels == j].mean(axis=0)
        updates += 1
        prev = labels
    return labels, updates, converged


def _reference_result_from_labels(dataset, labels, k, iterations, converged):
    partition = Partition.from_labels(labels)
    if partition.k != k:
        raise RuntimeError("expected %d clusters, got %d" % (k, partition.k))
    centers = np.stack(
        [dataset.points[list(b)].mean(axis=0) for b in partition.clusters]
    )
    q = objective_q(dataset, partition)
    tss = _reference_scatter(dataset.points)
    explained = 1.0 if tss == 0.0 else 1.0 - q / tss
    return ClusteringResult(partition, centers, q, iterations, explained,
                            converged)


def _reference_lloyd(ds, initial_centers, cap):
    centers = np.asarray(initial_centers, dtype=float)
    labels, updates, converged = _reference_lloyd_core(ds.points, centers, cap)
    return _reference_result_from_labels(ds, labels, len(centers), updates,
                                         converged)


def _reference_kmeans(ds, config, cap=100):
    best = None
    for child in np.random.SeedSequence(config.rng_seed).spawn(config.restarts):
        centers = _reference_seed(ds, config.k, config.seeding,
                                  np.random.default_rng(child))
        labels, updates, converged = _reference_lloyd_core(
            ds.points, centers, cap)
        q = _reference_canonical_q(ds.points, labels)
        if best is None or q < best[0]:
            best = (q, labels, updates, converged)
    _, labels, updates, converged = best
    return _reference_result_from_labels(ds, labels, config.k, updates,
                                         converged)


def _reference_kmeans_ideal(ds, k):
    best_rgs, _, leaves, _ = _ideal_search(ds, k)
    return _reference_result_from_labels(ds, np.asarray(best_rgs), k, leaves,
                                         True)


def assert_same_result(got, want):
    assert got.partition == want.partition
    assert np.array_equal(got.centers, want.centers)
    assert got.q == want.q
    assert got.explained_variance == want.explained_variance
    assert got.iterations == want.iterations
    assert got.converged == want.converged


# m = 1 sums each cluster's values pairwise, 2 <= m < 8 adds the axes of
# a squared distance left to right, 8, 9 and 11 add them with numpy's
# eight accumulators (and 9 and 11 with leftover terms)
_LLOYD_DIMS = [1, 2, 3, 8, 9, 11]
# half-integer grid with signed zeros: ties, repeated points and -0.0
_SIGNED_GRID_COORD = _GRID_COORD | st.just(-0.0)


@st.composite
def _lloyd_instance(draw):
    m = draw(st.sampled_from(_LLOYD_DIMS))
    # n * m on both sides of the plain-float route's cutoff, and n up to
    # 30 for every m
    n = draw(st.integers(3, max(30, _FLOAT_ROUTE_MAX // m + 16)))
    k = draw(st.integers(2, min(5, n)))
    coord = draw(st.sampled_from([_SIGNED_GRID_COORD, _WIDE_COORD]))
    rows = draw(st.lists(st.lists(coord, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    seeding = draw(st.sampled_from(["uniform-random", "plus-plus"]))
    # later restarts meet earlier paths, the more so the more restarts
    restarts = draw(st.sampled_from([1, 3, 7, 12]))
    # the cap on center updates the run is made under (_MAX_ITERATIONS);
    # under a small one, a run that meets a path too late to end within
    # the cap runs on
    cap = draw(st.sampled_from([1, 2, 3, 100]))
    config = KMeansConfig(k=k, seeding=seeding, restarts=restarts,
                          rng_seed=draw(st.integers(0, 2 ** 31)))
    # centers beyond every point put all points in cluster 0, so every
    # other cluster starts empty and must be repaired
    far = draw(st.booleans())
    return Dataset(rows), config, cap, far


# two tight groups of ten on a line: m = 1 clusters of 9 or more points,
# whose sums numpy adds pairwise
_TEN_AND_TEN = Dataset(np.r_[np.arange(10.0), 100.0 + np.arange(10.0)][:, None])


def _clumps(n, m, rng_seed, grid=False):
    """n points in three clumps of scattered sizes, on a half-integer grid
    (repeated points, exact sums) or with axes scaled over 1e-3 .. 1e3
    (rounded sums): clusters of dozens of points for the pairwise (m = 1)
    and sequential (m >= 2) mean routes."""
    rng = np.random.default_rng(rng_seed)
    centers = rng.normal(size=(3, m)) * 40.0
    pts = centers[rng.integers(0, 3, size=n)] + rng.normal(size=(n, m))
    if grid:
        return Dataset(np.round(pts * 2) / 2)
    return Dataset(pts * 10.0 ** rng.uniform(-3, 3, size=m))


@settings(max_examples=150, derandomize=True, deadline=None)
@example((_TEN_AND_TEN, KMeansConfig(k=2, restarts=3, rng_seed=1), 100, True))
@example((_TEN_AND_TEN, KMeansConfig(k=3, seeding="uniform-random", rng_seed=2),
          1, False))
@example((_clumps(200, 1, 1), KMeansConfig(k=3, restarts=3, rng_seed=3), 100,
          False))
@example((_clumps(200, 1, 2, grid=True),
          KMeansConfig(k=5, seeding="uniform-random", restarts=3, rng_seed=4),
          100, True))
@example((_clumps(200, 2, 5), KMeansConfig(k=3, restarts=3, rng_seed=6), 100,
          False))
@example((_clumps(200, 3, 7, grid=True),
          KMeansConfig(k=4, restarts=3, rng_seed=8), 100, True))
@example((_clumps(120, 9, 9), KMeansConfig(k=3, restarts=3, rng_seed=10), 100,
          False))
@example((_clumps(120, 11, 11, grid=True),
          KMeansConfig(k=4, seeding="uniform-random", restarts=3, rng_seed=12),
          100, False))
# later restarts meet a converged path too late to end within the cap
# and run on, on both routes
@example((Dataset([[-1.0], [-0.5], [2.0], [2.0]]),
          KMeansConfig(k=2, seeding="uniform-random", restarts=7, rng_seed=691),
          1, False))
@example((_clumps(80, 1, 20, grid=True),
          KMeansConfig(k=3, seeding="uniform-random", restarts=12, rng_seed=16),
          2, False))
@given(_lloyd_instance())
def test_lloyd_results_match_the_recompute_everything_oracle(instance):
    ds, config, cap, far = instance
    k, m = config.k, ds.m
    if far:
        start = [[1e4 * (j + 1)] * m for j in range(k)]
    else:
        start = ds.points[:k]  # repeated points make ties and repairs too
    with mock.patch.object(kmeans_module, "_MAX_ITERATIONS", cap):
        assert_same_result(kmeans(ds, config), _reference_kmeans(ds, config, cap))
        assert_same_result(lloyd(ds, start), _reference_lloyd(ds, start, cap))
    if ds.n <= 8:
        assert_same_result(kmeans_ideal(ds, k), _reference_kmeans_ideal(ds, k))


@pytest.mark.parametrize("rotated", [False, True])
def test_kmeans_at_segment_cross_scale_matches_the_oracle(rotated):
    # acceptance test 12's 4 000-point crosses: clusters of thousands of
    # points and runs of dozens of steps, past the Hypothesis sizes, with
    # enough restarts that later ones meet earlier paths and stop there
    ds = rotated_segments(rotated, points_per_segment=1000, rng=11)
    met = []
    def counting(*args):
        run = _lloyd_core(*args)
        met.append(run is None)
        return run
    for rng_seed in (11, 12, 13):
        config = KMeansConfig(k=2, seeding="plus-plus", restarts=10,
                              rng_seed=rng_seed)
        with mock.patch.object(kmeans_module, "_lloyd_core", counting):
            got = kmeans(ds, config)
        want = _reference_kmeans(ds, config)
        assert_same_result(got, want)
        assert got.centers.tobytes() == want.centers.tobytes()
    assert len(met) == 30 and any(met)


def _route_cases():
    """Datasets whose n * m lies just below, at and just above the route
    cutoff for each m, each with a drawn k from 2 to 5 and with k = 2 (the
    array route's two-center step): half-integer grids with repeated
    points, exact distance ties and -0.0, signed values over 1e-3 .. 1e3,
    and three clumps (m = 1 clusters of 9 or more points near the cutoff).
    First, a line with a cluster of -0.0 only, whose mean numpy sums onto
    +0.0 and so reports as 0.0."""
    yield Dataset([[-0.0], [-0.0], [3.0], [3.5], [7.0]]), 3
    rng = np.random.default_rng(97)
    for m in _LLOYD_DIMS:
        for n in (_FLOAT_ROUTE_MAX // m - 1, _FLOAT_ROUTE_MAX // m,
                  _FLOAT_ROUTE_MAX // m + 1):
            n = max(n, 3)
            k = int(rng.integers(2, min(5, n) + 1))
            grid = rng.integers(-4, 5, size=(n, m)) / 2
            grid[rng.random(size=grid.shape) < 0.2] = -0.0
            wide = rng.uniform(1e-3, 1e3, size=(n, m))
            wide *= rng.choice([-1.0, 1.0], size=wide.shape)
            clumps = _clumps(n, m, int(rng.integers(1 << 30)), grid=True)
            for ds in (Dataset(grid), Dataset(wide), clumps):
                yield ds, k
                if k != 2:
                    yield ds, 2


def _route_starts(ds, k):
    """Starts that tie, repeat points, or leave clusters empty."""
    m = ds.m
    yield ds.points[:k]  # repeated points make ties and repairs too
    # centers beyond every point: all points join cluster 0 and the other
    # k - 1 clusters are repaired
    yield np.array([[1e4 * (j + 1)] * m for j in range(k)])
    # coincident centers: every distance ties and goes to center 0
    yield np.repeat(ds.points[-1:], k, axis=0)


def _same_state(floats, arrays):
    # the members (each label's points) determine the labels
    means, scatters, members, updates, converged = floats
    assert np.array_equal(means, arrays[0])
    assert np.array_equal(np.signbit(means), np.signbit(arrays[0]))
    assert scatters == arrays[1]
    assert members == [block.tolist() for block in arrays[2]]
    assert (updates, converged) == tuple(arrays[3:])


def test_float_and_array_routes_agree_at_the_cutoff(monkeypatch):
    repairs = []  # the plain-float runs' empty-cluster repairs
    def spy(*args):
        repairs.append(args)
        _fix_empty_clusters(*args)
    long_lines = 0
    for ds, k in _route_cases():
        rows = ds.points.tolist()
        for start in _route_starts(ds, k):
            for cap in (1, 100):  # 100 last: the default cap for the runs below
                monkeypatch.setattr(kmeans_module, "_MAX_ITERATIONS", cap)
                with mock.patch.object(kmeans_module, "_fix_empty_clusters", spy):
                    floats = _lloyd_core(ds, start, rows)
                _same_state(floats, _lloyd_core(ds, start))
        results = []
        for cutoff in (10 ** 9, 0):  # everything on floats, then on arrays
            monkeypatch.setattr(kmeans_module, "_FLOAT_ROUTE_MAX", cutoff)
            got = [lloyd(ds, start) for start in _route_starts(ds, k)]
            got += [kmeans(ds, KMeansConfig(k=k, seeding=seeding, restarts=3,
                                            rng_seed=k))
                    for seeding in ("uniform-random", "plus-plus")]
            if ds.n <= 12:
                got.append(kmeans_ideal(ds, k))
            results.append(got)
        for on_floats, on_arrays in zip(*results):
            assert_same_result(on_floats, on_arrays)
            assert np.array_equal(np.signbit(on_floats.centers),
                                  np.signbit(on_arrays.centers))
            if ds.m == 1:
                long_lines += max(map(len, on_floats.partition.clusters)) >= 9
    assert len(repairs) > 0 and long_lines > 0


def _same_run(got, want):
    # the members (each label's points) determine the labels
    means, scatters, members, updates, converged = got
    assert np.array_equal(means, want[0])
    assert scatters == want[1]
    assert [list(block) for block in members] == [list(block) for block in want[2]]
    assert (updates, converged) == tuple(want[3:])


def test_a_meeting_past_the_cap_runs_on():
    # a rerun of a converged start meets that run's path at once, and its
    # end lies as many updates away as the run made; under a cap one lower
    # the rerun must not stop there but run on to the cap, as a run with
    # no table does
    rng = np.random.default_rng(31)
    runs = 0
    for _ in range(60):
        n = int(rng.integers(8, 40))
        m = int(rng.integers(1, 4))
        ds = Dataset(rng.normal(size=(n, m)))
        start = ds.points[rng.choice(n, size=int(rng.integers(2, 5)), replace=False)]
        for rows in (ds.points.tolist(), None):
            paths = {}
            first = _lloyd_core(ds, start, rows, paths)
            assert first[4] and _lloyd_core(ds, start, rows, paths) is None
            with mock.patch.object(kmeans_module, "_MAX_ITERATIONS", first[3] - 1):
                capped = _lloyd_core(ds, start, rows, paths)
                assert capped is not None and not capped[4]
                _same_run(capped, _lloyd_core(ds, start, rows))
            runs += 1
    assert runs == 120


def _labelled_points():
    """Points, labels with no empty cluster and centers: the grid cases
    hold repeated points, ties and -0.0, the wide ones span 1e-3 .. 1e3."""
    rng = np.random.default_rng(71)
    for _ in range(600):
        m = int(rng.choice(_LLOYD_DIMS))
        n = int(rng.integers(2, 61))
        k = int(rng.integers(1, min(4, n) + 1))
        if rng.random() < 0.5:
            pts = rng.integers(-4, 5, size=(n + k, m)) / 2
            pts[rng.random(size=pts.shape) < 0.2] = -0.0
        else:
            pts = rng.uniform(1e-3, 1e3, size=(n + k, m))
            pts *= rng.choice([-1.0, 1.0], size=pts.shape)
        labels = np.r_[np.arange(k), rng.integers(0, k, size=n - k)]
        yield Dataset(pts[:n]), labels, pts[n:]
    yield _clumps(200, 1, 1), np.arange(200) % 3, np.zeros((3, 1))
    yield _clumps(200, 3, 7, grid=True), np.arange(200) * 7 % 4, np.zeros((4, 3))
    # more labels than one byte holds
    yield _clumps(400, 2, 3), np.arange(400) * 7 % 300, np.zeros((300, 2))


def test_lloyd_kernels_match_the_broadcast_and_mask_routes():
    for ds, labels, centers in _labelled_points():
        k = len(centers)
        d2 = _sq_dists(ds.columns, centers)
        want_d2 = np.sum((ds.points[:, None, :] - centers[None, :, :]) ** 2,
                         axis=-1)
        assert np.array_equal(d2, want_d2.T)
        means, scatters, members = _cluster_stats(
            ds, labels, np.bincount(labels, minlength=k))
        want_means, want_scatters = _reference_cluster_stats(ds.points, labels, k)
        assert np.array_equal(means, want_means)
        # array_equal treats -0.0 and 0.0 as equal; the signs must agree too
        assert np.array_equal(np.signbit(means), np.signbit(want_means))
        assert scatters == want_scatters
        assert [block.tolist() for block in members] == [
            np.flatnonzero(labels == j).tolist() for j in range(k)]
    ties = {2: 0, 3: 0}  # steps where some point's two nearest centers tie
    repairs = 0
    for ds, centers, owners in _assignment_steps():
        k, n = len(centers), ds.n
        d2 = _sq_dists(ds.columns, centers)
        want_d2 = np.sum((ds.points[:, None, :] - centers[None, :, :]) ** 2,
                         axis=-1)
        want = _reference_assign(ds.points, centers)
        want_events = _reference_fix_empty_clusters(ds.points, centers, want, k)
        key_type = np.min_scalar_type(k - 1)
        for prev in (None, owners):
            labels, counts, key, q_table = _assign_arrays(
                k, key_type, np.arange(n), d2, prev)
            assert np.array_equal(labels, want) and labels.dtype == np.intp
            assert np.array_equal(counts, np.bincount(want, minlength=k))
            assert counts.dtype == np.intp
            assert key == want.astype(key_type).tobytes()
            if prev is None:
                assert q_table is None
            else:  # the owners' entries, not the new labels', in point order
                assert q_table == float(np.sum(want_d2[np.arange(n), owners]))
        nearest = np.sort(want_d2, axis=1)
        ties[min(k, 3)] += bool(np.any(nearest[:, 0] == nearest[:, 1]))
        repairs += want_events > 0
    assert min(ties.values()) > 50 and repairs > 50


def _assignment_steps():
    """Points on half-integer grids, centers and owner labels for one
    assignment step at k = 2 and at k >= 3: grid-point centers (exact
    point-to-center ties), coincident centers (every entry ties) and
    centers beyond every point (all join center 0, the rest are
    repaired), with owners that differ from the new labels."""
    rng = np.random.default_rng(53)
    for i in range(600):
        m = int(rng.choice(_LLOYD_DIMS))
        n = int(rng.integers(4, 61))
        k = 2 if i % 2 else int(rng.integers(3, 5))
        pts = rng.integers(-4, 5, size=(n, m)) / 2
        centers = [pts[rng.choice(n, size=k, replace=False)],
                   np.repeat(pts[rng.integers(n)][None, :], k, axis=0),
                   np.array([[1e4 * (j + 1)] * m for j in range(k)])][i % 3]
        owners = rng.permutation(np.r_[np.arange(k), rng.integers(0, k, size=n - k)])
        yield Dataset(pts), centers, owners


# ---------------------------------------------------------------------------
# local-minimum certification
# ---------------------------------------------------------------------------


def test_is_local_min_on_global_optimum():
    rng = np.random.default_rng(41)
    for _ in range(15):
        n = int(rng.integers(4, 8))
        ds = Dataset(rng.normal(size=(n, 2)))
        res = kmeans_ideal(ds, 2)
        ok, witness = is_local_min(ds, res.partition)
        assert ok and witness is None


def test_membership_fixed_point_needs_no_move_stability():
    # {0, 1.9} | {2.1, 4} is a Lloyd fixed point (every point nearest its
    # own center) yet moving 1.9 rightwards pays: the two notions differ.
    ds = _line(0.0, 1.9, 2.1, 4.0)
    part = Partition([[0, 1], [2, 3]])
    res = lloyd(ds, [[0.95], [3.05]])
    assert res.partition == part  # fixed point of the membership iteration
    assert res.iterations == 1
    ok, witness = is_local_min(ds, part)
    assert not ok
    assert witness["point"] == 1
    assert witness["source"] == 0
    assert witness["target"] == 1
    # moving 1.9 over: gain 2*(0.95)^2 = 1.805, cost (2/3)*(1.15)^2 ~ 0.8817
    assert witness["delta_q"] == pytest.approx(0.88166667 - 1.805, abs=1e-6)


def test_is_local_min_witness_actually_improves():
    rng = np.random.default_rng(43)
    found = 0
    for _ in range(60):
        n = int(rng.integers(5, 9))
        ds = Dataset(rng.normal(size=(n, 1)))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        part = Partition.from_labels(labels)
        ok, witness = is_local_min(ds, part)
        if ok:
            continue
        found += 1
        q_before = objective_q(ds, part)
        moved = [list(b) for b in part.clusters]
        moved[witness["source"]].remove(witness["point"])
        moved[witness["target"]].append(witness["point"])
        q_after = objective_q(ds, Partition(moved))
        assert q_after < q_before
        assert q_after - q_before == pytest.approx(witness["delta_q"], rel=1e-6)
    assert found > 10  # random labelings are rarely stable


def scalar_move_scan(ds, part, rel_tol=1e-9):
    """Oracle: the move-by-move scan, closed-form increments from each
    cluster's own points, in the documented scan order."""
    pts = ds.points
    floor = np.finfo(float).eps * np.max(np.abs(pts)) ** 2
    blocks = [pts[list(b)] for b in part.clusters]
    for a, block in enumerate(part.clusters):
        na = len(block)
        if na < 2:
            continue
        for point in block:
            x = pts[point]
            gain = na / (na - 1) * float(np.sum((x - blocks[a].mean(axis=0)) ** 2))
            for b, dst in enumerate(blocks):
                if b == a:
                    continue
                nb = len(dst)
                cost = nb / (nb + 1) * float(np.sum((x - dst.mean(axis=0)) ** 2))
                if gain - cost > rel_tol * max(gain, cost, floor):
                    return False, {"point": point, "source": a, "target": b,
                                   "delta_q": cost - gain}
    return True, None


def test_is_local_min_matches_the_scalar_scan():
    rng = np.random.default_rng(47)
    verdicts = set()
    for trial in range(300):
        n = int(rng.integers(2, 30))
        # from m = 8 on numpy adds the axes pairwise
        m = int(rng.integers(1, 12))
        # every fifth draw makes each point a singleton: no point can move
        k = n if trial % 5 == 4 else int(rng.integers(1, min(n, 5) + 1))
        if trial % 3 == 0:
            # small integer grid: coincident points and exact ties
            pts = rng.integers(0, 3, size=(n, m)).astype(float)
        else:
            pts = (rng.normal(size=(n, m)) * rng.uniform(0.01, 100)
                   + rng.choice([0.0, 1e6]))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        ds, part = Dataset(pts), Partition.from_labels(labels)
        if trial % 2 == 0 and k >= 2:
            part = kmeans(ds, KMeansConfig(k=k, rng_seed=trial)).partition
        got = is_local_min(ds, part)
        assert got == scalar_move_scan(ds, part)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_increment_names_the_move_whose_routes_disagree():
    # one table mixes a removal (column 0) and an addition (column 1); a
    # coordinate sum that does not match its mean is caught in either
    x, mean = np.array([[[1.0]]]), np.array([[0.0], [0.0]])
    sizes, step = np.array([2.0, 2.0]), np.array([[-1.0, 1.0]])
    for bad, name in ((0, "removal increment"), (1, "addition increment")):
        total = np.array([[0.0], [0.0]])
        total[bad] = 5.0
        with pytest.raises(CrossCheckError, match="^" + name):
            _increment(x, mean, total, sizes, step)


def test_is_local_min_skips_singleton_sources():
    # the singleton's departure would empty its cluster, so the only
    # improving move is not allowed and the partition counts as stable
    ds = _line(0.0, 0.2, 50.0)
    ok, witness = is_local_min(ds, Partition([[0, 1], [2]]))
    assert ok and witness is None


def _rescaled_verdict(verdict, e):
    """An is_local_min answer with its witness's delta_q scaled by 4**-e,
    which undoes scaling the data by 2**e exactly."""
    ok, witness = verdict
    return ok, witness and dict(witness, delta_q=math.ldexp(witness["delta_q"], -2 * e))


def test_verdicts_do_not_change_when_the_data_are_scaled_by_powers_of_two():
    # scaling by 2**e is exact in binary floats, so every objective scales
    # by 4**e exactly and a relative verdict cannot change (Kleinberg's
    # scale invariance, applied to the lab's own decisions)
    rng = np.random.default_rng(1702)
    local = set()
    for trial in range(150):
        n, m = int(rng.integers(4, 9)), int(rng.integers(1, 3))
        k = int(rng.integers(2, 4))
        pts = rng.normal(size=(n, m))
        minima = kmeans_ideal_minima(Dataset(pts), k)
        part = kmeans(Dataset(pts), KMeansConfig(k=k, rng_seed=trial)).partition
        verdict = is_local_min(Dataset(pts), part)
        local.add(verdict[0])
        for e in (-60, -30, 20, 30):
            scaled = Dataset(pts * 2.0 ** e)
            assert kmeans_ideal_minima(scaled, k) == minima
            assert _rescaled_verdict(is_local_min(scaled, part), e) == verdict
    assert local == {True, False}


def test_coincident_points_stay_tied_at_any_scale():
    # the mean of three copies of 0.1 rounds to 0.10000000000000002, so the
    # computed increments are about 1e-34 where the exact ones are all 0
    for e in (0, -60, 30):
        ds = Dataset([[math.ldexp(0.1, e)]] * 5)
        for k in (2, 3):
            assert kmeans_ideal_minima(ds, k) == list(enumerate_partitions(5, k=k))
        assert is_local_min(ds, Partition([[0, 1, 2], [3, 4]])) == (True, None)
        assert is_local_min(ds, Partition([[0, 1, 2, 3], [4]])) == (True, None)


def test_verdicts_far_below_unit_scale():
    # an absolute floor of 1e-9 would make every partition of these points
    # a near-tie: seven minima, and a bad split that counts as stable
    for scale in (1.0, 1e-6, 1e-7):
        ds = _line(0.0, scale, 2.0 * scale, 10.0 * scale)
        assert kmeans_ideal_minima(ds, 2) == [Partition([[0, 1, 2], [3]])]
        ok, witness = is_local_min(ds, Partition([[0, 3], [1, 2]]))
        # 0 leaves {0, 10} (gain 50) for {1, 2} (cost 1.5), scaled by scale**2
        assert not ok
        assert (witness["point"], witness["source"], witness["target"]) == (0, 0, 1)
        assert witness["delta_q"] == pytest.approx(-48.5 * scale * scale, rel=1e-12)


# ---------------------------------------------------------------------------
# cross-checks are exceptions, not asserts
# ---------------------------------------------------------------------------


_CORRUPTED_CROSS_CHECKS = """
import json, sys
import numpy as np
from axiomlab import kmeans as km
from axiomlab.core import CrossCheckError, Dataset, Partition

caught = []

# a row counts only when the check named by its message raised
DESCENT = "Lloyd objective increased"
TABLE = "Lloyd objective: block scatters vs distance table"
SHIFTED = "objective: centroid form vs shifted form"

def expect(name, call, check):
    try:
        call()
    except CrossCheckError as err:
        if str(err).startswith(check):
            caught.append(name)

line = Dataset(np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]))

# objective: the centroid route is off by about 1e-6
real_scatter = km._scatter
km._scatter = lambda pts: real_scatter(pts) * (1.0 + 1e-6) + 1e-6
expect("objective", lambda: km.objective_q(line, Partition([[0, 1, 2], [3, 4, 5]])),
       SHIFTED)
km._scatter = real_scatter

# Lloyd, on both routes: the exact scatters grow from one call to the next.
# The array route computes them once, for the final labels, so its stub
# gives 1.0 per cluster, below the last table's objective but not equal
# to it; the plain-float route computes them at every step.
def growing(real_stats):
    steps = iter(range(1, 100))
    def stats(*args):
        means, scatters, members = real_stats(*args)
        return means, [float(next(steps))] * len(scatters), members
    return stats

real_cluster_stats = km._cluster_stats
km._cluster_stats = growing(real_cluster_stats)
expect("lloyd", lambda: km._lloyd_core(line, np.array([[0.0], [1.0]])), TABLE)
km._cluster_stats = real_cluster_stats

real_float_stats = km._float_stats
km._float_stats = growing(real_float_stats)
expect("lloyd-floats", lambda: km.lloyd(line, [[0.0], [1.0]]),
       DESCENT)
km._float_stats = real_float_stats

# Lloyd, array route: the first objective read from a distance table is
# 1.0, so the next, true one (4.0) is a growth between steps; the last
# table and the final scatters agree, so only the step check can see it
real_assign_arrays = km._assign_arrays
table_values = iter([1.0])
def first_table_low(*args):
    out = real_assign_arrays(*args)
    if out[-1] is None:
        return out
    return out[:-1] + (next(table_values, out[-1]),)
km._assign_arrays = first_table_low
expect("lloyd-table", lambda: km._lloyd_core(line, np.array([[0.0], [1.0]])),
       DESCENT)
km._assign_arrays = real_assign_arrays

# Lloyd, array route: the final block scatters are about 1e-6 below the
# table's objective; lower never trips the descent check
def shrunk(*args):
    means, scatters, members = real_cluster_stats(*args)
    return means, [s * (1.0 - 1e-6) - 1e-6 for s in scatters], members
km._cluster_stats = shrunk
expect("lloyd-blocks", lambda: km._lloyd_core(line, np.array([[0.0], [1.0]])),
       TABLE)
km._cluster_stats = real_cluster_stats

# Lloyd, on both routes: the second start meets the first's path at its
# second step, where the objectives are 8e8 + 36.8 and 8e8 + 20.8, and the
# stored objectives are about 1e-6 high, so the descent check the meeting
# makes in place of the run's next step must fail
cross = Dataset([[x, y] for x in (-1.0, 1.0, 9.0, 11.0) for y in (-1e4, 1e4)]
                + [[4.0, 0.0]])
def joined():
    real_record = km._record
    km._record = lambda paths, path, seen, total: real_record(
        paths, path, [q * (1.0 + 1e-6) for q in seen], total)
    try:
        km._first_best(cross, [(np.array([[0.0, 0.0], [10.0, 0.0]]), None),
                               (np.array([[0.0, 0.0], [4.5, 0.0]]), None)], {})
    finally:
        km._record = real_record
# a cutoff of 0 sends the cross to the array route
real_cutoff = km._FLOAT_ROUTE_MAX
km._FLOAT_ROUTE_MAX = 0
expect("lloyd-join", joined, DESCENT)
km._FLOAT_ROUTE_MAX = real_cutoff
expect("lloyd-join-floats", joined, DESCENT)

# result, on both routes: the shifted form behind a Lloyd result is off by
# about 1e-6 (a cutoff of 0 sends the line to the array route)
real_shifted_q = km._shifted_q
km._shifted_q = lambda *args: real_shifted_q(*args) * (1.0 + 1e-6) + 1e-6
km._FLOAT_ROUTE_MAX = 0
expect("result", lambda: km.lloyd(line, [[0.0], [10.0]]),
       SHIFTED)
km._FLOAT_ROUTE_MAX = real_cutoff
km._shifted_q = real_shifted_q

real_shifted_floats = km._shifted_floats
km._shifted_floats = lambda *args: real_shifted_floats(*args) * (1.0 + 1e-6) + 1e-6
expect("result-floats", lambda: km.lloyd(line, [[0.0], [10.0]]),
       SHIFTED)
km._shifted_floats = real_shifted_floats

# move increments: a coordinate sum that does not match the mean
expect("increment", lambda: km._increment(
    np.array([1.0]), np.array([0.0]), np.array([5.0]), 2, +1), "addition increment")

print(json.dumps({"optimize": sys.flags.optimize, "caught": caught}))
"""


def test_cross_checks_raise_under_python_O():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(axiomlab.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_CROSS_CHECKS],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["optimize"] == 1
    assert result["caught"] == ["objective", "lloyd", "lloyd-floats",
                                "lloyd-table", "lloyd-blocks", "lloyd-join",
                                "lloyd-join-floats", "result",
                                "result-floats", "increment"]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # must raise explicitly
    src = os.path.dirname(axiomlab.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read(), filename=name)
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []
