"""Tests for dataset generators, fixtures, and the threshold method."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import axiomlab.constructions as constructions
from axiomlab.constructions import (
    _MIXTURE_MEANS,
    collapse_to_two_groups,
    fixture_table,
    gaussian_mixture,
    krich_line,
    mixture_partition,
    rotated_segments,
    threshold_clustering,
    wing_partition,
)
from axiomlab.constructions import _components
from axiomlab.core import (
    Dataset,
    DistanceMatrix,
    Partition,
    distance_matrix,
)
from axiomlab.kmeans import KMeansConfig, explained_variance, kmeans, kmeans_ideal
from axiomlab.transforms import (
    centric_matrix_transform,
    centric_transform,
    is_gamma_transform,
    scale,
)


def _line(*xs):
    return Dataset(np.array(xs, dtype=float)[:, None])


# ---------------------------------------------------------------------------
# k-rich line layouts
# ---------------------------------------------------------------------------


def test_krich_line_frozen_layouts():
    ds, part = krich_line([3, 2])
    assert np.allclose(ds.points[:, 0], [0.0, 0.5, 1.0, 6.0, 7.0])
    assert part == Partition([(0, 1, 2), (3, 4)])

    ds, part = krich_line([2, 2, 1])
    assert np.allclose(ds.points[:, 0], [0.0, 1.0, 5.0, 6.0, 66.0])
    assert part == Partition([(0, 1), (2, 3), (4,)])

    # singletons fall back to the minimum spacing
    ds, part = krich_line([1, 1])
    assert np.allclose(ds.points[:, 0], [0.0, 3.0])

    ds, part = krich_line([2, 2])
    assert np.allclose(ds.points[:, 0], [0.0, 1.0, 5.0, 6.0])


def test_krich_line_sorts_sizes_and_validates():
    ds, part = krich_line([2, 3])  # same layout as (3, 2)
    assert np.allclose(ds.points[:, 0], [0.0, 0.5, 1.0, 6.0, 7.0])
    with pytest.raises(ValueError):
        krich_line([])
    with pytest.raises(ValueError):
        krich_line([3, 0])


def test_krich_line_refuses_layouts_beyond_float64():
    # the gaps grow super-exponentially: fourteen clusters of two still
    # resolve, fifteen lose a point to rounding
    ds, part = krich_line((2,) * 14)
    assert np.all(np.diff(ds.points[:, 0]) > 0.0)
    assert part.k == 14
    with pytest.raises(ValueError, match="float64"):
        krich_line((2,) * 15)


def test_krich_line_recovery_frozen_objectives():
    cases = [
        ((3, 2), 1.0),
        ((2, 2, 1), 1.0),
        ((3, 3, 2), 1.5),
        ((4, 3, 1, 1), 1.0555555555555556),
    ]
    for sizes, expected_q in cases:
        ds, part = krich_line(sizes)
        best = kmeans_ideal(ds, len(sizes))
        assert best.partition == part
        assert best.q == pytest.approx(expected_q, rel=1e-12)


def test_krich_line_recovery_all_small_compositions():
    # every multiset of cluster sizes with n <= 7 and k >= 2 is recovered
    # exactly by exhaustive k-means
    def compositions(n, max_part):
        if n == 0:
            yield ()
            return
        for first in range(min(n, max_part), 0, -1):
            for rest in compositions(n - first, first):
                yield (first,) + rest

    checked = 0
    for n in range(2, 8):
        for sizes in compositions(n, n - 1):
            if len(sizes) < 2:
                continue
            ds, part = krich_line(sizes)
            assert kmeans_ideal(ds, len(sizes)).partition == part
            checked += 1
    assert checked == 37


# ---------------------------------------------------------------------------
# segment cross and its wing rotation
# ---------------------------------------------------------------------------


def test_segment_endpoints():
    base_r = np.array([1.0, 0.0, 0.0])
    ds = rotated_segments(False, points_per_segment=50, rng=0)
    assert ds.points.shape == (200, 3)
    # right-wing points sit on segments towards (33, +-32, 0)
    for row in ds.points[:50]:
        v = row - base_r
        assert abs(v[0] - v[1]) < 1e-9 and abs(v[2]) < 1e-12

    # the rotated variant squeezes the right wing to +-1 degree off axis,
    # preserving segment lengths
    rot = rotated_segments(True, points_per_segment=50, rng=0)
    length = np.linalg.norm([32.0, 32.0, 0.0])
    tip = base_r + length * np.array(
        [np.cos(np.radians(1.0)), np.sin(np.radians(1.0)), 0.0]
    )
    top = rot.points[:50]
    t = (top[:, 0] - 1.0) / (tip[0] - 1.0)
    assert np.allclose(top, base_r + t[:, None] * (tip - base_r), atol=1e-9)


def test_rotated_segments_matched_identities():
    flat = rotated_segments(False, points_per_segment=10, rng=3)
    rot = rotated_segments(True, points_per_segment=10, rng=3)
    moved = np.abs(flat.points - rot.points).max(axis=1) > 1e-12
    # same draws: only the right wing moves
    assert np.where(moved)[0].tolist() == list(range(20))
    # no point collapses onto the shared base point
    gap = np.linalg.norm(flat.points[:20] - [1.0, 0.0, 0.0], axis=1).min()
    assert gap > 0.0

    part = wing_partition(10)
    assert [len(c) for c in part.clusters] == [20, 20]
    assert part.n == 40


def test_wing_rotation_is_admissible():
    # rotating the wing towards the axis only shrinks its internal
    # distances -- an inner-cluster change under the wing partition
    flat = rotated_segments(False, points_per_segment=10, rng=3)
    rot = rotated_segments(True, points_per_segment=10, rng=3)
    ok, violations = is_gamma_transform(
        distance_matrix(flat), distance_matrix(rot), wing_partition(10)
    )
    assert ok
    assert violations == ()


def test_wing_rotation_shifts_the_optimum():
    flat = rotated_segments(False, points_per_segment=200, rng=11)
    rot = rotated_segments(True, points_per_segment=200, rng=11)
    cfg = KMeansConfig(k=2, restarts=20, rng_seed=11)
    res_flat = kmeans(flat, cfg)
    res_rot = kmeans(rot, cfg)
    # the flat cross splits into wings; the rotated one pays to split the
    # dense right wing and explains more variance doing so
    assert res_flat.partition == wing_partition(200)
    assert res_rot.partition != wing_partition(200)
    assert res_rot.explained_variance > res_flat.explained_variance


# ---------------------------------------------------------------------------
# gaussian mixtures
# ---------------------------------------------------------------------------


def test_mixture_partition_shape():
    part = mixture_partition()
    assert [len(c) for c in part.clusters] == [200] * 5
    assert part.clusters[1][0] == 200
    assert gaussian_mixture(rng=0).points.shape == (1000, 2)


def test_gaussian_mixture_seeded():
    a = gaussian_mixture(rng=np.random.default_rng(7))
    b = gaussian_mixture(rng=np.random.default_rng(7))
    c = gaussian_mixture(rng=np.random.default_rng(8))
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_gaussian_mixture_moments():
    # each component's 200 points sit around its calibrated mean (standard
    # error 0.07 per axis) with unit covariance
    ds = gaussian_mixture(rng=np.random.default_rng(123))
    offsets = []
    for mean, block in zip(_MIXTURE_MEANS, mixture_partition().clusters):
        pts = ds.points[list(block)]
        assert np.allclose(pts.mean(axis=0), mean, atol=0.3)
        offsets.append(pts - mean)
    offsets = np.vstack(offsets)
    assert np.allclose(offsets.T @ offsets / len(offsets), np.eye(2), atol=0.15)


# ---------------------------------------------------------------------------
# two-group collapse
# ---------------------------------------------------------------------------


def test_collapse_hits_requested_explained_variance():
    data = gaussian_mixture(rng=np.random.default_rng(42))
    out, split = collapse_to_two_groups(data, mixture_partition())
    two_groups = Partition([tuple(range(400)), tuple(range(400, 1000))])
    assert split == two_groups
    # the group layout is calibrated so the two-group split explains
    # exactly the requested fraction
    assert explained_variance(out, two_groups) == pytest.approx(0.98, rel=1e-12)
    res = kmeans(out, KMeansConfig(k=2, restarts=8, rng_seed=1))
    assert res.partition == two_groups


def test_collapse_refuses_an_inadmissible_layout():
    # two far pairs: the solved gap between the groups (0.7) is far below
    # the pairs' distance (99 and more), so the layout would shrink every
    # cross-cluster distance; the generator refuses instead of emitting an
    # inadmissible transform
    pairs = Dataset([[0.0], [1.0], [100.0], [101.0]])
    with pytest.raises(ValueError, match="4 cross-cluster violations"):
        collapse_to_two_groups(pairs, Partition([(0, 1), (2, 3)]))


def test_collapse_builds_no_distance_table():
    # one 1 000 x 1 000 float64 table is 8 MB; the blocked distances and
    # check stay far below it (numpy reports its buffers to tracemalloc)
    data, gamma = gaussian_mixture(rng=0), mixture_partition()
    tracemalloc.start()
    try:
        collapse_to_two_groups(data, gamma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_collapse_validation():
    data = gaussian_mixture(rng=np.random.default_rng(1))
    gamma = mixture_partition()
    with pytest.raises(ValueError):
        collapse_to_two_groups(data, Partition([tuple(range(1000))]))
    with pytest.raises(ValueError):
        collapse_to_two_groups(data, Partition([(0, 1), (2, 3)]))
    twin = Dataset(np.vstack([data.points[:999], data.points[:1]]))
    with pytest.raises(ValueError, match="points 0 and 999 coincide"):
        collapse_to_two_groups(twin, gamma)


# ---------------------------------------------------------------------------
# six-point fixture
# ---------------------------------------------------------------------------


def test_fixture_grid_values():
    # the table's spectrum and signed embedding are acceptance test 11's
    grid = fixture_table()
    assert isinstance(grid, DistanceMatrix)
    v = grid.values
    assert v.shape == (6, 6)
    assert np.array_equal(v, v.T)
    assert v[0, 1] == 10.0
    assert v[0, 2] == 2.236
    assert v[1, 2] == 6.708
    assert v[0, 3] == 20.0
    assert v[3, 5] == 2.236
    assert v[0, 5] == 20.125


# ---------------------------------------------------------------------------
# threshold clustering
# ---------------------------------------------------------------------------


def test_threshold_line_examples():
    assert threshold_clustering(_line(0.0, 0.01, 1.0)) == Partition([(0, 1), (2,)])
    # a bare pair always separates: the only gap is the whole spread
    assert threshold_clustering(_line(0.0, 1.0)) == Partition([(0,), (1,)])


def test_threshold_requires_closeness_in_every_dimension():
    pts = np.array([[0.0, 0.0], [0.05, 9.0], [10.0, 0.05], [9.5, 0.8]])
    part = threshold_clustering(Dataset(pts))
    # points 0 and 2 are close along axis 1 only; points 2 and 3 are
    # close along both axes
    assert part == Partition([(0,), (1,), (2, 3)])


def test_threshold_matrix_input_uses_single_cutoff():
    x = _line(0.0, 2.19, 10.0, 11.0)
    part = threshold_clustering(distance_matrix(x))
    assert part == Partition([(0, 1), (2, 3)])
    # the dataset route agrees here
    assert threshold_clustering(x) == part


def test_threshold_scale_invariance_property():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 25))
        ds = Dataset(np.sort(rng.uniform(0.0, 1.0, n))[:, None])
        part = threshold_clustering(ds)
        for alpha in rng.uniform(0.1, 10.0, 3):
            assert threshold_clustering(scale(ds, float(alpha))) == part
            checked += 1
    assert checked == 600


def test_threshold_consistency_needs_distance_level_shrink():
    # shrinking a cluster in the embedded data can merge what the
    # per-dimension thresholds previously separated...
    x = _line(0.0, 2.19, 10.0, 11.0)
    part = threshold_clustering(x)
    assert part == Partition([(0, 1), (2, 3)])
    shrunk = centric_transform(x, part, 1, 0.9)
    assert threshold_clustering(shrunk) != part
    # ...while the same shrink applied to the distance table keeps the
    # global cut-off pair intact and the partition fixed
    d = distance_matrix(x)
    assert threshold_clustering(centric_matrix_transform(d, part, 1, 0.9)) == part

    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 25))
        ds = Dataset(np.sort(rng.uniform(0.0, 1.0, n))[:, None])
        part = threshold_clustering(ds)
        d = distance_matrix(ds)
        big = [i for i, c in enumerate(part.clusters) if len(c) >= 2]
        if not big:
            continue
        ci = big[int(rng.integers(len(big)))]
        for lam in (0.9, 0.5, 0.1):
            shrunk = centric_matrix_transform(d, part, ci, lam)
            assert threshold_clustering(shrunk) == part
            checked += 1
    assert checked > 300


def test_threshold_links_match_the_broadcast_table(monkeypatch):
    # the Dataset path builds its link table axis by axis; the broadcast
    # form it replaced compares an (n, n, m) table of gaps at once
    seen = []
    monkeypatch.setattr(constructions, "_components", seen.append)
    rng = np.random.default_rng(101)
    for m in (1, 2, 3):
        for _ in range(40):
            n = int(rng.integers(2, 16))
            clumps = rng.normal(size=(3, m)) * 10.0
            pts = clumps[rng.integers(0, 3, size=n)] + rng.normal(size=(n, m)) * 0.3
            gaps = np.abs(pts[:, None, :] - pts[None, :, :])
            spread = pts.max(axis=0) - pts.min(axis=0)
            want = (gaps < spread / (n + 1.0)).all(axis=2)
            threshold_clustering(Dataset(pts))
            assert np.array_equal(seen.pop(), want)


def test_threshold_tie_refusals():
    with pytest.raises(ValueError):  # duplicated extreme along the axis
        threshold_clustering(_line(0.0, 0.5, 1.0, 1.0))
    pts = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    with pytest.raises(ValueError):  # zero spread on one axis of several
        threshold_clustering(Dataset(pts))
    # fully coincident data has nothing to separate
    same = Dataset(np.ones((4, 2)))
    assert threshold_clustering(same) == Partition([(0, 1, 2, 3)])
    with pytest.raises(TypeError):
        threshold_clustering(np.eye(3))


def _scipy_components(linked):
    _, labels = connected_components(linked, directed=False)
    return Partition.from_labels(labels)


def test_components_match_scipy_on_random_graphs():
    rng = np.random.default_rng(61)
    for n in range(1, 41):
        for density in (0.0, 0.02, 0.05, 0.1, 0.3, 0.9):
            upper = np.triu(rng.random((n, n)) < density, 1)
            linked = upper | upper.T
            # isolate a few nodes outright
            lonely = rng.random(n) < 0.2
            linked[lonely, :] = False
            linked[:, lonely] = False
            assert _components(linked) == _scipy_components(linked)


def test_components_follow_a_permuted_chain():
    rng = np.random.default_rng(67)
    for n in (1, 2, 3, 17, 200):
        order = rng.permutation(n)
        linked = np.zeros((n, n), dtype=bool)
        linked[order[:-1], order[1:]] = True
        linked |= linked.T
        assert _components(linked) == Partition([range(n)])
        cut = linked.copy()  # cutting one link leaves two paths
        if n >= 2:
            i, j = order[n // 2 - 1], order[n // 2]
            cut[i, j] = cut[j, i] = False
            assert _components(cut) == _scipy_components(cut)
            assert _components(cut).k == 2
