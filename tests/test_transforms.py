"""Tests for distance/dataset transforms and their admissibility checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from axiomlab.core import (
    _BLOCK_ROWS,
    Dataset,
    DistanceMatrix,
    Partition,
    distance_matrix,
)
from axiomlab.transforms import (
    _PAIR_RTOL,
    centric_matrix_transform,
    centric_transform,
    inner_proportional_transform,
    is_gamma_transform,
    motion_transform,
    scale,
)


def _line(*xs):
    return Dataset(np.array(xs, dtype=float)[:, None])


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------


def test_scale_dataset_and_matrix_commute():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ds = Dataset(rng.normal(size=(6, 2)))
        alpha = float(rng.uniform(0.1, 5.0))
        via_points = distance_matrix(scale(ds, alpha))
        via_matrix = scale(distance_matrix(ds), alpha)
        assert np.allclose(via_points.values, via_matrix.values, rtol=1e-12)


def test_scale_validation():
    ds = _line(0.0, 1.0)
    with pytest.raises(ValueError):
        scale(ds, 0.0)
    with pytest.raises(ValueError):
        scale(ds, -2.0)
    with pytest.raises(TypeError):
        scale(np.eye(3), 2.0)


# ---------------------------------------------------------------------------
# admissibility check
# ---------------------------------------------------------------------------

# Line positions before and after a transform that shrinks the middle
# cluster and spreads the rest: 0, 0.4, 0.6, 1  ->  0, 0.5, 0.6, 2 under
# the partition {{0}, {1,2}, {3}}.
GAMMA = Partition([[0], [1, 2], [3]])
BEFORE = _line(0.0, 0.4, 0.6, 1.0)
AFTER = _line(0.0, 0.5, 0.6, 2.0)


def test_is_gamma_transform_accepts_valid_move():
    ok, violations = is_gamma_transform(
        distance_matrix(BEFORE), distance_matrix(AFTER), GAMMA
    )
    assert ok
    assert violations == ()


def test_is_gamma_transform_reports_violations():
    # the reverse direction grows the within pair (1,2) and shrinks
    # every between pair it previously grew
    ok, violations = is_gamma_transform(
        distance_matrix(AFTER), distance_matrix(BEFORE), GAMMA
    )
    assert not ok
    kinds = {v["kind"] for v in violations}
    assert kinds == {"within", "between"}
    within = [v for v in violations if v["kind"] == "within"]
    assert within[0]["pair"] == (1, 2)
    assert within[0]["before"] == pytest.approx(0.1)
    assert within[0]["after"] == pytest.approx(0.2)


def test_is_gamma_transform_shape_checks():
    with pytest.raises(ValueError, match="differ in shape"):
        is_gamma_transform(BEFORE, _line(0.0, 1.0, 2.0), GAMMA)
    five = _line(0.0, 1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError, match="partition covers 4 points, the data has 5"):
        is_gamma_transform(five, distance_matrix(five), GAMMA)


def test_table_inputs_are_datasets_or_distance_matrices():
    table = distance_matrix(BEFORE)
    for bad in (table.values, table.values.tolist()):
        with pytest.raises(TypeError, match="Dataset or DistanceMatrix"):
            is_gamma_transform(bad, table, GAMMA)
        with pytest.raises(TypeError, match="Dataset or DistanceMatrix"):
            is_gamma_transform(table, bad, GAMMA)
        with pytest.raises(TypeError, match="DistanceMatrix"):
            centric_matrix_transform(bad, GAMMA, 1, 0.5)


def _reference_is_gamma_transform(d_before, d_after, gamma):
    """The pair-by-pair loop is_gamma_transform replaced, kept as its oracle."""
    before, after = d_before.values, d_after.values
    n = before.shape[0]
    labels = gamma.labels()
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            same = labels[i] == labels[j]
            if same and after[i, j] > before[i, j] * (1.0 + _PAIR_RTOL):
                violations.append(
                    {
                        "pair": (i, j),
                        "kind": "within",
                        "before": float(before[i, j]),
                        "after": float(after[i, j]),
                    }
                )
            elif not same and after[i, j] < before[i, j] * (1.0 - _PAIR_RTOL):
                violations.append(
                    {
                        "pair": (i, j),
                        "kind": "between",
                        "before": float(before[i, j]),
                        "after": float(after[i, j]),
                    }
                )
    return len(violations) == 0, tuple(violations)


# How an "after" entry is made from its "before" entry b: unchanged,
# exactly on either edge of the relative slack, one ulp past either edge,
# or rescaled freely.
def _after_entries(b, modes, factor):
    up = b * (1.0 + _PAIR_RTOL)
    down = b * (1.0 - _PAIR_RTOL)
    choices = [
        b,
        up,
        down,
        np.nextafter(up, np.inf),
        np.nextafter(down, -np.inf),
        b * factor,
    ]
    return np.choose(modes, choices)


@st.composite
def _gamma_cases(draw):
    """(before, after, gamma): DistanceMatrix pairs over n = 2..12 points
    with random labels."""
    n = draw(st.integers(2, 12))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.uniform(1e-3, 1e3, size=(n, n))
    modes = rng.integers(0, 6, size=(n, n))
    a = _after_entries(b, modes, rng.uniform(0.5, 2.0, size=(n, n)))

    def sym(t):
        upper = np.triu(t, 1)
        return DistanceMatrix(upper + upper.T)

    return sym(b), sym(a), Partition.from_labels(labels)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_gamma_cases())
def test_is_gamma_transform_matches_the_pairwise_loop(case):
    before, after, gamma = case
    got = is_gamma_transform(before, after, gamma)
    assert got == _reference_is_gamma_transform(before, after, gamma)
    for v in got[1]:
        assert all(type(i) is int for i in v["pair"])
        assert type(v["before"]) is float and type(v["after"]) is float


# n below, at and just above one and two block heights of the check
_BLOCK_SIZES = sorted({2, 5} | {h * _BLOCK_ROWS + e for h in (1, 2) for e in (-1, 0, 1)})


@pytest.mark.parametrize("n", _BLOCK_SIZES)
def test_is_gamma_transform_on_datasets_matches_the_tables(n):
    # even trials keep every distance or shrink one cluster's; odd trials
    # jitter the points, which grows some within and shrinks some between
    # distances
    rng = np.random.default_rng(n)
    kinds = set()
    for trial in range(6):
        a = Dataset(rng.normal(size=(n, 1 + trial % 3)))
        gamma = Partition.from_labels(rng.integers(0, 1 + trial % 4, size=n))
        if trial % 2:
            b = Dataset(a.points + rng.normal(scale=0.05, size=a.points.shape))
        else:
            b = Dataset(a.points * 0.5 if gamma.k == 1 else a.points.copy())
        da, db = distance_matrix(a), distance_matrix(b)
        got = is_gamma_transform(a, b, gamma)
        assert got == is_gamma_transform(da, db, gamma)
        assert got == is_gamma_transform(a, db, gamma)
        assert got == _reference_is_gamma_transform(da, db, gamma)
        assert got[0] or trial % 2
        kinds.update(v["kind"] for v in got[1])
    if n > 2:
        assert kinds == {"within", "between"}


@pytest.mark.parametrize("n", _BLOCK_SIZES)
def test_is_gamma_transform_names_the_first_coincident_pair(n):
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(n, 2))
    pairs = sorted({(0, n - 1), (n // 2 - 1, min(n // 2 + 1, n - 1)), (n - 2, n - 1)})
    gamma = Partition([range(n)])
    for i, j in pairs:
        twin = pts.copy()
        twin[j] = twin[i]
        clean, dup = Dataset(pts), Dataset(twin)
        with pytest.raises(ValueError) as table:
            distance_matrix(dup)
        assert str(table.value) == "points %d and %d coincide" % (i, j)
        for args in ((dup, clean), (clean, dup), (dup, dup)):
            with pytest.raises(ValueError, match="^points %d and %d coincide$" % (i, j)):
                is_gamma_transform(*args, gamma)


# ---------------------------------------------------------------------------
# centric transforms
# ---------------------------------------------------------------------------


def test_centric_transform_geometry():
    rng = np.random.default_rng(29)
    for _ in range(15):
        ds = Dataset(rng.normal(size=(9, 2)))
        gamma = Partition([[0, 1, 2, 3], [4, 5, 6], [7, 8]])
        lam = float(rng.uniform(0.1, 1.0))
        cid = int(rng.integers(3))
        out = centric_transform(ds, gamma, cid, lam)
        idx = list(gamma.clusters[cid])
        # centroid preserved
        assert np.allclose(out.points[idx].mean(0), ds.points[idx].mean(0))
        # within distances scale by exactly lam
        d0 = distance_matrix(ds).values
        d1 = distance_matrix(out).values
        for a in idx:
            for b in idx:
                if a < b:
                    assert d1[a, b] == pytest.approx(lam * d0[a, b], rel=1e-9)
        # untouched clusters stay put
        rest = [i for i in range(9) if i not in idx]
        assert np.array_equal(out.points[rest], ds.points[rest])


def test_centric_transform_identity_and_validation():
    ds = _line(0.0, 1.0, 5.0)
    gamma = Partition([[0, 1], [2]])
    out = centric_transform(ds, gamma, 0, 1.0)
    assert np.allclose(out.points, ds.points)
    with pytest.raises(ValueError):
        centric_transform(ds, gamma, 0, 0.0)
    with pytest.raises(ValueError):
        centric_transform(ds, gamma, 0, 1.5)
    with pytest.raises(ValueError):
        centric_transform(ds, gamma, 2, 0.5)


def test_centric_transform_can_break_pairwise_admissibility():
    # shrinking {0, 10} towards its centroid drags the point at 10 towards
    # the outsider at 5.1: a between distance shrinks
    ds = _line(0.0, 10.0, 5.1)
    gamma = Partition([[0, 1], [2]])
    out = centric_transform(ds, gamma, 0, 0.5)
    ok, violations = is_gamma_transform(
        distance_matrix(ds), distance_matrix(out), gamma
    )
    assert not ok
    assert any(v["pair"] == (1, 2) and v["kind"] == "between" for v in violations)


def test_centric_matrix_transform_is_always_admissible():
    rng = np.random.default_rng(37)
    for _ in range(15):
        ds = Dataset(rng.normal(size=(8, 3)))
        d = distance_matrix(ds)
        gamma = Partition([[0, 1, 2], [3, 4], [5, 6, 7]])
        lam = float(rng.uniform(0.1, 1.0))
        cid = int(rng.integers(3))
        out = centric_matrix_transform(d, gamma, cid, lam)
        idx = list(gamma.clusters[cid])
        for a in idx:
            for b in idx:
                if a < b:
                    assert out.values[a, b] == pytest.approx(lam * d.values[a, b])
        ok, violations = is_gamma_transform(d, out, gamma)
        assert ok, violations
        # distances not touching the cluster are bit-identical
        rest = [i for i in range(8) if i not in idx]
        assert np.array_equal(out.values[np.ix_(rest, rest)], d.values[np.ix_(rest, rest)])


# ---------------------------------------------------------------------------
# motion
# ---------------------------------------------------------------------------


def test_motion_transform_legal_outward_move():
    ds = _line(-1.0, 1.0, 9.0, 11.0)
    gamma = Partition([[0, 1], [2, 3]])
    moved, legal = motion_transform(ds, gamma, 1, np.array([5.0]))
    assert legal
    assert np.allclose(moved.points.ravel(), [-1.0, 1.0, 14.0, 16.0])


def test_motion_transform_illegal_when_centers_approach():
    # clusters centred at 0, 10, 20; pulling the last one in to 18 keeps
    # all balls disjoint but still shortens a center distance
    ds = _line(-1.0, 1.0, 9.0, 11.0, 19.0, 21.0)
    gamma = Partition([[0, 1], [2, 3], [4, 5]])
    moved, legal = motion_transform(ds, gamma, 2, np.array([-2.0]))
    assert not legal
    assert np.allclose(moved.points.ravel()[-2:], [17.0, 19.0])


def test_motion_transform_illegal_when_balls_overlap():
    # centers move apart (1.5 -> 1.8) yet the radius-1 balls still overlap
    ds = _line(-1.0, 1.0, 0.5, 2.5)
    gamma = Partition([[0, 1], [2, 3]])
    _, legal = motion_transform(ds, gamma, 1, np.array([0.3]))
    assert not legal


def _reference_motion_transform(dataset, gamma, cluster_id, vector):
    # the loop form the ball and distance kernels replaced: 1-d norms and a
    # Python loop over cluster pairs
    vector = np.asarray(vector, dtype=float)
    pts = dataset.points.copy()
    idx = list(gamma.clusters[cluster_id])
    before_means = [dataset.points[list(b)].mean(axis=0) for b in gamma.clusters]
    pts[idx] = pts[idx] + vector
    moved = Dataset(pts)
    after_means = [m.copy() for m in before_means]
    after_means[cluster_id] = before_means[cluster_id] + vector
    radii = []
    for block, mu in zip(gamma.clusters, after_means):
        sub = pts[list(block)]
        radii.append(float(np.max(np.sqrt(np.sum((sub - mu) ** 2, axis=1)))))
    legal = True
    for j in range(gamma.k):
        if j == cluster_id:
            continue
        d_before = float(np.linalg.norm(before_means[cluster_id] - before_means[j]))
        d_after = float(np.linalg.norm(after_means[cluster_id] - after_means[j]))
        if d_after < d_before * (1.0 - _PAIR_RTOL):
            legal = False
    for i in range(gamma.k):
        for j in range(i + 1, gamma.k):
            gap = float(np.linalg.norm(after_means[i] - after_means[j]))
            if gap < (radii[i] + radii[j]) * (1.0 - _PAIR_RTOL):
                legal = False
    return moved, legal


# Two balls of radius 5; the second moves away along (3, 4) until the
# centers (0, 0) and (6, 8) are exactly 10 apart: the balls touch, which
# is legal.  Starting its points 1e-9 closer makes them overlap, which is
# not.
_TOUCHING = ([[-5.0, 0.0], [5.0, 0.0], [-2.0, 4.0], [8.0, 4.0]], [0, 0, 1, 1],
             1, [3.0, 4.0])
_OVERLAPPING = ([[-5.0, 0.0], [5.0, 0.0], [-2.0 - 1e-9, 4.0], [8.0 - 1e-9, 4.0]],
                [0, 0, 1, 1], 1, [3.0, 4.0])


@st.composite
def _motion_cases(draw):
    """(points, labels, cluster_id, vector): k = 1..4 clusters of 1..4
    points in m = 1..3 dimensions around spread-out offsets, on a
    half-integer grid (exact ties, touching balls, repeated points) or as
    floats, moved by a grid or float vector."""
    m = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    if sum(sizes) < 2:
        sizes.append(1)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.integers(-3, 4, size=(len(sizes), m)) * 3.0
    if draw(st.booleans()):
        spread = rng.integers(-2, 3, size=(len(labels), m)) / 2
        vector = rng.integers(-4, 5, size=m) / 2
    else:
        spread = rng.normal(size=(len(labels), m))
        vector = rng.normal(size=m) * 3.0
    order = rng.permutation(len(labels))
    points = (offsets[labels] + spread)[order]
    cluster_id = draw(st.integers(0, len(sizes) - 1))
    return points, labels[order], cluster_id, vector


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_motion_cases())
@example(_TOUCHING)
@example(_OVERLAPPING)
def test_motion_transform_matches_the_loop(case):
    points, labels, cluster_id, vector = case
    ds = Dataset(points)
    gamma = Partition.from_labels(labels)
    cid = min(cluster_id, gamma.k - 1)
    moved, legal = motion_transform(ds, gamma, cid, vector)
    ref_moved, ref_legal = _reference_motion_transform(ds, gamma, cid, vector)
    assert legal is ref_legal
    assert np.array_equal(moved.points, ref_moved.points)


def test_motion_transform_touching_balls_are_legal():
    for (points, labels, cid, vector), want in ((_TOUCHING, True),
                                               (_OVERLAPPING, False)):
        gamma = Partition.from_labels(labels)
        assert motion_transform(Dataset(points), gamma, cid, vector)[1] is want


def test_motion_transform_validation():
    ds = _line(0.0, 1.0)
    gamma = Partition([[0], [1]])
    with pytest.raises(ValueError):
        motion_transform(ds, gamma, 5, np.array([1.0]))
    with pytest.raises(ValueError):
        motion_transform(ds, gamma, 0, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# inner-proportional shrinks
# ---------------------------------------------------------------------------


def test_inner_proportional_shrinks_each_cluster_by_its_factor():
    rng = np.random.default_rng(53)
    ds = Dataset(rng.normal(size=(7, 2)))
    gamma = Partition([[0, 1, 2], [3, 4], [5, 6]])
    lams = [0.9, 0.5, 0.25]
    out = inner_proportional_transform(ds, gamma, lams)
    d0 = distance_matrix(ds).values
    d1 = distance_matrix(out).values
    for block, lam in zip(gamma.clusters, lams):
        for a in block:
            for b in block:
                if a < b:
                    assert d1[a, b] == pytest.approx(lam * d0[a, b], rel=1e-9)
    with pytest.raises(ValueError):
        inner_proportional_transform(ds, gamma, [0.5, 0.5])
    with pytest.raises(ValueError):
        inner_proportional_transform(ds, gamma, [0.5, 0.5, 0.0])


# ---------------------------------------------------------------------------
# interference of scaling with admissible transforms
# ---------------------------------------------------------------------------


def test_scaling_after_admissible_transform_shrinks_a_between_pair():
    # An admissible transform may grow between distances arbitrarily; a
    # subsequent global rescale brings them back below their originals.
    # Net effect: a between-cluster pair strictly shrinks, which no single
    # admissible transform is allowed to do.
    d1 = distance_matrix(BEFORE)
    d2 = distance_matrix(AFTER)
    ok, _ = is_gamma_transform(d1, d2, GAMMA)
    assert ok
    d3 = scale(d2, 0.5)
    assert GAMMA.labels()[0] != GAMMA.labels()[1]  # (0,1) is a between pair
    assert d3.values[0, 1] < d1.values[0, 1]
    assert d3.values[0, 1] == pytest.approx(0.25)
    assert d1.values[0, 1] == pytest.approx(0.4)
