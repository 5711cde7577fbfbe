"""Tests for the core data model, the geometry kernel and enumeration.

Numeric constants in this file were computed by independent oracle scripts
(direct DP recursions, brute-force enumeration, hand-checked algebra) before
the implementation existed, and are frozen here.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from axiomlab import core
from axiomlab.core import (
    Dataset,
    DistanceMatrix,
    Partition,
    _balls,
    _pairwise_sum,
    _sq_dists,
    distance_matrix,
)
from axiomlab.constructions import collapse_to_two_groups
from axiomlab.kmeans import ClusteringResult, is_local_min, kmeans_ideal, objective_q
from axiomlab.separation import certify
from axiomlab.transforms import (
    centric_matrix_transform,
    centric_transform,
    inner_proportional_transform,
    is_gamma_transform,
    motion_transform,
)
from brute_force import enumerate_partitions

# Six-point dissimilarity table: two mirrored triples with a
# triangle-inequality defect inside each triple.  Rounded to three decimals.
GRID = np.array(
    [
        [0.0, 10.0, 2.236, 20.0, 22.361, 20.125],
        [10.0, 0.0, 6.708, 22.361, 20.0, 21.095],
        [2.236, 6.708, 0.0, 20.125, 21.095, 20.0],
        [20.0, 22.361, 20.125, 0.0, 10.0, 2.236],
        [22.361, 20.0, 21.095, 10.0, 0.0, 6.708],
        [20.125, 21.095, 20.0, 2.236, 6.708, 0.0],
    ]
)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([[1.0, 2.0]])  # n < 2
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 0)))  # m < 1
    with pytest.raises(ValueError):
        Dataset([[0.0], [np.nan]])
    with pytest.raises(ValueError):
        Dataset([1.0, 2.0, 3.0])  # not 2-d
    ds = Dataset([[0.0, 1.0], [2.0, 3.0]])
    assert ds.n == 2 and ds.m == 2
    with pytest.raises(AttributeError):
        ds.points = np.zeros((2, 2))
    with pytest.raises(ValueError):
        ds.points[0, 0] = 7.0  # read-only buffer


def test_dataset_csv_roundtrip(tmp_path):
    ds = Dataset([[0.25, -1.5, 3.0], [1e-9, 2.0, -4.125]])
    path = tmp_path / "points.csv"
    ds.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3"
    back = Dataset.from_csv(path)
    assert np.allclose(back.points, ds.points, rtol=0, atol=1e-12)


def test_distance_matrix_validation():
    with pytest.raises(ValueError, match="must be symmetric"):
        DistanceMatrix([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal must be zero"):
        DistanceMatrix([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="strictly positive"):
        DistanceMatrix([[0.0, 0.0], [0.0, 0.0]])
    assert DistanceMatrix([[-0.0, 1.0], [1.0, 0.0]]).n == 2  # -0.0 == 0.0
    dm = DistanceMatrix(GRID)
    assert dm.n == 6
    with pytest.raises(AttributeError):
        dm.values = GRID


# The checks run in a fixed order and the first that fails is reported.
# The positivity check counts entries <= 0 against the diagonal's n, which
# is sound only once the diagonal is zero and the table finite, so the
# tables that fail two checks pin the order.
@pytest.mark.parametrize("values, message", [
    ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]], "distance matrix must be square, got shape (2, 3)"),
    ([0.0, 1.0], "distance matrix must be square, got shape (2,)"),
    ([[0.0]], "distance matrix needs at least 2 points"),
    ([[0.0, np.inf], [np.inf, 0.0]], "distances must be finite"),
    ([[0.0, 1.0], [1.0, 2.0]], "distance matrix diagonal must be zero"),
    ([[0.0, 1.0], [2.0, 0.0]], "distance matrix must be symmetric"),
    ([[0.0, -1.0], [-1.0, 0.0]], "off-diagonal distances must be strictly positive"),
    # two checks fail: the earlier one is reported
    ([[0.0, np.nan], [1.0, 0.0]], "distances must be finite"),
    ([[0.0, -np.inf], [-np.inf, 0.0]], "distances must be finite"),
    ([[0.0, np.inf, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]], "distances must be finite"),
    ([[1.0, 0.0], [0.0, 0.0]], "distance matrix diagonal must be zero"),
    ([[-1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
     "distance matrix diagonal must be zero"),
    ([[0.0, 0.0], [-1.0, 0.0]], "distance matrix must be symmetric"),
])
def test_distance_matrix_reports_the_first_failed_check(values, message):
    with pytest.raises(ValueError) as err:
        DistanceMatrix(values)
    assert str(err.value) == message


def test_distance_matrix_csv_roundtrip(tmp_path):
    dm = DistanceMatrix(GRID)
    path = tmp_path / "dist.csv"
    dm.to_csv(path)
    back = DistanceMatrix(np.loadtxt(path, delimiter=",", ndmin=2))
    assert np.array_equal(back.values, dm.values)


def test_partition_canonicalisation():
    p = Partition([[3, 1], [0, 2]])
    assert p.clusters == ((0, 2), (1, 3))
    assert p.n == 4 and p.k == 2
    assert p == Partition([[2, 0], [1, 3]])
    assert list(p.labels()) == [0, 1, 0, 1]
    assert Partition.from_labels([5, 7, 5, 7]) == p
    with pytest.raises(ValueError, match=r"cover 0\.\.n-1 exactly once, got \[0, 1, 1, 2\]"):
        Partition([[0, 1], [1, 2]])  # duplicate index
    with pytest.raises(ValueError, match=r"cover 0\.\.n-1 exactly once, got \[0, 2\]"):
        Partition([[0, 2]])  # gap
    for blocks in ([[0], []], [[1], [], [0]], [[]], [[0, 0], []]):
        with pytest.raises(ValueError, match="clusters must be non-empty"):
            Partition(blocks)
    # from_labels walks the labels as Python values, the partition the same
    assert Partition.from_labels(np.array([2, 2, 0], dtype=np.int8)) == Partition([[0, 1], [2]])
    assert Partition.from_labels(np.array([1.0, 0.0, 1.0])) == Partition([[0, 2], [1]])


def test_partition_json_roundtrip():
    p = Partition([[0, 3], [1], [2, 4]])
    text = p.to_json()
    assert Partition.from_json(text) == p
    assert '"clusters"' in text


def _same_fields(a, b):
    """Field-by-field equality for the types that compare by identity
    (Dataset, DistanceMatrix, ClusteringResult): arrays by
    ``np.array_equal``, other fields by ``==``."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


@pytest.mark.parametrize(
    "value",
    [
        Dataset([[0.0, 1.0], [2.0, 3.0], [4.0, 6.0]]),
        DistanceMatrix([[0.0, 1.5], [1.5, 0.0]]),
        Partition([[0, 3], [1], [2, 4]]),
        ClusteringResult(Partition([[0, 1], [2]]), [[0.5], [10.0]], 0.5, 2,
                         0.99, True),
    ],
    ids=["Dataset", "DistanceMatrix", "Partition", "ClusteringResult"],
)
def test_value_types_copy_and_pickle(value):
    for clone in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(clone) is type(value)
        if isinstance(value, Partition):
            assert clone == value and hash(clone) == hash(value)
        else:
            assert _same_fields(clone, value)
        # a dataclass's own deepcopy and pickle skip __post_init__ and would
        # hand back writable arrays
        for f in dataclasses.fields(clone):
            held = getattr(clone, f.name)
            assert not isinstance(held, np.ndarray) or not held.flags.writeable
        with pytest.raises(AttributeError):
            clone.extra = 1
    if isinstance(value, Dataset):
        # a copy made with the caches filled rebuilds the same points
        assert value.total_scatter > 0.0 and value.columns.shape == (2, 3)
        clone = pickle.loads(pickle.dumps(value))
        assert _same_fields(clone, value) and clone.total_scatter == value.total_scatter


def _broadcast_sq_dists(points, centers):
    """The broadcast form the kernel replaces: an (n, k, m) temporary
    summed over its last axis, transposed to (k, n)."""
    return np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=-1).T


def _kernel_cases():
    rng = np.random.default_rng(61)
    for m in list(range(1, 21)) + [131]:
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        # magnitudes from 1e-3 to 1e3 per axis, optionally offset by 1e3
        scale = 10.0 ** rng.uniform(-3, 3, size=m)
        for offset in (0.0, 1e3):
            pts = rng.normal(size=(n, m)) * scale + offset
            yield pts, rng.normal(size=(k, m)) * scale + offset
            yield pts, pts[rng.integers(0, n, size=k)]
        # half-integer grid with repeated points and signed zeros
        grid = rng.integers(-4, 5, size=(n, m)) / 2
        grid[rng.random(size=(n, m)) < 0.2] = -0.0
        grid = np.vstack([grid, grid[: n // 2]])
        yield grid, grid[rng.integers(0, len(grid), size=k)]


def test_sq_dists_matches_the_broadcast_sum():
    # np.sum adds m < 8 terms left to right, up to 128 terms with eight
    # accumulators and above that by halving; the kernel follows each
    for pts, centers in _kernel_cases():
        got = _sq_dists(np.ascontiguousarray(pts.T), centers)
        assert got.shape == (len(centers), len(pts))
        assert np.array_equal(got, _broadcast_sq_dists(pts, centers))


def test_pairwise_sum_is_numpys_summation_order():
    # np.add.reduce is the pairwise sum of a contiguous run added to +0.0;
    # the sizes cross 8 (eight accumulators) and 128 (halving), the values
    # round at every addition, and the grid holds exact sums and -0.0
    rng = np.random.default_rng(83)
    for count in list(range(1, 300)) + [1000, 4099]:
        wide = rng.normal(size=count) * 10.0 ** rng.uniform(-8, 8, size=count)
        grid = rng.integers(-4, 5, size=count) / 2
        grid[rng.random(size=count) < 0.3] = -0.0
        for terms in (wide, grid, np.full(count, -0.0)):
            want = np.add.reduce(terms)
            got = 0.0 + _pairwise_sum(terms.tolist(), count)
            assert got == want and np.signbit(got) == np.signbit(want)
    # it draws the terms in index order, once each, from any iterable
    assert _pairwise_sum(iter([1.0, 2.0, 3.0]), 3) == 6.0


def test_distance_tables_match_the_broadcast_form():
    for pts, _ in _kernel_cases():
        unique = np.unique(pts, axis=0)
        if len(unique) >= 2:
            ds = Dataset(unique)
            diff = unique[:, None, :] - unique[None, :, :]
            assert np.array_equal(distance_matrix(ds).values,
                                  np.sqrt(np.sum(diff * diff, axis=-1)))
    # the first coincident pair in row-major order is named, as before
    with pytest.raises(ValueError, match="points 1 and 3 coincide"):
        distance_matrix(Dataset([[0.0], [1.0], [2.0], [1.0], [2.0]]))


def test_balls_measure_radii_from_the_means():
    pts = np.array([[0.0], [2.0], [10.0]])
    centers, radii = _balls(pts, ((0, 1), (2,)))
    assert centers.tolist() == [[1.0], [10.0]] and radii.tolist() == [1.0, 0.0]


def test_dataset_columns_are_a_cached_read_only_transpose():
    ds = Dataset([[0.0, 1.0], [2.0, 3.0], [4.0, 6.0]])
    cols = ds.columns
    assert cols is ds.columns
    assert cols.flags.c_contiguous and not cols.flags.writeable
    assert np.array_equal(cols, ds.points.T)


def test_distance_matrix_from_dataset():
    ds = Dataset([[0.0, 0.0], [3.0, 4.0], [0.0, 8.0]])
    dm = distance_matrix(ds)
    assert dm.values[0, 1] == 5.0
    assert dm.values[1, 2] == 5.0
    assert dm.values[0, 2] == 8.0
    with pytest.raises(ValueError):
        distance_matrix(Dataset([[1.0, 1.0], [1.0, 1.0]]))  # coincident


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

# B(0)..B(12), computed by the textbook DP on Stirling numbers.
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def _stirling2_table(n_max):
    """S(n, k) for 0 <= k <= n <= n_max by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    stirling = {(0, 0): 1}
    for n in range(1, n_max + 1):
        for k in range(0, n + 1):
            stirling[n, k] = (k * stirling.get((n - 1, k), 0)
                              + stirling.get((n - 1, k - 1), 0))
    return stirling


def test_bell_and_stirling_frozen_values():
    stirling = _stirling2_table(12)
    assert [sum(stirling[n, k] for k in range(n + 1)) for n in range(13)] == BELL
    assert stirling[4, 2] == 7
    assert stirling[9, 4] == 7770
    assert stirling[10, 3] == 9330
    assert stirling[5, 5] == 1
    assert stirling.get((5, 6), 0) == 0
    assert stirling[0, 0] == 1
    # the enumeration reproduces the frozen values beyond the n <= 7 sweep
    assert len(list(enumerate_partitions(9, k=4))) == 7770
    assert len(list(enumerate_partitions(10, k=3))) == 9330
    assert len(list(enumerate_partitions(5, k=5))) == 1


def test_enumerate_partitions_counts():
    stirling = _stirling2_table(7)
    assert stirling[4, 2] == 7 and stirling[7, 3] == 301
    assert len(list(enumerate_partitions(4))) == 15
    assert len(list(enumerate_partitions(4, k=2))) == 7
    for n in range(1, 8):
        assert len(list(enumerate_partitions(n))) == BELL[n]
        assert sum(stirling[n, k] for k in range(1, n + 1)) == BELL[n]
        for k in range(1, n + 1):
            assert len(list(enumerate_partitions(n, k=k))) == stirling[n, k]


def test_enumerate_partitions_canonical_order():
    got = [list(map(list, p.clusters)) for p in enumerate_partitions(3)]
    assert got == [
        [[0, 1, 2]],
        [[0, 1], [2]],
        [[0, 2], [1]],
        [[0], [1, 2]],
        [[0], [1], [2]],
    ]
    # no duplicates over a bigger run, and every partition is canonical
    seen = set()
    for p in enumerate_partitions(6):
        assert p.clusters not in seen
        seen.add(p.clusters)
        mins = [block[0] for block in p.clusters]
        assert mins == sorted(mins)


def _evenly_spaced(n):
    return Dataset(np.arange(n, dtype=float)[:, None])


def test_enumeration_cap(monkeypatch):
    with pytest.raises(ValueError, match=r"1 <= n <= 12 \(n=13\)"):
        kmeans_ideal(_evenly_spaced(13), 2)
    monkeypatch.setattr(core, "ENUMERATION_CAP", 5)
    with pytest.raises(ValueError, match=r"1 <= n <= 5 \(n=6\)"):
        kmeans_ideal(_evenly_spaced(6), 2)
    assert kmeans_ideal(_evenly_spaced(5), 2).partition.n == 5
    with pytest.raises(ValueError, match="1 <= k <= n"):
        kmeans_ideal(_evenly_spaced(4), 5)


# Every entry point that takes a partition with its data refuses one of the
# wrong size through the one guard, with the one message.
_GUARDED = {
    "is_gamma_transform": lambda ds, p: is_gamma_transform(ds, ds, p),
    "centric_transform": lambda ds, p: centric_transform(ds, p, 0, 0.5),
    "centric_matrix_transform":
        lambda ds, p: centric_matrix_transform(distance_matrix(ds), p, 0, 0.5),
    "motion_transform": lambda ds, p: motion_transform(ds, p, 0, np.zeros(ds.m)),
    "inner_proportional_transform":
        lambda ds, p: inner_proportional_transform(ds, p, [0.5] * p.k),
    "certify": certify,
    "objective_q": objective_q,
    "is_local_min": is_local_min,
    "collapse_to_two_groups": collapse_to_two_groups,
}


@pytest.mark.parametrize("name", sorted(_GUARDED))
@pytest.mark.parametrize("blocks", [[[0, 1], [2]], [[0, 1], [2, 3], [4]]])
def test_partition_size_guard(name, blocks):
    ds = Dataset([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 1.0]])
    p = Partition(blocks)
    with pytest.raises(ValueError) as err:
        _GUARDED[name](ds, p)
    assert str(err.value) == "partition covers %d points, the data has 4" % p.n
    right = Partition([[0, 1], [2, 3]])
    if name == "collapse_to_two_groups":
        # the right size passes the guard; on these four points the solved
        # gap between the groups is too small, so the next check refuses it
        with pytest.raises(ValueError, match="cross-cluster violations"):
            collapse_to_two_groups(ds, right)
    else:
        _GUARDED[name](ds, right)  # the right size passes
