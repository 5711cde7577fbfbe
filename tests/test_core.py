"""Tests for the core data model, enumeration and signed embeddings.

Numeric constants in this file were computed by independent oracle scripts
(direct DP recursions, brute-force enumeration, hand-checked algebra) before
the implementation existed, and are frozen here.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from axiomlab.constructions import MixtureSpec
from axiomlab.core import (
    Dataset,
    DistanceMatrix,
    Partition,
    ValidationReport,
    _balls,
    _pairwise_sum,
    _sq_dists,
    complex_objective,
    distance_matrix,
    embeddability_check,
    rigid_distance_matrix,
    validate_distance,
)
from axiomlab.harness import SuiteReport
from axiomlab.kmeans import ClusteringResult, kmeans_ideal
from axiomlab.separation import BallSummary, certify
from brute_force import enumerate_partitions

# Six-point dissimilarity table used throughout: two mirrored triples with a
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

# Signed embedding of GRID: columns x1, x2, x3 where x3 is imaginary.
GRID_COORDS = np.array(
    [
        [5.0, 10.0, 1.0],
        [-5.0, 10.0, 1.0],
        [2.0, 10.0, -1.0],
        [5.0, -10.0, 1.0],
        [-5.0, -10.0, 1.0],
        [2.0, -10.0, -1.0],
    ]
)
GRID_SIGNS = np.array([1, 1, -1])


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
    with pytest.raises(ValueError):
        DistanceMatrix([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        DistanceMatrix([[1.0, 1.0], [1.0, 0.0]])  # diagonal
    with pytest.raises(ValueError):
        DistanceMatrix([[0.0, 0.0], [0.0, 0.0]])  # zero off-diagonal
    dm = DistanceMatrix(GRID)
    assert dm.n == 6
    with pytest.raises(AttributeError):
        dm.values = GRID


def test_distance_matrix_csv_roundtrip(tmp_path):
    dm = DistanceMatrix(GRID)
    path = tmp_path / "dist.csv"
    dm.to_csv(path)
    assert DistanceMatrix(np.loadtxt(path, delimiter=",", ndmin=2)) == dm


def test_partition_canonicalisation():
    p = Partition([[3, 1], [0, 2]])
    assert p.clusters == ((0, 2), (1, 3))
    assert p.n == 4 and p.k == 2
    assert p == Partition([[2, 0], [1, 3]])
    assert list(p.labels()) == [0, 1, 0, 1]
    assert Partition.from_labels([5, 7, 5, 7]) == p
    with pytest.raises(ValueError):
        Partition([[0, 1], [1, 2]])  # duplicate index
    with pytest.raises(ValueError):
        Partition([[0, 2]])  # gap
    with pytest.raises(ValueError):
        Partition([[0], []])  # empty block


def test_partition_json_roundtrip():
    p = Partition([[0, 3], [1], [2, 4]])
    text = p.to_json()
    assert Partition.from_json(text) == p
    assert '"clusters"' in text


def _same_fields(a, b):
    """Field-by-field equality for the types that compare by identity."""
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
        ValidationReport(False, [{"kind": "symmetry", "i": 0, "j": 1}]),
        MixtureSpec([[0.0, 0.0], [5.0, 5.0]], [1.0, 0.5], [3, 4]),
        embeddability_check(DistanceMatrix(GRID)),
        BallSummary([0.5, 2.0], 1.5, 3),
        certify(Dataset([[0.0], [1.0], [10.0], [11.0]]),
                Partition([[0, 1], [2, 3]])),
        SuiteReport("interference", 7,
                    [{"name": "gap", "trials": 3, "violations": 0,
                      "passed": True}],
                    [{"kind": "witness", "points": [[0.0], [1.0]]}], 0.25,
                    {"python": "3.11.7"}),
    ],
    ids=["Dataset", "DistanceMatrix", "Partition", "ClusteringResult",
         "ValidationReport", "MixtureSpec", "EmbeddingReport", "BallSummary",
         "SeparationCertificate", "SuiteReport"],
)
def test_value_types_copy_and_pickle(value):
    for clone in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(clone) is type(value)
        if isinstance(value, (Dataset, DistanceMatrix, Partition)):
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
        # equality and hash ignore the caches, filled or not
        fresh = Dataset(value.points)
        assert value.total_scatter > 0.0 and value.columns.shape == (2, 3)
        assert fresh == value and value == fresh and hash(fresh) == hash(value)
        assert pickle.loads(pickle.dumps(value)).total_scatter == value.total_scatter


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


def test_balls_measure_radii_from_the_means_or_the_given_centers():
    pts = np.array([[0.0], [2.0], [10.0]])
    centers, radii = _balls(pts, ((0, 1), (2,)))
    assert centers.tolist() == [[1.0], [10.0]] and radii.tolist() == [1.0, 0.0]
    centers, radii = _balls(pts, ((0, 1), (2,)), np.array([[0.0], [7.0]]))
    assert centers.tolist() == [[0.0], [7.0]] and radii.tolist() == [2.0, 3.0]


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
# validate_distance
# ---------------------------------------------------------------------------


def test_validate_distance_clean_table():
    report = validate_distance(GRID, require_metric=False)
    assert report.ok
    assert report.violations == ()


def test_validate_distance_triangle_witness():
    # Within the first triple: d(0,2) + d(2,1) = 2.236 + 6.708 = 8.944
    # falls short of d(0,1) = 10, witnessed by the ordered triple (0, 2, 1).
    report = validate_distance(GRID, require_metric=True)
    assert not report.ok
    first = report.violations[0]
    assert first["kind"] == "triangle"
    assert first["indices"] == (0, 2, 1)
    assert first["lhs"] == pytest.approx(8.944, abs=1e-12)
    assert first["rhs"] == pytest.approx(10.0, abs=1e-12)


def test_validate_distance_flags_each_defect():
    bad = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 3.0], [2.0, 3.0, 0.5]])
    report = validate_distance(bad)
    kinds = sorted(v["kind"] for v in report.violations)
    assert kinds == ["diagonal", "symmetry"]
    neg = np.array([[0.0, -1.0], [-1.0, 0.0]])
    report = validate_distance(neg)
    assert [v["kind"] for v in report.violations] == ["positivity"]


def test_validate_distance_metric_on_euclidean_data():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 4))
        ds = Dataset(rng.normal(size=(n, m)))
        report = validate_distance(distance_matrix(ds).values, require_metric=True)
        assert report.ok, report.violations[:1]


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
    monkeypatch.delenv("AXIOMLAB_ENUMERATION_CAP", raising=False)
    with pytest.raises(ValueError, match="set AXIOMLAB_ENUMERATION_CAP"):
        kmeans_ideal(_evenly_spaced(13), 2)
    monkeypatch.setenv("AXIOMLAB_ENUMERATION_CAP", "5")
    with pytest.raises(ValueError, match="set AXIOMLAB_ENUMERATION_CAP"):
        kmeans_ideal(_evenly_spaced(6), 2)
    assert kmeans_ideal(_evenly_spaced(5), 2).partition.n == 5
    with pytest.raises(ValueError, match="1 <= k <= n"):
        kmeans_ideal(_evenly_spaced(4), 5)


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
def test_enumeration_cap_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("AXIOMLAB_ENUMERATION_CAP", raw)
    # a bad value is reported as such, not as every n being too large
    with pytest.raises(ValueError,
                       match="AXIOMLAB_ENUMERATION_CAP must be a positive integer"):
        kmeans_ideal(_evenly_spaced(3), 2)


# ---------------------------------------------------------------------------
# signed embeddings
# ---------------------------------------------------------------------------


def test_embeddability_spectrum_of_grid():
    # Frozen spectrum of the doubly centred Gram matrix of GRID (descending):
    # 600.0107, 105.0803, ~0, -8.5638e-4, -9.8140e-3, -5.071657.
    report = embeddability_check(DistanceMatrix(GRID))
    ev = report.eigenvalues
    assert ev[0] == pytest.approx(600.0107, abs=1e-3)
    assert ev[1] == pytest.approx(105.0803, abs=1e-3)
    assert abs(ev[2]) < 1e-9
    assert ev[-1] == pytest.approx(-5.071657, abs=1e-4)
    assert not report.embeddable
    # at the strict default cut-off the two rounding-noise eigenvalues
    # (-8.6e-4 and -9.8e-3) also count as axes
    assert report.significant_axes == 5


def test_embeddability_grid_three_axes_at_loose_cutoff():
    # The table is printed with three decimals, so eigenvalues below the
    # rounding noise floor are dropped with rel_tol=1e-4: exactly three
    # axes survive (600, 105, -5.07), one of them imaginary.
    report = embeddability_check(DistanceMatrix(GRID), rel_tol=1e-4)
    assert report.significant_axes == 3
    assert list(report.signs) == [1, 1, -1]
    assert not report.embeddable
    assert report.max_reconstruction_error < 1e-2


def test_embeddability_euclidean_data_is_embeddable():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(1, 4))
        ds = Dataset(rng.normal(size=(n, m)))
        dm = distance_matrix(ds)
        report = embeddability_check(dm)
        assert report.embeddable
        assert np.all(report.signs == 1)
        assert report.significant_axes <= min(n - 1, m)
        assert report.max_reconstruction_error < 1e-8


def test_rigid_distance_matrix_reproduces_grid():
    # the signed coordinates reproduce the printed table to its own
    # three-decimal resolution (max deviation 3.9e-4, frozen)
    recon = rigid_distance_matrix(GRID_COORDS, GRID_SIGNS)
    assert np.max(np.abs(recon - GRID)) < 1e-3
    with pytest.raises(ValueError):
        rigid_distance_matrix([[0.0, 0.0], [0.0, 3.0]], [1, -1])


def _einsum_rigid_sq(coords, signs):
    # the signed squared table as computed before the per-axis kernel
    diff = coords[:, None, :] - coords[None, :, :]
    return np.einsum("ijd,d->ij", diff * diff, signs)


def test_rigid_distance_matrix_matches_the_einsum_form():
    # the per-axis sum may differ from einsum's order in the last bits;
    # axis 0 is real and keeps every pair 0.9 apart, and imaginary axes
    # are short, so no entry is a near-cancellation
    rng = np.random.default_rng(89)
    for _ in range(200):
        n, r = int(rng.integers(2, 10)), int(rng.integers(1, 12))
        signs = rng.choice([1.0, -1.0], size=r)
        signs[0] = 1.0
        coords = rng.normal(size=(n, r)) * np.where(signs > 0, 1.0, 0.01)
        coords[:, 0] = rng.permutation(n) + rng.uniform(0.0, 0.1, size=n)
        want = np.sqrt(np.clip(_einsum_rigid_sq(coords, signs), 0.0, None))
        got = rigid_distance_matrix(coords, signs, clamp=True)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    want = np.sqrt(np.clip(_einsum_rigid_sq(GRID_COORDS, GRID_SIGNS), 0.0, None))
    np.testing.assert_allclose(rigid_distance_matrix(GRID_COORDS, GRID_SIGNS),
                               want, rtol=1e-12, atol=0.0)
    # no axes: every distance is zero
    assert np.array_equal(rigid_distance_matrix(np.zeros((3, 0)), np.zeros(0)),
                          np.zeros((3, 3)))


def test_complex_objective_mean_centers():
    # natural split of GRID_COORDS: each triple has signed scatter 50
    part = Partition([[0, 1, 2], [3, 4, 5]])
    q = complex_objective(GRID_COORDS, GRID_SIGNS, part)
    assert q == pytest.approx(100.0, abs=1e-9)


def test_complex_objective_collapses_with_imaginary_centers():
    # centers on the imaginary axis at 1 - sqrt(125) and sqrt(104) - 1 put
    # every point at signed distance exactly zero from its center
    part = Partition([[0, 1, 3, 4], [2, 5]])
    centers = np.array(
        [[0.0, 0.0, 1.0 - np.sqrt(125.0)], [0.0, 0.0, np.sqrt(104.0) - 1.0]]
    )
    q = complex_objective(GRID_COORDS, GRID_SIGNS, part, centers=centers)
    assert q == pytest.approx(6e-6, abs=1e-4)
    with pytest.raises(ValueError):
        complex_objective(GRID_COORDS, GRID_SIGNS, part, centers=centers[:1])


def test_complex_objective_real_geometry_matches_plain_scatter():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, m))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1  # both clusters non-empty
        part = Partition.from_labels(labels)
        q = complex_objective(pts, np.ones(m, dtype=int), part)
        direct = sum(
            float(np.sum((pts[list(b)] - pts[list(b)].mean(axis=0)) ** 2))
            for b in part.clusters
        )
        assert q == pytest.approx(direct, rel=1e-12, abs=1e-12)
