"""Data model and geometry primitives.

This module defines the three value types everything else builds on
(:class:`Dataset`, :class:`DistanceMatrix`, :class:`Partition`), the one
geometry kernel every distance table and enclosing ball is computed with
(:func:`_sq_dists`, :func:`_balls`), the guard that a partition covers
its data (:func:`_check_partition_size`), and the cap on exhaustive search.

All types are immutable; all functions are pure.
"""

import functools
import itertools
import json
from dataclasses import dataclass, fields

import numpy as np

# The partitions of n points grow like the Bell numbers (B(12) = 4 213 597),
# so exhaustive search (kmeans.kmeans_ideal, kmeans.kmeans_ideal_minima)
# refuses n above this.
ENUMERATION_CAP = 12

# rows per block where distances are walked in blocks (256 KB at n = 1 000)
_BLOCK_ROWS = 32


class CrossCheckError(ArithmeticError):
    """Two independent routes to the same number disagree.

    Raised explicitly (not by ``assert``), so the checks also hold under
    ``python -O``.
    """


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _reduce_through_init(self):
    """``__reduce__`` of the value types that hold arrays: copy and pickle
    rebuild through the constructor, so ``__post_init__`` copies and
    freezes the arrays again.  A dataclass's own deepcopy and pickle
    restore the fields directly, and its arrays would come back
    writable."""
    return (type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init))


def _scatter(pts):
    """Sum of squared distances of rows to their mean."""
    diff = pts - pts.mean(axis=0)
    return float(np.sum(diff * diff))


def _pairwise_sum(terms, count):
    """Add ``count`` terms, drawn in turn from the iterable ``terms``, in
    the order numpy's pairwise summation adds a contiguous run of them.

    Below 8 terms they are added left to right from the first term; from
    8 to 128 terms eight running accumulators take every eighth term, are
    folded as ((0+1)+(2+3))+((4+5)+(6+7)), and the leftover terms are
    added after; above 128 the run is halved at a multiple of 8 and each
    half summed the same way.  This is the order of ``np.sum`` and
    ``np.add.reduce`` over a contiguous run (numpy's own reduction then
    adds the result to its identity, +0.0, which only turns an all -0.0
    sum into 0.0).  The terms may be floats or arrays; an array term is
    added into in place, so each must be a fresh array.  Every order
    follows from this one function: the axes of a squared distance
    (:func:`_sq_dists`) and, on k-means' plain-float route, each cluster's
    scatter and the one-axis means.
    """
    terms = iter(terms)
    if count < 8:
        acc = next(terms)
        for t in itertools.islice(terms, count - 1):
            acc += t
        return acc
    if count <= 128:
        r = list(itertools.islice(terms, 8))
        for _ in range(count // 8 - 1):
            for j in range(8):
                r[j] += next(terms)
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for t in itertools.islice(terms, count % 8):
            acc += t
        return acc
    half = count // 2
    half -= half % 8
    return _pairwise_sum(terms, half) + _pairwise_sum(terms, count - half)


def _sq_dists(cols, centers):
    """Squared Euclidean distances from every center to every point.

    ``cols`` holds the points as contiguous per-axis columns, shape (m, n)
    (:attr:`Dataset.columns`); ``centers`` is (k, m).  Returns a (k, n)
    table whose entry [j, i] equals, bit for bit,
    ``np.sum((points[i] - centers[j]) ** 2)``: the per-axis terms
    ``(cols[a] - centers[:, a]) ** 2`` are added across the axes by
    :func:`_pairwise_sum`, the order numpy's pairwise sum adds a
    contiguous row of m values.  Each step is a whole-table operation on
    (k, n) arrays, made one axis at a time, so no (n, k, m) temporary is
    built and the per-row loop over a short inner axis is gone.  The
    terms are squares, never -0.0, so the table is the same whichever of
    0.0 and the first term a sum starts from.
    """

    def term(a):
        t = np.subtract(cols[a], centers[:, a, None])
        return np.multiply(t, t, out=t)

    m = cols.shape[0]
    return _pairwise_sum(map(term, range(m)), m)


def _balls(points, clusters):
    """Each cluster's mean and the radius of its enclosing ball.

    ``clusters`` holds the clusters' point indices (a
    :attr:`Partition.clusters`); each center is its cluster's mean,
    ``points[block].mean(axis=0)``.  A radius is the square root of the
    largest :func:`_sq_dists` entry from the center to the cluster's
    points.  That equals, bit for bit, the largest of the broadcast form's
    ``np.sqrt(np.sum((points[block] - center) ** 2, axis=1))``: the
    squared distances are the same floats, and ``sqrt`` is correctly
    rounded and monotone, so it commutes with the maximum.

    Returns a (k, m) array of centers and a (k,) array of radii.
    """
    out, radii = [], []
    for block in clusters:
        sub = points[list(block)]
        center = sub.mean(axis=0)
        out.append(center)
        radii.append(np.sqrt(_sq_dists(sub.T, center[None, :]).max()))
    return np.array(out), np.array(radii)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable set of n points in R^m.

    Parameters
    ----------
    points : (n, m) array_like
        Point coordinates, one row per point.  Requires n >= 2, m >= 1 and
        all entries finite.
    """

    points: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.points)
        if arr.ndim != 2:
            raise ValueError("points must be a 2-d array, got shape %s" % (arr.shape,))
        n, m = arr.shape
        if n < 2:
            raise ValueError("a dataset needs at least 2 points, got %d" % n)
        if m < 1:
            raise ValueError("a dataset needs at least 1 coordinate, got %d" % m)
        if not np.all(np.isfinite(arr)):
            raise ValueError("dataset coordinates must be finite")
        object.__setattr__(self, "points", arr)

    __reduce__ = _reduce_through_init

    @property
    def n(self):
        return self.points.shape[0]

    @functools.cached_property
    def total_scatter(self):
        """Sum of squared distances of the points to their mean (TSS),
        computed on first use and kept."""
        return _scatter(self.points)

    @functools.cached_property
    def columns(self):
        """The points as contiguous per-axis columns, a read-only (m, n)
        array, made on first use and kept (the layout :func:`_sq_dists`
        reads)."""
        cols = np.ascontiguousarray(self.points.T)
        cols.setflags(write=False)
        return cols

    @property
    def m(self):
        return self.points.shape[1]

    def __repr__(self):
        return "Dataset(n=%d, m=%d)" % (self.n, self.m)

    @classmethod
    def from_csv(cls, path):
        """Load a dataset from a CSV file with header ``x1,...,xm``.

        Lines starting with ``#`` (such as a ``# master_seed=`` line) are
        skipped wherever they appear; the first other line is the header.
        """
        with open(path) as fh:
            rows = [line for line in fh if not line.startswith("#")]
        return cls(np.loadtxt(rows[1:], delimiter=",", ndmin=2))

    def to_csv(self, path):
        """Write the dataset as CSV with header ``x1,...,xm``."""
        header = ",".join("x%d" % (j + 1) for j in range(self.m))
        np.savetxt(path, self.points, delimiter=",", header=header, comments="")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """An immutable symmetric dissimilarity table.

    The diagonal must be exactly zero, off-diagonal entries strictly
    positive and finite, and the table symmetric.  Nothing metric is
    assumed: the triangle inequality may fail.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("distance matrix must be square, got shape %s" % (arr.shape,))
        if arr.shape[0] < 2:
            raise ValueError("distance matrix needs at least 2 points")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distances must be finite")
        if np.any(np.diag(arr) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if not np.array_equal(arr, arr.T):
            raise ValueError("distance matrix must be symmetric")
        if np.count_nonzero(arr <= 0.0) > len(arr):  # more than the zero diagonal
            raise ValueError("off-diagonal distances must be strictly positive")
        object.__setattr__(self, "values", arr)

    __reduce__ = _reduce_through_init

    @property
    def n(self):
        return self.values.shape[0]

    def __repr__(self):
        return "DistanceMatrix(n=%d)" % self.n

    def to_csv(self, path):
        np.savetxt(path, self.values, delimiter=",")


@dataclass(frozen=True)
class Partition:
    """An immutable partition of {0, ..., n-1} into non-empty clusters.

    The canonical form orders members inside each cluster increasingly and
    orders clusters by their smallest member; the constructor canonicalises
    whatever it is given, so two partitions with the same blocks always
    compare equal.
    """

    clusters: tuple

    def __post_init__(self):
        # disjoint blocks sort by their first member, an empty one first
        canon = sorted(tuple(sorted(map(int, cluster))) for cluster in self.clusters)
        if canon and not canon[0]:
            raise ValueError("clusters must be non-empty")
        flat = sorted(itertools.chain.from_iterable(canon))
        n = len(flat)
        if flat != list(range(n)):
            raise ValueError(
                "clusters must cover 0..n-1 exactly once, got %s" % (flat,)
            )
        object.__setattr__(self, "clusters", tuple(canon))

    @property
    def n(self):
        return sum(len(block) for block in self.clusters)

    @property
    def k(self):
        return len(self.clusters)

    def labels(self):
        """Cluster index of every point, as an (n,) integer array."""
        out = np.empty(self.n, dtype=int)
        for j, block in enumerate(self.clusters):
            out[list(block)] = j
        return out

    @classmethod
    def from_labels(cls, labels):
        """Build a partition from an array of per-point cluster labels."""
        blocks = {}
        for i, lab in enumerate(np.asarray(labels).tolist()):
            blocks.setdefault(int(lab), []).append(i)
        return cls(blocks.values())

    def __repr__(self):
        return "Partition(%s)" % (list(map(list, self.clusters)),)

    def to_json(self):
        return json.dumps({"clusters": [list(block) for block in self.clusters]})

    @classmethod
    def from_json(cls, text):
        return cls(json.loads(text)["clusters"])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def _distance_rows(dataset, r0, r1):
    """Rows r0..r1 of a dataset's distance table from column r0 on, the
    floats of :func:`distance_matrix` (entry [a, b] is points r0 + a and
    r0 + b).  Raises ValueError naming the first coincident pair i < j in
    row-major order, the whole table's first off-diagonal zero."""
    # entry [j, i] is the broadcast form's [i, j], and (x - y) ** 2 equals
    # (y - x) ** 2 exactly, so the two tables are equal
    d = np.sqrt(_sq_dists(dataset.columns[:, r0:], dataset.points[r0:r1]))
    zero = d == 0.0
    if np.count_nonzero(zero) > len(d):  # more zeros than the diagonal's
        i, j = np.argwhere(np.triu(zero, 1))[0] + r0
        raise ValueError("points %d and %d coincide" % (i, j))
    return d


def distance_matrix(dataset):
    """Pairwise Euclidean distances of a dataset.

    Parameters
    ----------
    dataset : Dataset

    Returns
    -------
    DistanceMatrix

    Raises
    ------
    ValueError
        If two points coincide (a distance table requires strictly
        positive off-diagonal entries).
    """
    return DistanceMatrix(_distance_rows(dataset, 0, dataset.n))


# ---------------------------------------------------------------------------
# size guard
# ---------------------------------------------------------------------------


def _check_partition_size(partition, n):
    """Refuse a partition that does not cover exactly the n points it is
    applied to."""
    if partition.n != n:
        raise ValueError("partition covers %d points, the data has %d" % (partition.n, n))
