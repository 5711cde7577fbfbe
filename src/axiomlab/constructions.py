"""Generators for datasets, fixtures and constructive proof objects.

Each function here builds a concrete geometry that makes some clustering
statement checkable: a line layout whose intended grouping is the exact
optimum of the k-means objective, two segment wings whose optimal
2-clustering flips under an admissible transform, a Gaussian mixture
calibrated to a known explained-variance ladder, and a threshold rule
that stays consistent where k-means does not.  The verification suites
drive these generators; none of them keeps state.
"""

import math

import numpy as np

from .core import (
    _BLOCK_ROWS,
    Dataset,
    DistanceMatrix,
    Partition,
    _check_partition_size,
    _distance_rows,
    _scatter,
)
from .transforms import is_gamma_transform

# Minimum gap between consecutive line clusters.  The proportional rule in
# krich_line yields 0 while everything placed so far is a single point, and
# any value comfortably above the unit cluster width restores the recovery
# argument in that degenerate case.
_MIN_LINE_SPACING = 3.0

# Two wings of two open line segments each; rows are (segment, endpoint,
# xyz).  The right wing spreads in the (x, y) plane from its base point
# (1, 0, 0), the left wing in the (x, z) plane from (-1, 0, 0).
_SEGMENTS = np.array(
    [
        [[1.0, 0.0, 0.0], [33.0, 32.0, 0.0]],
        [[1.0, 0.0, 0.0], [33.0, -32.0, 0.0]],
        [[-1.0, 0.0, 0.0], [-33.0, 0.0, -32.0]],
        [[-1.0, 0.0, 0.0], [-33.0, 0.0, 32.0]],
    ]
)
_SEGMENTS.setflags(write=False)

# Angle (degrees) the right wing's segments make with the x-axis after the
# rotation; the unrotated wing opens at 45 degrees on either side.
_WING_ROTATION_DEG = 1.0


def _rotated_segments_endpoints():
    """_SEGMENTS with the right wing's segments rotated about their base
    point to +-_WING_ROTATION_DEG off the x-axis, lengths kept."""
    segs = np.array(_SEGMENTS)
    angle = math.radians(_WING_ROTATION_DEG)
    for row, side in ((0, 1.0), (1, -1.0)):
        base, tip = segs[row]
        span = tip - base
        length = math.sqrt(float(np.add.reduce(span * span)))
        tip[:] = base + length * np.array([math.cos(angle), side * math.sin(angle), 0.0])
    segs.setflags(write=False)
    return segs


_ROTATED_SEGMENTS = _rotated_segments_endpoints()

# Means of the bundled five-component mixture (unit variance, 200 points
# each).  Calibrated so that the population explained-variance ladder for
# k = 2..6 sits at about 54.3 / 72.2 / 83.5 / 90.2 / 90.8 per cent -- the
# regime the report grid pins with tolerance bands.
_MIXTURE_MEANS = np.array(
    [
        [-3.881085, -2.901218],
        [0.676571, -2.117253],
        [4.278207, -0.379281],
        [2.817042, 3.526093],
        [-3.890735, 1.871658],
    ]
)
_MIXTURE_MEANS.setflags(write=False)
_MIXTURE_POINTS_PER_COMPONENT = 200

# collapse_to_two_groups' per-cluster shrink factor, and the fraction of
# the variance its two-group split explains (the grid's kleinberg regime)
_COLLAPSE_LAMBDA = 0.1
_COLLAPSE_EXPLAINED = 0.98

# The bundled six-point fixture: a printed distance grid (three decimals)
# that is not a metric and has no real Euclidean embedding.
_SIX_POINT_GRID = np.array(
    [
        [0.0, 10.0, 2.236, 20.0, 22.361, 20.125],
        [10.0, 0.0, 6.708, 22.361, 20.0, 21.095],
        [2.236, 6.708, 0.0, 20.125, 21.095, 20.0],
        [20.0, 22.361, 20.125, 0.0, 10.0, 2.236],
        [22.361, 20.0, 21.095, 10.0, 0.0, 6.708],
        [20.125, 21.095, 20.0, 2.236, 6.708, 0.0],
    ]
)
_SIX_POINT_GRID.setflags(write=False)


# ---------------------------------------------------------------------------
# line layouts
# ---------------------------------------------------------------------------


def krich_line(cluster_sizes):
    """Lay clusters out on a line so the intended grouping is the exact
    k-means optimum.

    Clusters are placed left to right in non-increasing size order.  A
    cluster of size s occupies s equally spaced points spanning a unit
    interval (a single point for s = 1).  The gap before the next cluster
    of size s is

        max(2 * span * (placed + s) / s, 3)

    where ``span`` is the extreme-point distance of everything placed so
    far and ``placed`` its cardinality: far enough that grouping points
    across the intended boundary always costs more than any within-cluster
    saving, for every cluster count.

    Parameters
    ----------
    cluster_sizes : sequence of int
        One entry per intended cluster, each >= 1.  Order does not
        matter; sizes are sorted non-increasingly before placement.

    Returns
    -------
    (Dataset, Partition)
        One-dimensional points and the intended grouping, indexed left to
        right.  Raises ValueError when the gaps outgrow float64 and the
        positions are not strictly increasing (fifteen clusters of two).
    """
    sizes = sorted((int(s) for s in cluster_sizes), reverse=True)
    if not sizes:
        raise ValueError("cluster_sizes must be non-empty")
    if sizes[-1] < 1:
        raise ValueError("cluster sizes must all be >= 1, got %s" % (sizes,))

    positions = []
    clusters = []
    for i, size in enumerate(sizes):
        if i == 0:
            start = 0.0
        else:
            span = positions[-1] - positions[0]
            placed = len(positions)
            spacing = max(2.0 * span * (placed + size) / size, _MIN_LINE_SPACING)
            start = positions[-1] + spacing
        first = len(positions)
        if size == 1:
            positions.append(start)
        else:
            positions.extend(start + j / (size - 1) for j in range(size))
        clusters.append(list(range(first, first + size)))
    positions = np.asarray(positions)
    if np.any(np.diff(positions) <= 0.0):
        raise ValueError("cluster sizes %s outgrow float64: points coincide" % (sizes,))
    return Dataset(positions[:, None]), Partition(clusters)


# ---------------------------------------------------------------------------
# segment wings
# ---------------------------------------------------------------------------


def rotated_segments(rotated, points_per_segment, rng):
    """Sample two wings of line segments, optionally with the right wing
    folded almost flat.

    Unrotated, the right wing's two segments open at +-45 degrees in the
    (x, y) plane while the left wing's open at +-90 degrees in the (x, z)
    plane; the best 2-clustering then separates the wings.  With
    ``rotated`` the right wing's segments are rigidly rotated about their
    shared base point down to +-1 degree off the x-axis -- a transform
    that only tightens within-wing distances and only stretches
    cross-wing ones, yet moves the optimal 2-clustering to a split
    through the folded wing.

    Points are drawn segment by segment (wing by wing), so rows
    ``[0, 2 * points_per_segment)`` are the right wing; see
    :func:`wing_partition`.  The curve parameters are drawn before the
    endpoint choice is applied, so two calls with identically seeded
    generators produce matched point identities -- the rotated cloud is a
    reparameterisation of the unrotated one, which is what makes pairwise
    before/after comparisons well-defined.

    Parameters
    ----------
    rotated : bool
        Fold the right wing.
    points_per_segment : int
        Samples per segment (4 segments in total).
    rng : numpy.random.Generator or int seed
        Randomness source for the uniform draws.

    Returns
    -------
    Dataset
    """
    points_per_segment = int(points_per_segment)
    if points_per_segment < 1:
        raise ValueError("points_per_segment must be >= 1")
    rng = np.random.default_rng(rng)
    # (0, 1] keeps the two segments of a wing from colliding at the shared
    # base point
    t = 1.0 - rng.random((len(_SEGMENTS), points_per_segment))
    segs = _ROTATED_SEGMENTS if rotated else _SEGMENTS
    base = segs[:, 0, None, :]
    span = segs[:, 1, None, :] - base
    pts = base + t[:, :, None] * span
    return Dataset(pts.reshape(len(_SEGMENTS) * points_per_segment, 3))


def wing_partition(points_per_segment):
    """The intended 2-grouping of :func:`rotated_segments` output: the two
    segments sharing the right base point versus the two sharing the left
    one."""
    points_per_segment = int(points_per_segment)
    if points_per_segment < 1:
        raise ValueError("points_per_segment must be >= 1")
    half = 2 * points_per_segment
    return Partition([range(half), range(half, 2 * half)])


# ---------------------------------------------------------------------------
# Gaussian mixtures
# ---------------------------------------------------------------------------


def gaussian_mixture(rng):
    """Draw the bundled five-component mixture, component by component:
    200 points from the unit-covariance normal around each of the means
    frozen by calibration (see the module constants), in order, from
    ``rng`` (a numpy Generator or an int seed)."""
    rng = np.random.default_rng(rng)
    blocks = [
        rng.multivariate_normal(mean, np.eye(2), size=_MIXTURE_POINTS_PER_COMPONENT)
        for mean in _MIXTURE_MEANS
    ]
    return Dataset(np.vstack(blocks))


def mixture_partition():
    """The intended grouping of :func:`gaussian_mixture` output: component
    i owns the i-th contiguous block of 200 indices."""
    size = _MIXTURE_POINTS_PER_COMPONENT
    return Partition([range(i * size, (i + 1) * size)
                      for i in range(len(_MIXTURE_MEANS))])


def collapse_to_two_groups(dataset, gamma):
    """Shrink every cluster and relocate the shrunken clusters into two far
    groups along the first axis.

    Each cluster shrinks about its mean by ``_COLLAPSE_LAMBDA`` (0.1).
    The first half of gamma's clusters (canonical order) forms the left
    group, the rest the right group; within a group the cluster centers
    sit ``s`` apart, with ``s`` twice the largest original pairwise
    distance, and the gap between the group means is solved so that the
    two-group split explains exactly ``_COLLAPSE_EXPLAINED`` (0.98) of
    the variance (between-SS = 0.98 / 0.02 times the layout's within-SS).
    Shrinking only tightens within-cluster distances and the relocation
    only stretches cross-cluster ones, so the result is an admissible
    transform of the input for gamma; a layout whose solved gap would
    pull the groups closer than the input's cross-cluster distances
    raises ValueError instead.  ``s`` and the check
    (:func:`is_gamma_transform` on the two datasets) read the distances
    in blocks of rows, so no n x n table is built; coincident input
    points raise ValueError, as in ``distance_matrix``.

    Parameters
    ----------
    dataset : Dataset
    gamma : Partition
        At least two clusters, covering the dataset.

    Returns
    -------
    (Dataset, Partition)
        The collapsed points and their two-group split.
    """
    if gamma.k < 2:
        raise ValueError("need at least two clusters to form two groups")
    _check_partition_size(gamma, dataset.n)

    pts = dataset.points
    n = dataset.n
    s = 2.0 * max(float(_distance_rows(dataset, r0, r0 + _BLOCK_ROWS).max())
                  for r0 in range(0, n, _BLOCK_ROWS))

    half = gamma.k // 2
    groups = (gamma.clusters[:half], gamma.clusters[half:])
    out = np.zeros_like(pts)
    for clusters in groups:
        for j, members in enumerate(clusters):
            idx = np.fromiter(members, dtype=int)
            mu = pts[idx].mean(axis=0)
            out[idx] = _COLLAPSE_LAMBDA * (pts[idx] - mu)
            out[idx, 0] += s * (j - (len(clusters) - 1) / 2.0)

    a_idx = np.concatenate([np.fromiter(c, dtype=int) for c in groups[0]])
    b_idx = np.concatenate([np.fromiter(c, dtype=int) for c in groups[1]])
    layout_ss = _scatter(out[a_idx]) + _scatter(out[b_idx])
    ratio = _COLLAPSE_EXPLAINED / (1.0 - _COLLAPSE_EXPLAINED)
    # between-SS of a 2-group split is (na * nb / n) * gap^2; solve the gap
    gap = math.sqrt(ratio * layout_ss * n / (len(a_idx) * len(b_idx)))
    out[b_idx, 0] += gap - (out[b_idx, 0].mean() - out[a_idx, 0].mean())

    result = Dataset(out)
    ok, violations = is_gamma_transform(dataset, result, gamma)
    if not ok:
        raise ValueError(
            "a two-group split explaining %g of the variance would pull the "
            "groups closer than the original data (%d cross-cluster violations)"
            % (_COLLAPSE_EXPLAINED, len(violations))
        )
    return result, Partition([a_idx, b_idx])


# ---------------------------------------------------------------------------
# bundled fixtures
# ---------------------------------------------------------------------------


def fixture_table():
    """The bundled six-point fixture, a 6x6 :class:`DistanceMatrix`.

    The grid is not a metric (the triangle inequality fails through the
    grid's third point) and no real Euclidean embedding exists; coordinates
    that reproduce it need a third, imaginary axis, and then only to about
    1e-3, because the grid itself is printed rounded to three decimals.
    """
    return DistanceMatrix(_SIX_POINT_GRID)


# ---------------------------------------------------------------------------
# threshold clustering
# ---------------------------------------------------------------------------


def _components(linked):
    """Connected components of a graph given as a symmetric (n, n) boolean
    adjacency matrix, as a :class:`Partition`.

    Union-find (Tarjan 1975): each edge i < j unites the roots of its two
    ends, and each point is labelled by its final root.
    """
    parent = list(range(len(linked)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    rows, cols = np.nonzero(np.triu(linked, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        parent[root(i)] = root(j)
    return Partition.from_labels([root(i) for i in range(len(parent))])


def threshold_clustering(data):
    """Axis-threshold clustering: link two points when they are strictly
    closer than spread / (n + 1) in every dimension, then close the links
    transitively.

    Each dimension contributes its own threshold -- that dimension's
    extreme spread divided by n + 1 -- so the function is scale-invariant
    by construction, and under the per-dimension maximum metric the
    minimum distance between clusters is at least the threshold.  The rule
    needs an unambiguous extreme pair per dimension: if any dimension with
    positive spread attains its maximum or minimum at more than one point,
    the function refuses (note a zero-spread dimension alongside spread
    ones also refuses -- every pair ties at distance 0 there).  All points
    identical is the one degenerate case with an answer: a single cluster.

    A :class:`DistanceMatrix` is accepted too; the table form uses one
    global threshold, the largest entry divided by n + 1, and needs no
    tie rule.

    Either way the links form a symmetric boolean table, and the clusters
    are its connected components, found by :func:`_components`.

    Parameters
    ----------
    data : Dataset or DistanceMatrix

    Returns
    -------
    Partition
    """
    if isinstance(data, DistanceMatrix):
        arr = data.values
        n = arr.shape[0]
        return _components(arr < arr.max() / (n + 1.0))
    if not isinstance(data, Dataset):
        raise TypeError(
            "data must be a Dataset or DistanceMatrix, got %r" % type(data).__name__
        )

    pts = data.points
    n = pts.shape[0]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    spread = hi - lo
    if not spread.any():
        return Partition([range(n)])
    for j in range(pts.shape[1]):
        if (pts[:, j] == hi[j]).sum() != 1 or (pts[:, j] == lo[j]).sum() != 1:
            raise ValueError(
                "dimension %d has no unique extreme pair; "
                "the threshold rule refuses ties" % j
            )
    linked = np.ones((n, n), dtype=bool)
    for col, threshold in zip(data.columns, spread / (n + 1.0)):
        linked &= np.abs(col[:, None] - col) < threshold
    return _components(linked)
