"""Distance and dataset transforms tied to clustering axioms.

A partition-aware transform takes a dataset (or distance table) together
with a reference partition and produces a new one.  The classic
"consistency" notion compares distance tables pair by pair: within-cluster
distances may only shrink, between-cluster distances may only grow
(:func:`is_gamma_transform` checks exactly that and reports every violating
pair).  The geometric transforms below (centric shrinks, rigid cluster
motions and per-cluster proportional shrinks) deliberately do *not* all
satisfy it — which pairs survive and which break is what the verification
suites measure.
"""

import numpy as np

from .core import (_BLOCK_ROWS, Dataset, DistanceMatrix, _balls, _check_partition_size,
                   _distance_rows, _sq_dists)

# relative slack when comparing distances before/after a transform, so that
# coordinate round-off is not mistaken for an axiom violation
_PAIR_RTOL = 1e-12


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _check_cluster_id(gamma, cluster_id):
    if not 0 <= cluster_id < gamma.k:
        raise ValueError("cluster_id %d out of range for k=%d" % (cluster_id, gamma.k))


def _check_lambda(lam):
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1], got %r" % (lam,))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def scale(data, alpha):
    """Scale all distances by alpha > 0.

    Accepts a :class:`Dataset` (coordinates are multiplied, which scales
    every pairwise distance by alpha) or a :class:`DistanceMatrix`.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive, got %r" % (alpha,))
    if isinstance(data, Dataset):
        return Dataset(data.points * alpha)
    if isinstance(data, DistanceMatrix):
        return DistanceMatrix(data.values * alpha)
    raise TypeError("data must be Dataset or DistanceMatrix")


def _row_source(d):
    """(n, rows): ``rows(r0, r1)`` is rows r0..r1 of d's table from column r0 on."""
    if isinstance(d, Dataset):
        return d.n, lambda r0, r1: _distance_rows(d, r0, r1)
    if isinstance(d, DistanceMatrix):
        return d.n, lambda r0, r1: d.values[r0:r1, r0:]
    raise TypeError("distances must be a Dataset or DistanceMatrix, got %r"
                    % type(d).__name__)


def is_gamma_transform(d_before, d_after, gamma):
    """Pairwise consistency check between two distance tables.

    The transform is admissible when every within-cluster distance is <=
    its original value and every between-cluster distance is >= its
    original value (relative slack 1e-12 to forgive round-off).

    Both sides are compared 32 rows at a time, so no n x n array is built.
    Either may be a :class:`Dataset`, read as its ``distance_matrix``
    floats; coincident points raise that function's ValueError for the
    first pair in row-major order, ``d_before``'s first within a block.
    Any other input raises TypeError.

    Parameters
    ----------
    d_before, d_after : Dataset or DistanceMatrix
    gamma : Partition

    Returns
    -------
    (bool, tuple of dict)
        Verdict plus every violating pair in row-major order (by i, then
        j), each as ``{"pair", "kind", "before", "after"}`` with ``pair``
        a tuple of ints, kind ``"within"`` or ``"between"`` and the two
        distances as floats.
    """
    n, before = _row_source(d_before)
    n_after, after = _row_source(d_after)
    if n != n_after:
        raise ValueError("distance tables differ in shape")
    _check_partition_size(gamma, n)
    labels = gamma.labels()
    upper = np.arange(n) > np.arange(_BLOCK_ROWS)[:, None]
    violations = []
    for r0 in range(0, n, _BLOCK_ROWS):
        b, a = before(r0, r0 + _BLOCK_ROWS), after(r0, r0 + _BLOCK_ROWS)
        same = labels[r0:r0 + _BLOCK_ROWS, None] == labels[None, r0:]
        bad = np.where(same, a > b * (1.0 + _PAIR_RTOL), a < b * (1.0 - _PAIR_RTOL))
        bad &= upper[:len(b), :n - r0]  # each pair once, as i < j
        if not bad.any():
            continue
        rows, cols = np.nonzero(bad)
        violations.extend(
            {"pair": (r0 + i, r0 + j), "kind": "within" if w else "between",
             "before": x, "after": y}
            for i, j, w, x, y in zip(rows.tolist(), cols.tolist(), same[rows, cols].tolist(),
                                     b[rows, cols].tolist(), a[rows, cols].tolist()))
    return len(violations) == 0, tuple(violations)


def centric_transform(dataset, gamma, cluster_id, lam):
    """Shrink one cluster towards its centroid: x' = mu + lam * (x - mu).

    Only the chosen cluster's points move; its centroid is preserved and
    its within-cluster distances scale by exactly lam.  Distances to other
    clusters change in whatever way the geometry dictates -- this is not
    generally admissible in the sense of :func:`is_gamma_transform`, and
    that is the point.

    Parameters
    ----------
    dataset : Dataset
    gamma : Partition
    cluster_id : int
    lam : float in (0, 1]

    Returns
    -------
    Dataset
    """
    _check_cluster_id(gamma, cluster_id)
    _check_lambda(lam)
    _check_partition_size(gamma, dataset.n)
    pts = dataset.points.copy()
    idx = list(gamma.clusters[cluster_id])
    mu = pts[idx].mean(axis=0)
    pts[idx] = mu + lam * (pts[idx] - mu)
    return Dataset(pts)


def centric_matrix_transform(d, gamma, cluster_id, lam):
    """Distance-level centric shrink: one cluster's internal distances x lam.

    Works directly on a distance table, leaving every distance that
    touches the outside untouched, so the result is always admissible in
    the sense of :func:`is_gamma_transform`.

    Parameters
    ----------
    d : DistanceMatrix
    gamma : Partition
    cluster_id : int
    lam : float in (0, 1]

    Returns
    -------
    DistanceMatrix
    """
    if not isinstance(d, DistanceMatrix):
        raise TypeError("d must be a DistanceMatrix, got %r" % type(d).__name__)
    _check_cluster_id(gamma, cluster_id)
    _check_lambda(lam)
    values = d.values.copy()
    _check_partition_size(gamma, d.n)
    idx = np.array(gamma.clusters[cluster_id], dtype=int)
    block = np.ix_(idx, idx)
    values[block] = values[block] * lam
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values)


def motion_transform(dataset, gamma, cluster_id, vector):
    """Rigidly translate one cluster and judge the move's legality.

    The move is legal when (a) the moved cluster's centroid does not get
    closer to any other cluster's centroid, and (b) after the move the
    enclosing balls (centroid, max point distance) of all clusters are
    pairwise non-overlapping.  The moved cluster's centroid is taken as
    its old centroid plus ``vector``.

    Parameters
    ----------
    dataset : Dataset
    gamma : Partition
    cluster_id : int
    vector : (m,) array_like

    Returns
    -------
    (Dataset, bool)
        The moved dataset and the legality verdict.
    """
    _check_cluster_id(gamma, cluster_id)
    _check_partition_size(gamma, dataset.n)
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (dataset.m,):
        raise ValueError("vector must have shape (%d,)" % dataset.m)
    pts = dataset.points.copy()
    idx = list(gamma.clusters[cluster_id])
    # a rigid move shifts a cluster's center and points alike, so the radii
    # are those before it; remeasuring would only add the move's rounding
    before, radii = _balls(pts, gamma.clusters)
    pts[idx] = pts[idx] + vector
    moved = Dataset(pts)
    after = before.copy()
    after[cluster_id] += vector
    d_before = np.sqrt(_sq_dists(before.T, before))
    d_after = np.sqrt(_sq_dists(after.T, after))
    closer = d_after[cluster_id] < d_before[cluster_id] * (1.0 - _PAIR_RTOL)
    overlap = d_after < (radii[:, None] + radii) * (1.0 - _PAIR_RTOL)
    legal = not closer.any() and not np.triu(overlap, 1).any()
    return moved, legal


def inner_proportional_transform(dataset, gamma, lams):
    """Shrink every cluster towards its own centroid, cluster j by lams[j].

    Parameters
    ----------
    dataset : Dataset
    gamma : Partition
    lams : sequence of float in (0, 1], one per cluster

    Returns
    -------
    Dataset
    """
    _check_partition_size(gamma, dataset.n)
    lams = [float(l) for l in lams]
    if len(lams) != gamma.k:
        raise ValueError("need one lambda per cluster (%d), got %d" % (gamma.k, len(lams)))
    for lam in lams:
        _check_lambda(lam)
    pts = dataset.points.copy()
    for block, lam in zip(gamma.clusters, lams):
        idx = list(block)
        mu = pts[idx].mean(axis=0)
        pts[idx] = mu + lam * (pts[idx] - mu)
    return Dataset(pts)
