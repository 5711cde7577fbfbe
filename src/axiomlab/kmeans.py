"""The k-means objective and its optimisers.

Contains the two-route objective evaluator, seeding strategies, Lloyd
iteration with deterministic tie-breaking, restarted k-means that builds a
result only for the winning restart, an exhaustive branch-and-bound global
optimiser for small n, and a one-table single-point-move local-minimum test.

Lloyd has two routes, chosen in one place (:func:`_first_best`) from the
dataset's size, that run one loop (:func:`_lloyd_core`) and result
builder (:func:`_build_result`).  Above ``_FLOAT_ROUTE_MAX`` coordinates
(n * m) the steps are numpy kernels on contiguous per-axis columns
(:attr:`~axiomlab.core.Dataset.columns`) with no (n, k, m) temporary: the
assignment is the first minimum per point of one distance table
(:func:`~axiomlab.core._sq_dists`), at k = 2 one comparison of its rows
(:func:`_assign_arrays`), a step computes only the next centers
(:func:`_means`) and reads its objective from the next table, and a
run's exact scatters come once, from one stable sort of its final labels
(:func:`_cluster_stats`).  At or below it, where numpy's fixed cost per
call is most of the time, all but the distance table, its first minimum
per point and the rare empty-cluster repair runs on plain Python floats
(:func:`_assign_floats`, :func:`_float_stats`, :func:`_shifted_floats`),
means and scatters at every step.  Both routes give the floats of the
broadcast and per-cluster-mask forms, bit for bit, as both follow
numpy's summation order, written once in
:func:`~axiomlab.core._pairwise_sum`.  The cutoff is 64.  Over 600 single
uniform restarts per size (fastest of 7 alternating runs, 2-vCPU Xeon,
Python 3.11.7, numpy 2.4.6) the float route broke even near n * m = 44
for m = 1, 48-56 for m = 2, 54-78 for m = 3, 60-95 for m = 5 and 80-96
for m = 8, at k = 2 and at k = 3, 4.

Restarts share one table of the paths their converged runs took.  From a
labelling on, Lloyd depends on that labelling alone, so a restart that
reaches one an earlier converged restart passed through stops there: it
would end in that restart's state, and the first of equal runs wins.  A
plus-plus restart's first assignment reads the distance rows its seeding
made (:func:`_seed`), and each weighted pick is ``rng.choice``'s own rule
written out (:func:`_pick`): the same floats, indices and draws.

Every number that matters is computed along two independent routes and
cross-checked: the objective in centroid form (per-cluster scatters
summed in canonical order) and in shifted-sum form, each
single-point-move increment in closed form and through the moved
cluster mean, each Lloyd step against the previous objective, and each
converged array-route run's final scatters against the objective read
from its last distance table.  A disagreement raises
:class:`~axiomlab.core.CrossCheckError` at once (an explicit exception,
so ``python -O`` keeps it) instead of producing a quietly wrong number.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    CrossCheckError,
    Partition,
    _check_partition_size,
    _frozen_array,
    _pairwise_sum,
    _reduce_through_init,
    _scatter,
    _sq_dists,
)

SEEDING_STRATEGIES = ("uniform-random", "plus-plus")

# relative tolerance (floored at 1) between the two routes of a cross-check
_CROSS_CHECK_RTOL = 1e-9

# relative tolerance of kmeans_ideal_minima's cut, is_local_min's move test
# and the suites' checks; the first two take it of the larger objective
# floored at _tie_floor, which scales as objectives do (so scaling the
# data by 2**e changes no verdict) and keeps coincident points tied,
# though their means round and their exact 0 increments come out > 0
REL_TOL = 1e-9

# Lloyd runs on plain Python floats up to this many coordinates (n * m), on
# numpy's whole-array kernels above; the module docstring has the measurement
_FLOAT_ROUTE_MAX = 64

# cap on Lloyd center updates per run
_MAX_ITERATIONS = 100

# rng.choice's tolerance on the sum of its p: the square root of float64's eps
_PICK_ATOL = float(np.finfo(float).eps) ** 0.5


@dataclass(frozen=True)
class KMeansConfig:
    """Configuration for :func:`kmeans`.

    Attributes
    ----------
    k : int
        Number of clusters, >= 2.
    seeding : str
        ``"uniform-random"`` or ``"plus-plus"``.
    restarts : int
        Independent seedings to try; the best final objective wins.
    rng_seed : int
        Master seed; restarts use spawned child generators, so the whole
        run is reproducible.
    """

    k: int
    seeding: str = "plus-plus"
    restarts: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2, got %d" % self.k)
        if self.seeding not in SEEDING_STRATEGIES:
            raise ValueError("seeding must be one of %s, got %r"
                             % (SEEDING_STRATEGIES, self.seeding))
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Immutable outcome of a clustering run.

    ``centers`` are always the means of ``partition``'s clusters, in the
    partition's canonical cluster order.
    """

    partition: Partition
    centers: np.ndarray
    q: float
    iterations: int
    explained_variance: float
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "centers", _frozen_array(self.centers))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "explained_variance", float(self.explained_variance))
        object.__setattr__(self, "converged", bool(self.converged))

    __reduce__ = _reduce_through_init

    def __repr__(self):
        return "ClusteringResult(k=%d, q=%.6g, iterations=%d, converged=%s)" % (
            self.partition.k, self.q, self.iterations, self.converged)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def _cross_check(what, first, second):
    """Raise CrossCheckError unless two routes agree elementwise to
    _CROSS_CHECK_RTOL * max(1, |first|, |second|); NaN never agrees.  Two
    Python floats are compared without numpy, and arrays whose largest
    difference is within _CROSS_CHECK_RTOL pass on one reduction.  ``what``
    names the check, or maps the first disagreement's flat index to it."""
    if type(first) is float and type(second) is float:
        if not abs(first - second) <= _CROSS_CHECK_RTOL * max(1.0, abs(first), abs(second)):
            raise CrossCheckError("%s: %r and %r disagree" % (what, first, second))
        return
    first, second = np.asarray(first), np.asarray(second)
    error = np.abs(first - second)
    if np.maximum.reduce(error, axis=None, initial=0.0) <= _CROSS_CHECK_RTOL:
        return
    scale = np.maximum(1.0, np.maximum(np.abs(first), np.abs(second)))
    bad = ~(error <= _CROSS_CHECK_RTOL * scale)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CrossCheckError("%s: %r and %r disagree" % (
            what(i) if callable(what) else what,
            float(first.flat[i]), float(second.flat[i])))


def objective_q(dataset, partition):
    """k-means objective of a partition, computed along two routes.

    The centroid form sums squared distances to cluster means.  The
    shifted form takes one member c of each cluster and sums
    |x - c|^2 - |sum (x - c)|^2 / n_j; the two are equal by algebra, and
    shifting by a member keeps the subtraction from cancelling on data far
    from the origin.  Both routes cost O(nm).  They must agree to relative
    1e-9 (floored at 1) on every call, else
    :class:`~axiomlab.core.CrossCheckError` is raised.

    Parameters
    ----------
    dataset : Dataset
    partition : Partition

    Returns
    -------
    float
        The centroid-form value.
    """
    pts = dataset.points
    _check_partition_size(partition, dataset.n)
    centroid_form = 0.0
    for block in partition.clusters:
        centroid_form += _scatter(pts[list(block)])
    _cross_check("objective: centroid form vs shifted form",
                 centroid_form, _shifted_q(dataset.columns, partition.clusters))
    return centroid_form


def _shifted_q(cols, clusters):
    """The objective's shifted form: per cluster, with c its first member,
    sum |x - c|^2 - |sum (x - c)|^2 / n_j; O(nm).

    ``cols`` is :attr:`~axiomlab.core.Dataset.columns`, so each cluster's
    differences are an (m, n_j) array whose per-axis sums run along
    contiguous rows (an independent route, so the order of its additions
    is free).  A cluster is a sequence or array of member indices."""
    q = 0.0
    for block in clusters:
        sub = cols.take(block, axis=1)
        diff = sub - sub[:, :1]
        total = np.add.reduce(diff, axis=1)
        q += float(np.sum(diff * diff)) - float(np.add.reduce(total * total)) / len(block)
    return q


def _summed(scatters, order):
    """Per-cluster scatters added left to right from 0.0 in the given
    cluster order; the order fixes the float result."""
    q = 0.0
    for j in order:
        q += scatters[j]
    return q


def _canonical(members):
    """The labels in canonical cluster order (by first member), from each
    label's members in increasing point index."""
    return sorted(range(len(members)), key=lambda j: members[j][0])


def explained_variance(dataset, partition):
    """Fraction of total scatter a partition explains: 1 - Q / TSS.

    A dataset whose points all coincide has TSS = 0 and is fully explained
    by anything.
    """
    if not isinstance(partition, Partition):
        raise TypeError("partition must be a Partition")
    return _explained(dataset, objective_q(dataset, partition))


def _explained(dataset, q):
    tss = dataset.total_scatter
    if tss == 0.0:
        return 1.0
    return 1.0 - q / tss


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def seed(dataset, k, strategy, rng):
    """Draw k initial centers from the dataset's points.

    ``"uniform-random"`` picks k distinct point indices uniformly;
    ``"plus-plus"`` picks the first uniformly and each next point with
    probability proportional to its squared distance to the nearest center
    chosen so far, by ``rng.choice``'s own rule (:func:`_pick`).  With
    k = n every point is a center and no randomness is consumed.
    :func:`kmeans` seeds through :func:`_seed`, which keeps their rows.

    Parameters
    ----------
    dataset : Dataset
    k : int
        2 <= k <= n.
    strategy : str
        ``"uniform-random"`` or ``"plus-plus"``.
    rng : numpy.random.Generator

    Returns
    -------
    (k, m) ndarray
    """
    return _seed(dataset, k, strategy, rng)[0]


def _seed(dataset, k, strategy, rng):
    """:func:`seed`'s centers and the (k, n) table of their
    :func:`~axiomlab.core._sq_dists` rows (None for uniform seeding or
    k == n): an entry depends only on its point and center, so these are
    the floats the first assignment would make."""
    pts, n = dataset.points, dataset.n
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n, got k=%d, n=%d" % (k, n))
    if strategy not in SEEDING_STRATEGIES:
        raise ValueError("unknown seeding strategy %r" % (strategy,))
    if k == n:
        return pts.copy(), None
    if strategy == "uniform-random":
        return pts[rng.choice(n, size=k, replace=False)], None
    # plus-plus; a row of _sq_dists is np.sum((pts - c) ** 2, axis=1)
    cols = dataset.columns
    chosen = [int(rng.integers(n))]
    table = np.empty((k, n))
    table[0] = d2 = _sq_dists(cols, pts[chosen])[0]
    for j in range(1, k):
        total = float(d2.sum())
        if not math.isfinite(total):
            raise ValueError("squared distances overflow float64")
        if total == 0.0:
            # every remaining point coincides with a center; fall back to
            # a uniform pick among the unchosen indices
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            nxt = int(rng.choice(np.flatnonzero(mask)))
        else:
            nxt = _pick(d2, total, rng)
        chosen.append(nxt)
        table[j] = row = _sq_dists(cols, pts[[nxt]])[0]
        if j < k - 1:  # the last minimum would go unread
            d2 = np.minimum(d2, row)
    return pts[chosen], table


def _pick(d2, total, rng):
    """``int(rng.choice(len(d2), p=d2 / total))`` by numpy's own rule, the
    same index and draws; of ``choice``'s checks on p only the sum's is
    needed, as ``d2 >= 0`` and ``total`` is its finite positive sum."""
    cdf = (d2 / total).cumsum()
    if not abs(cdf[-1] - 1.0) <= _PICK_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


# ---------------------------------------------------------------------------
# Lloyd iteration
# ---------------------------------------------------------------------------


def _cluster_stats(dataset, labels, counts, means=None):
    """Each cluster's mean, scatter and members, the means and scatters
    bit for bit those of ``sub = points[labels == j]``,
    ``sub.mean(axis=0)`` and ``np.sum((sub - mean) ** 2)``, without a mask
    per cluster.

    ``counts`` is ``np.bincount(labels, minlength=k)``; every one of the
    k clusters must be non-empty.  One stable argsort of the labels lays
    every cluster's rows out as a contiguous block, in increasing point
    index as the mask would.  The means are ``means``, else :func:`_means`
    (at m = 1 on its own sort).  Each scatter is ``np.sum`` over the
    cluster's block of the (n, m) squared differences in sorted row
    order: the same flattened sequence, summed pairwise, that the mask
    route reduces.

    Returns a (k, m) array of means, a list of k scatters and a list of k
    index arrays, each cluster's members in increasing point index (its
    block of the argsort), all indexed by label.
    """
    order, blocks = _sorted_blocks(labels, counts)
    if means is None:
        means = _means(dataset.columns, labels, counts)
    diff = dataset.points.take(order, axis=0)
    diff -= np.repeat(means, counts, axis=0)
    diff *= diff
    # np.add.reduce(x, axis=None) is np.sum(x) without the Python wrapper
    scatters = [float(np.add.reduce(diff[b], axis=None)) for b in blocks]
    return means, scatters, [order[b] for b in blocks]


def _sorted_blocks(labels, counts):
    """One stable argsort of the labels and each label's slice of it, a
    contiguous block of its members in increasing point index."""
    # the path keys' narrowest type; any key type gives one permutation
    keys = labels.astype(np.min_scalar_type(len(counts) - 1))
    order = np.argsort(keys, kind="stable")
    sizes = counts.tolist()
    blocks = [slice(end - size, end)
              for size, end in zip(sizes, itertools.accumulate(sizes))]
    return order, blocks


def _means(cols, labels, counts):
    """Each cluster's mean, bit for bit ``points[labels == j].mean(axis=0)``,
    as a (k, m) array indexed by label; the array route's center update.

    For every m >= 2 (m >= 8 included), ``mean(axis=0)`` adds the rows
    one after another from 0.0, which is the order of
    ``np.bincount(labels, weights=column)``; for m = 1 it sums the
    cluster's values pairwise, so each mean is ``np.sum`` over the
    cluster's slice of the stably sorted column (:func:`_sorted_blocks`).
    Both are divided by the cluster size.
    """
    if len(cols) == 1:
        order, blocks = _sorted_blocks(labels, counts)
        xs = cols[0].take(order)
        return np.array([[np.add.reduce(xs[b]) / (b.stop - b.start)]
                         for b in blocks])
    k = len(counts)
    means = np.empty((k, len(cols)))
    for a, col in enumerate(cols):
        means[:, a] = np.bincount(labels, weights=col, minlength=k)
    means /= counts[:, None]
    return means


def _fix_empty_clusters(d2, labels, k):
    """Re-home one point per empty cluster, in place in ``labels``.

    The point moved into an empty slot is the one farthest from its
    currently assigned center, excluding points that are alone in their
    cluster (moving those would just shift the hole around).  Distances
    are read from ``d2``, the (k, n) table of these centers that the
    assignment read.
    """
    idx = np.arange(len(labels))
    for c in range(k):
        while not np.any(labels == c):
            counts = np.bincount(labels, minlength=k)
            eligible = counts[labels] > 1
            if not np.any(eligible):
                raise RuntimeError("cannot repopulate empty cluster %d" % c)
            dist2 = d2[labels, idx]  # each point to its own center
            dist2[~eligible] = -np.inf
            labels[int(np.argmax(dist2))] = c


def _check_descent(q_prev, q_here, points):
    """Lloyd's objective never increases: assignment and the empty-cluster
    fix only remove scatter, and the mean is optimal for fixed membership.
    Raise ValueError if ``q_here`` overflowed, CrossCheckError if it grew
    by over REL_TOL * (q_prev + the points' :func:`_tie_floor`), the floor
    made only then (a zero objective rounds to about n eps**2 top**2)."""
    if not q_here < math.inf:
        raise ValueError("squared distances overflow float64")
    slack = q_prev * (1.0 + REL_TOL)
    if not q_here <= slack and not q_here <= slack + REL_TOL * _tie_floor(points):
        raise CrossCheckError("Lloyd objective increased from %r to %r" % (q_prev, q_here))


def _lloyd_core(dataset, centers, rows=None, paths=None, table=None):
    """Run Lloyd until membership stabilises, for at most
    ``_MAX_ITERATIONS`` center updates; returns raw state, or None when
    the run met an earlier run's path.

    ``rows`` picks the route (see the module docstring).  ``table`` is
    None or the centers' (k, n) distance table (:func:`_seed`), read by
    the first assignment.  No step's objective may exceed the previous
    one; on the array route a converged run's final block scatters must
    also agree with the last table's objective.

    ``paths`` (None for a single start) maps each labelling a converged
    run of this call passed through to its objective and the updates that
    run made from it on.  A run depends only on its labelling, so one
    whose labelling after t updates is in the table would end in that
    run's state and ``q``, and cannot win (:func:`_first_best`).  If t
    plus those updates is within the cap (else it would stop elsewhere),
    it makes the descent check it would make next (the earlier run made
    the rest on the same floats), enters its path and returns None.

    Returns
    -------
    means, scatters, members, updates, converged
        The final labelling's per-label means, scatters and members, each
        cluster's point indices in increasing order.
    """
    k = len(centers)
    cols, pts = dataset.columns, dataset.points
    assign = (functools.partial(_assign_arrays, k, np.min_scalar_type(k - 1),
                                np.arange(dataset.n)) if rows is None
              else functools.partial(_assign_floats, k))
    owners = None
    path, seen = [], []  # the keys stepped from; q_prev at each assignment
    q_prev = math.inf
    converged = False
    while True:
        if table is None:
            table = _sq_dists(cols, np.asarray(centers, dtype=float))
        labels, counts, key, q_table = assign(table, owners)
        table = None
        if q_table is not None:  # the objective of the owners' step
            _check_descent(q_prev, q_table, pts)
            q_prev = q_table
        seen.append(q_prev)
        if path and key == path[-1]:
            converged = True  # labels are the last step's
            break
        met = paths and paths.get(key)
        if met and len(path) + met[1] <= _MAX_ITERATIONS:
            _check_descent(q_prev, met[0], pts)  # the check this run makes next
            _record(paths, path, seen, len(path) + met[1])
            return None
        if len(path) >= _MAX_ITERATIONS:
            break
        if rows is None:  # the next table gives this step's objective
            means = _means(cols, labels, counts)
        else:
            means, scatters, members = _float_stats(rows, labels, counts)
            q_prev = _checked(q_prev, scatters, pts)
        centers = means
        path.append(key)
        owners = labels
    if converged and paths is not None:
        _record(paths, path, seen, len(path))
    if rows is None or not converged:
        if rows is None:  # a converged run's centers are its labels' means
            means, scatters, members = _cluster_stats(
                dataset, labels, counts, centers if converged else None)
        else:
            means, scatters, members = _float_stats(rows, labels, counts)
        q_here = _checked(q_prev, scatters, pts)
        if converged and q_table is not None:
            _cross_check("Lloyd objective: block scatters vs distance table",
                         q_here, q_table)
    return means, scatters, members, len(path), converged


def _record(paths, path, seen, total):
    """Table each labelling of a run's path as (objective, updates left)."""
    for s, key in enumerate(path):
        paths[key] = (seen[s + 1], total - s)


def _checked(q_prev, scatters, points):
    """The scatters summed in label order, checked not to exceed the
    previous objective (:func:`_check_descent`)."""
    q_here = _summed(scatters, range(len(scatters)))
    _check_descent(q_prev, q_here, points)
    return q_here


def _assign_arrays(k, key_type, idx, d2, owners):
    """The array route's assignment step from the centers' (k, n) table
    ``d2``: each point's first minimum, ``d2.argmin(axis=0)`` (ties go to
    the lowest index; points and means are finite or +-inf, so no entry
    is NaN), then any repair (:func:`_fix_empty_clusters`, in place).

    Returns the labels, their counts, their key (their bytes as
    ``key_type``, the narrowest unsigned type for k labels) and, when
    ``owners`` are the labels whose means the centers are, their
    objective read from the table: the sum of each point's entry for its
    owner, ``d2[owners, idx]`` (``idx`` is ``np.arange(n)``), in point
    order, else None.  At k = 2 the labels are one comparison,
    ``d2[1] < d2[0]`` (``argmin``'s answer), whose c hits give the
    counts n - c and c, and the owners' entries are
    ``np.where(owners, d2[1], d2[0])``.  At n = 4 000, k = 3 ``argmin``
    and the gather take about 66 and 15 us against a running minimum's
    22 and a flat ``take``'s 7: accepted, as nothing runs k >= 3 there.
    """
    if k == 2:
        closer = d2[1] < d2[0]
        c = int(np.count_nonzero(closer))
        labels, counts = closer.astype(np.intp), np.array([len(idx) - c, c])
    else:
        labels = d2.argmin(axis=0)
        counts = np.bincount(labels, minlength=k)
    if np.count_nonzero(counts) < k:
        _fix_empty_clusters(d2, labels, k)
        counts = np.bincount(labels, minlength=k)
    q_table = None
    if owners is not None:
        own = np.where(owners, d2[1], d2[0]) if k == 2 else d2[owners, idx]
        q_table = float(np.add.reduce(own))
    return labels, counts, labels.astype(key_type).tobytes(), q_table


def _assign_floats(k, d2, owners):
    """:func:`_assign_arrays` with the labels and counts as lists, the
    labels' bytes as ``intp`` for key and no table objective (this route
    takes each step's objective from its exact scatters).  The table
    ``d2`` stays numpy (cheaper than a Python loop over its n * k * m
    terms); the labels are its ``argmin`` per point, and a repair is
    :func:`_fix_empty_clusters` on it.
    """
    found = d2.argmin(axis=0)
    labels = found.tolist()
    counts = list(map(labels.count, range(k)))
    if 0 in counts:
        _fix_empty_clusters(d2, found, k)
        labels = found.tolist()
        counts = list(map(labels.count, range(k)))
    return labels, counts, found.tobytes(), None


def _float_stats(rows, labels, counts):
    """:func:`_cluster_stats` on plain Python floats, bit for bit.

    Each cluster's rows are taken in increasing point index.  For m >= 2
    a mean adds the rows one after another from 0.0, as
    ``np.bincount(weights=)`` does; for m = 1 it sums the cluster's
    values with :func:`~axiomlab.core._pairwise_sum` onto numpy's +0.0
    identity, as ``np.add.reduce`` does.  A scatter is
    :func:`~axiomlab.core._pairwise_sum` over the cluster's row-major
    squared differences (never -0.0, so the identity changes nothing).

    Returns k means (lists), k scatters and k member lists, each
    cluster's point indices in increasing order, all indexed by label.
    """
    m = len(rows[0])
    flats = [[] for _ in counts]  # each cluster's rows, row-major
    members = [[] for _ in counts]
    for i, label in enumerate(labels):
        flats[label] += rows[i]
        members[label].append(i)
    means = []
    scatters = []
    for flat, size in zip(flats, counts):
        if m == 1:
            mean = [(0.0 + _pairwise_sum(flat, size)) / size]
        else:
            mean = [functools.reduce(operator.add, flat[a::m], 0.0) / size
                    for a in range(m)]
        squares = [(x - c) * (x - c) for x, c in zip(flat, mean * size)]
        means.append(mean)
        scatters.append(_pairwise_sum(squares, len(squares)))
    return means, scatters, members


def lloyd(dataset, initial_centers):
    """Lloyd iteration from explicit initial centers, one per cluster.

    Points are assigned to the nearest center (ties: lowest center index);
    an empty cluster is repopulated with the point farthest from its own
    center; convergence means an assignment pass changed no membership.
    ``iterations`` counts center updates, at most ``_MAX_ITERATIONS``
    (100), so a start that is already a fixed point reports 1.

    Parameters
    ----------
    dataset : Dataset
    initial_centers : (k, m) array_like

    Returns
    -------
    ClusteringResult
    """
    centers = np.asarray(initial_centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != dataset.m:
        raise ValueError("initial_centers must be (k, %d)" % dataset.m)
    if not np.isfinite(centers).all():
        raise ValueError("initial_centers must be finite")
    if not 2 <= len(centers) <= dataset.n:
        raise ValueError("need 2 <= k <= n, got k=%d, n=%d" % (len(centers), dataset.n))
    return _first_best(dataset, [(centers, None)])


def _first_best(dataset, starts, paths=None):
    """Lloyd from each start, (k, m) centers and their distance table or
    None (:func:`_seed`), in turn; the ClusteringResult of the first run
    with the smallest objective.

    Runs are compared on their scatters summed in canonical cluster order,
    the winner's ``q`` bit for bit, and only the winner becomes a result.
    Here the route is chosen: the plain-float route (``rows`` the points
    as lists) while n * m <= ``_FLOAT_ROUTE_MAX``, else the array route.

    ``paths``, an empty dict for several starts, becomes their path table
    (:func:`_lloyd_core`): a run that meets an earlier run's path would
    end with its ``q``, and the first of equal runs wins, so it is skipped.
    """
    rows = None
    if dataset.n * dataset.m <= _FLOAT_ROUTE_MAX:
        rows = dataset.points.tolist()
    best = None
    for centers, table in starts:
        run = _lloyd_core(dataset, centers, rows, paths, table)
        if run is None:
            continue  # met an earlier run's path
        q = _summed(run[1], _canonical(run[2]))  # scatters in canonical order
        if best is None or q < best[0]:
            best = (q, run)
    return _build_result(dataset, *best[1], rows)


def _build_result(dataset, means, scatters, members, iterations, converged, rows):
    """The ClusteringResult of a labelling with k non-empty clusters, from
    its per-label means, scatters and members (:func:`_cluster_stats` or
    :func:`_float_stats`).

    The canonical cluster order sorts the labels by first member.  The
    partition is the members in that order (index arrays on the array
    route, lists on the plain-float route), ``centers`` are the means and
    ``q`` the scatters in that order, which is the float sequence of
    :func:`objective_q`'s centroid form; ``q`` is cross-checked against
    the O(nm) shifted form, on arrays (:func:`_shifted_q`) or, when
    ``rows`` is ``dataset.points.tolist()``, on floats
    (:func:`_shifted_floats`).
    """
    order = _canonical(members)
    if rows is None:
        partition = Partition([members[j].tolist() for j in order])
        shifted = _shifted_q(dataset.columns, [members[j] for j in order])
    else:
        partition = Partition([members[j] for j in order])
        shifted = _shifted_floats(rows, partition.clusters)
    q = _summed(scatters, order)
    _cross_check("objective: centroid form vs shifted form", q, shifted)
    return ClusteringResult(partition, [means[j] for j in order], q,
                            iterations, _explained(dataset, q), converged)


def _shifted_floats(rows, clusters):
    """:func:`_shifted_q` on plain Python floats, axis by axis (an
    independent route, so the order of its additions is free)."""
    q = 0.0
    for block in clusters:
        members = [rows[i] for i in block]
        for a, c in enumerate(members[0]):
            diffs = [row[a] - c for row in members]
            total = sum(diffs)
            q += sum([t * t for t in diffs]) - total * total / len(block)
    return q


def kmeans(dataset, config):
    """Full k-means driver: seed, run Lloyd, repeat, keep the best.

    ``config.restarts`` independent seedings are drawn, restart i's from
    ``SeedSequence(rng_seed).spawn(restarts)[i]``'s generator, and the
    result with the smallest objective wins (first winner kept on exact
    ties; :func:`_first_best`).  A restart that reaches a labelling an
    earlier converged restart passed through stops there: it would end in
    that restart's state and so cannot win.

    Parameters
    ----------
    dataset : Dataset
    config : KMeansConfig

    Returns
    -------
    ClusteringResult
    """
    starts = (_seed(dataset, config.k, config.seeding, np.random.default_rng(
        np.random.SeedSequence(config.rng_seed, spawn_key=(i,))))
        for i in range(config.restarts))
    return _first_best(dataset, starts, {} if config.restarts > 1 else None)


# ---------------------------------------------------------------------------
# exhaustive optimisation
# ---------------------------------------------------------------------------


def kmeans_ideal(dataset, k):
    """Exhaustive global optimum of the k-means objective.

    Walks every partition of the points into exactly k clusters in
    canonical order, with branch-and-bound pruning (the within-cluster
    scatter of a partial partition can only grow as points are added, so a
    partial sum already above the incumbent is dead).  On objective ties
    the earliest partition in canonical order wins.

    The walk runs on plain Python floats with no numpy call (see
    :func:`_ideal_search`); the result is built on the plain-float route,
    so ``q`` is the winner's scatters summed in canonical order (the float
    value of :func:`objective_q`'s centroid form), cross-checked against
    the shifted form.

    n may not exceed ``core.ENUMERATION_CAP`` (12).

    Parameters
    ----------
    dataset : Dataset
    k : int
        1 <= k <= n.

    Returns
    -------
    ClusteringResult
        ``iterations`` is the number of complete partitions evaluated.
    """
    best_rgs, _, leaves, _ = _ideal_search(dataset, k)
    rows = dataset.points.tolist()
    stats = _float_stats(rows, best_rgs, list(map(best_rgs.count, range(k))))
    return _build_result(dataset, *stats, leaves, True, rows)


def _ideal_search(dataset, k, collect_tol=None):
    """Shared search core; with collect_tol, also gather near-optima.

    Returns ``(best_rgs, best_q, leaves, near)``: the earliest canonical
    minimiser as a restricted growth string, its partial sum, the number
    of k-cluster leaves reached and (with collect_tol) every leaf reached
    with its partial sum, in canonical order.

    Each point, and each cluster's coordinate sums, is a tuple
    ``(a0, a1, a2, rest)``: the first three axes (0.0 pads them when
    m < 3) and a tuple of the axes past the third; with an int count per
    cluster, a node costs O(m) scalar float operations and no numpy call.
    Adding x to a cluster of c >= 1 points with sums s adds
    c / (c + 1) * d2, d2 = t * t + u * u + v * v (t = x[0] - s[0] / c, and
    so on), then each rest axis's t * t, left to right.  That is the sum
    over every axis from 0.0, bit for bit: 0.0 + t * t is t * t (never
    -0.0), and a padded axis adds exactly 0.0, its t being 0.0 - 0.0 / c.
    For m <= 7 these are the IEEE operations, in order, of the same walk
    on numpy rows (the tests' oracle); from m = 8 ``np.sum`` adds the axes
    pairwise, so a partial sum may differ from that walk in its last bit.

    A child is tested in its parent's loop: it is cut when its partial sum
    exceeds the bound, and once every point left must open a cluster of
    its own the new cluster is the only child.  A leaf is scored there too
    and replaces the incumbent only when strictly better.  An entered
    child's cluster gets new sums and the parent's back on return, so a
    partial sum depends on its path's labels alone.  ``rec`` reads the
    walk's fixed state from default arguments (locals, not closure cells)
    and the incumbent, leaf count and bound from one list, the bound once
    per node and again after each return.

    The plain walk's bound is the incumbent.  The collecting walk's starts
    at w(dive), w(q) = q + tol * max(q, :func:`_tie_floor`), where dive
    is the partial sum of the leaf a greedy dive reaches (:func:`_dive`; inf
    if it overflows), and a better leaf p lowers it to w(p).  No leaf with
    p <= cut = w(best_q) is lost: the dive's leaf is reached unless a leaf
    below dive cut it, so best_q <= dive and cut is at most the starting
    bound; w grows with q, so every later bound is at least cut; and a
    partial sum only grows along a path (each step adds a float >= 0).
    """
    pts = dataset.points
    n, m = pts.shape
    if not 1 <= n <= core.ENUMERATION_CAP:  # read per call, so it can be patched
        raise ValueError("exhaustive search supports 1 <= n <= %d (n=%d)"
                         % (core.ENUMERATION_CAP, n))
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n, got k=%d, n=%d" % (k, n))

    pad = (0.0,) * (3 - m)
    points = [(*row[:3], *pad, tuple(row[3:])) for row in pts.tolist()]
    weight = [c / (c + 1) for c in range(n)]
    floor, near, bound = None, [], math.inf
    if collect_tol is not None:
        floor, dive = _tie_floor(pts), _dive(points, k, weight)
        bound = dive + collect_tol * max(dive, floor) if dive < math.inf else bound
    state = [math.inf, None, 0, bound]  # best_q, best_rgs, leaves, bound

    def rec(i, used, partial, points=points, counts=[0] * k,
            sums=[(0.0, 0.0, 0.0, (0.0,) * (m - 3))] * k, weight=weight,
            tops=[range(min(u + 1, k)) for u in range(k + 1)],
            rgs=[0] * n, last=n - 1, free=n - k, state=state, tol=collect_tol,
            floor=floor, near=near, add=operator.add):
        x0, x1, x2, xr = points[i]
        bound = state[3]
        # once every point from i on must open a cluster of its own
        for j in (used,) if i - used == free else tops[used]:
            c = counts[j]
            s = s0, s1, s2, sr = sums[j]
            p = partial  # partial + 0.0, as partial is never -0.0
            if c:
                t = x0 - s0 / c
                u = x1 - s1 / c
                v = x2 - s2 / c
                d2 = t * t + u * u + v * v
                if xr:
                    for xa, sa in zip(xr, sr):
                        t = xa - sa / c
                        d2 += t * t
                p += weight[c] * d2
            if p > bound:
                continue
            rgs[i] = j
            if i == last:
                state[2] += 1
                if p < state[0]:
                    state[0], state[1] = p, rgs.copy()
                    state[3] = bound = p if tol is None else min(
                        bound, p + tol * max(p, floor))
                if tol is not None:
                    near.append((p, rgs.copy()))
                continue
            counts[j] = c + 1
            sums[j] = (s0 + x0, s1 + x1, s2 + x2,
                       tuple(map(add, sr, xr)) if xr else sr)
            rec(i + 1, used + (j == used), p)
            counts[j] = c
            sums[j] = s
            bound = state[3]

    rec(0, 0, 0.0)
    best_q, best_rgs, leaves, _ = state
    if best_rgs is None:
        raise ValueError("every partition's objective overflows float64")
    return best_rgs, best_q, leaves, near


def _dive(points, k, weight):
    """The partial sum, on :func:`_ideal_search`'s points, of the leaf a
    greedy dive reaches: each point joins the child the walk allows with
    the least increment (a new cluster costs 0, ties go to the lower
    label); inf or NaN on overflow."""
    n, rest = len(points), (0.0,) * len(points[0][3])
    counts, sums = [0] * k, [(0.0, 0.0, 0.0, rest)] * k
    dive, used = 0.0, 0
    for i, (x0, x1, x2, xr) in enumerate(points):
        pick = None
        for j in [used] if used + (n - i) == k else range(min(used + 1, k)):
            c, (s0, s1, s2, sr), inc = counts[j], sums[j], 0.0
            if c:
                t, u, v = x0 - s0 / c, x1 - s1 / c, x2 - s2 / c
                d2 = t * t + u * u + v * v
                for xa, sa in zip(xr, sr):
                    t = xa - sa / c
                    d2 += t * t
                inc = weight[c] * d2
            if pick is None or inc < cost:
                pick, cost = j, inc
        dive += cost
        counts[pick] += 1
        s0, s1, s2, sr = sums[pick]
        sums[pick] = (s0 + x0, s1 + x1, s2 + x2, tuple(map(operator.add, sr, xr)))
        used += pick == used
    return dive


def _tie_floor(points):
    """eps * (largest |coordinate|)**2: the least objective a verdict takes
    REL_TOL of; it scales by 4**e when the points scale by 2**e."""
    top = float(np.maximum.reduce(np.abs(points), axis=None))
    return float(np.finfo(float).eps) * top * top


def kmeans_ideal_minima(dataset, k):
    """All partitions whose objective is within ``REL_TOL`` of the optimum.

    Every partition with Q <= Q* + REL_TOL * max(Q*, :func:`_tie_floor`),
    in canonical order, where Q is the partial sum of :func:`kmeans_ideal`'s
    walk with the prune widened by that tolerance and started at a greedy
    dive's leaf (see :func:`_ideal_search` for why no such partition is lost).

    Returns
    -------
    list of Partition
    """
    _, best_q, _, near = _ideal_search(dataset, k, collect_tol=REL_TOL)
    cut = best_q + REL_TOL * max(best_q, _tie_floor(dataset.points))
    return [Partition.from_labels(np.asarray(r)) for q, r in near if q <= cut]


# ---------------------------------------------------------------------------
# local-minimum certification
# ---------------------------------------------------------------------------


def _increment(x, mean, total, size, step):
    """Objective change when x leaves (step=-1) or joins (step=+1) a
    cluster of ``size`` points with coordinate sum ``total`` and mean
    ``mean``; a removal gain or an addition cost.  Broadcasts over moves,
    one step each, so a call may mix removals and additions.

    Route one is the closed form size / (size + step) * |x - mean|^2.
    Route two forms the moved cluster's mean nu from ``total`` and uses
    the parallel-axis split: the scatter with x equals the scatter without
    x plus |x - c|^2 plus s |nu - mean|^2, where c is the mean of the
    cluster holding x and s the size of the one without it.  Both routes
    cost O(m) per move and must agree to relative 1e-9 (floored at 1).
    """
    step = np.asarray(step)
    moved = size + step
    dist = np.add.reduce(np.square(x - mean), axis=-1)
    closed = size / moved * dist
    nu = (total + step[..., None] * x) / moved[..., None]
    direct = (np.where(step < 0, dist, np.add.reduce(np.square(x - nu), axis=-1))
              + np.minimum(size, moved) * np.add.reduce(np.square(nu - mean), axis=-1))
    _cross_check(lambda i: "removal increment" if step.flat[i] < 0
                 else "addition increment", closed, direct)
    return closed


def is_local_min(dataset, partition):
    """Is the partition stable against every single-point move?

    A move takes one point from its cluster to another; it improves the
    objective iff the removal gain exceeds the addition cost.  Moves that
    would empty a cluster are skipped.  One (movers x k) table, O(nkm),
    holds each mover's removal gain in its source column and its addition
    costs in the others, each along two cross-checked routes (see
    :func:`_increment`).  The witness is the first improving move in scan
    order, read from ``partition.clusters``: clusters canonically, members
    ascending, targets canonically.  A move improves only if gain - cost >
    REL_TOL * max(gain, cost, :func:`_tie_floor`), which keeps degenerate
    ties, coincident points included, stable at any scale.

    Parameters
    ----------
    dataset : Dataset
    partition : Partition

    Returns
    -------
    (bool, dict or None)
        ``(True, None)`` if no improving move exists; otherwise
        ``(False, witness)`` with the first improving move in scan order:
        ``{"point", "source", "target", "delta_q"}``.
    """
    _check_partition_size(partition, dataset.n)
    clusters = partition.clusters
    rows = dataset.points[[i for block in clusters for i in block]]
    sizes = np.fromiter(map(len, clusters), dtype=float)
    # each cluster's rows are one contiguous block, added in member order
    totals = np.array([np.add.reduce(rows[end - len(block):end], axis=0) for block, end
                       in zip(clusters, itertools.accumulate(map(len, clusters)))])
    # scan order; moving the only member would empty its cluster
    movers = [i for block in clusters if len(block) > 1 for i in block]
    source = [j for j, block in enumerate(clusters) if len(block) > 1 for _ in block]
    step = np.where(np.equal.outer(source, np.arange(len(clusters))), -1.0, 1.0)
    table = _increment(dataset.points[movers][:, None, :], totals / sizes[:, None],
                       totals, sizes, step)
    gain = table[step < 0][:, None]
    diff = gain - table  # a source column's 0 is never an improving move
    hits = np.flatnonzero(diff > REL_TOL * np.maximum(gain, table))
    if len(hits):  # the floor, only once a move clears the rest
        hits = hits[diff.flat[hits] > REL_TOL * _tie_floor(dataset.points)]
    if len(hits) == 0:
        return True, None
    row, target = divmod(int(hits[0]), len(clusters))
    return False, {"point": movers[row], "source": source[row], "target": target,
                   "delta_q": float(table[row, target] - gain[row, 0])}
