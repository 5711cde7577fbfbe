"""Ball-separation certificates and closed-form gap / seeding bounds.

Clusters are summarised as enclosing balls (centroid, max member
distance, from :func:`~axiomlab.core._balls`).  On top of those balls
this module decides which separation regimes a clustered dataset
satisfies — nice, perfect, core, absolute — and provides the analytic
bounds that turn separation into guarantees: the minimal gap that makes
cluster takeover unprofitable, the gap that certifies global optimality,
and the uniform seeding success probability.
"""

import itertools
import math

import numpy as np

from .core import _balls, _check_partition_size, _sq_dists


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def certify(dataset, gamma):
    """Decide every separation regime for a clustered dataset.

    All comparisons are boundary-inclusive: a pair of unit balls with
    centers exactly 4 apart counts as nicely separated.

    Parameters
    ----------
    dataset : Dataset
    gamma : Partition
        Must have at least 2 clusters.

    Returns
    -------
    dict
        The certificate, as ``axiomlab certify`` writes it; every value is
        JSON-native, so the dict equals its own JSON round trip.  Keys, in
        order:

        - ``nice_ball`` (bool): every pair of clusters has center distance
          >= 4 max(r_A, r_B);
        - ``perfect_ball`` (bool): every center distance is >= 4 rho;
        - ``rho`` (float): the single radius max_j r_j of that test;
        - ``core`` (bool): every pair has a positive gap
          g_AB = dist - 2 max(r_A, r_B);
        - ``core_pairs`` (list of dict): per pair i < j,
          ``{"pair": [i, j], "gap": g, "core_radius": g / 2}``;
        - ``absolute`` (bool): the smallest ball gap (dist - r_A - r_B)
          meets the sufficient global-optimality bound
          (:func:`absolute_gap_bound`);
        - ``absolute_required``, ``absolute_actual`` (float): that bound
          and that smallest gap;
        - ``absolute_cases`` (dict): the bound's ``case1`` and ``case2``;
        - ``pairwise_center_distances`` (k x k nested list of float).
    """
    _check_partition_size(gamma, dataset.n)
    k = gamma.k
    if k < 2:
        raise ValueError("certification needs at least 2 clusters")
    centers, radii = _balls(dataset.points, gamma.clusters)
    # entry [j, i] is the broadcast form's [i, j], and (x - y) ** 2 equals
    # (y - x) ** 2 exactly, so the table is symmetric and the same
    dist = np.sqrt(_sq_dists(centers.T, centers))
    # both are roots of squared distances; inf would reach the JSON as Infinity
    if not (np.isfinite(radii).all() and np.isfinite(dist).all()):
        raise ValueError("squared distances overflow float64")
    radii, dist = radii.tolist(), dist.tolist()
    pairs = list(itertools.combinations(range(k), 2))
    gaps = [dist[i][j] - 2.0 * max(radii[i], radii[j]) for i, j in pairs]
    ball_gap = min(dist[i][j] - radii[i] - radii[j] for i, j in pairs)
    rho = max(radii)
    bound = absolute_gap_bound([len(b) for b in gamma.clusters], radii)
    return {
        "nice_ball": all(dist[i][j] >= 4.0 * max(radii[i], radii[j])
                         for i, j in pairs),
        "perfect_ball": min(dist[i][j] for i, j in pairs) >= 4.0 * rho,
        "rho": rho,
        "core": all(gap > 0.0 for gap in gaps),
        "core_pairs": [{"pair": [i, j], "gap": gap, "core_radius": gap / 2.0}
                       for (i, j), gap in zip(pairs, gaps)],
        "absolute": ball_gap >= bound["bound"],
        "absolute_required": bound["bound"],
        "absolute_actual": ball_gap,
        "absolute_cases": {"case1": bound["case1"], "case2": bound["case2"]},
        "pairwise_center_distances": dist,
    }


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def motion_gap_bound(n1, r1, n2, r2):
    """Minimal inter-ball gap making cluster takeover unprofitable.

    For two clusters of sizes n1, n2 enclosed in balls of radii r1, r2,
    a gap of at least r2 * sqrt(2 (1 + 0.5 n2/n1)) - r1 (floored at zero)
    guarantees that re-assigning any part of cluster 2 to cluster 1's
    center never lowers the objective.

    Parameters
    ----------
    n1, n2 : int
        Positive, finite cluster sizes.
    r1, r2 : float
        Positive, finite ball radii.

    Returns
    -------
    float
    """
    # written so that NaN fails every check
    if not (0 < n1 < math.inf and 0 < n2 < math.inf):
        raise ValueError("cluster sizes must be positive and finite")
    if not (0 < r1 < math.inf and 0 < r2 < math.inf):
        raise ValueError("radii must be positive and finite")
    bound = r2 * math.sqrt(2.0 * (1.0 + 0.5 * n2 / n1)) - r1
    return max(bound, 0.0)


def absolute_gap_bound(sizes, radii):
    """Sufficient inter-ball gap for certified global optimality.

    Two independent sufficient conditions are evaluated and the stricter
    one returned:

    - case 1: for every pair p != q,
      k * sqrt(n_p + n_q + n) * sqrt(sum_i n_i r_i^2 / (n_p n_q));
    - case 2: for every cluster i, r_i * sqrt(k (M + n) / m), with M and m
      the largest and smallest cluster size.

    Here k is the number of clusters and n = sum(sizes) the number of
    points.

    Parameters
    ----------
    sizes : sequence of int
        Finite cluster sizes, each >= 1.
    radii : sequence of float
        The clusters' finite ball radii, each >= 0, in the same order.

    Returns
    -------
    dict
        ``{"bound", "case1", "case2"}``.
    """
    k = len(sizes)
    if k < 2 or len(radii) != k:
        raise ValueError("need k >= 2 sizes and one radius each, got %d and %d"
                         % (k, len(radii)))
    if not all(1 <= size < math.inf for size in sizes):
        raise ValueError("cluster sizes must be finite and >= 1")
    if not all(0 <= r < math.inf for r in radii):
        raise ValueError("radii must be finite and >= 0")
    n = sum(sizes)
    weighted = sum(size * r ** 2 for size, r in zip(sizes, radii))
    # the term is symmetric in p and q, so each pair is taken once
    case1 = max(k * math.sqrt(sizes[p] + sizes[q] + n)
                * math.sqrt(weighted / (sizes[p] * sizes[q]))
                for p, q in itertools.combinations(range(k), 2))
    big, small = max(sizes), min(sizes)
    case2 = max(r * math.sqrt(k * (big + n) / small) for r in radii)
    return {"bound": max(case1, case2), "case1": case1, "case2": case2}


def seeding_success(p, k):
    """Probability that uniform-random seeding lands one seed in every
    cluster: q = prod_{j=1}^{k-1} (1 - (k-j) p), with p the smallest
    cluster's share of the points.

    Parameters
    ----------
    p : float
        Smallest cluster share, 0 < p <= 1/k.
    k : int
        Number of clusters, >= 2.

    Returns
    -------
    float
        q.
    """
    if not k >= 2:
        raise ValueError("k must be >= 2")
    if not p > 0:
        raise ValueError("p must be positive")
    if p > 1.0 / k:
        raise ValueError("p=%r exceeds 1/k; no cluster share can" % (p,))
    q = 1.0
    for j in range(1, k):
        q *= 1.0 - (k - j) * p
    return q
