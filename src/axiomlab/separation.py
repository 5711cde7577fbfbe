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
    radii = radii.tolist()
    # entry [j, i] is the broadcast form's [i, j], and (x - y) ** 2 equals
    # (y - x) ** 2 exactly, so the table is symmetric and the same
    dist = np.sqrt(_sq_dists(centers.T, centers))

    nice = True
    core = True
    core_pairs = []
    min_ball_gap = min_center_dist = np.inf
    for i in range(k):
        for j in range(i + 1, k):
            rho_pair = max(radii[i], radii[j])
            if dist[i, j] < 4.0 * rho_pair:
                nice = False
            gap = dist[i, j] - 2.0 * rho_pair
            core_pairs.append(
                {"pair": [i, j], "gap": float(gap), "core_radius": float(gap / 2.0)}
            )
            if gap <= 0.0:
                core = False
            ball_gap = dist[i, j] - radii[i] - radii[j]
            min_ball_gap = min(min_ball_gap, ball_gap)
            min_center_dist = min(min_center_dist, dist[i, j])

    rho = max(radii)
    perfect = bool(min_center_dist >= 4.0 * rho)

    bound = absolute_gap_bound([len(b) for b in gamma.clusters], radii)

    return {
        "nice_ball": nice,
        "perfect_ball": perfect,
        "rho": rho,
        "core": core,
        "core_pairs": core_pairs,
        "absolute": bool(min_ball_gap >= bound["bound"]),
        "absolute_required": bound["bound"],
        "absolute_actual": float(min_ball_gap),
        "absolute_cases": {"case1": bound["case1"], "case2": bound["case2"]},
        "pairwise_center_distances": dist.tolist(),
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
        Positive cluster sizes.
    r1, r2 : float
        Positive ball radii.

    Returns
    -------
    float
    """
    if n1 <= 0 or n2 <= 0:
        raise ValueError("cluster sizes must be positive")
    if r1 <= 0 or r2 <= 0:
        raise ValueError("radii must be positive")
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
        Cluster sizes, each >= 1.
    radii : sequence of float
        The clusters' ball radii, in the same order.

    Returns
    -------
    dict
        ``{"bound", "case1", "case2"}``.
    """
    k = len(sizes)
    if k < 2 or len(radii) != k:
        raise ValueError("need k >= 2 sizes and one radius each, got %d and %d"
                         % (k, len(radii)))
    if min(sizes) < 1:
        raise ValueError("cluster sizes must be >= 1")
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
    if k < 2:
        raise ValueError("k must be >= 2")
    if p <= 0:
        raise ValueError("p must be positive")
    if p > 1.0 / k:
        raise ValueError("p=%r exceeds 1/k; no cluster share can" % (p,))
    q = 1.0
    for j in range(1, k):
        q *= 1.0 - (k - j) * p
    return q
