"""Exact one-dimensional k-means by dynamic programming: an oracle for the
exhaustive search that shares none of its code.

In one dimension the optimal clusters are contiguous runs of the sorted
points (Fisher 1958, JASA 53:789), so the best split of the first j + 1
sorted points into m clusters is the best split of some shorter prefix
into m - 1 clusters plus one last run (Wang & Song 2011, R Journal
3(2):29), O(k n^2) in all.
"""

import math

from axiomlab.core import Partition


def _run_scatters(x):
    """cost[i][j]: the scatter of the sorted run x[i..j].

    Each run is grown leftwards from its right end by Welford's centred
    update, never as s2 - s1^2 / c, which cancels to nonsense (even below
    zero) on points far from the origin.
    """
    n = len(x)
    cost = [[0.0] * n for _ in range(n)]
    for j in range(n):
        mean = m2 = 0.0
        for c, i in enumerate(range(j, -1, -1), 1):
            delta = x[i] - mean
            mean += delta / c
            m2 += delta * (x[i] - mean)
            cost[i][j] = m2
    return cost


def kmeans_1d(values, k):
    """The optimal k-means split of 1-D ``values`` into k clusters.

    Returns ``(q, runner_up_q, partition)``: the optimal objective, the
    objective of the second-best split into contiguous runs (inf when
    there is only one), and the optimal partition of the original indices.
    Each DP cell keeps its two cheapest splits, so the runner-up is exact:
    a second-best split's prefix is one of its prefix cell's two best.
    Ties go to the split whose run starts come first lexicographically.
    """
    n = len(values)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n, got k=%d, n=%d" % (k, n))
    order = sorted(range(n), key=values.__getitem__)
    cost = _run_scatters([values[i] for i in order])
    # best[j]: the two cheapest (q, run starts) splits of the first j + 1
    # sorted points into the current number of runs
    best = [[(cost[0][j], (0,))] for j in range(n)]
    for m in range(2, k + 1):
        best = [sorted((q + cost[i][j], starts + (i,))
                       for i in range(m - 1, j + 1) for q, starts in best[i - 1])[:2]
                for j in range(n)]
    (q, starts), *rest = best[n - 1]
    runner_up = rest[0][0] if rest else math.inf
    bounds = starts + (n,)
    return q, runner_up, Partition([order[a:b] for a, b in zip(bounds, bounds[1:])])
