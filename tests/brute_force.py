"""Partition enumeration: the brute-force oracle for the exhaustive search."""

from axiomlab.core import Partition


def enumerate_partitions(n, k=None):
    """Yield every partition of {0, ..., n-1} in canonical order.

    The canonical order is the lexicographic order of restricted growth
    strings: the all-in-one-cluster partition comes first, the
    all-singletons partition last.  With ``k`` given, only partitions into
    exactly k clusters are produced (same relative order).
    """
    rgs = [0] * n

    def rec(i, used):
        if i == n:
            if k is None or used == k:
                blocks = [[] for _ in range(used)]
                for p in range(n):
                    blocks[rgs[p]].append(p)
                yield Partition(blocks)
            return
        # value v < used reuses an existing block, v == used opens a new one
        for v in range(used + 1):
            # prune: remaining positions cannot open enough new blocks
            if k is not None:
                new_used = max(used, v + 1)
                if new_used > k or new_used + (n - 1 - i) < k:
                    continue
            rgs[i] = v
            yield from rec(i + 1, max(used, v + 1))

    yield from rec(0, 0)
