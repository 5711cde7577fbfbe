"""Partition enumeration: the brute-force oracle for the exhaustive search,
and an exact referee for its ties."""

from fractions import Fraction

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


def exact_q(rows, partition):
    """The k-means objective of ``partition`` in exact rational arithmetic.

    ``rows`` are the points as lists of floats; every float is a dyadic
    rational, so reading it as a ``Fraction`` loses nothing, and equal
    objectives compare equal however their float sums would round.
    """
    total = Fraction(0)
    for block in partition.clusters:
        for axis in zip(*(rows[i] for i in block)):
            values = [Fraction(x) for x in axis]
            mean = sum(values) / len(values)
            total += sum((x - mean) ** 2 for x in values)
    return total


def exact_minima(rows, k):
    """Every partition into k clusters of least exact objective
    (:func:`exact_q`), in canonical order."""
    scored = [(exact_q(rows, p), p) for p in enumerate_partitions(len(rows), k)]
    best = min(q for q, _ in scored)
    return [p for q, p in scored if q == best]
