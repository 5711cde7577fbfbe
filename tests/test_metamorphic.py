"""Metamorphic tests: reflecting the data through the origin or scaling it
by a power of two changes no answer the package gives.

Both maps are exact in float64 while nothing overflows or goes subnormal:
x -> -x negates every difference and sum and leaves every square, and
x -> 2**e * x multiplies every coordinate, difference and mean by 2**e and
every square, scatter and objective by 4**e.  So the exhaustive optimiser,
Lloyd, k-means++ seeding (its probabilities are ratios), the single-point
move scan and the separation certificate must give the same partitions
and verdicts, and their numbers must be the transformed ones, with ``==``
and no tolerance.  Swapping two axes is left out: it changes the order in
which the axes' squares are added, so ``q`` differs in its last bits.
"""

import numpy as np

from axiomlab.constructions import threshold_clustering
from axiomlab.core import Dataset, Partition
from axiomlab.kmeans import (
    SEEDING_STRATEGIES,
    KMeansConfig,
    is_local_min,
    kmeans,
    kmeans_ideal,
    kmeans_ideal_minima,
)
from axiomlab.separation import certify

_EXPONENTS = (-60, -30, 20, 30)


def _instances(count, seed):
    """Small datasets (n 4-8, m 1-3) with k 2-3, every third on a
    half-integer grid (repeated points and exact ties), and a labelling
    with k non-empty clusters to test for stability."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, m = int(rng.integers(4, 9)), int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        if i % 3 == 0:
            pts = rng.integers(-4, 5, size=(n, m)) / 2
        else:
            pts = rng.normal(size=(n, m))
        labels = np.r_[np.arange(k), rng.integers(0, k, size=n - k)]
        yield pts, k, Partition.from_labels(rng.permutation(labels))


def _answers(pts, k, labelling):
    """Every answer under test on ``pts``: a dict of those that must not
    change, a dict of (number, p) for numbers that scale as length**p, and
    the centers of the exhaustive optimum and of both k-means runs."""
    ds = Dataset(pts)
    ideal = kmeans_ideal(ds, k)
    runs = [kmeans(ds, KMeansConfig(k=k, seeding=seeding, restarts=4, rng_seed=k))
            for seeding in SEEDING_STRATEGIES]
    same = {"minima": kmeans_ideal_minima(ds, k), "ideal": ideal.partition,
            "kmeans": [run.partition for run in runs], "local minima": []}
    scaled = {"ideal q": (ideal.q, 2)}
    for seeding, run in zip(SEEDING_STRATEGIES, runs):
        scaled[seeding + " q"] = (run.q, 2)
    for partition in [ideal.partition, labelling] + same["kmeans"]:
        ok, witness = is_local_min(ds, partition)
        same["local minima"].append(ok if ok else (
            witness["point"], witness["source"], witness["target"]))
    cert = certify(ds, ideal.partition)
    same["certificate"] = [cert[key] for key in
                           ("nice_ball", "perfect_ball", "core", "absolute")]
    scaled["rho"] = (cert["rho"], 1)
    scaled["absolute_required"] = (cert["absolute_required"], 1)
    try:
        same["threshold"] = threshold_clustering(ds)
    except ValueError:
        same["threshold"] = "refused"
    return same, scaled, [ideal.centers] + [run.centers for run in runs]


def _check(answers, moved, k, labelling, sign, e):
    """The answers on ``moved`` (sign * 2**e times the original points)
    are ``answers`` with lengths times sign * 2**e and objectives times
    4**e."""
    same, scaled, centers = answers
    got_same, got_scaled, got_centers = _answers(moved, k, labelling)
    assert got_same == same
    for key, (value, power) in scaled.items():
        assert got_scaled[key][0] == value * 2.0 ** (e * power), key
    for got, want in zip(got_centers, centers):
        assert np.array_equal(got, sign * np.ldexp(want, e))


def test_reflection_through_the_origin_changes_no_answer():
    improvable = thresholds = 0
    for pts, k, labelling in _instances(200, 7):
        answers = _answers(pts, k, labelling)
        _check(answers, -pts, k, labelling, -1.0, 0)
        improvable += not all(ok is True for ok in answers[0]["local minima"])
        thresholds += answers[0]["threshold"] != "refused"
    # the verdicts and the threshold rule are exercised both ways
    assert 0 < improvable < 200 and 0 < thresholds < 200


def test_scaling_by_a_power_of_two_changes_no_answer():
    for pts, k, labelling in _instances(150, 11):
        answers = _answers(pts, k, labelling)
        for e in _EXPONENTS:
            _check(answers, np.ldexp(pts, e), k, labelling, 1.0, e)
