"""Property suites, the reference variance grid, and report rendering.

A suite is the executable form of a theorem: statements asserting a
possibility are tested by constructing the promised object and checking
it; statements asserting an impossibility are represented by their
constructive witnesses only.  Every trial draws its randomness from a
substream spawned off the run's master seed, so trials are
order-independent and a whole suite run is reproducible bit for bit from
``(master seed, trials)``.  Reports record both and the environment they
ran in.  A report is the plain dict it is saved as, and
:func:`fingerprint` hashes its results alone, live or read back.

Every suite reports to one tally: a trial that reports a missed premise
(its instance does not meet the claim's hypothesis) is not counted, every
failure is one violation, and the suite's first ``_WITNESS_CAP``
failures, over all its checks, are kept as witnesses small enough to
replay by hand, so a failing suite always carries at least one.
"""

import hashlib
import itertools
import json
import math
import platform
import time

import numpy as np

from .constructions import (
    collapse_to_two_groups,
    gaussian_mixture,
    krich_line,
    mixture_partition,
    threshold_clustering,
)
from .core import Dataset, Partition, _sq_dists, distance_matrix
from .kmeans import (
    REL_TOL,
    KMeansConfig,
    _assign,
    is_local_min,
    kmeans,
    kmeans_ideal,
    kmeans_ideal_minima,
    lloyd,
    objective_q,
    seed,
)
from .separation import certify, motion_gap_bound, seeding_success
from .transforms import (
    centric_matrix_transform,
    centric_transform,
    inner_proportional_transform,
    is_gamma_transform,
    motion_transform,
    scale,
)

GRID_KS = (2, 3, 4, 5, 6)
# explained-variance percentages (per k and regime) that the bundled
# mixture and its two derived regimes are calibrated to reproduce, with
# the allowed half-width around each column
GRID_TARGETS = {
    "original": {2: 54.3, 3: 72.2, 4: 83.5, 5: 90.2, 6: 91.0},
    "kleinberg": {2: 98.0, 3: 99.17, 4: 99.4, 5: 99.7, 6: 99.7},
    "centric": {2: 54.9, 3: 74.3, 4: 86.0, 5: 92.9, 6: 93.6},
}
GRID_BANDS = {"original": 3.0, "kleinberg": 1.0, "centric": 3.0}
# per-cluster shrink factor of the grid's centric regime, calibrated so
# that column lands on its reference values
_GRID_CENTRIC_LAMBDA = 0.8224

# witnesses kept per suite, shared by all its checks; one is enough to
# replay, a few help triage
_WITNESS_CAP = 3


def fingerprint(results):
    """sha256 over a suite report's suite, master seed, checks and
    witnesses.  Runtime and environment are left out, so the same results
    give the same fingerprint on any machine, live or read back from JSON.
    """
    payload = {key: results[key]
               for key in ("suite", "master_seed", "checks", "witnesses")}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class _Tally:
    """The checks and witnesses of one suite run.

    A check records one violation per failure, a ``(points, partition,
    params)`` triple; the suite's first ``_WITNESS_CAP`` failures, over
    all its checks, become witnesses.
    """

    def __init__(self, trials):
        self.trials = trials  # None keeps each check's default
        self.checks = []
        self.witnesses = []

    def check(self, name, trials, failures):
        for points, partition, params in failures:
            if len(self.witnesses) < _WITNESS_CAP:
                self.witnesses.append(_witness(name, points, partition, **params))
        self.checks.append({
            "name": name,
            "trials": int(trials),
            "violations": len(failures),
            "passed": not failures,
        })

    def sampled(self, name, seq, default, trial):
        """Run ``trial(rng)`` on a generator per child of ``seq`` and check.

        ``default`` trials unless the run's ``trials`` overrides it.  A
        trial returns its list of failures, or None when the instance misses
        the claim's premise; those are not counted as trials.
        """
        trials, failures = 0, []
        for child in seq.spawn(self.trials or default):
            found = trial(np.random.default_rng(child))
            if found is not None:
                trials += 1
                failures += found
        self.check(name, trials, failures)


def _witness(check, points, partition, **params):
    """A replayable record: data slice, partition, and the parameters."""
    return {
        "check": check,
        "points": np.asarray(points).tolist(),
        "partition": None if partition is None else [list(c) for c in partition.clusters],
        "params": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                   for k, v in params.items()},
    }


def _ball_points(rng, center, radius, size):
    """``size`` points uniform in the closed ball around ``center``."""
    m = len(center)
    direction = rng.normal(size=(size, m))
    # np.linalg.norm(axis=1)'s floats, without its wrapper
    direction /= np.sqrt(np.add.reduce(direction * direction, axis=1, keepdims=True))
    radii = radius * rng.uniform(0.0, 1.0, size=size) ** (1.0 / m)
    return np.asarray(center, dtype=float) + radii[:, None] * direction


def _unit(rng, m):
    """A uniformly random unit vector in R^m."""
    direction = rng.normal(size=m)
    return direction / np.linalg.norm(direction)


def _two_balls(rng, far, ra, na, rb, nb):
    """``na`` points in the ball (0, ra), then ``nb`` in (far, rb).

    Returns the points and the partition into the two balls.
    """
    pts = np.vstack([_ball_points(rng, np.zeros(len(far)), ra, na),
                     _ball_points(rng, far, rb, nb)])
    return pts, Partition([tuple(range(na)), tuple(range(na, na + nb))])


def _normal_instance(rng, n_lo, n_hi):
    """``n_lo``..``n_hi`` standard-normal points in 1-3 axes, and a k >= 2."""
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(2, min(4, n)))
    return Dataset(rng.normal(size=(n, int(rng.integers(1, 4))))), k


def _unit_line(rng):
    """4-24 sorted uniform points on [0, 1], one axis."""
    n = int(rng.integers(4, 25))
    return Dataset(np.sort(rng.uniform(0.0, 1.0, n))[:, None])


# the centric shrink factors a preservation claim is checked at, in order
_LAMS = (0.9, 0.5, 0.1)


def _shrink_failures(ds, part, cluster, holds):
    """One failure per factor of ``_LAMS`` at which ``holds(lam)`` is false."""
    return [(ds.points, part, {"cluster": cluster, "lam": lam})
            for lam in _LAMS if not holds(lam)]


def _rate_check(tally, name, seq, default, hits_of, two_sided):
    """Test an all-clusters-hit rate at k = 2, 3, 4 against the closed form
    q = ``seeding_success(1/k, k)``: one-sided, not below q - 3 sigma;
    two-sided, within 3 sigma of q.  ``hits_of(k, seq, trials)`` returns the
    hits and the points and partition a failure records."""
    trials = tally.trials or default
    failures = []
    for k, k_seed in zip((2, 3, 4), seq.spawn(3)):
        hits, points, part = hits_of(k, k_seed, trials)
        q = seeding_success(1.0 / k, k)
        sigma = math.sqrt(q * (1.0 - q) / trials)
        if (abs(hits / trials - q) > 3.0 * sigma if two_sided
                else hits / trials < q - 3.0 * sigma):
            failures.append((points, part, {"k": k, "hits": hits, "trials": trials,
                                            "expected" if two_sided else "bound": q}))
    tally.check(name, 3 * trials, failures)


# ---------------------------------------------------------------------------
# the nine suites
# ---------------------------------------------------------------------------


def _suite_scale_invariance(seeds, tally):
    alphas = (0.1, 3.0, 10.0)
    argmin_seq, thr_seq = seeds.spawn(2)

    def argmin(rng):
        ds, k = _normal_instance(rng, 4, 8)
        base = kmeans_ideal_minima(ds, k)
        base_q = objective_q(ds, base[0])
        failures = []
        for alpha in alphas:
            scaled = scale(ds, alpha)
            minima = kmeans_ideal_minima(scaled, k)
            q = objective_q(scaled, minima[0])
            if minima != base or not math.isclose(
                    q, alpha * alpha * base_q, rel_tol=REL_TOL):
                failures.append((ds.points, base[0], {"k": k, "alpha": alpha}))
        return failures

    def threshold(rng):
        ds = _unit_line(rng)
        part = threshold_clustering(ds)
        return [(ds.points, part, {"alpha": alpha}) for alpha in alphas
                if threshold_clustering(scale(ds, alpha)) != part]

    tally.sampled("kmeans-ideal-argmin", argmin_seq, 20, argmin)
    tally.sampled("threshold-partition", thr_seq, 100, threshold)


def _suite_k_richness(seeds, tally):
    hit_seq, freq_seq = seeds.spawn(2)

    # every layout of 2..7 points in two or more clusters is reachable,
    # exhaustively: cluster sizes in non-increasing order, layouts in
    # decreasing lexicographic order
    layouts = [sizes for n in range(2, 8) for sizes in sorted(
        (c for r in range(2, n + 1)
         for c in itertools.combinations_with_replacement(range(n - 1, 0, -1), r)
         if sum(c) == n), reverse=True)]
    failures = []
    for sizes in layouts:
        ds, part = krich_line(sizes)
        if kmeans_ideal(ds, len(sizes)).partition != part:
            failures.append((ds.points, part, {"sizes": list(sizes)}))
    tally.check("line-recovery", len(layouts), failures)

    # a single uniformly seeded restart succeeds at least as often as the
    # closed-form all-clusters-hit probability, within 3 sigma
    def restart_hits(k, seq, trials):
        ds, part = krich_line((3,) * k)
        hits = sum(kmeans(ds, KMeansConfig(
            k=k, seeding="uniform-random", restarts=1,
            rng_seed=int(child.generate_state(1)[0]))).partition == part
            for child in seq.spawn(trials))
        return hits, ds.points, part

    # on balanced data the all-clusters-hit frequency of the seed draw
    # itself matches the closed form within 3 sigma (two-sided); each of
    # the k clusters is 200 points at its own label
    def seed_hits(k, seq, trials):
        ds = Dataset(np.repeat(np.arange(k, dtype=float), 200)[:, None])
        rng = np.random.default_rng(seq)
        hits = sum(len(set(seed(ds, k, "uniform-random", rng)[:, 0].tolist())) == k
                   for _ in range(trials))
        return hits, np.empty((0, 1)), None

    _rate_check(tally, "single-restart-hit-rate", hit_seq, 2000, restart_hits, False)
    _rate_check(tally, "seed-hit-frequency", freq_seq, 3000, seed_hits, True)


def _suite_centric_local(seeds, tally):
    def trial(rng):
        ds, k = _normal_instance(rng, 6, 30)
        cfg = KMeansConfig(k=k, seeding="uniform-random", restarts=1,
                           rng_seed=int(rng.integers(2 ** 31)))
        part = kmeans(ds, cfg).partition
        # Lloyd fixed points need not be single-point-move stable; the
        # statement under test is about genuine local minima only
        if not is_local_min(ds, part):
            return None
        cluster = int(rng.integers(part.k))
        return _shrink_failures(ds, part, cluster, lambda lam: is_local_min(
            centric_transform(ds, part, cluster, lam), part))

    tally.sampled("local-minimum-preserved", seeds, 100, trial)


def _suite_centric_global(seeds, tally):
    ideal_seq, thr_seq = seeds.spawn(2)

    def ideal(rng):
        ds, k = _normal_instance(rng, 4, 10)
        best = kmeans_ideal(ds, k).partition
        cluster = int(rng.integers(best.k))
        return _shrink_failures(ds, best, cluster, lambda lam: best in (
            kmeans_ideal_minima(centric_transform(ds, best, cluster, lam), k)))

    # threshold clustering, fed distance tables, is likewise unmoved by
    # a centric shrink of any of its own clusters
    def threshold(rng):
        ds = _unit_line(rng)
        d = distance_matrix(ds)
        part = threshold_clustering(d)
        big = [i for i, c in enumerate(part.clusters) if len(c) >= 2]
        if not big:
            return []
        cluster = big[int(rng.integers(len(big)))]
        return _shrink_failures(ds, part, cluster, lambda lam: threshold_clustering(
            centric_matrix_transform(d, part, cluster, lam)) == part)

    tally.sampled("global-minimum-preserved", ideal_seq, 50, ideal)
    tally.sampled("threshold-partition-preserved", thr_seq, 100, threshold)


def _suite_motion_consistency(seeds, tally):
    def trial(rng):
        m = int(rng.integers(1, 4))
        n1, n2 = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        r1, r2 = rng.uniform(0.3, 1.0, 2)
        gap = motion_gap_bound(n1, r1, n2, r2) * float(rng.uniform(1.0, 2.0)) + 1e-6
        direction = _unit(rng, m)
        pts, gamma = _two_balls(rng, direction * (r1 + r2 + gap), r1, n1, r2, n2)
        ds = Dataset(pts)
        if kmeans_ideal(ds, 2).partition != gamma:
            return None  # the balls must be the optimum for the claim to bite
        moved, legal = motion_transform(
            ds, gamma, 1, direction * float(rng.uniform(0.1, 3.0)))
        if legal and kmeans_ideal(moved, 2).partition == gamma:
            return []
        return [(pts, gamma, {"gap": gap, "legal": bool(legal)})]

    tally.sampled("moved-cluster-stays-optimal", seeds, 50, trial)


def _suite_separation_4rho(seeds, tally):
    count = itertools.count()

    def trial(rng):
        m = int(rng.integers(1, 4))
        ra, rb = rng.uniform(0.2, 1.2, 2)
        na, nb = int(rng.integers(3, 26)), int(rng.integers(3, 26))
        rho = max(ra, rb)
        # exercise the boundary case exactly every tenth trial
        stretch = 1.0 if next(count) % 10 == 0 else 1.0 + float(rng.uniform(0.0, 0.5))
        cb = _unit(rng, m) * (4.0 * rho * stretch)
        pts, gamma = _two_balls(rng, cb, ra, na, rb, nb)
        seeds_ab, _ = _two_balls(rng, cb, ra, 1, rb, 1)
        ds = Dataset(pts)
        # one assignment step: nobody may cross over to the other seed
        first = _assign(_sq_dists(ds.columns, seeds_ab))
        crossed = (first[:na] != 0).sum() + (first[na:] != 1).sum()
        # and iterating to convergence keeps the ball partition
        res = lloyd(ds, seeds_ab)
        if crossed or res.partition != gamma:
            return [(pts, gamma, {"seeds": seeds_ab, "crossed": int(crossed)})]
        return []

    tally.sampled("one-seed-per-ball-stability", seeds, 200, trial)


def _suite_core_preservation(seeds, tally):
    def trial(rng):
        m = int(rng.integers(1, 4))
        rho = float(rng.uniform(0.3, 1.0))
        g = float(rng.uniform(0.05, 2.0)) * rho
        cb = _unit(rng, m) * (2.0 * rho + g)
        na, nb = int(rng.integers(5, 26)), int(rng.integers(5, 26))
        pts, gamma = _two_balls(rng, cb, rho, na, rho, nb)
        seeds_ab, _ = _two_balls(rng, cb, rho, 1, rho, 1)
        first = _assign(_sq_dists(pts.T, seeds_ab))
        home = np.sqrt(_sq_dists(pts.T, np.vstack([np.zeros(m), cb])))
        in_core_a = home[0, :na] <= g / 2.0
        in_core_b = home[1, na:] <= g / 2.0
        crossed = (first[:na][in_core_a] != 0).sum() + (
            first[na:][in_core_b] != 1).sum()
        if crossed:
            return [(pts, gamma, {"seeds": seeds_ab, "rho": rho, "g": g,
                                  "crossed": int(crossed)})]
        return []

    tally.sampled("core-points-stay-home", seeds, 200, trial)


def _suite_absolute_global(seeds, tally):
    def trial(rng):
        m = int(rng.integers(1, 3))
        k = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 4)) for _ in range(k)]
        radii = rng.uniform(0.05, 0.35, k)
        direction = _unit(rng, m)
        offsets = _ball_points(rng, np.zeros(m), 1.0, k)
        # 20k apart every draw at master seeds 0-199 certifies: the least
        # ratio of measured to required separation there is 15.5
        centers = 20.0 * k * np.arange(k)[:, None] * direction + offsets
        pts = np.vstack([_ball_points(ball_rng, centers[j], radii[j], sizes[j])
                         for j, ball_rng in enumerate(rng.spawn(k))])
        ds = Dataset(pts)
        gamma = Partition.from_labels(np.repeat(np.arange(k), sizes))
        if not certify(ds, gamma)["absolute"]:
            return None
        if kmeans_ideal(ds, k).partition != gamma:
            return [(pts, gamma, {"k": k})]
        return []

    tally.sampled("certified-absolute-is-global", seeds, 30, trial)


def _suite_interference(seeds, tally):
    # fixed four-point construction: a legal shrink-and-stretch followed
    # by a global rescale makes one cross-cluster distance smaller than
    # it ever was
    before = Dataset(np.array([[0.0], [0.4], [0.6], [1.0]]))
    after = Dataset(np.array([[0.0], [0.5], [0.6], [2.0]]))
    gamma = Partition([(0,), (1, 2), (3,)])
    alpha = 0.5
    d1 = distance_matrix(before)
    d3 = distance_matrix(after)
    ok, _ = is_gamma_transform(d1, d3, gamma)
    _, violations = is_gamma_transform(d1, scale(d3, alpha), gamma)
    shrunk = [v for v in violations if v["kind"] == "between"]
    replay = (before.points, gamma, {"moved_points": after.points, "alpha": alpha})
    tally.check("transform-admissible", 1, [] if ok else [replay])
    tally.check("cross-distance-decreases", 1, [] if shrunk else [replay])
    if ok and shrunk:
        # the witness is recorded on success: it is the content of the claim
        tally.witnesses.append(_witness(
            "cross-distance-decreases", before.points, gamma,
            moved_points=after.points, alpha=alpha, pair=list(shrunk[0]["pair"]),
            before=shrunk[0]["before"], after=shrunk[0]["after"]))


_SUITES = {
    "scale-invariance": _suite_scale_invariance,
    "k-richness": _suite_k_richness,
    "centric-consistency-local": _suite_centric_local,
    "centric-consistency-global": _suite_centric_global,
    "motion-consistency": _suite_motion_consistency,
    "separation-4rho": _suite_separation_4rho,
    "core-preservation": _suite_core_preservation,
    "absolute-global": _suite_absolute_global,
    "interference": _suite_interference,
}
SUITE_NAMES = tuple(_SUITES)


def _root_seed(master_seed):
    """The root of every rng substream of a run; refuses a negative seed."""
    if master_seed < 0:
        raise ValueError("master_seed must be >= 0")
    return np.random.SeedSequence(master_seed)


def run_suite(name, master_seed=0, trials=None):
    """Run one named property suite and return its report.

    Parameters
    ----------
    name : str
        One of :data:`SUITE_NAMES`.
    master_seed : int
        Root of every rng substream; recorded in the report.
    trials : int or None
        Trial count for the suite's sampled checks; None keeps each
        check's default.  Exhaustive checks ignore it.

    Returns
    -------
    dict
        ``kind`` (``"suite"``), ``suite``, ``master_seed``, ``trials``
        (None or the override), ``passed``, ``checks`` (dicts of name,
        trials, violations, passed), ``witnesses`` (replayable failure
        records, or for witness-style suites success records),
        ``runtime_s`` and ``environment``.  All but the last two are a
        pure function of (suite, master seed, trials).
    """
    if name not in _SUITES:
        raise ValueError(
            "unknown suite %r; available: %s" % (name, ", ".join(SUITE_NAMES))
        )
    root = _root_seed(master_seed)
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1 when given")
    start = time.perf_counter()
    tally = _Tally(trials)
    _SUITES[name](root, tally)
    return {
        "kind": "suite",
        "suite": name,
        "master_seed": int(master_seed),
        "trials": trials,
        "passed": all(c["passed"] for c in tally.checks),
        "checks": tally.checks,
        "witnesses": tally.witnesses,
        "runtime_s": time.perf_counter() - start,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "platform": platform.platform()},
    }


# ---------------------------------------------------------------------------
# reference variance grid
# ---------------------------------------------------------------------------


def variance_grid(master_seed=0, restarts=40):
    """Measure the explained-variance grid and compare it to its targets.

    Draws the bundled five-component mixture, derives the two-group and
    the centric-shrink regimes from it, and runs restarted k-means for
    k = 2..6 on each of the three.  Every cell reports the measured
    explained variance (percent), its reference target, the deviation,
    and whether it falls inside the allowed band.

    The reference mixture behind the targets is not published, so the
    comparison is tolerance-based by construction, not exact.

    Parameters
    ----------
    master_seed : int
        Root of every rng substream; recorded in the result.
    restarts : int
        k-means restarts per cell.

    Returns
    -------
    dict
        Keys: kind, master_seed, restarts, rows, all_within.
    """
    root = _root_seed(master_seed)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    sample_seed, km_seed = root.spawn(2)
    data = gaussian_mixture(rng=np.random.default_rng(sample_seed))
    gamma = mixture_partition()
    regimes = (
        ("original", data),
        ("kleinberg", collapse_to_two_groups(data, gamma)[0]),
        ("centric", inner_proportional_transform(
            data, gamma, [_GRID_CENTRIC_LAMBDA] * gamma.k)),
    )
    cells = km_seed.spawn(len(regimes) * len(GRID_KS))
    rows = []
    for ((regime, ds), k), cell in zip(itertools.product(regimes, GRID_KS), cells):
        cfg = KMeansConfig(k=k, seeding="plus-plus", restarts=restarts,
                           rng_seed=int(cell.generate_state(1)[0]))
        measured = 100.0 * kmeans(ds, cfg).explained_variance
        target = GRID_TARGETS[regime][k]
        band = GRID_BANDS[regime]
        rows.append({
            "regime": regime,
            "k": k,
            "measured": measured,
            "target": target,
            "deviation": measured - target,
            "band": band,
            "within": bool(abs(measured - target) <= band),
        })
    return {
        "kind": "variance-grid",
        "master_seed": master_seed,
        "restarts": restarts,
        "rows": rows,
        "all_within": all(r["within"] for r in rows),
    }


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


# the top-level fields each kind of report is rendered from
_REPORT_FIELDS = {
    "suite": ("suite", "master_seed", "passed", "checks", "witnesses"),
    "variance-grid": ("master_seed", "restarts", "rows", "all_within"),
}


def report(results, format="json"):
    """Render a suite report or a variance grid.

    Parameters
    ----------
    results : dict
        A report from :func:`run_suite` or :func:`variance_grid`, live or
        parsed back from its JSON.  Anything else raises ``ValueError``, a
        report lacking a top-level field or not rendering in every format too.
    format : str
        ``"json"``, ``"csv"``, or ``"markdown"``.

    Returns
    -------
    str
    """
    if not (isinstance(results, dict)
            and results.get("kind") in ("suite", "variance-grid")):
        raise ValueError("not a report: expected an object of kind suite "
                         "or variance-grid")
    missing = [f for f in _REPORT_FIELDS[results["kind"]] if f not in results]
    if missing:
        raise ValueError("%s report lacks %s"
                         % (results["kind"], ", ".join(missing)))
    try:  # a bad nested or typed field shows in the renderings
        texts = {"csv": _render_csv(results), "markdown": _render_markdown(results)}
    except (KeyError, TypeError) as err:
        raise ValueError("%s report does not render: %r"
                         % (results["kind"], err)) from None
    texts["json"] = json.dumps(results, sort_keys=True, indent=2) + "\n"
    if format not in texts:
        raise ValueError("format must be json, csv, or markdown, got %r" % (format,))
    return texts[format]


def _render_csv(payload):
    lines = ["# master_seed=%d" % payload["master_seed"]]
    if payload["kind"] == "variance-grid":
        lines.append("k,original,kleinberg,centric")
        by = {(r["regime"], r["k"]): r["measured"] for r in payload["rows"]}
        for k in GRID_KS:
            lines.append("%d,%.3f,%.3f,%.3f" % (
                k, by[("original", k)], by[("kleinberg", k)], by[("centric", k)]))
    else:
        lines.append("suite,check,trials,violations,passed")
        for c in payload["checks"]:
            lines.append("%s,%s,%d,%d,%s" % (
                payload["suite"], c["name"], c["trials"], c["violations"],
                str(c["passed"]).lower()))
    return "\n".join(lines) + "\n"


def _render_markdown(payload):
    lines = []
    if payload["kind"] == "variance-grid":
        lines.append("# Explained-variance grid (master seed %d, %d restarts)"
                     % (payload["master_seed"], payload["restarts"]))
        lines.append("")
        lines.append("| k | regime | measured | target | deviation | band | within |")
        lines.append("|---|--------|----------|--------|-----------|------|--------|")
        for r in payload["rows"]:
            lines.append("| %d | %s | %.2f | %.2f | %+.2f | %.1f | %s |" % (
                r["k"], r["regime"], r["measured"], r["target"],
                r["deviation"], r["band"], "yes" if r["within"] else "NO"))
        lines.append("")
        lines.append("All cells within tolerance: **%s**"
                     % ("yes" if payload["all_within"] else "NO"))
    else:
        lines.append("# Suite `%s` — %s (master seed %d)" % (
            payload["suite"], "pass" if payload["passed"] else "FAIL",
            payload["master_seed"]))
        lines.append("")
        lines.append("| check | trials | violations | passed |")
        lines.append("|-------|--------|------------|--------|")
        for c in payload["checks"]:
            lines.append("| %s | %d | %d | %s |" % (
                c["name"], c["trials"], c["violations"],
                "yes" if c["passed"] else "NO"))
        if payload["witnesses"]:
            lines.append("")
            lines.append("%d witness(es) recorded; see the JSON rendering "
                         "for replayable detail." % len(payload["witnesses"]))
    return "\n".join(lines) + "\n"
