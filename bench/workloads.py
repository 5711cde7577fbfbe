"""The benchmark's four workloads: inputs from a seed, the ops, the checks.

Each workload builds its inputs once from the workload seed (that is the
set-up), then exposes ``ops``: a list of zero-argument callables, one per
op, that call into ``axiomlab`` through module attributes, so the tracer's
rebinding sees every call.  A pass runs every op once, in order.

Checks run on a pass's outputs after the pass.  They always test what can
be recomputed independently (the objective of the returned partition, the
test bands and invariants); on the default seed they also compare every op
with the reference values in ``reference.json``: floats to rel 1e-9,
partitions and counts exactly.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

from axiomlab import cli, constructions, core, harness
from axiomlab import kmeans as km

DEFAULT_SEED = 0
REL = 1e-9


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory inside the checkout, removed afterwards."""
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".bench_tmp")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(root)
        except OSError:
            pass  # another run's directory is still there


# ---------------------------------------------------------------------------
# independent recomputation
# ---------------------------------------------------------------------------


def labels_of(partition, n=None):
    """Canonical per-point labels of a partition (cluster order as given)."""
    n = sum(len(b) for b in partition.clusters) if n is None else n
    out = np.full(n, -1, dtype=np.int64)
    for j, block in enumerate(partition.clusters):
        out[list(block)] = j
    return out


def label_key(partition):
    """Exact, compact identity of a partition: its canonical label string,
    hashed when long."""
    lab = labels_of(partition)
    if len(lab) <= 64:
        return "".join("%x" % v for v in lab)
    return hashlib.sha256(lab.tobytes()).hexdigest()[:24]


def objective(points, labels):
    """Centroid-form k-means objective, vectorised over clusters."""
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, labels, points)
    diff = points - (sums / counts[:, None])[labels]
    return float(np.sum(diff * diff))


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def similarity(rng, m):
    """A random rotation (or reflection), scale and translation of R^m, as
    (rotation, scale, shift); points move as ``scale * x @ rotation + shift``.

    The workloads build a fixed pool of inputs and let the workload seed
    move them by such maps.  Every pairwise distance ratio is kept, so
    seeding, Lloyd, the move scan and the exhaustive search make the same
    choices up to rounding: every seed does the same work, and the pass
    time does not depend on which inputs a seed happens to draw.
    """
    rotation, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return rotation, rng.uniform(0.5, 2.0), rng.normal(size=m)


def moved(rng, points):
    rotation, scale, shift = similarity(rng, points.shape[1])
    return core.Dataset(scale * points @ rotation + shift)


def local_min_oracle(points, labels):
    """Single-point-move stability from running counts and means.

    Returns True or False when the answer is clear, None when some move
    sits within 1e-7 of the package's 1e-9 improvement threshold.
    """
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, labels, points)
    means = sums / counts[:, None]
    d2 = np.sum((points[:, None, :] - means[None, :, :]) ** 2, axis=-1)
    own = counts[labels]
    idx = np.arange(len(labels))
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(own > 1, own / (own - 1) * d2[idx, labels], -np.inf)
    cost = counts[None, :] / (counts[None, :] + 1) * d2
    cost[idx, labels] = np.inf
    scale = np.maximum(1.0, np.maximum(np.abs(gain)[:, None], cost))
    scale[~np.isfinite(scale)] = 1.0
    margin = (gain[:, None] - cost) / scale - REL
    if np.any(margin > 1e-7):
        return False
    if np.all(margin < -1e-7):
        return True
    return None


def compare(got, want, path="value"):
    """Differences between a digest and its reference; floats to rel 1e-9,
    everything else exactly."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) \
                and not isinstance(got, bool) and close(float(got), float(want)):
            return []
        return ["%s: %r != reference %r" % (path, got, want)]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return ["%s: length %d != reference %d" % (path, len(got), len(want))]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, "%s[%d]" % (path, i))
        return out
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return ["%s: keys %s != reference %s" % (path, sorted(got), sorted(want))]
        out = []
        for key in sorted(want):
            out += compare(got[key], want[key], "%s.%s" % (path, key))
        return out
    return [] if got == want else ["%s: %r != reference %r" % (path, got, want)]


def result_problems(points, result, k):
    """Checks any clustering result must pass whatever the seed."""
    lab = labels_of(result.partition, len(points))
    if np.any(lab < 0) or result.partition.k != k:
        return ["partition is not a %d-partition of %d points" % (k, len(points))]
    q = objective(points, lab)
    if not close(result.q, q):
        return ["q %r != recomputed %r" % (result.q, q)]
    return []


class Workload:
    """Base: subclasses fill ``ops`` in :meth:`setup` and define checks."""

    name = None

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.ops = []

    def setup(self):
        raise NotImplementedError

    def digest(self, i, out):
        """JSON-ready identity of op i's output, compared to the reference."""
        raise NotImplementedError

    def check_op(self, i, out):
        """Seed-independent problems of op i's output."""
        raise NotImplementedError

    def check_pass(self, outs):
        """Problems that need a whole pass, as (op index, message)."""
        return []

    def check(self, outs, reference=None):
        """{op index: [messages]} for every op that failed."""
        bad = {}
        for i, out in enumerate(outs):
            if isinstance(out, BaseException):
                bad.setdefault(i, []).append("raised %r" % (out,))
                continue
            msgs = self.check_op(i, out)
            if reference is not None and not msgs:
                msgs = compare(self.digest(i, out), reference[i], "op[%d]" % i)
            if msgs:
                bad.setdefault(i, []).extend(msgs)
        if not bad:
            for i, msg in self.check_pass(outs):
                bad.setdefault(i, []).append(msg)
        return bad


# ---------------------------------------------------------------------------
# wing: test 12's shape
# ---------------------------------------------------------------------------


class Wing(Workload):
    """Restarted k-means++ on the flat and the rotated segment cross, with
    test 12's data and bands.

    The crosses and the k-means seeds are fixed; the workload seed moves
    both crosses by one random similarity (see :func:`similarity`), and
    the centers are mapped back before test 12's bands are checked.  Each
    cross gets three calls of ten restarts, each call with its own
    k-means seed, and test 12's bands are checked on the best of the
    three: that is a 30-restart run cut into calls short enough for the
    calibration kernel, which runs between ops, to follow the machine's
    speed.  A single restart finds the flat cross's wing split about a
    third of the time, so 30 restarts miss it with odds under 1e-5.
    """

    name = "wing"
    POINTS_PER_SEGMENT = 1000
    CALLS = 3
    RESTARTS = 10  # per call; test 12 runs one call of 100
    POOL_SEED = 12

    def setup(self):
        self.move = similarity(np.random.default_rng([self.seed, 12]), 3)
        rotation, scale, shift = self.move
        self.data = [
            core.Dataset(scale * constructions.rotated_segments(
                rotated, points_per_segment=self.POINTS_PER_SEGMENT,
                rng=self.POOL_SEED).points @ rotation + shift)
            for rotated in (False, True)
        ]
        self.which = []  # per op: index into self.data
        calls = np.random.SeedSequence(self.POOL_SEED).spawn(self.CALLS)
        for call in calls:
            cfg = km.KMeansConfig(k=2, seeding="plus-plus", restarts=self.RESTARTS,
                                  rng_seed=int(call.generate_state(1)[0]))
            for i, ds in enumerate(self.data):
                self.which.append(i)
                self.ops.append(lambda ds=ds, cfg=cfg: km.kmeans(ds, cfg))

    def digest(self, i, out):
        return {"labels": label_key(out.partition), "q": out.q,
                "explained_variance": out.explained_variance}

    def check_op(self, i, out):
        pts = self.data[self.which[i]].points
        msgs = result_problems(pts, out, 2)
        if msgs:
            return msgs
        tss = objective(pts, np.zeros(len(pts), dtype=np.int64))
        if not close(out.explained_variance, 1.0 - out.q / tss):
            msgs.append("explained variance %r != 1 - q/TSS" % out.explained_variance)
        return msgs

    def check_pass(self, outs):
        out = []
        for d in range(len(self.data)):
            i = min((j for j, w in enumerate(self.which) if w == d),
                    key=lambda j: outs[j].q)
            out += [(i, msg) for msg in self._bands(d, outs[i])]
        return out

    def _bands(self, d, best):
        msgs = []
        ev = best.explained_variance
        if d == 0:  # flat: the wings split, EV 0.40 +- 0.03, centers +-17
            want = np.repeat([0, 1], 2 * self.POINTS_PER_SEGMENT)
            if not np.array_equal(labels_of(best.partition), want):
                msgs.append("flat cross is not split into its wings")
            if abs(ev - 0.40) > 0.03:
                msgs.append("flat EV %.4f outside 0.40 +- 0.03" % ev)
            rotation, scale, shift = self.move
            centers = (best.centers - shift) / scale @ rotation.T
            centers = centers[np.argsort(centers[:, 0])]
            ref = np.array([[-17.0, 0.0, 0.0], [17.0, 0.0, 0.0]])
            if not np.allclose(centers, ref, atol=1.5):
                msgs.append("flat centers %s not within 1.5 of (+-17, 0, 0)"
                            % centers.round(3).tolist())
        else:  # rotated: EV 0.59 +- 0.03, sizes 1800 / 2200 +- 100
            if abs(ev - 0.59) > 0.03:
                msgs.append("rotated EV %.4f outside 0.59 +- 0.03" % ev)
            sizes = sorted(len(c) for c in best.partition.clusters)
            if abs(sizes[0] - 1800) > 100 or abs(sizes[1] - 2200) > 100:
                msgs.append("rotated sizes %s outside 1800/2200 +- 100" % sizes)
        return msgs


# ---------------------------------------------------------------------------
# small-runs: tests 04 and 05's shapes
# ---------------------------------------------------------------------------


class SmallRuns(Workload):
    """Single-restart k-means on balanced lines, and single-restart k-means
    plus the move scan on random instances with n <= 30.

    The lines, the instances and every k-means seed are a fixed pool; the
    workload seed moves each line and instance by a random similarity (see
    :func:`similarity`).
    """

    name = "small-runs"
    LINE_KS = (2, 3, 4)
    LINE_TRIALS = 1000  # per k
    INSTANCES = 500
    POOL_SEED = 2

    def setup(self):
        line_seq, inst_seq = np.random.SeedSequence(self.POOL_SEED).spawn(2)
        move = np.random.default_rng([self.seed, 2])
        self.kinds = []  # per op: ("line", k) or ("instance", (dataset, k))
        self.lines = {}
        for k, k_seq in zip(self.LINE_KS, line_seq.spawn(len(self.LINE_KS))):
            ds, part = constructions.krich_line((3,) * k)
            ds = moved(move, ds.points)
            self.lines[k] = (ds, labels_of(part))
            for child in k_seq.spawn(self.LINE_TRIALS):
                cfg = km.KMeansConfig(k=k, seeding="uniform-random", restarts=1,
                                      rng_seed=int(child.generate_state(1)[0]))
                self.kinds.append(("line", k))
                self.ops.append(lambda ds=ds, cfg=cfg: km.kmeans(ds, cfg))
        for child in inst_seq.spawn(self.INSTANCES):
            rng = np.random.default_rng(child)
            n = int(rng.integers(6, 31))
            k = int(rng.integers(2, 4))
            pts = rng.normal(size=(n, int(rng.integers(1, 4))))
            cfg = km.KMeansConfig(k=k, seeding="uniform-random", restarts=1,
                                  rng_seed=int(rng.integers(2 ** 31)))
            ds = moved(move, pts)
            self.kinds.append(("instance", (ds, k)))
            self.ops.append(lambda ds=ds, cfg=cfg: self._instance(ds, cfg))

    @staticmethod
    def _instance(ds, cfg):
        res = km.kmeans(ds, cfg)
        return res, km.is_local_min(ds, res.partition)

    def digest(self, i, out):
        kind, _ = self.kinds[i]
        if kind == "line":
            return label_key(out.partition)
        res, (ok, _) = out
        return [label_key(res.partition), res.q, bool(ok)]

    def check_op(self, i, out):
        kind, arg = self.kinds[i]
        if kind == "line":
            return result_problems(self.lines[arg][0].points, out, arg)
        res, verdict = out
        ok, witness = verdict
        pts = arg[0].points
        msgs = result_problems(pts, res, arg[1])
        if msgs:
            return msgs
        lab = labels_of(res.partition)
        oracle = local_min_oracle(pts, lab)
        if oracle is not None and bool(ok) != oracle:
            msgs.append("is_local_min says %s, the move scan says %s" % (bool(ok), oracle))
        if not ok:
            moved = lab.copy()
            moved[witness["point"]] = witness["target"]
            delta = objective(pts, moved) - objective(pts, lab)
            if not (delta < 0 and abs(delta - witness["delta_q"])
                    <= REL * max(1.0, res.q)):
                msgs.append("witness move changes q by %r, not %r"
                            % (delta, witness["delta_q"]))
        return msgs

    def check_pass(self, outs):
        # each k's hit rate is at least k!/k^k minus 3 sigma
        out = []
        for k in self.LINE_KS:
            idx = [i for i, (kind, kk) in enumerate(self.kinds)
                   if kind == "line" and kk == k]
            want = self.lines[k][1]
            hits = sum(np.array_equal(labels_of(outs[i].partition), want) for i in idx)
            bound = math.factorial(k) / k ** k
            sigma = math.sqrt(bound * (1.0 - bound) / len(idx))
            if hits / len(idx) < bound - 3.0 * sigma:
                out.append((idx[-1], "k=%d hit rate %.4f below %.4f - 3 sigma"
                            % (k, hits / len(idx), bound)))
        return out


# ---------------------------------------------------------------------------
# exact: the exhaustive optimiser at the default cap
# ---------------------------------------------------------------------------


class Exact(Workload):
    """kmeans_ideal and kmeans_ideal_minima on random instances at n = 12.

    The instances are a fixed pool, eight per (k, m) for k = 2..4 and
    m = 1..3.  The workload seed moves each one by its own random rotation,
    scaling and translation.  That keeps every pairwise distance ratio, so
    the search does the same work on every seed and the pass time does not
    depend on which random instances happen to be hard.
    """

    name = "exact"
    N = 12
    PER_SHAPE = 8
    POOL_SEED = 170204577

    def setup(self):
        shapes = [(k, m) for k in (2, 3, 4) for m in (1, 2, 3)] * self.PER_SHAPE
        pool = np.random.SeedSequence(self.POOL_SEED).spawn(len(shapes))
        moves = np.random.SeedSequence([self.seed, 3]).spawn(len(shapes))
        self.instances = []
        for (k, m), base, move in zip(shapes, pool, moves):
            pts = np.random.default_rng(base).normal(size=(self.N, m))
            ds = moved(np.random.default_rng(move), pts)
            self.instances.append((ds, k))
            self.ops.append(lambda ds=ds, k=k: km.kmeans_ideal(ds, k))
            self.ops.append(lambda ds=ds, k=k: km.kmeans_ideal_minima(ds, k))

    def digest(self, i, out):
        if i % 2 == 0:
            return [label_key(out.partition), out.q, out.iterations]
        return [label_key(p) for p in out]

    def check_op(self, i, out):
        ds, k = self.instances[i // 2]
        if i % 2 == 0:
            return result_problems(ds.points, out, k)
        if not out:
            return ["no minima returned"]
        qs = [objective(ds.points, labels_of(p, ds.n)) for p in out]
        if any(p.k != k for p in out) or max(qs) - min(qs) > 2 * REL * max(1.0, min(qs)):
            return ["minima are not all %d-partitions within rel 1e-9" % k]
        return []

    def check_pass(self, outs):
        out = []
        for i in range(0, len(outs), 2):
            best, minima = outs[i], outs[i + 1]
            if best.partition not in minima:
                out.append((i + 1, "kmeans_ideal partition missing from the minima"))
            elif not close(best.q, objective(self.instances[i // 2][0].points,
                                             labels_of(minima[0]))):
                out.append((i + 1, "first minimum's q differs from the optimum"))
        return out


# ---------------------------------------------------------------------------
# lab: the CLI path users run
# ---------------------------------------------------------------------------


def suite_hash(report):
    """Identity of a suite's results: its checks and witnesses only."""
    payload = {"checks": report["checks"], "witnesses": report["witnesses"]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:24]


class Lab(Workload):
    """``axiomlab suite --name <suite>`` for each of the nine suites, then
    ``axiomlab report --grid --format json``, through ``cli.main``: one op
    per command.

    It runs the commands as users type them, at the CLI's default master
    seed, whatever the workload seed: other master seeds can fail a suite
    (see NOTES.md).  Two commands take a lighter setting so that a pass
    takes two to three seconds and every op is timed several times in a
    run: k-richness at ``--trials 100`` (its checks default to 2 000 and
    3 000) and the grid at ``--restarts 5`` (default 40).
    """

    name = "lab"
    MASTER_SEED = 0
    LIGHTER = {"k-richness": ["--trials", "100"]}
    GRID_RESTARTS = 5

    def setup(self):
        seed = str(self.MASTER_SEED)
        self.names = list(harness.SUITE_NAMES) + ["grid"]
        for suite in harness.SUITE_NAMES:
            path = os.path.join(self.workdir, suite + ".json")
            argv = ["suite", "--name", suite, "--seed", seed, "--out", path]
            argv += self.LIGHTER.get(suite, [])
            self.ops.append(lambda argv=argv, path=path: self._call(argv, path))
        grid = os.path.join(self.workdir, "grid.json")
        argv = ["report", "--grid", "--format", "json", "--seed", seed,
                "--restarts", str(self.GRID_RESTARTS), "--out", grid]
        self.ops.append(lambda: self._call(argv, grid))

    @staticmethod
    def _call(argv, path):
        # the suite verb prints one status line per suite to stderr
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        with open(path) as fh:
            return rc, json.load(fh)

    def digest(self, i, out):
        rc, data = out
        if self.names[i] == "grid":
            return {"rc": rc, "measured": [r["measured"] for r in data["rows"]],
                    "within": [r["within"] for r in data["rows"]]}
        return {"rc": rc, "results": [suite_hash(r) for r in data]}

    def check_op(self, i, out):
        rc, data = out
        if self.names[i] == "grid":
            rows = data["rows"]
            ok = len(rows) == 15 and data["all_within"] and all(
                r["within"] and abs(r["measured"] - r["target"]) <= r["band"]
                for r in rows)
            return [] if rc == 0 and ok else ["grid not within its bands (rc %d)" % rc]
        ok = [r["suite"] for r in data] == [self.names[i]] and all(
            r["passed"] and all(c["passed"] and c["violations"] == 0
                                for c in r["checks"]) for r in data)
        return [] if rc == 0 and ok else ["suite %s failed (rc %d)" % (self.names[i], rc)]


WORKLOADS = {w.name: w for w in (Wing, SmallRuns, Lab, Exact)}
