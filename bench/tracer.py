"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``axiomlab`` layer from the
outside: for every traced function it builds a wrapper and rebinds the
public name in every loaded ``axiomlab`` module that holds the same object
(``from .kmeans import kmeans`` in ``harness`` and ``cli`` included), so
calls made inside the package go through the wrapper too.  No source file
of the package is changed.

Every wrapped call records one span ``[name, start, end, parent, extra,
error]`` in memory; ``parent`` is the index of the enclosing traced span
(-1 at the top).  ``extra`` holds the work counted at that boundary, read
from the arguments or the returned result.
"""

import sys
import time

import axiomlab.cli  # noqa: F401  (loads every layer)

# layer -> traced public names.  Dotted names are methods of a class.
TARGETS = {
    "kmeans": ("objective_q", "explained_variance", "lloyd", "kmeans",
               "seed", "is_local_min", "kmeans_ideal", "kmeans_ideal_minima"),
    "core": ("Partition.from_labels", "distance_matrix"),
    "transforms": ("scale", "centric_transform", "centric_matrix_transform",
                   "motion_transform", "inner_proportional_transform",
                   "is_gamma_transform"),
    "separation": ("certify", "motion_gap_bound", "seeding_success"),
    "constructions": ("threshold_clustering", "krich_line", "rotated_segments",
                      "gaussian_mixture", "collapse_to_two_groups"),
    "harness": ("run_suite", "variance_grid"),
    "cli": ("main",),
}

# spans reported under a group name instead of their own
GROUPS = {
    "transforms." + name: "transforms" for name in TARGETS["transforms"]
}
GROUPS.update({"separation." + name: "separation"
               for name in TARGETS["separation"]})
GROUPS.update({"constructions." + name: "constructions.generate"
               for name in ("krich_line", "rotated_segments",
                            "gaussian_mixture", "collapse_to_two_groups")})

SUITE_NAMES = (
    "scale-invariance", "k-richness", "centric-consistency-local",
    "centric-consistency-global", "motion-consistency", "separation-4rho",
    "core-preservation", "absolute-global", "interference",
)

# metrics reported as calls and self time
_TIMED = (
    "kmeans.objective_q", "core.Partition.from_labels",
    "kmeans.explained_variance", "kmeans.lloyd", "kmeans.kmeans",
    "kmeans.seed", "kmeans.is_local_min", "kmeans.kmeans_ideal",
    "kmeans.kmeans_ideal_minima", "transforms", "separation",
    "constructions.threshold_clustering", "constructions.generate",
    "core.distance_matrix",
)


def _objective_pairs(args, kwargs, result):
    # the pairwise cross-check's work: sum over clusters of n_j (n_j - 1) / 2
    partition = kwargs.get("partition", args[1] if len(args) > 1 else None)
    return sum(len(b) * (len(b) - 1) // 2 for b in partition.clusters)


def _lloyd_work(args, kwargs, result):
    # one assignment pass per center update plus the final one, each over
    # every (point, center) pair
    dataset = args[0]
    k = result.partition.k
    return result.iterations, dataset.n * k * (result.iterations + 1)


def _leaves(args, kwargs, result):
    return result.iterations


def _suite_name(args, kwargs, result):
    return kwargs.get("name", args[0] if args else None)


_COUNTERS = {
    "kmeans.objective_q": _objective_pairs,
    "kmeans.lloyd": _lloyd_work,
    "kmeans.kmeans_ideal": _leaves,
    "harness.run_suite": _suite_name,
}


class Tracer:
    """Collects spans from rebound public names; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counter = _COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every traced name; :meth:`uninstall` restores them."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "axiomlab" or key.startswith("axiomlab.")]
        for layer, names in TARGETS.items():
            home = sys.modules["axiomlab." + layer]
            for name in names:
                span = layer + "." + name
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(span, raw.__func__))
                    setattr(cls, meth, wrapped)
                    self._undo.append((cls, meth, raw))
                    continue
                original = getattr(home, name)
                traced = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def summarize(spans):
    """Per-layer counts and times of a list of spans whose parent indices
    point into the same list.  Returns a flat dict of metric name ->
    number; times in seconds."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out = _empty()
    kmeans_spans = set()
    lloyd_in_kmeans = 0
    for i, (name, begin, end, parent, extra, error) in enumerate(spans):
        group = GROUPS.get(name, name)
        dur = end - begin
        self_s = dur - child[i]
        if group + ".calls" in out:
            out[group + ".calls"] += 1
            out[group + ".self_s"] += self_s
        if error:
            out[name.split(".")[0] + ".errors"] += 1
        if name == "kmeans.objective_q" and extra is not None:
            out["kmeans.objective_q.pairs"] += extra
        elif name == "kmeans.lloyd":
            if extra is not None:
                out["kmeans.lloyd.iterations"] += extra[0]
                out["kmeans.lloyd.point_center_evals"] += extra[1]
            if parent in kmeans_spans:
                lloyd_in_kmeans += 1
        elif name == "kmeans.kmeans":
            kmeans_spans.add(i)
        elif name == "kmeans.kmeans_ideal" and extra is not None:
            out["kmeans.kmeans_ideal.leaves"] += extra
        elif name == "harness.run_suite":
            out["harness.run_suite.self_s"] += self_s
            key = "harness.suite.%s.total_s" % extra
            if key in out:
                out[key] += dur
        elif name == "harness.variance_grid":
            out["harness.variance_grid.self_s"] += self_s
        elif name == "cli.main":
            out["cli.main.self_s"] += self_s
    calls = out["kmeans.kmeans.calls"]
    out["kmeans.restart_yield"] = calls / lloyd_in_kmeans if lloyd_in_kmeans else 0.0
    return out


def unit(metric):
    """Unit of a per-layer metric; only ``s`` metrics are times."""
    if metric.endswith((".pairs", ".point_center_evals")):
        return "count.computed"
    if metric.endswith(".restart_yield"):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    return "count"


def _empty():
    out = {}
    for name in _TIMED:
        out[name + ".calls"] = 0
        out[name + ".self_s"] = 0.0
    out["kmeans.objective_q.pairs"] = 0
    out["kmeans.lloyd.iterations"] = 0
    out["kmeans.lloyd.point_center_evals"] = 0
    out["kmeans.kmeans_ideal.leaves"] = 0
    out["kmeans.restart_yield"] = 0.0
    out["harness.run_suite.self_s"] = 0.0
    out["harness.variance_grid.self_s"] = 0.0
    for suite in SUITE_NAMES:
        out["harness.suite.%s.total_s" % suite] = 0.0
    out["cli.main.self_s"] = 0.0
    for layer in TARGETS:
        out[layer + ".errors"] = 0
    return out
