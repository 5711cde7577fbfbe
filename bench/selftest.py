"""The checks behind the error rate can fail.

    python3 bench/selftest.py            (or: python3 -m pytest bench/selftest.py)

Runs one pass of every workload on the default seed, asserts that the
real outputs pass their checks, then feeds corrupted copies through the
same checker and asserts that each corruption counts as a failed op:

- one swapped label (one point moved to another cluster);
- the objective q off by 1e-6 relative;
- a third corruption of the workload's own output kind: a suite report
  with one violation (lab), a flipped local-minimum verdict (small-runs),
  the optimum missing from the minima (exact), the explained variance off
  by 1e-6 relative (wing).

The label swap and the q error must also be caught without the reference,
as on any other seed, except in lab, whose labels and floats only the
reference pins.  Takes about half a minute.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from axiomlab import core  # noqa: E402
from axiomlab import kmeans as km  # noqa: E402

_RUNS = {}


def _pass(name):
    """(workload, outputs, reference ops) of one default-seed pass."""
    if name not in _RUNS:
        with workloads.scratch_dir() as workdir:
            wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, workdir)
            wl.setup()
            outs = [op() for op in wl.ops]
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)["workloads"][name]["ops"]
        assert wl.check(outs, ref) == {}, "real outputs must pass"
        _RUNS[name] = (wl, outs, ref)
    return _RUNS[name]


def _swap_label(partition):
    """Move the first member of the largest cluster to the next cluster."""
    blocks = [list(b) for b in partition.clusters]
    a = max(range(len(blocks)), key=lambda j: len(blocks[j]))
    b = (a + 1) % len(blocks)
    blocks[b].append(blocks[a].pop(0))
    return core.Partition(blocks)


def _replace(result, **changes):
    fields = {f: getattr(result, f) for f in (
        "partition", "centers", "q", "iterations", "explained_variance", "converged")}
    fields.update(changes)
    return km.ClusteringResult(**fields)


def _fails(name, i, corrupted, with_reference=True):
    wl, outs, ref = _pass(name)
    outs = list(outs)
    outs[i] = corrupted
    bad = wl.check(outs, ref if with_reference else None)
    return i in bad


def _both(name, i, corrupted):
    return _fails(name, i, corrupted) and _fails(name, i, corrupted, False)


def test_wing_corruptions_fail():
    _, outs, _ = _pass("wing")
    res = outs[1]
    assert _both("wing", 1, _replace(res, partition=_swap_label(res.partition)))
    assert _both("wing", 1, _replace(res, q=res.q * (1 + 1e-6)))
    assert _both("wing", 1, _replace(
        res, explained_variance=res.explained_variance * (1 + 1e-6)))


def test_small_runs_corruptions_fail():
    wl, outs, _ = _pass("small-runs")
    line = outs[0]
    assert _both("small-runs", 0, _replace(line, partition=_swap_label(line.partition)))
    assert _both("small-runs", 0, _replace(line, q=line.q * (1 + 1e-6)))
    i = next(j for j, (kind, _) in enumerate(wl.kinds) if kind == "instance")
    res, (ok, witness) = outs[i]
    assert _both("small-runs", i, (_replace(res, q=res.q * (1 + 1e-6)), (ok, witness)))
    flipped = (True, None) if not ok else (False, {
        "point": 0, "source": 0, "target": 1, "delta_q": -1.0})
    assert _both("small-runs", i, (res, flipped))


def test_exact_corruptions_fail():
    _, outs, _ = _pass("exact")
    best, minima = outs[0], outs[1]
    assert _both("exact", 0, _replace(best, partition=_swap_label(best.partition)))
    assert _both("exact", 0, _replace(best, q=best.q * (1 + 1e-6)))
    assert _both("exact", 1, [p for p in minima if p != best.partition]
                 or [_swap_label(best.partition)])


def test_lab_corruptions_fail():
    wl, outs, _ = _pass("lab")
    i = wl.names.index("interference")
    j = 0
    rc, reports = copy.deepcopy(outs[i])
    part = reports[j]["witnesses"][0]["partition"]
    src = max(range(len(part)), key=lambda b: len(part[b]))
    part[(src + 1) % len(part)].append(part[src].pop())
    assert _fails("lab", i, (rc, reports))

    g = wl.names.index("grid")
    rc, grid = copy.deepcopy(outs[g])
    grid["rows"][0]["measured"] *= 1 + 1e-6
    assert _fails("lab", g, (rc, grid))

    rc, reports = copy.deepcopy(outs[i])
    reports[j]["checks"][0]["violations"] = 1
    assert _both("lab", i, (rc, reports))


if __name__ == "__main__":
    for test in (test_wing_corruptions_fail, test_small_runs_corruptions_fail,
                 test_exact_corruptions_fail, test_lab_corruptions_fail):
        test()
        print("ok   %s" % test.__name__)
