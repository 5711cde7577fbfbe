"""The benchmark's span tracer (``bench/tracer.py``) against the package.

The tracer rebinds every public name it lists, and a name the package no
longer has makes :meth:`Tracer.install` fail; this test catches such an
API change before the benchmark's traced runs do.
"""

import importlib.util
import os
import sys

import numpy as np

import axiomlab

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(targets):
    """Each traced name's current binding where it lives (a method's
    entry in its class's ``__dict__``)."""
    out = {}
    for layer, names in targets.items():
        home = sys.modules["axiomlab." + layer]
        for name in names:
            owner, _, attr = name.rpartition(".")
            out[layer, name] = (vars(getattr(home, owner)) if owner
                                else vars(home))[attr]
    return out


def test_tracer_installs_records_and_uninstalls(tmp_path):
    tracer = _load_tracer()
    before = _bindings(tracer.TARGETS)
    spans = tracer.Tracer()
    spans.install()
    try:
        during = _bindings(tracer.TARGETS)
        # calls through the package's own module attributes are traced
        assert axiomlab.cli.main(["suite", "--name", "separation-4rho",
                                  "--trials", "3", "--out",
                                  str(tmp_path / "suite.json")]) == 0
        km = axiomlab.kmeans
        ds = axiomlab.core.Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))
        km.kmeans(ds, km.KMeansConfig(k=2, restarts=2, rng_seed=0))
        ideal = km.kmeans_ideal(ds, 2)
    finally:
        spans.uninstall()
    assert all(during[key] is not fn for key, fn in before.items())
    assert _bindings(tracer.TARGETS) == before

    summary = tracer.summarize(spans.spans)
    assert summary["cli.main.self_s"] > 0.0
    assert summary["harness.suite.separation-4rho.total_s"] > 0.0
    assert summary["kmeans.lloyd.calls"] == 3  # one per separation-4rho trial
    assert summary["kmeans.kmeans.calls"] == 1
    assert summary["kmeans.kmeans_ideal.leaves"] == ideal.iterations > 0
    assert all(summary[layer + ".errors"] == 0 for layer in tracer.TARGETS)
