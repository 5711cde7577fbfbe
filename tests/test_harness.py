"""Tests for the property-suite runner, variance grid, and report output."""

import json

import numpy as np
import pytest

from axiomlab.harness import (
    GRID_BANDS,
    GRID_KS,
    GRID_TARGETS,
    SUITE_NAMES,
    ExperimentConfig,
    SuiteReport,
    _witness,
    report,
    run_suite,
    variance_grid,
)
from axiomlab.core import Partition


# ---------------------------------------------------------------------------
# configuration and report types
# ---------------------------------------------------------------------------


def test_experiment_config_validation():
    cfg = ExperimentConfig()
    assert cfg.master_seed == 0 and cfg.restarts == 40 and cfg.trials is None
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(restarts=0)
    with pytest.raises(ValueError):
        ExperimentConfig(rel_tol=2.0)


def test_suite_report_is_immutable_and_serializable():
    rep = run_suite("interference")
    with pytest.raises(AttributeError):
        rep.suite = "something-else"
    parsed = json.loads(report(rep, format="json"))
    assert parsed["suite"] == "interference"
    assert parsed["master_seed"] == 0
    assert parsed["passed"] is True
    assert set(parsed["environment"]) == {"python", "numpy", "platform"}
    assert "pass" in repr(rep)


def test_fingerprint_ignores_the_environment():
    rep = run_suite("interference")
    moved = SuiteReport(rep.suite, rep.master_seed, rep.checks, rep.witnesses,
                        rep.runtime_s + 1.0,
                        dict(rep.environment, platform="elsewhere", numpy="0"))
    assert moved.fingerprint() == rep.fingerprint()
    reseeded = SuiteReport(rep.suite, rep.master_seed + 1, rep.checks,
                           rep.witnesses, rep.runtime_s, rep.environment)
    assert reseeded.fingerprint() != rep.fingerprint()


def test_witness_records_are_replayable_json():
    w = _witness(
        "some-check",
        np.array([[0.0, 1.0], [2.0, 3.0]]),
        Partition([(0,), (1,)]),
        lam=0.5,
        vector=np.array([1.0, 0.0]),
    )
    text = json.dumps(w)  # must not choke on numpy leftovers
    back = json.loads(text)
    assert back["check"] == "some-check"
    assert back["points"] == [[0.0, 1.0], [2.0, 3.0]]
    assert back["partition"] == [[0], [1]]
    assert back["params"] == {"lam": 0.5, "vector": [1.0, 0.0]}


# ---------------------------------------------------------------------------
# suite runs
# ---------------------------------------------------------------------------


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("does-not-exist")


def test_every_suite_passes_at_defaults():
    expected_checks = {
        "scale-invariance": ["kmeans-ideal-argmin", "threshold-partition"],
        "k-richness": ["line-recovery", "single-restart-hit-rate",
                       "seed-hit-frequency"],
        "centric-consistency-local": ["local-minimum-preserved"],
        "centric-consistency-global": ["global-minimum-preserved",
                                       "threshold-partition-preserved"],
        "motion-consistency": ["moved-cluster-stays-optimal"],
        "separation-4rho": ["one-seed-per-ball-stability"],
        "core-preservation": ["core-points-stay-home"],
        "absolute-global": ["certified-absolute-is-global"],
        "interference": ["transform-admissible", "cross-distance-decreases"],
    }
    for name in SUITE_NAMES:
        rep = run_suite(name)
        assert rep.passed, "%s: %r" % (name, rep.checks)
        assert [c["name"] for c in rep.checks] == expected_checks[name]
        for c in rep.checks:
            assert c["violations"] == 0
            assert c["trials"] > 0


def test_suite_reports_are_deterministic_given_seed():
    a = run_suite("separation-4rho")
    b = run_suite("separation-4rho")
    other = run_suite("separation-4rho", ExperimentConfig(master_seed=5))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != other.fingerprint()
    # wall time is the one field allowed to differ
    da, db = a.as_dict(), b.as_dict()
    da.pop("runtime_s"), db.pop("runtime_s")
    assert da == db


def test_interference_suite_records_witness_on_pass():
    rep = run_suite("interference")
    assert rep.passed
    assert len(rep.witnesses) == 1
    w = rep.witnesses[0]
    assert w["check"] == "cross-distance-decreases"
    # the witness alone suffices to replay the claim
    from axiomlab.core import Dataset, distance_matrix
    from axiomlab.transforms import is_gamma_transform, scale

    before = Dataset(np.array(w["points"]))
    after = Dataset(np.array(w["params"]["moved_points"]))
    gamma = Partition([tuple(c) for c in w["partition"]])
    ok, _ = is_gamma_transform(
        distance_matrix(before), distance_matrix(after), gamma)
    assert ok
    i, j = w["params"]["pair"]
    rescaled = scale(distance_matrix(after), w["params"]["alpha"])
    assert rescaled.values[i, j] < distance_matrix(before).values[i, j]
    assert w["params"]["after"] == pytest.approx(rescaled.values[i, j])


def test_trials_override_shrinks_sampled_checks():
    rep = run_suite("core-preservation", ExperimentConfig(trials=10))
    assert rep.checks[0]["trials"] == 10
    assert rep.passed


# ---------------------------------------------------------------------------
# variance grid
# ---------------------------------------------------------------------------


def test_variance_grid_structure_and_determinism():
    cfg = ExperimentConfig(restarts=4)
    grid = variance_grid(cfg)
    assert grid["kind"] == "variance-grid"
    assert grid["master_seed"] == 0 and grid["restarts"] == 4
    assert len(grid["rows"]) == 15
    seen = {(r["regime"], r["k"]) for r in grid["rows"]}
    assert seen == {(reg, k) for reg in GRID_TARGETS for k in GRID_KS}
    for r in grid["rows"]:
        assert 0.0 <= r["measured"] <= 100.0
        assert r["target"] == GRID_TARGETS[r["regime"]][r["k"]]
        assert r["band"] == GRID_BANDS[r["regime"]]
        assert r["deviation"] == pytest.approx(r["measured"] - r["target"])
        assert r["within"] == (abs(r["deviation"]) <= r["band"])
    again = variance_grid(cfg)
    assert again == grid


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def test_report_json_roundtrip_and_master_seed():
    rep = run_suite("interference")
    text = report(rep, format="json")
    assert text == json.dumps(rep.as_dict(), sort_keys=True, indent=2) + "\n"
    parsed = json.loads(text)
    assert parsed["master_seed"] == 0
    # a parsed report dict renders again identically
    assert report(parsed, format="json") == text


def test_report_csv_shapes():
    grid = variance_grid(ExperimentConfig(restarts=2))
    lines = report(grid, format="csv").strip().splitlines()
    assert lines[0] == "# master_seed=0"
    assert lines[1] == "k,original,kleinberg,centric"
    assert len(lines) == 2 + 5  # five data rows, three value columns
    assert all(len(row.split(",")) == 4 for row in lines[2:])

    rep = run_suite("interference")
    lines = report(rep, format="csv").strip().splitlines()
    assert lines[1] == "suite,check,trials,violations,passed"
    assert len(lines) == 2 + len(rep.checks)


def test_report_markdown_and_validation():
    rep = run_suite("interference")
    md = report(rep, format="markdown")
    assert "interference" in md and "pass" in md
    grid_md = report(variance_grid(ExperimentConfig(restarts=2)),
                     format="markdown")
    assert "| k | regime |" in grid_md
    with pytest.raises(ValueError):
        report(rep, format="yaml")
    with pytest.raises(TypeError):
        report([1, 2, 3], format="json")
