"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import axiomlab
from axiomlab.cli import main
from axiomlab.core import Dataset, Partition


_WITHOUT_SCIPY = """
import json, sys
from axiomlab.cli import main

loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
sys.modules["scipy"] = None  # any later import of scipy raises ImportError
out = sys.argv[1]
codes = [
    main(["construct", "--what", "line", "--sizes", "3,2",
          "--out", out + "/line.csv"]),
    main(["cluster", "--data", out + "/line.csv", "--k", "2",
          "--restarts", "10", "--seed", "3", "--out", out + "/result.json"]),
    main(["certify", "--data", out + "/line.csv",
          "--partition", out + "/line.partition.json",
          "--out", out + "/cert.json"]),
]
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test and benchmark dependency only: importing the CLI
    # loads none of it, and a round trip runs with it blocked
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(axiomlab.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"loaded": [], "codes": [0, 0, 0]}
    built = Partition.from_json((tmp_path / "line.partition.json").read_text())
    clustered = json.loads((tmp_path / "result.json").read_text())
    assert Partition(clustered["partition"]) == built
    assert json.loads((tmp_path / "cert.json").read_text())["nice_ball"] is True


@pytest.mark.pinned
def test_construct_cluster_certify_roundtrip(tmp_path):
    data = tmp_path / "line.csv"
    assert main(["construct", "--what", "line", "--sizes", "3,2",
                 "--out", str(data)]) == 0
    part_path = tmp_path / "line.partition.json"
    built = Partition.from_json(part_path.read_text())
    assert built.k == 2

    out = tmp_path / "result.json"
    assert main(["cluster", "--data", str(data), "--k", "2",
                 "--restarts", "10", "--seed", "3", "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["master_seed"] == 3
    assert Partition(tuple(map(tuple, res["partition"]))) == built
    assert res["converged"] is True

    cert_path = tmp_path / "cert.json"
    assert main(["certify", "--data", str(data),
                 "--partition", str(part_path), "--out", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["nice_ball"] is True
    assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == (
        "e07220b3144b4a1f9cef91953814559dc5c5673900d837ef1ac0b8d030c59ba5")


def test_transform_kinds(tmp_path, capsys):
    data = tmp_path / "line.csv"
    main(["construct", "--what", "line", "--sizes", "3,3",
          "--out", str(data)])
    part = str(tmp_path / "line.partition.json")

    shrunk = tmp_path / "shrunk.csv"
    assert main(["transform", "--data", str(data), "--kind", "centric",
                 "--partition", part, "--cluster", "0", "--lam", "0.5",
                 "--out", str(shrunk)]) == 0
    before = Dataset.from_csv(str(data))
    after = Dataset.from_csv(str(shrunk))
    assert after.n == before.n

    moved = tmp_path / "moved.csv"
    assert main(["transform", "--data", str(data), "--kind", "motion",
                 "--partition", part, "--cluster", "1", "--vector", "7.0",
                 "--out", str(moved)]) == 0

    inner = tmp_path / "inner.csv"
    assert main(["transform", "--data", str(data), "--kind", "inner",
                 "--partition", part, "--lams", "0.5,0.9",
                 "--out", str(inner)]) == 0

    scaled = tmp_path / "scaled.csv"
    assert main(["transform", "--data", str(data), "--kind", "scale",
                 "--alpha", "2.0", "--out", str(scaled)]) == 0
    assert np.allclose(Dataset.from_csv(str(scaled)).points,
                       2.0 * before.points)

    # a missing option is a usage error, refused before --data is read
    for kind, given, missing in [
        ("scale", [], "--alpha"),
        ("centric", ["--cluster", "0", "--lam", "0.5"], "--partition"),
        ("motion", ["--cluster", "0", "--vector", "1.0"], "--partition"),
        ("inner", ["--lams", "0.5,0.9"], "--partition"),
        ("centric", ["--partition", part], "--cluster, --lam"),
        ("motion", ["--partition", part, "--cluster", "0"], "--vector"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--data", str(tmp_path / "missing.csv"),
                  "--kind", kind, *given, "--out", str(tmp_path / "none.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "axiomlab: error: transform %s needs %s" % (kind, missing))
    assert not (tmp_path / "none.csv").exists()


@pytest.mark.pinned
def test_construct_other_kinds(tmp_path):
    seg = tmp_path / "segments.csv"
    assert main(["construct", "--what", "segments", "--rotated",
                 "--points-per-segment", "25", "--seed", "3",
                 "--out", str(seg)]) == 0
    assert Dataset.from_csv(str(seg)).n == 100
    wing = Partition.from_json(
        (tmp_path / "segments.partition.json").read_text())
    assert [len(c) for c in wing.clusters] == [50, 50]

    mix = tmp_path / "mixture.csv"
    assert main(["construct", "--what", "mixture", "--seed", "1",
                 "--out", str(mix)]) == 0
    assert Dataset.from_csv(str(mix)).n == 1000

    coll = tmp_path / "collapse.csv"
    assert main(["construct", "--what", "collapse", "--seed", "1",
                 "--out", str(coll)]) == 0
    two = Partition.from_json(
        (tmp_path / "collapse.partition.json").read_text())
    assert two.k == 2 and two.n == 1000

    pinned = {
        "mixture.csv":
            "c7bdac60af2a1f86adfb999edeacadd3d0f23f23dabdf3539ec99088e30da9e2",
        "mixture.partition.json":
            "74dcc0341eea4fe4bae298b77735040a599eed1d0425a7330632d8170b296942",
        "collapse.csv":
            "ad78f494af8112ef995dad707c2c02e4555b13e6a7b7ff91543c6ab0fc64c962",
        "collapse.partition.json":
            "40336bda4430c00f9175e04efe2481fd96219cf638b0f2b4b0c803f3d7ca02fc",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest() == digest, name

    grid = tmp_path / "fixture.csv"
    assert main(["construct", "--what", "fixture", "--out", str(grid)]) == 0
    assert hashlib.sha256(grid.read_bytes()).hexdigest() == (
        "c8c9f1ea05cddc21257cbf2ffc90d23179f8892f83cf3984900c013464d05d3b")


def test_construct_line_refuses_sizes_beyond_float64(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(axiomlab.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "axiomlab.cli", "construct", "--what", "line",
         "--sizes", ",".join(["2"] * 15), "--out", str(tmp_path / "line.csv")],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode != 0
    assert "float64" in out.stderr
    assert not (tmp_path / "line.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["suite", "--name", "interference", "--seed", "-1"], "master_seed must be >= 0"),
    (["suite", "--name", "interference", "--trials", "0"],
     "trials must be >= 1 when given"),
    (["report", "--grid", "--restarts", "0"], "restarts must be >= 1"),
    (["construct", "--what", "line", "--sizes", "3,0"],
     "cluster sizes must all be >= 1, got [3, 0]"),
    (["cluster", "--data", "missing.csv", "--k", "2"],
     "[Errno 2] No such file or directory: 'missing.csv'"),
    (["report", "--from", "missing.json"],
     "[Errno 2] No such file or directory: 'missing.json'"),
    (["report", "--from", "object.json"],
     "not a report: expected an object of kind suite or variance-grid"),
    (["report", "--from", "list.json"],
     "not a report: expected an object of kind suite or variance-grid"),
    (["report", "--from", "partial.json"],
     "suite report lacks suite, master_seed, passed, checks, witnesses"),
] + [
    # the top-level fields are there, a nested or typed one is bad
    (["report", "--from", name, "--format", fmt], message)
    for name, message in [
        ("empty-check.json", "suite report does not render: KeyError('name')"),
        ("text-seed.json", "variance-grid report does not render: "
         "TypeError('%d format: a real number is required, not str')")]
    for fmt in ("json", "csv", "markdown")
] + [
    (["cluster", "--data", "huge.csv", "--k", "2"], "squared distances overflow float64"),
    # finite radii, center distance 1e200: its square overflows
    (["certify", "--data", "far.csv", "--partition", "far.json"],
     "squared distances overflow float64"),
])
def test_refused_values_are_usage_errors(tmp_path, argv, message):
    # status 1 means "a check failed"; a refused value is a usage error,
    # reported in one line with status 2, as argparse reports a bad option
    (tmp_path / "object.json").write_text('{"a": 1}')  # JSON, not reports
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "huge.csv").write_text("x1\n0\n1e200\n2e200\n-1e200\n")
    (tmp_path / "far.csv").write_text("x1\n0\n0\n1e200\n1e200\n")
    (tmp_path / "far.json").write_text(Partition([[0, 1], [2, 3]]).to_json())
    (tmp_path / "partial.json").write_text('{"kind": "suite"}')
    (tmp_path / "empty-check.json").write_text(json.dumps({
        "kind": "suite", "suite": "interference", "master_seed": 0,
        "passed": True, "checks": [{}], "witnesses": []}))
    (tmp_path / "text-seed.json").write_text(json.dumps({
        "kind": "variance-grid", "master_seed": "0", "restarts": 5,
        "rows": [], "all_within": True}))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(axiomlab.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "axiomlab.cli", *argv, "--out",
         str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert out.returncode == 2
    assert out.stderr.splitlines()[-1] == "axiomlab: error: " + message
    assert "Traceback" not in out.stderr
    assert out.stdout == "" and not (tmp_path / "out.csv").exists()


def test_construct_records_master_seed(tmp_path):
    seg = tmp_path / "segments.csv"
    assert main(["construct", "--what", "segments", "--points-per-segment",
                 "5", "--seed", "17", "--out", str(seg)]) == 0
    assert seg.read_text().splitlines()[:2] == ["# master_seed=17", "x1,x2,x3"]
    assert Dataset.from_csv(str(seg)).n == 20


def test_transform_carries_the_master_seed(tmp_path):
    data = tmp_path / "line.csv"
    assert main(["construct", "--what", "line", "--sizes", "3,3",
                 "--seed", "23", "--out", str(data)]) == 0
    part = str(tmp_path / "line.partition.json")
    shrunk = tmp_path / "shrunk.csv"
    assert main(["transform", "--data", str(data), "--kind", "centric",
                 "--partition", part, "--cluster", "0", "--lam", "0.5",
                 "--out", str(shrunk)]) == 0
    assert shrunk.read_text().splitlines()[:2] == ["# master_seed=23", "x1"]
    assert Dataset.from_csv(str(shrunk)).n == 6

    # an input without the line gives an output without it
    bare = tmp_path / "bare.csv"
    Dataset.from_csv(str(data)).to_csv(str(bare))
    scaled = tmp_path / "scaled.csv"
    assert main(["transform", "--data", str(bare), "--kind", "scale",
                 "--alpha", "2.0", "--out", str(scaled)]) == 0
    assert scaled.read_text().splitlines()[0] == "x1"


def test_suite_command(tmp_path):
    out = tmp_path / "suite.json"
    assert main(["suite", "--name", "interference", "--out", str(out)]) == 0
    parsed = json.loads(out.read_text())
    assert parsed[0]["suite"] == "interference" and parsed[0]["passed"]

    # all nine suites, trimmed trial counts, still green
    assert main(["suite", "--name", "all", "--trials", "5",
                 "--out", str(tmp_path / "all.json")]) == 0
    everything = json.loads((tmp_path / "all.json").read_text())
    assert len(everything) == 9

    with pytest.raises(SystemExit):  # not a suite name
        main(["suite", "--name", "bogus"])
    with pytest.raises(SystemExit):  # no suite reads a restart count
        main(["suite", "--name", "interference", "--restarts", "3"])


def test_report_command(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["report", "--grid", "--restarts", "6", "--seed", "0",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "k,original,kleinberg,centric"
    assert len(lines) == 7

    saved = tmp_path / "suite.json"
    main(["suite", "--name", "interference", "--out", str(saved)])
    # the suite verb saves a list; --from takes that file as-is
    assert main(["report", "--from", str(saved), "--format", "markdown",
                 "--out", str(tmp_path / "again.md")]) == 0
    assert "interference" in (tmp_path / "again.md").read_text()

    single = json.loads(saved.read_text())[0]
    (tmp_path / "one.json").write_text(json.dumps(single))
    assert main(["report", "--from", str(tmp_path / "one.json"),
                 "--format", "markdown", "--out",
                 str(tmp_path / "one.md")]) == 0
    assert "interference" in (tmp_path / "one.md").read_text()


@pytest.mark.parametrize("argv", [
    ["--name", "all", "--trials", "3"],
    ["--name", "motion-consistency"],  # fails at seed 16, with witnesses
])
def test_report_from_json_is_the_saved_file(tmp_path, argv):
    # re-rendering a saved suite file as JSON gives back the file, byte for
    # byte: one list, whether it holds nine reports or one
    saved, again = tmp_path / "suite.json", tmp_path / "again.json"
    main(["suite", *argv, "--seed", "16", "--out", str(saved)])
    assert main(["report", "--from", str(saved), "--format", "json",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == saved.read_bytes()
