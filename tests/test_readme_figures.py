"""README's measured figures agree with the benchmark records they cite.

A figure is written "about X unit (`BENCH_n.json`, `key`)", where ``key``
is a path into that JSON file such as
``results["wing@0/trace0"].metrics.wall_s.change.median``.  Every citation
of a key must resolve; one that resolves to a number must be written in
that form, and X must be the number rounded to X's own decimals.  A key
that names a table (a dict or list) cites it as a whole and is only
resolved.
"""

import json
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

CITATION = re.compile(r"\(`(BENCH_\d+\.json)`,\s+`([^`]+)`[);]")
FIGURE = re.compile(r"about\s+(\d+(?:\.\d+)?)\s+(?:s|ms|µs|MB)\s+$")
STEP = re.compile(r'\["([^"]+)"\]|\.?([A-Za-z_]\w*)')


def _resolve(record, key):
    value, at = record, 0
    while at < len(key):
        step = STEP.match(key, at)
        assert step, "cannot parse key %r at %d" % (key, at)
        value = value[step.group(1) or step.group(2)]
        at = step.end()
    return value


def _load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


def _problems(text, load):
    """Each cited figure that is stale or not in the checked form, and the
    number of figures checked; ``load`` maps a file name to its record."""
    problems, figures = [], 0
    for cite in CITATION.finditer(text):
        name, key = cite.groups()
        value = _resolve(load(name), key)
        if isinstance(value, (dict, list)):
            continue
        figure = FIGURE.search(text, 0, cite.start())
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append("%s, %s is %r, not a number" % (name, key, value))
        elif not figure:
            problems.append("%s, %s: write it as 'about X unit (...)'" % (name, key))
        else:
            written = figure.group(1)
            decimals = len(written.partition(".")[2])
            if "%.*f" % (decimals, value) != written:
                problems.append("%s, %s is %r; README says about %s"
                                % (name, key, value, written))
            figures += 1
    return problems, figures


def test_readme_figures_match_their_benchmark_records():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        problems, figures = _problems(fh.read(), _load)
    assert problems == []
    assert figures >= 5


def test_stale_and_unchecked_figures_are_reported():
    key = 'results["wing@0/trace0"].wall_s.median'
    record = {"results": {"wing@0/trace0": {"wall_s": {"median": 0.0557}}},
              "rows": [1, 2]}
    cite = "(`BENCH_9.json`, `%s`)" % key
    assert _problems("takes about 0.056 s\n%s." % cite, {"BENCH_9.json": record}.get) == (
        [], 1)
    assert _problems("(`BENCH_9.json`, `rows`)", {"BENCH_9.json": record}.get) == ([], 0)
    for text in ("takes about 0.055 s %s" % cite, "takes about 0.05 s %s" % cite,
                 "takes about 0.056 s per pass %s" % cite, "takes 0.056 s %s" % cite):
        problems, figures = _problems(text, {"BENCH_9.json": record}.get)
        assert len(problems) == 1, text
    with pytest.raises(KeyError):  # a key the record no longer holds
        _problems(cite.replace("median", "p50"), {"BENCH_9.json": record}.get)
