"""Regenerate ``reference.json``: every op's output digest on the default seed.

    python3 bench/record_reference.py            # all four workloads
    python3 bench/record_reference.py exact      # just one

Run it only when a change is meant to alter results, and say which
numbers moved and why.  Each workload's outputs must pass its
seed-independent checks before they are recorded.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def record(name, workdir):
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, workdir)
    wl.setup()
    outs = [op() for op in wl.ops]
    bad = wl.check(outs)
    if bad:
        raise SystemExit("%s: %d ops fail their checks, e.g. %s"
                         % (name, len(bad), bad[min(bad)]))
    return {"ops": [wl.digest(i, out) for i, out in enumerate(outs)]}


def main(names):
    names = names or sorted(workloads.WORKLOADS)
    ref = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            ref = json.load(fh)
    with workloads.scratch_dir() as workdir:
        for name in names:
            ref["workloads"][name] = record(name, workdir)
            print("recorded %s" % name, file=sys.stderr)
    with open(PATH, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
