"""Command-line front end.

Verbs: ``cluster`` runs restarted k-means on a CSV of points;
``transform`` applies one of the distance-shape transforms; ``certify``
prints a separation certificate; ``construct`` writes one of the bundled
dataset generators to disk; ``suite`` runs named property suites (exit
status 1 if any check fails); ``report`` renders the explained-variance
grid or re-renders a saved report.  A value the package refuses, a
missing option and an unreadable file exit with status 2 and one error
line, as argparse reports a bad option.

Every randomized verb takes ``--seed`` and records it in its output.
"""

import argparse
import json
import sys

import numpy as np

from .constructions import (
    collapse_to_two_groups,
    fixture_table,
    gaussian_mixture,
    krich_line,
    mixture_partition,
    rotated_segments,
    wing_partition,
)
from .core import Dataset, Partition
from .harness import SUITE_NAMES, report, run_suite, variance_grid
from .kmeans import KMeansConfig, kmeans
from .separation import certify
from .transforms import (
    centric_transform,
    inner_proportional_transform,
    motion_transform,
    scale,
)


def _read_partition(path):
    with open(path) as fh:
        return Partition.from_json(fh.read())


def _seed_line(path):
    """The ``# master_seed=`` line among a CSV's leading comment lines, or
    None."""
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                return None
            if line.startswith("# master_seed="):
                return line.rstrip("\n") + "\n"
    return None


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_cluster(args):
    ds = Dataset.from_csv(args.data)
    cfg = KMeansConfig(
        k=args.k, restarts=args.restarts, rng_seed=args.seed
    )
    res = kmeans(ds, cfg)
    payload = {
        "k": args.k,
        "restarts": args.restarts,
        "master_seed": args.seed,
        "partition": [list(c) for c in res.partition.clusters],
        "centers": res.centers.tolist(),
        "q": res.q,
        "explained_variance": res.explained_variance,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    _write_text(args.out, json.dumps(payload, indent=2))
    return 0


# the options each transform kind needs besides --data and --out
_TRANSFORM_NEEDS = {
    "scale": ("alpha",),
    "centric": ("partition", "cluster", "lam"),
    "motion": ("partition", "cluster", "vector"),
    "inner": ("partition", "lams"),
}


def _cmd_transform(args):
    missing = [o for o in _TRANSFORM_NEEDS[args.kind]
               if getattr(args, o) is None]
    if missing:
        raise ValueError("transform %s needs %s" % (
            args.kind, ", ".join("--" + o for o in missing)))
    ds = Dataset.from_csv(args.data)
    legal = None
    if args.kind == "scale":
        out = scale(ds, args.alpha)
    else:
        gamma = _read_partition(args.partition)
        if args.kind == "centric":
            out = centric_transform(ds, gamma, args.cluster, args.lam)
        elif args.kind == "motion":
            vector = np.array([float(x) for x in args.vector.split(",")])
            out, legal = motion_transform(ds, gamma, args.cluster, vector)
        else:  # inner
            lams = [float(x) for x in args.lams.split(",")]
            out = inner_proportional_transform(ds, gamma, lams)
    # the verb draws nothing at random; its output carries the input's seed
    seed_line = _seed_line(args.data)
    with open(args.out, "w") as fh:
        if seed_line is not None:
            fh.write(seed_line)
        out.to_csv(fh)
    if legal is not None:
        print("legal: %s" % legal)
    return 0 if legal in (None, True) else 1


def _cmd_certify(args):
    ds = Dataset.from_csv(args.data)
    gamma = _read_partition(args.partition)
    _write_text(args.out, json.dumps(certify(ds, gamma)))
    return 0


def _cmd_construct(args):
    partition = None
    if args.what == "line":
        sizes = [int(x) for x in args.sizes.split(",")]
        ds, partition = krich_line(sizes)
    elif args.what == "segments":
        ds = rotated_segments(
            args.rotated, points_per_segment=args.points_per_segment,
            rng=args.seed)
        partition = wing_partition(args.points_per_segment)
    elif args.what == "mixture":
        ds = gaussian_mixture(rng=args.seed)
        partition = mixture_partition()
    elif args.what == "collapse":
        ds, partition = collapse_to_two_groups(
            gaussian_mixture(rng=args.seed), mixture_partition())
    else:  # fixture
        ds = fixture_table()  # a DistanceMatrix, written the same way
    with open(args.out, "w") as fh:
        fh.write("# master_seed=%d\n" % args.seed)
        ds.to_csv(fh)
    if partition is not None:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        with open(stem + ".partition.json", "w") as fh:
            fh.write(partition.to_json())
    return 0


def _render_reports(reports, format):
    """Suite reports as the suite verb saves them: one JSON list, or the
    reports' CSV or markdown renderings joined."""
    texts = [report(r, format=format) for r in reports]  # refuses a non-report
    if format == "json":
        return json.dumps(reports, indent=2, sort_keys=True) + "\n"
    return "\n".join(texts)


def _cmd_suite(args):
    names = SUITE_NAMES if args.name == "all" else (args.name,)
    reports = [run_suite(name, args.seed, args.trials) for name in names]
    _write_text(args.out, _render_reports(reports, args.format))
    for r in reports:
        print("%-28s %s" % (r["suite"], "pass" if r["passed"] else "FAIL"),
              file=sys.stderr)
    return 0 if all(r["passed"] for r in reports) else 1


def _cmd_report(args):
    if args.grid:
        results = variance_grid(args.seed, args.restarts)
        _write_text(args.out, report(results, format=args.format))
        return 0 if results["all_within"] else 1
    # saved suite files hold a list (the suite verb always writes one);
    # a bare report dict is accepted too
    with open(getattr(args, "from")) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, list):
        loaded = [loaded]
    _write_text(args.out, _render_reports(loaded, args.format))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="axiomlab",
        description="clustering-axiom experiments: run, certify, reproduce",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="restarted k-means on a CSV of points")
    p.add_argument("--data", required=True, help="points CSV, one row per point")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the result JSON here")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("transform", help="apply a distance-shape transform")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True,
                   choices=("scale", "centric", "motion", "inner"))
    p.add_argument("--partition", help="partition JSON (all kinds but scale)")
    p.add_argument("--alpha", type=float, help="scale factor")
    p.add_argument("--cluster", type=int, help="cluster id (centric, motion)")
    p.add_argument("--lam", type=float, help="shrink factor (centric)")
    p.add_argument("--lams", help="comma list, one factor per cluster (inner)")
    p.add_argument("--vector", help="comma list translation (motion)")
    p.add_argument("--out", required=True, help="transformed points CSV")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("certify", help="separation certificate for a clustering")
    p.add_argument("--data", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("construct", help="write a bundled dataset to disk")
    p.add_argument("--what", required=True,
                   choices=("line", "segments", "mixture", "collapse", "fixture"))
    p.add_argument("--sizes", default="3,2", help="cluster sizes (line)")
    p.add_argument("--rotated", action="store_true", help="segments variant")
    p.add_argument("--points-per-segment", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="dataset CSV path; a partition goes beside it, "
                        "to <stem>.partition.json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("suite", help="run property suites; exit 1 on failure")
    p.add_argument("--name", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--format", default="json",
                   choices=("json", "csv", "markdown"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("report", help="render the variance grid or a saved report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--grid", action="store_true",
                     help="measure the explained-variance grid")
    src.add_argument("--from", dest="from", metavar="PATH",
                     help="re-render a saved JSON report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=40)
    p.add_argument("--format", default="markdown",
                   choices=("json", "csv", "markdown"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # a refused value, an unreadable file
        parser.error(str(err))  # usage error, status 2


if __name__ == "__main__":
    sys.exit(main())
