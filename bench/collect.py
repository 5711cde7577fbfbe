"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads wing,exact --seeds 1-10 \
        --seconds 20 --trace 0 [--out summary.json]

Runs ``run.py`` once per (workload, seed), one at a time, from the current
directory (the root of a checkout).  For every metric it prints the
median, the quartiles and the spread (interquartile range over the
median) as ``statistics.quantiles(values, n=4)`` gives them.  The summary
also holds each run's median pass time (``pass_s``), so a traced and an
untraced summary give the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_once(workload, seed, seconds, trace):
    """(result JSON, run info, environment) of one benchmark run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", trace]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split()[1]: json.loads(line.split(None, 2)[2])
              for line in lines if line.startswith(("# run ", "# env "))}
    return json.loads(lines[-1]), tagged["run"], tagged["env"]


def collect(workload, seeds, seconds, trace):
    runs, infos, env = [], [], None
    for seed in seeds:
        result, info, env = run_once(workload, seed, seconds, trace)
        runs.append(result)
        infos.append(info)
        print("%s trace %s seed %d: correct=%s failed=%d/%d passes=%d pass=%.4g" % (
            workload, trace, seed, result["correct"], result["failed"],
            result["attempted"], info["passes"], info["pass_s"]), file=sys.stderr)
    metrics = {key: dict(summarise([r["metrics"][key]["value"] for r in runs]),
                         unit=meta["unit"])
               for key, meta in runs[0]["metrics"].items()}
    return {
        "seeds": seeds,
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "passes": summarise([i["passes"] for i in infos]),
        "pass_s": summarise([i["pass_s"] for i in infos]),
        "metrics": metrics,
        "environment": env,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="wing,small-runs,lab,exact")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        entry = summary[workload] = collect(
            workload, _seeds(args.seeds), args.seconds, args.trace)
        for key, m in sorted(entry["metrics"].items()):
            if m["unit"] in ("s", "ms", "MB") and m["median"]:
                print("%-10s %-48s median %-12.6g spread %.4f" % (
                    workload, key, m["median"], m["spread"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
