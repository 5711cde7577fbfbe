"""axiomlab benchmark: one workload, timed or traced, with checked outputs.

    python3 bench/run.py --workload wing --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout (``src/axiomlab`` must exist).
``--trace 0`` reports the end-to-end metrics: ``wall_s`` (time of one
pass over the workload's fixed inputs, each op at its median over the
run's passes), ``op_ms.p50`` and ``op_ms.p99`` (per-op latency),
``setup_s`` (median, over fresh processes, of the time from interpreter
start until ``axiomlab`` is imported and the inputs exist) and
``peak_rss_mb`` of the workload's process.  Times are scaled to the
reference machine speed (see calibrate.py).  ``--trace 1`` reports
per-layer calls, self time and work counts instead.  The error rate is ``failed / attempted``.  The last stdout line
is one JSON object; the lines before it are a readable summary.

Workloads run in a child process with BLAS and OpenMP threads pinned to 1
before numpy is imported.  See NOTES.md for what each workload stresses.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("wing", "small-runs", "lab", "exact")
SETUP_PROBES = 5
DEADLINE_S = 170.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)  # the worker puts the checkout's src first
    env.pop("AXIOMLAB_ENUMERATION_CAP", None)  # exact runs at the default cap
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark deadline passed")
    return left


def _setup_time(args, env, deadline):
    """Seconds from spawning a fresh interpreter until it reports ready,
    scaled by the calibration factor the process measures after that."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        factor = proc.stdout.read()
        proc.wait(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    return elapsed / float(factor)


def _run_worker(args, env, deadline):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=_remaining(deadline))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("workload process failed (exit %s)" % proc.returncode)
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "axiomlab", "__init__.py")):
        print("error: run from the root of an axiomlab checkout "
              "(src/axiomlab not found)", file=sys.stderr)
        return 2

    env = _child_env()
    try:
        setup_s = None
        if not args.trace:
            _setup_time(args, env, deadline)  # warm-up: byte-compiles the tree
            setup_s = statistics.median(
                _setup_time(args, env, deadline) for _ in range(SETUP_PROBES))
        result = _run_worker(args, env, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3

    extra = result.pop("extra")
    info = extra.pop("environment")
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    print("# workload %s  seed %d  trace %d  passes %d  ops/pass %d"
          % (args.workload, args.seed, args.trace, extra["passes"],
             extra["ops_per_pass"]))
    for name, m in sorted(result["metrics"].items()):
        print("#   %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("#   %-44s %14.6g (%d/%d ops)" % ("error_rate", failed / attempted,
                                           failed, attempted))
    print("# run %s" % json.dumps(extra, sort_keys=True))
    print("# env %s" % json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
