"""One workload in one process: set up, run passes, check, report.

Started by ``run.py`` with BLAS and OpenMP threads already pinned to 1 in
its environment.  Prints one JSON object as its last stdout line.  With
``--setup-only`` it prints ``ready`` once the inputs exist and exits; the
parent times that as the set-up.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _reference(name, seed):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["workloads"][name]["ops"]


def environment():
    """What the numbers were measured on, as seen from this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "blas": "%s %s" % (blas.get("name"), blas.get("version")),
           "blas_threads": None, "cpu": platform.processor() or "unknown",
           "commit": "unknown"}
    # numpy's bundled OpenBLAS reports the thread count it will use
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                env["blas_threads"] = int(getattr(lib, sym)())
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        env["commit"] = head
    except OSError:
        pass  # not a git checkout
    return env


def run(name, seed, seconds, trace, workdir, log=sys.stderr):
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    reference = _reference(name, seed)
    setup_layers = None
    if tracer is not None:
        setup_layers = tracing.summarize(tracer.spans)
        tracer.spans.clear()

    op_times, walls, factors, pass_layers = [], [], [], []  # one entry per pass
    attempted = failed = 0
    shown = raised = 0  # failures and tracebacks printed so far
    start = time.perf_counter()
    while True:
        outs, times, spans = [], [], []
        sampler = calibrate.Sampler()
        p0 = time.perf_counter()
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # counted as a failed op, then go on
                if raised < 3:
                    traceback.print_exc(file=log)
                    raised += 1
                out = exc
            t1 = time.perf_counter()
            times.append(t1 - t0)
            spans.append((t0, t1))
            outs.append(out)
            sampler.after_op(t1 - t0)
        walls.append(time.perf_counter() - p0)
        op_times.append(times)
        factors.append(sampler.factors(spans))
        if tracer is not None:
            layers = tracing.summarize(tracer.spans)
            tracer.spans.clear()
            pass_layers.append({k: v + setup_layers[k] for k, v in layers.items()})
        bad = wl.check(outs, reference)
        attempted += len(outs)
        failed += len(bad)
        for i in sorted(bad)[: max(0, 5 - shown)]:
            print("op %d failed: %s" % (i, "; ".join(bad[i][:3])), file=log)
            shown += 1
        if time.perf_counter() - start >= seconds:
            break

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    extra = {"passes": len(walls), "ops_per_pass": len(wl.ops),
             "pass_s": statistics.median(walls),
             "speed_factor": float(np.median(factors)),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             "environment": environment()}
    if tracer is None:
        # An op's latency is its median over the passes of its time scaled
        # by its calibration factor (see calibrate.py).  A pass's time is
        # the sum of its ops' latencies; percentiles are taken across the
        # ops of a pass.
        scaled = np.asarray(op_times) / np.asarray(factors)
        per_op = 1000.0 * np.median(scaled, axis=0)
        metrics = {
            "wall_s": (float(per_op.sum()) / 1000.0, "s"),
            "op_ms.p50": (float(np.percentile(per_op, 50)), "ms"),
            "op_ms.p99": (float(np.percentile(per_op, 99)), "ms"),
            "peak_rss_mb": (extra["peak_rss_mb"], "MB"),
        }
    else:
        tracer.uninstall()
        metrics = {}
        for key in pass_layers[0]:
            values = [p[key] for p in pass_layers]
            unit = tracing.unit(key)
            if unit == "s":
                metrics[key] = (statistics.median(values), unit)
                continue
            # counts must repeat exactly pass to pass
            if any(v != values[0] for v in values):
                print("count %s differs between passes: %s" % (key, values), file=log)
                result["correct"] = False
            metrics[key] = (values[0], unit)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["extra"] = extra
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with workloads.scratch_dir() as workdir:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir).setup()
            print("ready", flush=True)
            # the machine's speed right after the set-up, for run.py to
            # scale the set-up time by
            print(calibrate.factor_now(), flush=True)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
