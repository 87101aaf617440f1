"""Benchmark of multistat: time to a certified verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a source
checkout as a closed loop: one caller, one operation at a time, the
library's default ``threads=1``.  Operations cycle over the seeded inputs
until ``--seconds`` would be exceeded, and always cover at least one full
pass.  Every verdict is checked; an operation whose verdict fails a check
or that raises unexpectedly counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
input twice in a row, untraced and then traced (``tracer.py``), requires
both verdicts to be identical, and prints the per-layer metrics of a pass
plus the tracing overhead; the spans of the first traced pass are written
to ``perfbench/out/``.  The last line of standard output is one JSON
object; the lines before it are a readable summary.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-up is timed this many times, each in a fresh interpreter
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}


def set_up(name, seed):
    """Everything before the first timed operation: the package import,
    input generation, and the lazy ``scipy.optimize`` import that
    ``ratlin.strict_feasible_fast`` pays on first use."""
    sys.path.insert(0, SRC)
    import workloads
    from multistat import ratlin

    wl = workloads.WORKLOADS[name](seed)
    ratlin.strict_feasible_fast([[1]])
    return wl


def time_set_up(name, seed):
    """Median time from starting a fresh interpreter to the end of set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--setup-probe"],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    return statistics.median(times)


def attempt(wl, i, tracer=None, op_id=None):
    """One timed operation on input ``i``, then its checks (untimed).
    Returns (seconds, result, problems)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = wl.run(i)
        else:
            with tracer:
                result = tracer.op(op_id, wl.run, i)
    except Exception:
        return time.perf_counter() - start, None, [traceback.format_exc()]
    seconds = time.perf_counter() - start
    try:
        problems = wl.check(i, result)
    except Exception:
        problems = ["check raised: " + traceback.format_exc()]
    return seconds, result, problems


def tail(latencies):
    """The highest percentile with at least 10 samples above it, as
    (value, percentile).  With 20 samples or fewer that percentile would
    not lie above the median, so the median is returned."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 20:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run(wl, seconds, traced):
    """Cycle over the inputs; returns the per-input latencies, the
    per-input traced latencies, the tracer, the failed and attempted
    operation counts, and the number of steps taken."""
    from tracer import Tracer

    n = len(wl.inputs)
    plain = [[] for _ in range(n)]
    with_trace = [[] for _ in range(n)]
    tracer = Tracer() if traced else None
    failed = attempted = 0
    start = time.perf_counter()
    k = 0
    while True:
        i = k % n
        if k >= n:
            # stop before an operation that would end past the deadline
            guess = plain[i][-1] + (with_trace[i][-1] if with_trace[i] else 0.0)
            if time.perf_counter() - start + guess > seconds:
                break
        sec, result, problems = attempt(wl, i)
        plain[i].append(sec)
        attempted += 1
        if traced and not problems:
            sec_t, result_t, problems = attempt(wl, i, tracer, k)
            with_trace[i].append(sec_t)
            attempted += 1
            if not problems and wl.signature(result_t) != wl.signature(result):
                problems = ["verdict differs with tracing"]
        if problems:
            failed += 1
            print("# FAILED %s input %d: %s" % (wl.name, i, "; ".join(problems)[:2000]),
                  file=sys.stderr)
        k += 1
    return plain, with_trace, tracer, failed, attempted, k


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "multistat", "__init__.py")):
        print("run.py: no multistat sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = time_set_up(args.workload, args.seed)
    wl = set_up(args.workload, args.seed)
    plain, with_trace, tracer, failed, attempted, steps = run(
        wl, args.seconds, args.trace == 1)
    print("# %s seed %d: %d operations, %d inputs per pass; python %s, "
          "numpy %s, nproc %d" % (
              wl.name, args.seed, attempted, len(wl.inputs),
              platform.python_version(), sys.modules["numpy"].__version__,
              os.cpu_count()))
    if args.trace == 0:
        lat = [x for xs in plain for x in xs]
        tail_s, pct = tail(lat)
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(statistics.median(xs) for xs in plain),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print("# op_tail_s is p%.1f of %d samples; failed_frac %.4f" % (
            pct, len(lat), failed / attempted))
    else:
        import tracer as tracer_mod

        n = len(wl.inputs)
        passes = [range(p * n, p * n + n) for p in range(steps // n)]
        per_pass = [tracer_mod.layer_metrics(tracer.spans, ops) for ops in passes]
        # the lower median is a value of one pass, so counts stay whole
        metrics = {key: statistics.median_low(m[key] for m in per_pass)
                   for key in per_pass[0]}
        paired = [(sum(t), sum(p[:len(t)])) for t, p in zip(with_trace, plain)]
        metrics["trace.overhead_frac"] = (
            sum(t for t, _ in paired) / sum(p for _, p in paired) - 1)
        units = {key: tracer_mod.unit(key) for key in metrics}
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, "spans-%s-seed%d.jsonl.gz" % (wl.name, args.seed)),
                     passes[0])
        print("# per-layer metrics of one pass, lower median over %d traced passes; "
              "failed_frac %.4f" % (len(passes), failed / attempted))
    for key, value in metrics.items():
        print("# %-36s %14.6g %s" % (key, value, units[key]))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
