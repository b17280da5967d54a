"""The ndescent benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ref-twists --seed 1 --seconds 20 --trace 0

Runs the workload in its own single-threaded process (workload.py) and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones, measured with tracing off and scaled to the
reference machine's speed by the pace ticks (pace.py); set-up and the
per-curve pipeline run in SETUP_RUNS fresh processes and their medians
are reported.  With --trace 1 the workload runs twice, untraced and then
traced, and the metrics are the per-layer ones from the traced run plus
trace_overhead.  A summary table with the units goes to standard error.
See README.md.

Exits 0 when every task's output checked out, 1 when a check failed,
and 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ref-twists", "verify-artifacts", "aux-gamma")
SETUP_RUNS = 3
DEADLINE_S = 170.0  # the whole run, children included

END_TO_END_UNITS = {"setup_s": "s", "curve_s": "s", "task_s": "s",
                    "task_s_tail": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(samples, beyond=10):
    """(percentile, value): the highest nearest-rank percentile with at
    least ``beyond`` samples above it.  With fewer than 2 * beyond
    samples that percentile would lie below the median, so the maximum
    (p100) is given instead."""
    xs = sorted(samples)
    rank = len(xs) - beyond
    if 2 * rank < len(xs):
        return 100.0, xs[-1]
    return 100.0 * rank / len(xs), xs[rank - 1]


def run_child(args, deadline, trace, no_tasks=False):
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--started", repr(time.time())]
    if no_tasks:
        cmd.append("--no-tasks")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting %s" % " ".join(cmd[2:]))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("workload process exited %d" % proc.returncode)
    return json.loads(lines[-1])


def environment(args):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_sha": sha}


def measure(args):
    """The full record: result line fields plus what went into them."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ndescent", "__init__.py")):
        raise BenchError("no ndescent sources under %s" % os.path.join(ROOT, "src"))
    deadline = time.monotonic() + DEADLINE_S
    rec = {"env": environment(args)}
    # Set-up and the per-curve data run once in the workload process and
    # once in each extra process, half of them before it and half after,
    # so that the samples fall in different phases of machine load.
    extra = SETUP_RUNS - 1
    probes = [run_child(args, deadline, trace=0, no_tasks=True)
              for _ in range(0 if args.trace else extra // 2)]
    plain = run_child(args, deadline, trace=0)
    rec["untraced"] = plain
    attempted, failed = plain["attempted"], plain["failed"]
    if args.trace:
        traced = run_child(args, deadline, trace=1)
        rec["traced"] = traced
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = dict(traced["layers"])
        metrics["trace_overhead"] = traced["run_wall_s"] / plain["run_wall_s"]
        units = {m: unit_of(m) for m in metrics}
    else:
        probes += [run_child(args, deadline, trace=0, no_tasks=True)
                   for _ in range(extra - len(probes))]
        setups = [plain["setup_s"]] + [p["setup_s"] for p in probes]
        curves = plain["curve_s"] + [c for p in probes for c in p["curve_s"]]
        rec["setup_runs"] = setups
        rec["curve_runs"] = curves
        rec["wall"] = {"setup_s": statistics.median(
                           [plain["setup_wall_s"]] + [p["setup_wall_s"] for p in probes]),
                       "curve_s": statistics.median(
                           plain["curve_wall_s"] + [c for p in probes for c in p["curve_wall_s"]]),
                       "task_s": statistics.mean(plain["task_wall_s"]),
                       "run_s": plain["run_wall_s"]}
        rec["tick_us"] = plain["tick_us"]
        if not plain["task_s"]:
            raise BenchError("no task finished")
        pct, tail_s = tail(plain["task_s"])
        rec["task_s_tail_percentile"] = pct
        metrics = {"setup_s": statistics.median(setups),
                   "curve_s": statistics.median(curves),
                   "task_s": statistics.mean(plain["task_s"]),
                   "task_s_tail": tail_s,
                   "run_s": plain["run_s"],
                   "peak_rss_mb": plain["peak_rss_mb"]}
        units = END_TO_END_UNITS
    rec["fail_frac"] = failed / attempted
    rec["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                     "metrics": {m: {"value": v, "unit": units[m]}
                                 for m, v in sorted(metrics.items())}}
    return rec


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if ".mul_us." in metric or ".inv_us." in metric:
        return "us"
    if metric.endswith("_bits"):
        return "bits"
    if metric.startswith("serialize.bytes"):
        return "bytes"
    if metric == "trace_overhead":
        return "ratio"
    return "count"


def summary(rec):
    env, res = rec["env"], rec["result"]
    out = ["perfbench %s seed=%s seconds=%s trace=%s  python %s  nproc %s  git %s"
           % (env["workload"], env["seed"], env["seconds"], env["trace"],
              env["python"], env["nproc"], env["git_sha"] or "-"),
           "  %-36s %14s  %s" % ("fail_frac", "%.4g" % rec["fail_frac"],
                                 "ratio (%d of %d tasks failed)"
                                 % (res["failed"], res["attempted"]))]
    for name, m in res["metrics"].items():
        out.append("  %-36s %14.6g  %s" % (name, m["value"], m["unit"]))
    if "wall" in rec:
        out.append("  unscaled wall times: %s; typical tick %.1f us (reference %.1f us)"
                   % (", ".join("%s %.4g s" % kv for kv in sorted(rec["wall"].items())),
                      rec["tick_us"], 1e6 * pace.REF_TICK_S))
    if "task_s_tail_percentile" in rec:
        out.append("  task_s_tail is p%.0f of %d tasks"
                   % (rec["task_s_tail_percentile"], len(rec["untraced"]["task_s"])))
    return "\n".join(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record, with the "
                                  "environment and every sample, to this file")
    args = ap.parse_args(argv)
    try:
        rec = measure(args)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(summary(rec), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(rec["result"], sort_keys=True))
    return 0 if rec["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
