"""Run the benchmark over a range of seeds and write BENCH_<label>.json.

    python3 perfbench/baseline.py --label baseline --seeds 101-110

For each workload (by default those in BENCHMARK.json), runs run.py once
per seed with tracing off, then once traced with the first seed.  The
file records each end-to-end metric's values, median, quartiles and
spread (the interquartile range over the median), the same for the
unscaled wall times behind the timed metrics, the per-layer metrics,
every run's full record, and the environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload, seed, seconds, trace):
    """The full --out record of one run.py run."""
    fd, path = tempfile.mkstemp(suffix=".json", dir=os.path.join(ROOT, ".perfbench-out"))
    os.close(fd)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace),
                               "--out", path], cwd=ROOT, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise SystemExit("run.py exited %d on %s seed %d trace %d"
                             % (proc.returncode, workload, seed, trace))
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.remove(path)


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None):
    with open(SPEC) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="first-last, at least two seeds (default 1-10)")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    out = {"label": args.label, "seconds": args.seconds, "seeds": args.seeds,
           "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(bench(workload, seed, args.seconds, 0))
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        traced = bench(workload, args.seeds[0], args.seconds, 1)
        names = sorted(runs[0]["result"]["metrics"])
        out["env"] = {k: v for k, v in runs[0]["env"].items()
                      if k in ("python", "nproc", "git_sha")}
        out["workloads"][workload] = {
            "end_to_end": {m: dict(spread_of([r["result"]["metrics"][m]["value"]
                                              for r in runs]),
                                   unit=runs[0]["result"]["metrics"][m]["unit"])
                           for m in names},
            "unscaled": {m: spread_of([r["wall"][m] for r in runs])
                         for m in sorted(runs[0]["wall"])},
            "fail_frac": (sum(r["result"]["failed"] for r in runs)
                          / sum(r["result"]["attempted"] for r in runs)),
            "per_layer": traced["result"]["metrics"],
            "runs": runs, "traced_run": traced}
    path = os.path.join(HERE, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, w in out["workloads"].items():
        for m, s in w["end_to_end"].items():
            print("%-18s %-12s median %10.4f %-3s spread %.3f"
                  % (workload, m, s["median"], s["unit"], s["spread"]))
    print("wrote %s" % os.path.relpath(path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
