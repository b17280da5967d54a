"""One run of one benchmark workload, in one single-threaded process.

run.py starts this process and passes the time it did so; set-up time
is counted from then until the first timed task can begin.  The process
prints one JSON line with its measurements as the last line of its
standard output.  With --no-tasks it stops after set-up and the
per-curve data, so that run.py can time both in more than one process.

Times are taken with a Pace running (pace.py), which samples the
machine's speed; each time is recorded as wall seconds net of its ticks
and as those seconds scaled to the reference speed.  Traced runs take
no ticks, so their span times and wall times are plain.

Every input comes from --seed.  The number of tasks is fixed by the
workload and --seconds (``task_count``), not by a clock, so two commits
do the same work and a traced run's counts repeat exactly.  Every task's
output is checked; a failed check counts the task as failed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction

from pace import Pace, Span, typical

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# The golden task's artifact: descend(seed=7) on the trivial twist.
GOLDEN_BYTES = 9017
GOLDEN_SHA256 = "f244654ac24704fbb18352081eefd7e3bcf757d3c5bc3a1c04efef89e86b0e35"

N = 3
INDICES = [divmod(k, N) for k in range(N * N)]

# Absolute tower degrees whose field-operation metrics are always
# reported: the base field Q(zeta3) and the quadratic extensions the
# samples live in.  Any other degree a run builds is reported as well.
DEGREES = (2, 4)


class CheckFailed(Exception):
    """A task's output is not what the pipeline must produce."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def import_library():
    """The ndescent modules, imported from this checkout's src/."""
    sys.path.insert(0, SRC)
    import ndescent
    from ndescent import (fields, linalg, curve, funcfield, descent_funcs,
                          algebra, geometry, serialize, cli)
    if not os.path.abspath(ndescent.__file__).startswith(SRC + os.sep):
        raise ImportError("ndescent was imported from %s, not from %s"
                          % (ndescent.__file__, SRC))
    return {"fields": fields, "linalg": linalg, "curve": curve,
            "funcfield": funcfield, "descent_funcs": descent_funcs,
            "algebra": algebra, "geometry": geometry, "serialize": serialize,
            "cli": cli}


class PerCurve:
    """Torsion, Miller functions, epsilon, G-basis and embedding."""

    def __init__(self, lib, curve):
        df = lib["descent_funcs"]
        self.table = lib["curve"].torsion_table(curve, N)
        self.millers = df.compute_miller_table(self.table)
        self.eps = df.compute_epsilon(self.table, self.millers)
        self.gbasis = df.compute_G_basis(self.table, self.eps)
        self.emb = df.compute_embedding(self.table, self.eps, self.millers, seed=0)


def timed_per_curve(lib, curve, pace):
    mark = pace.mark()
    pc = PerCurve(lib, curve)
    return pc, pace.since(mark)


def unit_twist(field, rng):
    """A cochain z of small nonzero elements with z(O) = 1, and a
    descend seed."""
    z = {}
    for ij in INDICES:
        if ij == (0, 0):
            z[ij] = field.one()
            continue
        while True:
            e = field.element([Fraction(rng.randint(-5, 5)) for _ in range(field.degree)])
            if not e.is_zero():
                break
        z[ij] = e
    return z, rng.randrange(1 << 16)


def coboundary_descent(lib, curve, pc, z, seed, path):
    """rho = dz, its user-mode trivialisation z(T) M_T, descend, save."""
    alg = lib["algebra"]
    rho = alg.validate_rho(pc.table, alg.partial(pc.table, z).values)
    mats = {ij: pc.emb.M(ij).scale(z[ij]) for ij in INDICES}
    triv = alg.trivialize(pc.emb, pc.eps, rho, mode="user", matrices=mats)
    out = lib["geometry"].descend(curve, N, rho, triv, seed=seed, gbasis=pc.gbasis)
    save_descent(lib, curve, out, path)
    return out


def save_descent(lib, curve, out, path):
    ser = lib["serialize"]
    ser.save(path, ser.descent_to_json(out, curve))


def check_descent(out, path):
    rep = out["report"]
    check(rep["interpolation_kernel"] == 1,
          "interpolation kernel is %r, not 1" % rep["interpolation_kernel"])
    check(rep["held_out_pass"] is True, "held-out points were not checked")
    check(not out["plane_curve"].is_zero(), "the plane cubic is zero")
    check(os.path.getsize(path) > 0, "the descent artifact is empty")


def max_bits(out):
    """The largest numerator or denominator bit length in the cubic's and
    gamma's coordinates."""
    best = 0
    elems = list(out["plane_curve"].coeffs) + list(out["gamma"].values())
    for e in elems:
        for q in e.flatten():
            best = max(best, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return best


def build_field(lib):
    fields = lib["fields"]
    return fields.tower_extend(fields.FieldTower.rationals(), [1, 1, 1], name="zeta3")


class PerCurveFirst:
    """Set-up builds the field and the curve; the timed part starts with
    the per-curve data."""

    first_sample = 0

    def __init__(self, lib, seed, workdir, pace):
        self.lib, self.workdir, self.pace = lib, workdir, pace
        self.rng = random.Random(seed)
        self.field, self.curve = self.make_curve(lib)
        self.pc = None
        self.outputs = []

    def start(self):
        self.pc, self.curve_span = timed_per_curve(self.lib, self.curve, self.pace)


class RefTwists(PerCurveFirst):
    """y^2 = x^3 - 432 over Q(zeta3): the per-curve data once, then the
    golden task, then coboundary twists."""

    nominal_task_s = 3.0
    min_tasks = 2
    # task 0 checks the golden artifact; task_s samples the twists only
    first_sample = 1

    @staticmethod
    def make_curve(lib):
        field = build_field(lib)
        return field, lib["curve"].Curve(field, 0, -432)

    def task(self, k):
        path = os.path.join(self.workdir, "descent-%d.json" % k)
        if k == 0:
            out = self.golden(path)
        else:
            z, seed = unit_twist(self.field, self.rng)
            out = coboundary_descent(self.lib, self.curve, self.pc, z, seed, path)
        self.outputs.append(out)
        return lambda: self.check(k, out, path)

    def golden(self, path):
        alg, pc = self.lib["algebra"], self.pc
        rho = alg.RhoTable.trivial(pc.table)
        triv = alg.trivialize(pc.emb, pc.eps, rho)
        out = self.lib["geometry"].descend(self.curve, N, rho, triv, seed=7)
        save_descent(self.lib, self.curve, out, path)
        return out

    def check(self, k, out, path):
        check_descent(out, path)
        if k == 0:
            with open(path, "rb") as fh:
                data = fh.read()
            check(len(data) == GOLDEN_BYTES and
                  hashlib.sha256(data).hexdigest() == GOLDEN_SHA256,
                  "golden artifact changed: %d bytes, sha256 %s"
                  % (len(data), hashlib.sha256(data).hexdigest()))


class AuxGamma(PerCurveFirst):
    """y^2 = x^3 - 54 over Q(zeta3, sqrt2) with rho from the point
    (7, 17): the only path where solve_gamma extends the tower."""

    nominal_task_s = 37.0
    min_tasks = 1

    @staticmethod
    def make_curve(lib):
        field = lib["fields"].tower_extend(build_field(lib), [-2, 0, 1], name="sqrt2")
        return field, lib["curve"].Curve(field, 0, -54)

    def task(self, k):
        alg, pc, K = self.lib["algebra"], self.pc, self.field
        q = self.lib["curve"].Point(self.curve, K.from_fraction(7), K.from_fraction(17))
        rho = alg.rho_from_point(pc.table, q)
        alg.build_csa(pc.table, pc.eps, rho)
        triv = alg.trivialize(pc.emb, pc.eps, rho, mode="gamma")
        out = self.lib["geometry"].descend(self.curve, N, rho, triv,
                                           seed=self.rng.randrange(1 << 16),
                                           gbasis=pc.gbasis)
        path = os.path.join(self.workdir, "descent-%d.json" % k)
        save_descent(self.lib, self.curve, out, path)
        self.outputs.append(out)

        def checks():
            check_descent(out, path)
            check(out["report"]["gamma_levels"] == 3,
                  "gamma field has %r levels, not 3" % out["report"]["gamma_levels"])
        return checks


class VerifyArtifacts:
    """Set-up writes one seeded twist's artifact set and a tampered rho;
    each task runs ``ndescent verify`` on both."""

    nominal_task_s = 3.0
    min_tasks = 1
    first_sample = 0
    make_curve = staticmethod(RefTwists.make_curve)

    def __init__(self, lib, seed, workdir, pace):
        self.lib = lib
        ser, alg = lib["serialize"], lib["algebra"]
        field, curve = self.make_curve(lib)
        pc, self.curve_span = timed_per_curve(lib, curve, pace)
        z, dseed = unit_twist(field, random.Random(seed))
        path = {name: os.path.join(workdir, name + ".json")
                for name in ("curve", "rho", "csa", "triv", "quadrics", "descent", "badrho")}
        out = coboundary_descent(lib, curve, pc, z, dseed, path["descent"])
        check_descent(out, path["descent"])
        self.outputs = [out]
        rho = out["trivialisation"].rho
        ser.save(path["curve"], ser.curve_to_json(curve))
        ser.save(path["rho"], ser.rho_to_json(rho))
        ser.save(path["csa"], ser.csa_to_json(alg.build_csa(pc.table, pc.eps, rho)))
        ser.save(path["triv"], ser.triv_to_json(out["trivialisation"]))
        qs = lib["geometry"].quadrics_for_C(curve, pc.table, rho)
        ser.save(path["quadrics"], ser.quadrics_to_json(qs, curve, rho))
        with open(path["rho"]) as fh:
            bad = json.load(fh)
        check(bad["values"]["1,0|0,1"] != ["23", "0"], "tampering would not change rho")
        bad["values"]["1,0|0,1"] = ["23", "0"]
        with open(path["badrho"], "w") as fh:
            json.dump(bad, fh)
        self.good = ["verify", "--curve", path["curve"]] + [
            path[name] for name in ("rho", "csa", "triv", "quadrics", "descent")]
        self.bad = ["verify", "--curve", path["curve"], path["badrho"]]

    def start(self):
        pass

    def task(self, k):
        main = self.lib["cli"].main
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            good = main(self.good)
            bad = main(self.bad)

        def checks():
            check(good == 0, "verify exits %r on the good artifact set" % good)
            check(bad == 3, "verify exits %r on the tampered rho" % bad)
            check(log.getvalue().count("FAIL ") == 1,
                  "expected exactly one FAIL line:\n" + log.getvalue())
        return checks


WORKLOADS = {"ref-twists": RefTwists, "aux-gamma": AuxGamma,
             "verify-artifacts": VerifyArtifacts}


def task_count(workload, seconds):
    cls = WORKLOADS[workload]
    return max(cls.min_tasks, round(seconds / cls.nominal_task_s))


def run(args):
    """Set-up, then the timed tasks; returns the measurement record.

    Each time is recorded as ``<name>_wall`` (wall seconds net of the
    pace ticks) and ``<name>`` (those seconds scaled to the reference
    speed; the same as the wall time in a traced run)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    pace = Pace()
    try:
        # interpreter start-up, before the first tick can be taken
        unsampled_s = time.time() - args.started
        if not args.trace:
            pace.start()
        start = pace.mark()
        lib = import_library()
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install(lib)
        wl = WORKLOADS[args.workload](lib, args.seed, workdir, pace)
        setup = pace.since(start)
        setup.wall += unsampled_s
        t0 = pace.mark()
        if tracer:
            tracer.task = "curve"
        wl.start()
        curves = [wl.curve_span]
        rec = {}
        if not args.no_tasks:
            rec = run_tasks(args, lib, wl, tracer, pace, t0, curves)
        rec["setup_s"], rec["setup_wall_s"] = setup.scaled, setup.wall
        rec["curve_s"] = [c.scaled for c in curves]
        rec["curve_wall_s"] = [c.wall for c in curves]
        rec["ticks"] = len(pace.ticks)
        if pace.ticks:
            rec["tick_us"] = 1e6 * typical(pace.ticks)
        return rec
    finally:
        pace.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def run_tasks(args, lib, wl, tracer, pace, t0, curves):
    """The timed tasks after the per-curve data; ``curves`` gains the
    mid-run per-curve sample."""
    attempted = task_count(args.workload, args.seconds)
    tasks, failed, resample = [], 0, Span(0.0, 1.0)
    for k in range(attempted):
        if tracer:
            tracer.task = "task-%d" % k
        mark = pace.mark()
        try:
            checks = wl.task(k)
            if k >= wl.first_sample:
                tasks.append(pace.since(mark))
            checks()
        except Exception:
            failed += 1
            traceback.print_exc()
        if k == attempted // 2 and not tracer:
            # One more sample of the per-curve data, mid-run, on a
            # fresh curve so that its caches are empty; not part of
            # run_s, and left out of traced runs.
            resample = timed_per_curve(lib, wl.make_curve(lib)[1], pace)[1]
            curves.append(resample)
    timed = pace.since(t0).minus(resample)
    rec = {"task_s": [t.scaled for t in tasks], "task_wall_s": [t.wall for t in tasks],
           "run_s": timed.scaled, "run_wall_s": timed.wall,
           "attempted": attempted, "failed": failed,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics(sorted(set(DEGREES) | set(tracer.mul_calls)))
        layers["fields.max_bits"] = max((max_bits(out) for out in wl.outputs), default=0)
        rec["layers"] = layers
        trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
        tracer.write(trace_path)
        rec["trace_file"] = os.path.relpath(trace_path, ROOT)
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.time() when the parent started this process")
    ap.add_argument("--no-tasks", action="store_true",
                    help="stop after set-up and the per-curve data")
    args = ap.parse_args(argv)
    rec = run(args)
    print(json.dumps(rec, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
