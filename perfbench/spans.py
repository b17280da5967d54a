"""Spans and counters around the public API of ndescent, for the traced
run of the benchmark.

Every public module-level function of every ndescent module gets a span,
and is replaced in every module that binds it by name: ``geometry``
imports ``compute_epsilon`` and ``division_polynomial`` directly, so
patching only their home modules would miss the calls ``descend`` makes.
A few methods get a span on their class (``METHODS``).

``FieldElement.__mul__`` and ``FieldElement.inverse`` run millions of
times, and a span each would cost more than the work it times.  They get
call counters per absolute tower degree instead, and a fixed-seed
reservoir of their operands.  Their cost per call is measured after the
run by re-timing the plain operator on those operands.

Nothing here changes what the library computes; ``uninstall`` puts every
original back.
"""

import functools
import inspect
import json
import os
import random
import statistics
import time
from collections import Counter

MODULES = ("fields", "linalg", "curve", "funcfield", "descent_funcs",
           "algebra", "geometry", "serialize", "cli")

# Methods with a span, by (module, class).  Element access on matrices
# (indexing, row, col) is left out: it is called per entry.
METHODS = {
    ("linalg", "ExactMatrix"): ("__add__", "__sub__", "__neg__", "__mul__",
                                "scale", "mat_vec", "trace", "rank",
                                "kernel_basis", "solve", "inverse", "det"),
    ("funcfield", "FunctionFieldElement"): ("evaluate", "laurent"),
    ("geometry", "QuadricSystem"): ("evaluate_all",),
}

# Per-layer metrics computed from spans: name -> (kind, span names).
# "self" sums self time (span time minus the time its child spans
# cover), "calls" counts spans.  A span name ending in "*" is a prefix.
_FACTOR = ("fields.factor_poly", "fields.roots_in_field", "fields.tower_extend")
_DECODE = ("serialize.*_from_json",)
SPAN_METRICS = {
    "fields.factor_s": ("self", _FACTOR),
    "fields.factor_calls": ("calls", _FACTOR),
    "linalg.calls": ("calls", ("linalg.*",)),
    "linalg.self_s": ("self", ("linalg.*",)),
    "linalg.kernel_s": ("self", ("linalg.ExactMatrix.kernel_basis",)),
    "linalg.rank_s": ("self", ("linalg.ExactMatrix.rank",)),
    "curve.torsion_s": ("self", ("curve.torsion_table",)),
    "curve.divpoly_calls": ("calls", ("curve.division_polynomial",)),
    "curve.divpoly_s": ("self", ("curve.division_polynomial",)),
    "funcfield.miller_s": ("self", ("funcfield.miller_function",)),
    "funcfield.evaluate_calls": ("calls", ("funcfield.FunctionFieldElement.evaluate",)),
    "funcfield.evaluate_s": ("self", ("funcfield.FunctionFieldElement.evaluate",)),
    "funcfield.laurent_s": ("self", ("funcfield.FunctionFieldElement.laurent",)),
    "descent_funcs.miller_table_calls": ("calls", ("descent_funcs.compute_miller_table",)),
    "descent_funcs.epsilon_calls": ("calls", ("descent_funcs.compute_epsilon",)),
    "descent_funcs.epsilon_s": ("self", ("descent_funcs.compute_epsilon",)),
    "descent_funcs.gbasis_calls": ("calls", ("descent_funcs.compute_G_basis",)),
    "descent_funcs.gbasis_s": ("self", ("descent_funcs.compute_G_basis",)),
    "descent_funcs.embedding_s": ("self", ("descent_funcs.compute_embedding",)),
    "descent_funcs.sample_calls": ("calls", ("descent_funcs.affine_sample",)),
    "descent_funcs.sample_s": ("self", ("descent_funcs.affine_sample",)),
    "algebra.validate_rho_s": ("self", ("algebra.validate_rho",)),
    "algebra.build_csa_s": ("self", ("algebra.build_csa",)),
    "algebra.solve_gamma_s": ("self", ("algebra.solve_gamma",)),
    "algebra.trivialize_s": ("self", ("algebra.trivialize",)),
    "algebra.certify_s": ("self", ("algebra.certify_trivialisation",)),
    "geometry.quadrics_s": ("self", ("geometry.quadrics_for_C", "geometry.quadrics_for_E")),
    "geometry.g_eval_s": ("self", ("geometry.g_eval",)),
    "geometry.quadric_check_s": ("self", ("geometry.QuadricSystem.evaluate_all",)),
    "geometry.lambda_eval_s": ("self", ("geometry.lambda_eval",)),
    "geometry.extract_point_s": ("self", ("geometry.extract_point",)),
    "geometry.interpolate_s": ("self", ("geometry.interpolate_plane_curve",)),
    "geometry.descend_self_s": ("self", ("geometry.descend",)),
    "serialize.save_s": ("self", ("serialize.save",)),
    "serialize.load_s": ("self", ("serialize.load",)),
    "serialize.decode_s": ("self", _DECODE),
    "cli.verify_calls": ("calls", ("cli.cmd_verify",)),
    "cli.verify_self_s": ("self", ("cli.cmd_verify",)),
}

RESERVOIR = 256       # operand pairs kept per (operator, degree)
RETIME_PASS_S = 0.05  # least time one re-timing pass runs
RETIME_PASSES = 5


def _matches(name, patterns):
    for p in patterns:
        if p.endswith("*"):
            if name.startswith(p[:-1]):
                return True
        elif "*" in p:
            head, tail = p.split("*")
            if name.startswith(head) and name.endswith(tail):
                return True
        elif name == p:
            return True
    return False


class Tracer:
    """Records spans [name id, start, end, parent index, task, error]
    in memory and counts field operations.  ``task`` is set by the
    caller to the id of the task in progress."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.task = "setup"
        self.mul_calls = Counter()
        self.inv_calls = Counter()
        self.bytes_written = 0
        self.bytes_read = 0
        self._stack = []
        self._reservoirs = {}
        self._rng = random.Random(0)
        self._undo = []

    # -- installing --------------------------------------------------------

    def install(self, modules):
        """Wrap the public API of ``modules`` ({short name: module})."""
        wrapped = {}
        for short in MODULES:
            mod = modules[short]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._span("%s.%s" % (short, name), obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for m in methods:
                name = "%s.%s.%s" % (short, cls_name, m)
                self._patch(cls, m, self._span(name, cls.__dict__[m]))
        fe = modules["fields"].FieldElement
        mul = fe.__dict__["__mul__"]
        counted = self._counter(mul, self.mul_calls, "mul")
        self._patch(fe, "__mul__", counted)
        if fe.__dict__.get("__rmul__") is mul:
            self._patch(fe, "__rmul__", counted)
        self._patch(fe, "inverse",
                    self._counter(fe.__dict__["inverse"], self.inv_calls, "inv"))
        known = set(self.names)
        for _, patterns in SPAN_METRICS.values():
            for p in patterns:
                if not any(_matches(n, (p,)) for n in known):
                    raise LookupError("no public ndescent function matches %r" % p)

    def uninstall(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def _patch(self, owner, name, new):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = None
        if name == "serialize.save":
            def after(args):
                self.bytes_written += os.path.getsize(args[0])
        elif name == "serialize.load":
            def after(args):
                self.bytes_read += os.path.getsize(args[0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[5] = type(e).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args)
            return out
        return wrapper

    def _counter(self, fn, calls, op):
        rng, reservoirs, size = self._rng, self._reservoirs, RESERVOIR

        @functools.wraps(fn)
        def wrapper(*args):
            out = fn(*args)
            if out is NotImplemented:
                return out
            d = out.tower.degree
            calls[d] += 1
            seen = calls[d]
            res = reservoirs.setdefault((op, d), [])
            if seen <= size:
                res.append(args)
            else:
                j = rng.randrange(seen)
                if j < size:
                    res[j] = args
            return out
        return wrapper

    # -- results -----------------------------------------------------------

    def span_totals(self):
        """({span name: self seconds}, {span name: calls}, {(span name,
        exception name): count})."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_s, calls, errors = Counter(), Counter(), Counter()
        for i, rec in enumerate(self.spans):
            name = self.names[rec[0]]
            self_s[name] += rec[2] - rec[1] - child[i]
            calls[name] += 1
            if rec[5] is not None:
                errors[(name, rec[5])] += 1
        return self_s, calls, errors

    def op_cost_us(self):
        """{(op, degree): microseconds per call}, re-timed on the sampled
        operands with the plain operators.  Call after ``uninstall``."""
        out = {}
        for (op, d), operands in sorted(self._reservoirs.items()):
            if op == "mul":
                def one_pass(ops=operands):
                    for a, b in ops:
                        a * b
            else:
                def one_pass(ops=operands):
                    for (a,) in ops:
                        a.inverse()
            one_pass()
            reps = 1
            while True:
                t0 = time.perf_counter()
                for _ in range(reps):
                    one_pass()
                if time.perf_counter() - t0 >= RETIME_PASS_S:
                    break
                reps *= 2
            per_call = []
            for _ in range(RETIME_PASSES):
                t0 = time.perf_counter()
                for _ in range(reps):
                    one_pass()
                per_call.append((time.perf_counter() - t0) / (reps * len(operands)))
            out[(op, d)] = statistics.median(per_call) * 1e6
        return out

    def layer_metrics(self, degrees):
        """Every span metric, plus the field counters and costs for each
        degree in ``degrees``.  Call after ``uninstall``."""
        self_s, calls, errors = self.span_totals()
        out = {}
        for metric, (kind, patterns) in SPAN_METRICS.items():
            source = self_s if kind == "self" else calls
            out[metric] = sum(v for n, v in source.items() if _matches(n, patterns))
        out["geometry.images"] = (calls["geometry.extract_point"]
                                  - sum(v for (n, _), v in errors.items()
                                        if n == "geometry.extract_point"))
        out["geometry.kernel_retries"] = errors[("geometry.interpolate_plane_curve",
                                                 "KernelTooBig")]
        out["serialize.bytes_written"] = self.bytes_written
        out["serialize.bytes_read"] = self.bytes_read
        cost = self.op_cost_us()
        for d in degrees:
            out["fields.mul_calls.d%d" % d] = self.mul_calls[d]
            out["fields.inv_calls.d%d" % d] = self.inv_calls[d]
            out["fields.mul_us.d%d" % d] = cost.get(("mul", d), 0.0)
            out["fields.inv_us.d%d" % d] = cost.get(("inv", d), 0.0)
        return out

    def write(self, path):
        """Write the spans as JSON, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[r[0], round(r[1] - t0, 6), round(r[2] - t0, 6), r[3], r[4], r[5]]
                for r in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task", "error"],
                       "names": self.names, "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")
