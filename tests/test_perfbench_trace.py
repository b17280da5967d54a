"""The benchmark's traced run wraps ndescent functions and methods by
name; this fails fast when a refactor removes or renames one of them."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans_module():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_on_ndescent():
    spans = _spans_module()
    modules = {short: importlib.import_module("ndescent." + short)
               for short in spans.MODULES}
    tracer = spans.Tracer()
    try:
        tracer.install(modules)
        for name in ("geometry.quadrics_for_E", "descent_funcs.compute_miller_table",
                     "cli.cmd_verify", "geometry.QuadricSystem.evaluate_all",
                     "algebra.certify_trivialisation", "descent_funcs.compute_embedding",
                     "descent_funcs.tau_1"):
            assert name in tracer.names
    finally:
        tracer.uninstall()
    # every original is back in place
    assert not hasattr(modules["geometry"].descend, "__wrapped__")
