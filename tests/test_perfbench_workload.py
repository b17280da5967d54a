"""The benchmark's workloads call ndescent and check what it returns (the
golden artifact's bytes among it); this runs those checks in-process, so
a broken call or a changed golden hash fails here first."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _workload_module(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # workload.py imports pace.py
    path = os.path.join(PERFBENCH, "workload.py")
    spec = importlib.util.spec_from_file_location("perfbench_workload", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_workload_tasks_pass_their_checks(monkeypatch, tmp_path):
    wl_mod = _workload_module(monkeypatch)
    from pace import Pace  # unstarted: no timer signal, times scale by 1
    lib = wl_mod.import_library()
    runs = {"ref-twists": (0, 1), "verify-artifacts": (0,), "aux-gamma": (0,)}
    for name, tasks in sorted(runs.items()):
        workdir = tmp_path / name
        workdir.mkdir()
        wl = wl_mod.WORKLOADS[name](lib, 1, str(workdir), Pace())
        wl.start()
        for k in tasks:
            wl.task(k)()  # raises CheckFailed when a check fails
