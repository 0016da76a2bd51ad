"""The benchmark must still run against the package: traced layers and workload checks."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_traced_target_is_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for target in tracing.TARGETS:
        module_name, func_name = target.split(".")
        module = importlib.import_module("choosability." + module_name)
        fn = getattr(module, func_name, None)
        assert inspect.isfunction(fn), target
        assert fn.__module__.startswith("choosability."), target


def test_benchmark_self_test_passes():
    # tiny runs of every workload, which check every answer they produce
    done = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"self_test_ok": True}
