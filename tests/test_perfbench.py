"""The benchmark's traced layers must name functions the package still has."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
