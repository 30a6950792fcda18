"""The benchmark's tracer rebinds braidalg functions by name from outside
the package; a rename or removal in braidalg would leave a layer metric
reading zero.  Every traced name must still be defined where the tracer
looks for it."""

import importlib.util
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_braidalg():
    tracer = _load_tracer()
    targets = tracer.targets()
    assert targets
    for calls_name, _, owner, attr, kind in targets:
        module = owner if isinstance(owner, types.ModuleType) else owner.__module__
        assert getattr(module, "__name__", module).startswith("braidalg."), calls_name
        # the tracer takes the function from the owner's own namespace
        assert callable(vars(owner).get(attr)), f"{calls_name}: {owner.__name__}.{attr}"
        assert kind in (tracer.SPAN, tracer.TIMED, tracer.COUNT)
