"""Every rowfin name that `perfbench/tracer.py` wraps still exists.

The tracer looks its names up only when a benchmark run installs it, so
a renamed or deleted function would otherwise pass every test here.
"""

import importlib.util
from pathlib import Path

import rowfin.cli  # noqa: F401  (loads every rowfin module the tracer names)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    modules = tracer.rowfin_modules()
    targets = [t for spans in tracer.SPANS.values() for t in spans]
    targets += tracer.CALLS.values()
    missing = []
    for module, dotted in targets:
        owner = modules.get(module)
        for attr in dotted.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{dotted}")
    assert targets
    assert missing == []
