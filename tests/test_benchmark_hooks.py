"""The benchmark's layer trace wraps package functions by name; keep them resolvable."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from movingframes.expression import eval_at, sym

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    for name in list(tracer.SPANS) + list(tracer.LEAVES):
        home, *path = name.split(".")
        target = importlib.import_module(f"movingframes.{home}")
        for attr in path:
            assert hasattr(target, attr), f"{name}: no attribute {attr!r}"
            target = getattr(target, attr)
        assert callable(target), name
    expression = importlib.import_module("movingframes.expression")
    for attr in tracer.CACHES.values():
        assert isinstance(getattr(expression, attr), dict)


def test_eval_at_takes_the_memo_positionally():
    inspect.signature(eval_at).bind(sym("x"), {"x": 1.0}, {})
    assert eval_at(sym("x"), {"x": 2.0}, {}) == 2.0
