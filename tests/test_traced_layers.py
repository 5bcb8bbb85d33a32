"""The benchmark's tracer wraps funcbreak functions by name: each must exist."""

import importlib
import sys
from pathlib import Path


def test_every_traced_layer_names_a_function_of_funcbreak():
    # imported the way conftest imports the benchmark's input builder
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from tracing import LAYERS
    finally:
        sys.path.remove(perfbench)
    missing = [f"{module}.{name}" for _, module, name in LAYERS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert LAYERS and missing == []
