"""The traced benchmark wraps pamlab functions by name: every target listed
in ``benchmarks/layers.py`` must resolve, or each traced run fails at
install with an AttributeError."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = [f"{module}.{name}"
               for module, names in targets.items()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
