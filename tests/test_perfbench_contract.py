"""The benchmark times pentagem from outside the package, by name.

``perfbench/tracing.py`` lists in ``LAYERS`` the functions it wraps, and
``Tracer.install`` looks each one up with ``getattr``; a name the package
drops or renames would crash a traced benchmark run, so every name must
resolve on its module.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves_on_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{fn}" for mod, fns in tracing.LAYERS.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"pentagem.{mod}"), fn, None))]
    assert tracing.FUNCTIONS and not missing
