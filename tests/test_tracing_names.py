"""The names the benchmark's tracer wraps still resolve in the package.

bench/tracing.py rebinds each (submodule, function) of LAYERS and wraps each
(submodule, class, method) of COUNTED, looking the method up in the class's
own __dict__.  A renamed or deleted function or method would otherwise show
only when a traced benchmark run fails.  The file is read, never changed.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# executed from its source, so no bytecode cache is written beside it
tracing = types.ModuleType("bench_tracing")
exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(tracing))


@pytest.mark.parametrize(
    "submodule, function",
    sorted({target for targets in tracing.LAYERS.values() for target in targets}),
)
def test_layer_functions_resolve(submodule, function):
    module = importlib.import_module(f"boreltype.{submodule}")
    assert callable(getattr(module, function))


@pytest.mark.parametrize("counter", sorted(tracing.COUNTED))
def test_counted_methods_are_defined_on_their_class(counter):
    submodule, cls_name, method = tracing.COUNTED[counter]
    cls = getattr(importlib.import_module(f"boreltype.{submodule}"), cls_name)
    assert callable(cls.__dict__[method])
