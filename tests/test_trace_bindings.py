"""The benchmark tracer's bindings must all resolve.

`perfbench/tracing.py` wraps aalstm's functions at every module attribute
that holds them and silently skips a binding that no longer exists, so a
rename or a dropped import in `src/` would turn its per-layer metrics into
"absent" without failing anything. The tracer is loaded by path, as a file
outside the package.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("binding", [b for bindings in tracing.BINDINGS.values()
                                     for b in bindings])
def test_binding_resolves(binding):
    _, _, value = tracing._resolve(binding)
    assert callable(getattr(value, "__func__", value)), binding
