"""The benchmark's traced run wraps library functions by name and skips a
name it cannot find, so a renamed kernel would silently read as zero time.
Every traced name must resolve to a callable in its module."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, names in tracing.TRACED.items():
        mod = importlib.import_module(f"pencilorbits.{mod_name}")
        missing += [f"{mod_name}.{name}" for name in names if not callable(getattr(mod, name, None))]
    assert not missing, missing
