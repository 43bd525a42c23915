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


def test_census_caches_are_cleared_between_rounds():
    # run.py's find_caches clears an lru_cache only where its __module__ is
    # the module that holds it; a table cached any other way is timed warm
    from pencilorbits import finite_fields, forms

    cached = (
        (finite_fields, "_quartic_pair_table"),
        (finite_fields, "pair_census_n2"),
        (finite_fields, "_fibre_pairs"),
        (finite_fields, "_matrix_images"),
        (finite_fields, "_square_value_count"),
        (forms, "_separable_mod_p"),
    )
    for mod, name in cached:
        fn = getattr(mod, name)
        assert callable(getattr(fn, "cache_clear", None)), fn
        assert fn.__module__ == mod.__name__, fn


def test_density_caches_are_cleared_between_rounds():
    # the density workload times the series rows, the Newton tables, the
    # binomial rows and the per-prime counts cold only if find_caches sees
    # them as densities' own lru_caches
    from pencilorbits import densities

    cached = (
        densities._forward_differences,
        densities._weighted_differences,
        densities.factor_count_distribution,
        densities._squarefree_series,
        densities._newton_rows,
    )
    for fn in cached:
        assert callable(getattr(fn, "cache_clear", None)), fn
        assert fn.__module__ == "pencilorbits.densities", fn
