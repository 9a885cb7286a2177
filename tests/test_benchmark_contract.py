"""The library names that the benchmark's tracer and host-speed sampler rely on.

``perfbench/tracer.py`` wraps library functions from the outside, and both it
and ``perfbench/hostspeed.py`` replace ``catalog._run_unit``.  A refactor that
renames one of those functions, memoizes a "plain" target, stops a "cached"
target's ``cache_info().misses`` counting its fills, or binds ``_run_unit``
early would break the benchmark without failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import congrlab.catalog as catalog
from congrlab.modring import prime_power, unit_scope

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_contract", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname: str, path: str):
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_tracer_target_resolves(tracer):
    assert tracer.TARGETS
    for prefix, modname, path, kind in tracer.TARGETS:
        fn = _resolve(modname, path)
        assert callable(fn), prefix
        # A "plain" or "exact" span is one call; a memo's would mix fills and hits.
        assert hasattr(fn, "cache_info") == (kind == "cached"), f"{prefix}: {modname}.{path} is not {kind}"
        if kind == "exact":
            # The tracer reads the ring as the third positional argument.
            assert list(inspect.signature(fn).parameters)[2] == "ring", prefix


def test_a_cold_call_in_a_unit_fills_each_cached_target(tracer):
    # The tracer counts a call as a fill when cache_info().misses rises.
    ring = prime_power(101, 2)
    cold_args = {"harmonic.mhs.mod": (10, (1, 2), ring), "harmonic.odd_mhs.mod": (10, (1, 2), ring),
                 "specialnum.euler_numbers": (10, 101), "specialnum.bernoulli_table": (13,),
                 "specialnum.bernoulli_powersum": (10, 101), "sequences.central_binomials": (ring,),
                 "modring.inverse_table": (ring,), "modring.prime_power": (101, 2)}
    cached = {prefix: _resolve(modname, path) for prefix, modname, path, kind in tracer.TARGETS if kind == "cached"}
    assert cached.keys() == cold_args.keys()
    for prefix, fn in cached.items():
        with unit_scope():
            getattr(fn, "cache_clear", lambda: None)()  # empties a long-lived lru_cache
            misses = fn.cache_info().misses
            fn(*cold_args[prefix])
            assert fn.cache_info().misses == misses + 1, prefix


def test_run_suite_calls_run_unit_at_call_time(monkeypatch):
    original = catalog._run_unit
    calls = []

    def counting(unit):
        calls.append(unit)
        return original(unit)

    monkeypatch.setattr(catalog, "_run_unit", counting)
    report = catalog.run_suite(prime_lo=7, prime_hi=11, patterns=("iv.h1",), jobs=1)
    assert [unit[1] for unit in calls] == [7, 11]
    assert [r.prime for r in report.results] == [7, 11]


def test_the_names_the_benchmark_workers_read_exist():
    # ``perfbench/worker.py`` schedules the expected instances from these
    # check fields, drives the CLI and renders the identity report;
    # ``perfbench/run.py`` builds the registry and reads the default panel.
    import congrlab
    from congrlab import cli

    assert isinstance(cli.DEFAULT_T_PANEL, tuple) and cli.DEFAULT_T_PANEL == catalog.DEFAULT_T_PANEL
    assert callable(cli.main)
    for check in congrlab.builtin_checks():
        if check.kind == "congruence":
            assert isinstance(check.min_prime, int), check.id
            assert isinstance(check.excluded_primes, frozenset), check.id
            assert check.prime_cap is None or isinstance(check.prime_cap, int), check.id
            assert type(check.uses_t_panel) is bool, check.id
        else:
            assert check.cases, check.id
    report = congrlab.run_suite(kinds=("identity",))
    assert report.status == "pass"
    assert isinstance(cli.format_report(report, "json"), str)
