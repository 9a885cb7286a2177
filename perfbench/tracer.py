"""Outside-in tracer for congrlab's kernels.

The tracer wraps named functions of the library from the outside: it looks
up each target, and replaces every binding of that object in every loaded
``congrlab`` module (``catalog`` imports kernels by name, so patching the
defining module alone would miss most calls).  No library file changes.

Each wrapped call is a span.  Spans are kept in memory as per-name
aggregates: call count, self time (the span's duration minus the time spent
in wrapped children), and for ``lru_cache`` functions the split between
calls that filled the cache (``cache_info().misses`` rose across the call)
and calls that hit it.  ``fill_s`` and ``hit_s`` are inclusive durations.

Pool workers of ``run_suite(jobs > 1)`` are covered by replacing
``catalog._run_unit`` with ``pool_run_unit``: each worker resets its copy of
the aggregates, runs the unit, and ships the aggregates back with the batch,
where unpickling merges them into the parent's tracer.  This relies on the
pool forking its workers (the default start method on Linux up to Python
3.13), so that they inherit the installed wrappers.

The tracer assumes that only one thread calls wrapped functions.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
from time import perf_counter

# (metric prefix, module, attribute path, how the wrapper records the call)
#   "plain"  - every call is one span
#   "cached" - an lru_cache function: fills and hits are split
#   "exact"  - mhs/odd_mhs: only calls on a non-modular ring are spans; the
#              modular path is timed inside _mhs_mod/_odd_mhs_mod
TARGETS = (
    ("harmonic.mhs.mod", "congrlab.harmonic", "_mhs_mod", "cached"),
    ("harmonic.odd_mhs.mod", "congrlab.harmonic", "_odd_mhs_mod", "cached"),
    ("harmonic.mhs.exact", "congrlab.harmonic", "mhs", "exact"),
    ("harmonic.odd_mhs.exact", "congrlab.harmonic", "odd_mhs", "exact"),
    ("harmonic.alternating_half_sum", "congrlab.harmonic", "alternating_half_sum", "plain"),
    ("specialnum.euler_numbers", "congrlab.specialnum", "euler_numbers", "cached"),
    ("specialnum.bernoulli_table", "congrlab.specialnum", "bernoulli_table", "cached"),
    ("specialnum.bernoulli_powersum", "congrlab.specialnum", "bernoulli_powersum", "cached"),
    ("specialnum.bernoulli_poly_value", "congrlab.specialnum", "bernoulli_poly_value", "plain"),
    ("binomsums.rhs_lucas_sum", "congrlab.binomsums", "rhs_lucas_sum", "plain"),
    ("binomsums.s1", "congrlab.binomsums", "s1", "plain"),
    ("binomsums.s2", "congrlab.binomsums", "s2", "plain"),
    ("binomsums.weighted_sums", "congrlab.binomsums", "weighted_sums", "plain"),
    ("binomsums.fib_lucas_sum", "congrlab.binomsums", "fib_lucas_sum", "plain"),
    ("sequences.central_binomials", "congrlab.sequences", "central_binomials", "cached"),
    ("sequences.w_value_mod", "congrlab.sequences", "w_value_mod", "plain"),
    ("sequences.lucas_pair_mod", "congrlab.sequences", "lucas_pair_mod", "plain"),
    ("sequences.fermat_quotient", "congrlab.sequences", "fermat_quotient", "plain"),
    ("sequences.w_value", "congrlab.sequences", "w_value", "plain"),
    ("sequences.lucas_u_upto", "congrlab.sequences", "lucas_u_upto", "plain"),
    ("sequences.lucas_v_upto", "congrlab.sequences", "lucas_v_upto", "plain"),
    ("modring.inverse_table", "congrlab.modring", "inverse_table", "cached"),
    ("modring.prime_power", "congrlab.modring", "prime_power", "cached"),
    ("exactalg.Poly.__mul__", "congrlab.exactalg", "Poly.__mul__", "plain"),
    ("exactalg.Poly.__add__", "congrlab.exactalg", "Poly.__add__", "plain"),
    ("exactalg.QuadExt.__mul__", "congrlab.exactalg", "QuadExt.__mul__", "plain"),
    ("exactalg.RationalField.div", "congrlab.exactalg", "RationalField.div", "plain"),
    ("catalog.run_congruence", "congrlab.catalog", "run_congruence", "plain"),
    ("catalog.run_identity", "congrlab.catalog", "run_identity", "plain"),
    ("cli.format_report", "congrlab.cli", "format_report", "plain"),
)

#: The tracer whose aggregates pool batches merge into when unpickled.  It is
#: module state because pickle resolves ``pool_run_unit`` and ``_absorb`` by
#: name in each process.
_ACTIVE: Tracer | None = None


def metric_names() -> list[str]:
    """Every per-kernel metric name the tracer reports."""
    out = []
    for prefix, _, _, kind in TARGETS:
        out += [f"{prefix}.calls", f"{prefix}.self_s"]
        if kind == "cached":
            out += [f"{prefix}.fills", f"{prefix}.fill_s", f"{prefix}.hit_s"]
    return out


class Tracer:
    """Installs span-recording wrappers and aggregates their spans."""

    def __init__(self):
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._stack = [0.0]  # child time accumulated by each open span
        # name -> [calls, self_s, fills, fill_s, hit_s]
        self.stats = {prefix: [0, 0.0, 0, 0.0, 0.0] for prefix, _, _, _ in TARGETS}
        self._patched: list[tuple[object, str, object]] = []
        self.run_unit = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, prefix: str, fn, kind: str):
        stack = self._stack
        stat = self.stats[prefix]

        if kind == "cached":
            info = fn.cache_info

            def wrapper(*args, **kwargs):
                misses = info().misses
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack[-2] += dur
                    stat[0] += 1
                    stat[1] += dur - stack.pop()
                    if info().misses != misses:
                        stat[2] += 1
                        stat[3] += dur
                    else:
                        stat[4] += dur

        else:
            from congrlab.modring import PrimePower

            def wrapper(*args, **kwargs):
                if kind == "exact":
                    ring = args[2] if len(args) > 2 else kwargs.get("ring")
                    if isinstance(ring, PrimePower):
                        return fn(*args, **kwargs)
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack[-2] += dur
                    stat[0] += 1
                    stat[1] += dur - stack.pop()

        wrapper.__wrapped__ = fn
        wrapper._perfbench_span = prefix
        return wrapper

    # -- install / restore --------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target under every name that binds it."""
        global _ACTIVE
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "congrlab" or name.startswith("congrlab."))
        ]
        for prefix, modname, path, kind in TARGETS:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            wrapper = self._wrap(prefix, fn, kind)
            if cls_path:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapper)
        catalog = sys.modules["congrlab.catalog"]
        self.run_unit = catalog._run_unit
        self._set(catalog, "_run_unit", pool_run_unit)
        _ACTIVE = self

    def restore(self) -> None:
        """Put back every binding ``install`` replaced, newest first."""
        global _ACTIVE
        while self._patched:
            owner, name, value = self._patched.pop()
            setattr(owner, name, value)
        if _ACTIVE is self:
            _ACTIVE = None

    # -- aggregates ---------------------------------------------------------

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0, 0.0, 0.0]
        self._stack[:] = [0.0]

    def snapshot(self) -> dict:
        return {name: list(stat) for name, stat in self.stats.items() if stat[0]}

    def merge(self, stats: dict) -> None:
        with self._lock:
            for name, values in stats.items():
                stat = self.stats[name]
                for i, v in enumerate(values):
                    stat[i] += v

    def metrics(self) -> dict:
        """Flat ``{metric: value}`` over every name in ``metric_names``."""
        out = {}
        for prefix, _, _, kind in TARGETS:
            calls, self_s, fills, fill_s, hit_s = self.stats[prefix]
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
            if kind == "cached":
                out[f"{prefix}.fills"] = fills
                out[f"{prefix}.fill_s"] = fill_s
                out[f"{prefix}.hit_s"] = hit_s
        return out

    def total_self_s(self) -> float:
        return sum(stat[1] for stat in self.stats.values())


def leftover_wrappers() -> list[str]:
    """Names in loaded congrlab modules that still hold a tracer wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "congrlab" or modname.startswith("congrlab.")):
            continue
        for name, value in vars(mod).items():
            if value is pool_run_unit or hasattr(value, "_perfbench_span"):
                found.append(f"{modname}.{name}")
            elif isinstance(value, type):
                found += [
                    f"{modname}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, "_perfbench_span")
                ]
    return found


class _TracedBatch(list):
    """A worker's batch of results, carrying the worker's span aggregates."""

    def __init__(self, results, stats):
        super().__init__(results)
        self.stats = stats

    def __reduce__(self):
        return _absorb, (list(self), self.stats)


def _absorb(results, stats):
    if _ACTIVE is not None:
        _ACTIVE.merge(stats)
    return results


def pool_run_unit(unit):
    """Stand-in for ``catalog._run_unit`` that ships worker spans back."""
    tracer = _ACTIVE
    if tracer.pid == os.getpid():
        return tracer.run_unit(unit)
    tracer.reset()
    return _TracedBatch(tracer.run_unit(unit), tracer.snapshot())
