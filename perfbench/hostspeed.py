"""Host-speed sampler: how fast the CPU ran while a pass was measured.

On a shared VM the speed of the CPU changes with the load other tenants put
on the host, in episodes of seconds to minutes, and the CPU time of a
process grows with its wall time when that happens (nothing is
descheduled; each instruction just takes longer).  A sweep pass that took
16 s in one minute took 22 s in the next.

The sampler measures that speed during the pass itself.  A timer signal
interrupts the measured process every ``INTERVAL_S`` seconds and runs two
fixed reference loops written in this file (a modular DP row update in the
style of the harmonic kernels, and a list/dict loop); their CPU times are
the samples.  The loops use no library code, so a change to the program
does not change them.  ``pass_time_at_ref`` then scales the pass time to
a host on which the reference loops take ``REF_S``: on the 2-core VM
the baseline was taken on, this cut the spread of single sweep-pass times
from 20-24% to 3-4% of the median at ``--jobs 1``, and from 9% to 3% at
``--jobs 2``.

The sampler runs in the process that does the work: the measured process
itself at ``--jobs 1``, and each pool worker at ``--jobs N`` (the parent
only waits there, and a sampler in it would compete with the workers).
Workers ship their samples back with each unit's results, the way
``tracer.py`` ships span aggregates; the two hooks are never installed
together.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import sys
from time import perf_counter, thread_time

INTERVAL_S = 0.25
#: Geometric mean of the two reference loops' CPU times, in seconds, on a
#: typical minute of the baseline host.  Only a scale: it converts scaled
#: pass times back into seconds of that host.
REF_S = 0.0014

_M_DP = 997**3
_INV = [0] + [pow(i, -1, _M_DP) for i in range(1, 997)]
_COMPS = ((2, 1, 3), (1, 1))
_M_ROW = 1009**3
_ROW = [i * i % _M_ROW for i in range(1, 1501)]


def dp_loop() -> int:
    out = 0
    for comp in _COMPS:
        r = len(comp)
        acc = [1] + [0] * r
        for i in range(1, 400):
            inv = _INV[i]
            for d in range(r, 0, -1):
                acc[d] = (acc[d] + acc[d - 1] * pow(inv, comp[d - 1], _M_DP)) % _M_DP
        out += acc[r]
    return out


def row_loop() -> dict:
    row = list(_ROW)
    seen = {}
    s = 1
    for r in range(4):
        for i in range(1, len(row)):
            row[i] = (row[i] + row[i - 1] * s) % _M_ROW
            s = (s * 7 + i) % _M_ROW
        seen[r] = row[-1]
    return seen


def reference_loops() -> tuple[float, float]:
    """CPU times of one run of each reference loop."""
    c0 = thread_time()
    dp_loop()
    c1 = thread_time()
    row_loop()
    return c1 - c0, thread_time() - c1


def at_ref(seconds: float, dp: list[float], row: list[float]) -> float:
    """``seconds`` measured while the reference loops took ``dp`` and
    ``row``, scaled to a host on which their geometric mean is ``REF_S``."""
    return seconds * REF_S / math.sqrt(statistics.fmean(dp) * statistics.fmean(row))


class Sampler:
    """Reference-loop CPU times taken on a timer signal in this process."""

    def __init__(self):
        self.dp: list[float] = []
        self.row: list[float] = []
        self.busy_s = 0.0  # wall time spent in the signal handler

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        dp_s, row_s = reference_loops()
        self.dp.append(dp_s)
        self.row.append(row_s)
        self.busy_s += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def drain(self) -> tuple[list[float], list[float], float]:
        """Samples taken since the last drain."""
        out = (self.dp, self.row, self.busy_s)
        self.dp, self.row, self.busy_s = [], [], 0.0
        return out

    def absorb(self, dp: list[float], row: list[float], busy_s: float) -> None:
        self.dp += dp
        self.row += row
        self.busy_s += busy_s


def pass_time_at_ref(wall_s: float, busy_s: float, jobs: int,
                     dp: list[float], row: list[float]) -> float:
    """A pass's wall time, less the sampler's own share, scaled to a host
    on which the reference loops take ``REF_S``.

    At ``--jobs N`` the workers' handler time is spread over N processes
    running side by side, so 1/N of it lengthened the pass.
    """
    return at_ref(wall_s - busy_s / jobs, dp, row)


# -- pool workers -------------------------------------------------------------

#: The parent's sampler, that samples shipped back by pool workers merge
#: into, and the worker-side state.  Module state, because pickle resolves
#: ``pool_run_unit`` and ``_absorb`` by name in each process.
_PARENT: Sampler | None = None
_PARENT_PID = 0
_RUN_UNIT = None
_WORKER: Sampler | None = None


def install_for_pool(sampler: Sampler) -> None:
    """Sample in every pool worker of ``catalog.run_suite``: replace
    ``catalog._run_unit`` with ``pool_run_unit``."""
    global _PARENT, _PARENT_PID, _RUN_UNIT
    catalog = sys.modules["congrlab.catalog"]
    _PARENT, _PARENT_PID, _RUN_UNIT = sampler, os.getpid(), catalog._run_unit
    catalog._run_unit = pool_run_unit


def uninstall_for_pool() -> None:
    global _PARENT
    sys.modules["congrlab.catalog"]._run_unit = _RUN_UNIT
    _PARENT = None


class _SampledBatch(list):
    """A worker's unit results, carrying the samples it took meanwhile."""

    def __init__(self, results, samples):
        super().__init__(results)
        self.samples = samples

    def __reduce__(self):
        return _absorb, (list(self), self.samples)


def _absorb(results, samples):
    if _PARENT is not None:
        _PARENT.absorb(*samples)
    return results


def pool_run_unit(unit):
    """Stand-in for ``catalog._run_unit`` that samples in the worker."""
    global _WORKER
    if os.getpid() == _PARENT_PID:
        return _RUN_UNIT(unit)
    if _WORKER is None:
        _WORKER = Sampler()
        _WORKER.start()
    results = _RUN_UNIT(unit)
    return _SampledBatch(results, _WORKER.drain())
