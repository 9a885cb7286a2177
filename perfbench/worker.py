"""One measured process of the congrlab benchmark.

Started by ``run.py`` in a fresh interpreter, so every ``lru_cache`` in the
library starts cold, as it does for each ``congrlab`` invocation.  It runs
passes of one workload, times each pass, checks each report against the
selection rule, and prints one JSON line with the results.

    python3 perfbench/worker.py --kind sweep --jobs 1 --out PATH [--t-panel=a/b,...] [--sample]
    python3 perfbench/worker.py --kind identity --passes 3 [--budget S] [--trace]

``--sample`` runs the host-speed sampler (``hostspeed.py``) during each
pass and adds the pass time scaled to the reference host, ``ref_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402  (the benchmark's own modules)
import tracer as tracing  # noqa: E402
from congrlab import builtin_checks, cli, run_suite  # noqa: E402

PRIME_LO, PRIME_HI = 7, 1000  # the default congrlab sweep range


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def expected_keys(kind: str, panel) -> Counter:
    """Every (check, prime, t) instance the selection rule schedules.

    Congruence instances are keyed exactly; identity instances are keyed by
    check id only, one per registered case.
    """
    keys: Counter = Counter()
    primes = [p for p in range(PRIME_LO, PRIME_HI + 1) if _is_prime(p)]
    for check in builtin_checks():
        if check.kind == "identity":
            keys[(check.id,)] += len(check.cases)
            continue
        if kind != "sweep":
            continue
        for p in primes:
            if p < check.min_prime or p in check.excluded_primes:
                continue
            if check.prime_cap is not None and p > check.prime_cap:
                continue
            if not check.uses_t_panel:
                keys[(check.id, p, None)] += 1
                continue
            for t in panel:
                if t.numerator % p and t.denominator % p:
                    keys[(check.id, p, str(t))] += 1
    return keys


def check_report(text: str, expected: Counter) -> dict:
    """Gate one rendered JSON report: all rows pass, and the instance set
    equals the selection rule's."""
    rows = json.loads(text)
    got: Counter = Counter()
    bad_rows = 0
    for row in rows:
        if row["pass"] is not True or row["lhs"].startswith("ERROR"):
            bad_rows += 1
        if row["target"] == "inf":
            got[(row["check"],)] += 1
        else:
            got[(row["check"], row["prime"], row["t"])] += 1
    mismatched = sum(((got - expected) + (expected - got)).values())
    return {
        "instances": len(rows),
        "expected": sum(expected.values()),
        "failed": bad_rows + mismatched,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "report_bytes": len(text.encode()),
    }


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def start_sampler(jobs: int) -> hostspeed.Sampler:
    sampler = hostspeed.Sampler()
    if jobs > 1:
        hostspeed.install_for_pool(sampler)
    else:
        sampler.start()
    return sampler


def stop_sampler(sampler: hostspeed.Sampler, jobs: int, timing: dict) -> None:
    if jobs > 1:
        hostspeed.uninstall_for_pool()
    else:
        sampler.stop()
    dp, row, busy = sampler.drain()
    timing["samples"] = len(dp)
    timing["ref_s"] = hostspeed.pass_time_at_ref(timing["wall_s"], busy, jobs, dp, row)


def sweep_pass(jobs: int, panel_text: str | None, out: Path,
               sample: bool) -> tuple[dict, str]:
    argv = ["--jobs", str(jobs), "--format", "json", "--output", str(out)]
    if panel_text is not None:
        argv.append(f"--t-panel={panel_text}")
    sampler = start_sampler(jobs) if sample else None
    cpu0, t0 = _cpu_s(), perf_counter()
    code = cli.main(argv)
    wall = perf_counter() - t0
    timing = {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "exit": code, "rss_mb": _peak_rss_mb()}
    if sampler is not None:
        stop_sampler(sampler, jobs, timing)
    text = out.read_text(encoding="utf-8")
    out.unlink()
    return timing, text


def identity_pass(sample: bool) -> tuple[dict, str]:
    sampler = start_sampler(1) if sample else None
    cpu0, t0 = _cpu_s(), perf_counter()
    report = run_suite(kinds=("identity",))
    text = cli.format_report(report, "json")
    wall = perf_counter() - t0
    timing = {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "exit": report.exit_code,
              "rss_mb": _peak_rss_mb()}
    if sampler is not None:
        stop_sampler(sampler, 1, timing)
    return timing, text


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kind", choices=("sweep", "identity"), required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--t-panel", default=None)
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--sample", action="store_true")
    args = ap.parse_args()

    panel = (
        tuple(Fraction(s) for s in args.t_panel.split(","))
        if args.t_panel is not None
        else cli.DEFAULT_T_PANEL
    )
    expected = expected_keys(args.kind, panel)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    passes = []
    start = perf_counter()
    try:
        while len(passes) < args.passes or perf_counter() - start < args.budget:
            if args.kind == "sweep":
                timing, text = sweep_pass(args.jobs, args.t_panel, args.out, args.sample)
            else:
                timing, text = identity_pass(args.sample)
            passes.append({**timing, **check_report(text, expected)})
    finally:
        if tracer is not None:
            tracer.restore()

    out = {"passes": passes, "leftover_wrappers": tracing.leftover_wrappers()}
    if tracer is not None:
        out["spans"] = tracer.metrics()
        out["self_s_total"] = tracer.total_self_s()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
