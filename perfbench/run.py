"""congrlab benchmark: three workloads, end-to-end metrics, per-kernel trace.

    python3 perfbench/run.py --workload sweep_serial --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Pool size of ``sweep_parallel``; the number of CPUs of the machine the
#: baseline was taken on, fixed so the workload does not change with the host.
PARALLEL_JOBS = 2

WORKLOADS = {
    "sweep_serial": ("sweep", 1),
    "sweep_parallel": ("sweep", PARALLEL_JOBS),
    "identity_exact": ("identity", 1),
}

#: Small-height rationals a/b (1 <= a <= 7, b | 32 or b in {3, 5}) that t
#: panels are drawn from.  Every value passes every t-dependent check on
#: primes 7..1000.
T_POOL = tuple(
    Fraction(sign * a, b)
    for a in range(1, 8)
    for b in (1, 2, 3, 4, 5, 8, 16, 32)
    if gcd(a, b) == 1
    for sign in (1, -1)
)
#: Seeds select one of this many panels, so that every panel a seed can
#: select has a pinned report digest in ``digests.json``.
PANELS = 16
PANEL_SIZE = 13
#: Set-up probes made before the passes and again after them, so that the
#: run samples the host at both ends.
SETUP_PROBES = 15
#: Runs of the reference loops after each set-up probe.
PROBE_LOOPS = 6
#: A sweep run makes at least this many passes, so that one pass slowed by
#: the host does not decide the run.
MIN_SWEEP_PASSES = 2
TRACE_IDENTITY_PASSES = 3

#: A set-up probe: import congrlab and build its check registry, print the
#: clock (``perf_counter`` is system-wide, so the runner subtracts its own
#: reading from before the spawn), then time the reference loops of
#: ``hostspeed.py`` in the same process.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import congrlab; congrlab.builtin_checks(); "
    "from time import perf_counter; end = perf_counter(); "
    "sys.path.insert(0, sys.argv[2]); import hostspeed, json; "
    f"print(json.dumps([end, [hostspeed.reference_loops() for _ in range({PROBE_LOOPS})]]))"
)


def panel_index(seed: int) -> int:
    return seed % PANELS


def t_panel(seed: int) -> tuple[Fraction, ...]:
    """The t panel of a seed: ``DEFAULT_T_PANEL`` for index 0, else a draw
    of 13 distinct values from ``T_POOL``."""
    index = panel_index(seed)
    if index == 0:
        from congrlab.catalog import DEFAULT_T_PANEL

        return DEFAULT_T_PANEL
    return tuple(random.Random(index).sample(T_POOL, PANEL_SIZE))


def panel_arg(seed: int) -> str | None:
    """``--t-panel`` text for a seed; None keeps the CLI's default panel."""
    if panel_index(seed) == 0:
        return None
    return ",".join(str(t) for t in t_panel(seed))


def run_worker(kind: str, jobs: int, seed: int, *, trace: bool = False,
               sample: bool = False, passes: int = 1,
               budget: float = 0.0) -> tuple[dict, float]:
    """Run ``worker.py`` in a fresh interpreter; return its result and the
    process's whole wall time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--kind", kind,
           "--jobs", str(jobs), "--passes", str(passes), "--budget", str(budget),
           "--out", str(OUT / f"report-{kind}-{jobs}.json")]
    panel = panel_arg(seed)
    if kind == "sweep" and panel is not None:
        cmd.append(f"--t-panel={panel}")
    if trace:
        cmd.append("--trace")
    if sample:
        cmd.append("--sample")
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def setup_probes() -> list[float]:
    """Wall times from interpreter start until congrlab is imported and its
    check registry is built, each scaled to the reference host by the
    reference loops the probe process runs right after (see
    ``hostspeed.py``).  One unmeasured probe first writes the bytecode
    cache of a fresh checkout."""
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                             check=True, capture_output=True, text=True, timeout=60).stdout
        end, loops = json.loads(out)
        if i:
            dp, row = zip(*loops)
            times.append(hostspeed.at_ref(end - t0, dp, row))
    return times


def gate(worker: dict, digest: str) -> tuple[int, int]:
    """(attempted, failed) over a worker's passes.

    A pass whose report digest differs from the pinned one counts every
    instance as failed, since the wrong rows cannot be told apart.
    """
    attempted = failed = 0
    for p in worker["passes"]:
        attempted += p["expected"]
        if p["digest"] != digest or p["exit"] != 0:
            failed += p["expected"]
        else:
            failed += p["failed"]
    if worker["leftover_wrappers"]:
        failed += 1
    return attempted, failed


def timed_runs(kind: str, jobs: int, seed: int, seconds: float) -> list[dict]:
    """Workers of the untraced measurement.  A sweep pass needs a fresh
    interpreter, so each sweep worker runs one pass; after the first
    ``MIN_SWEEP_PASSES`` another starts only if it is expected to end within
    ``seconds``.  Identity passes share one worker."""
    if kind == "identity":
        return [run_worker(kind, jobs, seed, sample=True, budget=seconds)[0]]
    workers = []
    start = perf_counter()
    while True:
        worker, elapsed = run_worker(kind, jobs, seed, sample=True)
        workers.append(worker)
        if len(workers) >= MIN_SWEEP_PASSES and perf_counter() - start + elapsed > seconds:
            return workers


def end_to_end(kind: str, jobs: int, seed: int, seconds: float) -> tuple[dict, list]:
    probes = setup_probes()
    workers = timed_runs(kind, jobs, seed, seconds)
    setup_s = statistics.median(probes + setup_probes())
    passes = [p for w in workers for p in w["passes"]]
    rate = statistics.median(p["instances"] / p["ref_s"] for p in passes)
    rss = statistics.median(p["rss_mb"] for p in passes)
    print(f"# {len(passes)} passes, wall_s {[round(p['wall_s'], 3) for p in passes]}, "
          f"at reference speed {[round(p['ref_s'], 3) for p in passes]}")
    metrics = {
        "instances_per_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return metrics, workers


def per_layer(kind: str, jobs: int, seed: int) -> tuple[dict, list]:
    passes = TRACE_IDENTITY_PASSES if kind == "identity" else 1
    plain, _ = run_worker(kind, jobs, seed, passes=passes)
    traced, _ = run_worker(kind, jobs, seed, passes=passes, trace=True)
    plain_wall = sum(p["wall_s"] for p in plain["passes"])
    traced_wall = sum(p["wall_s"] for p in traced["passes"])
    plain_cpu = sum(p["cpu_s"] for p in plain["passes"])
    metrics = {name: {"value": v, "unit": "s" if name.endswith("_s") else "count"}
               for name, v in traced["spans"].items()}
    metrics.update({
        "catalog.cpu_utilization": {"value": plain_cpu / (plain_wall * jobs), "unit": "ratio"},
        "cli.report_bytes": {"value": traced["passes"][0]["report_bytes"], "unit": "B"},
        "trace.wall_s": {"value": traced_wall, "unit": "s"},
        "trace.overhead_s": {"value": traced_wall - plain_wall, "unit": "s"},
        "trace.coverage": {"value": traced["self_s_total"] / traced_wall, "unit": "ratio"},
    })
    print(f"# untraced wall_s {plain_wall:.3f}, traced wall_s {traced_wall:.3f}")
    return metrics, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "congrlab" / "__init__.py").is_file():
        print(f"error: no congrlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    kind, jobs = WORKLOADS[args.workload]
    digests = json.loads((HERE / "digests.json").read_text())
    digest = digests[kind] if kind == "identity" else digests[kind][str(panel_index(args.seed))]
    if args.trace:
        metrics, workers = per_layer(kind, jobs, args.seed)
    else:
        metrics, workers = end_to_end(kind, jobs, args.seed, args.seconds)

    attempted = failed = 0
    for worker in workers:
        a, f = gate(worker, digest)
        attempted += a
        failed += f
    if args.trace:
        metrics["fail_share"] = {"value": failed / attempted, "unit": "ratio"}
    print(f"# {args.workload} seed {args.seed} (t panel {panel_index(args.seed)}): "
          f"{attempted} instances attempted, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
