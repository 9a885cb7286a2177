"""Write ``digests.json``: the SHA-256 of each workload's JSON report.

    python3 perfbench/pin_digests.py

Run once at the commit whose reports are the reference.  Every seed maps
to one of ``run.PANELS`` t panels, and each panel's sweep report is pinned;
the identity report has no random inputs.  A report is pinned only if
every instance in it passes and its instance set matches the selection
rule.
"""

from __future__ import annotations

import json
import sys

import run


def pinned(worker: dict) -> str:
    (only,) = worker["passes"]
    if only["failed"] or only["exit"] or only["instances"] != only["expected"]:
        raise SystemExit(f"report does not pass its gate: {only}")
    return only["digest"]


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    sweep = {}
    for index in range(run.PANELS):
        worker, _ = run.run_worker("sweep", run.PARALLEL_JOBS, index)
        sweep[str(index)] = pinned(worker)
        print(f"panel {index}: {sweep[str(index)]}", flush=True)
    identity, _ = run.run_worker("identity", 1, 0)
    digests = {"sweep": sweep, "identity": pinned(identity)}
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    main()
