"""Command-line interface for running check sweeps and emitting reports."""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import inf
from typing import Callable, TextIO

from .catalog import (
    DEFAULT_T_PANEL,
    Report,
    _repeated_value,
    builtin_checks,
    run_suite,
    select_checks,
)

__all__ = ["build_parser", "main", "format_report"]

#: Largest accepted upper end of ``--primes``.  The kernel tables hold O(p)
#: entries per prime and ring: a sweep of every check at one prime near 10^5
#: (100,003) peaks at about 189 MB, so one near 10^6 needs gigabytes.
MAX_PRIME = 10**6


def _parse_prime_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"prime range must look like LO..HI, got {text!r}"
        ) from None
    if lo > hi or lo < 2:
        raise argparse.ArgumentTypeError(f"empty or invalid prime range {text!r}")
    if hi > MAX_PRIME:
        raise argparse.ArgumentTypeError(
            f"prime range {text!r} goes above 10^6, the practical bound: "
            "the kernel tables take memory in proportion to p"
        )
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _parse_t_panel(text: str) -> tuple[Fraction, ...]:
    try:
        values = tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad t panel {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("t panel must contain at least one value")
    if 0 in values:
        raise argparse.ArgumentTypeError(
            f"t panel {text!r} contains 0, which every t-dependent check skips"
        )
    repeated = _repeated_value(values)
    if repeated is not None:
        raise argparse.ArgumentTypeError(f"t panel {text!r} repeats the value {repeated}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congrlab",
        description="Verify prime-power congruences and exact identities for "
        "central binomial sums, harmonic sums, and Lucas sequences.",
    )
    parser.add_argument(
        "--primes",
        type=_parse_prime_range,
        default=(7, 1000),
        metavar="LO..HI",
        help="inclusive prime range to sweep, HI at most 10^6 (default 7..1000)",
    )
    parser.add_argument(
        "--checks",
        default="all",
        metavar="PATTERN[,PATTERN...]",
        help="comma-separated check ids, glob patterns, or family prefixes "
        "(default: all)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=os.environ.get("CONGRLAB_JOBS", "1"),
        metavar="N",
        help="worker processes, at most one per CPU (default: $CONGRLAB_JOBS or 1)",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop scheduling new work after the first failing batch",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list all registered checks and exit",
    )
    parser.add_argument(
        "--no-cap",
        action="store_true",
        help="ignore per-check prime caps (C42.a and C42.b stop at p <= 600 by default)",
    )
    parser.add_argument(
        "--t-panel",
        type=_parse_t_panel,
        default=DEFAULT_T_PANEL,
        metavar="a/b[,a/b...]",
        help="override the rational parameter panel for t-dependent checks "
        "(distinct nonzero values)",
    )
    return parser


def _list_checks(stream) -> None:
    for check in builtin_checks():
        if check.kind == "congruence":
            extra = f"mod p^{check.target_exponent}, p >= {check.min_prime}"
            if check.excluded_primes:
                extra += f", p not in {sorted(check.excluded_primes)}"
            if check.uses_t_panel:
                extra += ", per panel t"
            if check.prime_cap:
                extra += f", capped at p <= {check.prime_cap}"
        else:
            extra = f"exact, {len(check.cases)} cases"
        stream.write(f"{check.id:16s} [{check.kind}] {extra}\n")
        stream.write(f"{'':16s}   {check.statement}\n")


#: One row of ``json.dumps([r.record() for r in results], indent=2)``, key for key.
_JSON_ROW = (
    '  {\n'
    '    "check": %s,\n'
    '    "prime": %s,\n'
    '    "t": %s,\n'
    '    "target": %s,\n'
    '    "valuation": %s,\n'
    '    "pass": %s,\n'
    '    "lhs": %s,\n'
    '    "rhs": %s,\n'
    '    "us": 0\n'
    '  }'
)


def _write_json(report: Report, out: TextIO) -> None:
    """Write the bytes of ``json.dumps(records, indent=2) + "\\n"``, one
    template per row instead of the general encoder."""
    if not report.results:
        out.write("[]\n")
        return
    sep = "[\n"
    for r in report.results:
        out.write(
            sep
            + _JSON_ROW
            % (
                _json_str(r.check_id),
                "null" if r.prime is None else r.prime,
                "null" if r.t is None else _json_str(r.t),
                '"inf"' if r.target == inf else r.target,
                '"inf"' if r.valuation == inf else r.valuation,
                "true" if r.passed else "false",
                _json_str(r.lhs),
                _json_str(r.rhs),
            )
        )
        sep = ",\n"
    out.write("\n]\n")


def _write_csv(report: Report, out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["check", "prime", "t", "target", "valuation", "pass", "lhs", "rhs", "us"])
    for r in report.results:
        rec = r.record()
        writer.writerow(
            [
                rec["check"],
                "" if rec["prime"] is None else rec["prime"],
                "" if rec["t"] is None else rec["t"],
                rec["target"],
                rec["valuation"],
                "true" if rec["pass"] else "false",
                rec["lhs"],
                rec["rhs"],
                rec["us"],
            ]
        )


def _write_text(report: Report, out: TextIO) -> None:
    for r in report.results:
        rec = r.record()
        prime = "-" if rec["prime"] is None else f"p={rec['prime']}"
        tpart = "" if rec["t"] is None else f" t={rec['t']}"
        verdict = "PASS" if rec["pass"] else "FAIL"
        out.write(
            f"{rec['check']:16s} {prime:>7s}{tpart:>12s}  "
            f"v={rec['valuation']}/{rec['target']}  {verdict}\n"
        )
    passed, failed, errored = report.counts()
    out.write(
        f"# {len(report.results)} checks: {passed} passed, {failed} failed, {errored} errored\n"
    )


_WRITERS = {"json": _write_json, "csv": _write_csv, "text": _write_text}


def format_report(report: Report, fmt: str, out: TextIO | None = None) -> str | None:
    """Render a report as json, csv, or an aligned text table.

    The rows are written to ``out`` one at a time, so the whole report never
    exists as one string; with no stream the rendering is returned instead.
    """
    if out is not None:
        _WRITERS[fmt](report, out)
        return None
    buf = io.StringIO()
    _WRITERS[fmt](report, buf)
    return buf.getvalue()


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot take the report, or None; the file is left as found.

    The probe opens for appending, so an existing file is not truncated, and
    removes the file again if the probe created it.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        return exc.strerror or str(exc)
    if not existed:
        os.remove(path)
    return None


def _to_stdout(write: Callable[[TextIO], object]) -> None:
    """Run ``write(sys.stdout)`` and flush it; if the reader has gone, drop the
    rest of the output, so that no flush at exit reports the broken pipe."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_checks:
        _to_stdout(_list_checks)
        return 0

    patterns = tuple(part.strip() for part in args.checks.split(",") if part.strip())
    if not patterns:
        print(f"error: --checks {args.checks!r} names no check", file=sys.stderr)
        return 2
    if not select_checks(patterns):
        print(f"error: no registered check matches {args.checks!r}", file=sys.stderr)
        return 2
    if args.output is not None and (reason := _unwritable(args.output)):
        print(f"error: cannot write --output {args.output!r}: {reason}", file=sys.stderr)
        return 2
    report = run_suite(
        prime_lo=args.primes[0],
        prime_hi=args.primes[1],
        patterns=patterns,
        jobs=args.jobs,
        t_panel=args.t_panel,
        fail_fast=args.fail_fast,
        no_cap=args.no_cap,
    )
    if not report.results:
        print(
            "error: the selection schedules no instance: no prime in range meets "
            "each check's minimum prime, exclusions and prime cap (see --list-checks; "
            "--no-cap lifts the cap), or every panel value was skipped",
            file=sys.stderr,
        )
        return 2

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            format_report(report, args.format, fh)
    else:
        _to_stdout(lambda out: format_report(report, args.format, out))

    passed, failed, errored = report.counts()
    print(
        f"checked {len(report.results)} instances: {passed} passed, "
        f"{failed} failed, {errored} errored in {report.wall_seconds:.1f}s",
        file=sys.stderr,
    )
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
