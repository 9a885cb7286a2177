"""Tests for the command-line interface and report formatting."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import pkgutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congrlab.cli as cli
from congrlab.catalog import DEFAULT_T_PANEL, CheckResult, Report, run_suite
from oracles import records

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture(scope="module")
def small_report():
    return run_suite(prime_lo=7, prime_hi=20, patterns=("v.h12", "L26.wz1"), jobs=1)


class TestParser:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("CONGRLAB_JOBS", raising=False)
        args = cli.build_parser().parse_args([])
        assert args.primes == (7, 1000)
        assert args.checks == "all"
        assert args.jobs == 1
        assert args.format == "text"
        assert args.output is None
        assert not args.fail_fast and not args.list_checks and not args.no_cap
        assert args.t_panel == DEFAULT_T_PANEL

    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.setenv("CONGRLAB_JOBS", "6")
        assert cli.build_parser().parse_args([]).jobs == 6
        assert cli.build_parser().parse_args(["--jobs", "2"]).jobs == 2

    @pytest.mark.parametrize("bad", ["0", "-3", "abc", "1.5", ""])
    def test_bad_jobs_rejected(self, bad, monkeypatch, capsys):
        monkeypatch.delenv("CONGRLAB_JOBS", raising=False)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["--jobs", bad])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "congrlab: error: argument --jobs: expected a positive integer"
        )

    @pytest.mark.parametrize("bad", ["0", "abc"])
    def test_bad_jobs_env_rejected(self, bad, monkeypatch, capsys):
        monkeypatch.setenv("CONGRLAB_JOBS", bad)
        parser = cli.build_parser()  # building the parser does not parse the default
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([])
        assert exc.value.code == 2
        assert "argument --jobs: expected a positive integer" in capsys.readouterr().err
        assert parser.parse_args(["--jobs", "3"]).jobs == 3  # an explicit value overrides it

    def test_prime_range_forms(self):
        parser = cli.build_parser()
        assert parser.parse_args(["--primes", "11..97"]).primes == (11, 97)
        assert parser.parse_args(["--primes", "13"]).primes == (13, 13)

    @pytest.mark.parametrize("bad", ["97..11", "abc", "1..x", "0..5"])
    def test_bad_prime_range_rejected(self, bad):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--primes", bad])

    def test_prime_range_stops_below_two_to_the_32(self, capsys):
        # Parsing only: a sweep at such primes would build kernel tables of
        # gigabytes.  The bound of 10^6 lies far below the rings' 2^32.
        for bad in (f"7..{2**32 - 1}", "7..5000000000", str(2**32)):
            with pytest.raises(argparse.ArgumentTypeError, match=r"10\^6"):
                cli._parse_prime_range(bad)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["--primes", "7..5000000000"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("congrlab: error: argument --primes: ")

    def test_prime_range_stops_at_ten_to_the_6(self, capsys):
        # Parsing only: no sweep is started at these primes.
        parser = cli.build_parser()
        assert parser.parse_args(["--primes", "999983"]).primes == (999983, 999983)
        assert parser.parse_args(["--primes", f"7..{cli.MAX_PRIME}"]).primes == (7, 10**6)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--primes", "7..1000003"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (
            "congrlab: error: argument --primes: prime range '7..1000003' goes above "
            "10^6, the practical bound: the kernel tables take memory in proportion to p"
        )

    def test_t_panel_parsing(self):
        args = cli.build_parser().parse_args(["--t-panel", "1/4, -1/16,2"])
        assert args.t_panel == (Fraction(1, 4), Fraction(-1, 16), Fraction(2))
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--t-panel", "1/0"])
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--t-panel", " , "])

    @pytest.mark.parametrize(
        "panel,why",
        [
            ("0", "contains 0"),
            ("1/4,0/3", "contains 0"),
            ("1/4,1/4", "repeats the value 1/4"),
            ("1/4,2/8", "repeats the value 1/4"),
            ("2,-1,2.0", "repeats the value 2"),
        ],
    )
    def test_t_panel_rejects_zero_and_repeats(self, panel, why, capsys):
        # A zero is skipped at every prime and a repeat writes its rows twice.
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([f"--t-panel={panel}"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("congrlab: error: argument --t-panel: ") and why in last

    def test_parse_helpers_raise_argparse_errors(self):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_prime_range("5..3")
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_t_panel("one half")


class TestFormatReport:
    def test_json_shape(self, small_report):
        text = cli.format_report(small_report, "json")
        assert text.endswith("\n")
        data = json.loads(text)
        assert len(data) == len(small_report.results)
        assert list(data[0].keys()) == [
            "check",
            "prime",
            "t",
            "target",
            "valuation",
            "pass",
            "lhs",
            "rhs",
            "us",
        ]
        assert all(rec["us"] == 0 for rec in data)

    def test_csv_shape(self, small_report):
        lines = cli.format_report(small_report, "csv").splitlines()
        assert lines[0] == "check,prime,t,target,valuation,pass,lhs,rhs,us"
        assert len(lines) == len(small_report.results) + 1
        first = lines[1].split(",")
        assert first[0] in ("L26.wz1", "v.h12")
        assert first[5] in ("true", "false")
        # Identity rows leave the prime column empty and carry inf targets.
        wz_rows = [ln for ln in lines[1:] if ln.startswith("L26.wz1")]
        assert wz_rows and all(ln.split(",")[1] == "" for ln in wz_rows)
        assert all(ln.split(",")[3] == "inf" for ln in wz_rows)

    def test_text_shape(self, small_report):
        lines = cli.format_report(small_report, "text").splitlines()
        assert lines[-1].startswith("# ") and "passed" in lines[-1]
        assert all("PASS" in ln or "FAIL" in ln for ln in lines[:-1])
        assert any("p=7" in ln for ln in lines)


def _json_oracle(report: Report) -> str:
    """The general encoder's rendering, which the JSON writer must equal byte for byte."""
    return json.dumps(records(report), indent=2) + "\n"


# Quotes, backslashes, newlines, other control characters, DEL, Latin-1, a
# BMP symbol and a character outside the BMP (a surrogate pair in JSON).
AWKWARD = 'say "hi" \\ back\\slash\nnew\tline\r\x00\x01\x1f\x7f é ☃ 𝔽 \u2028'
AWKWARD_ROWS = (
    CheckResult("x.err", 7, None, 3, 0, False, f"ERROR: ValueError: {AWKWARD}", "", AWKWARD),
    CheckResult(AWKWARD, None, AWKWARD, float("inf"), 0, False, "ERROR: x", "", "x"),
    CheckResult("x.ok", 11, "-1/4", 2, float("inf"), True, AWKWARD, AWKWARD),
)


class TestJsonWriter:
    def test_sweep_with_identity_rows(self):
        rep = run_suite(
            prime_lo=7, prime_hi=30, patterns=("v.h12", "T32.first", "A.exact", "eq15.exact")
        )
        assert any(r.prime is None for r in rep.results)  # identity rows
        assert any(r.prime is not None and r.t is not None for r in rep.results)
        assert cli.format_report(rep, "json") == _json_oracle(rep)

    def test_error_rows_with_awkward_text(self):
        rep = Report(results=AWKWARD_ROWS)
        assert cli.format_report(rep, "json") == _json_oracle(rep)

    def test_empty_report(self):
        rep = Report(results=())
        assert cli.format_report(rep, "json") == _json_oracle(rep) == "[]\n"

    @given(
        st.lists(
            st.builds(
                CheckResult,
                check_id=st.text(),
                prime=st.none() | st.integers(min_value=0),
                t=st.none() | st.text(),
                target=st.integers(min_value=0, max_value=8) | st.just(float("inf")),
                valuation=st.integers(min_value=0, max_value=8) | st.just(float("inf")),
                passed=st.booleans(),
                lhs=st.text(),
                rhs=st.text(),
                error=st.none() | st.text(),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_general_encoder(self, rows):
        rep = Report(results=tuple(rows))
        assert cli.format_report(rep, "json") == _json_oracle(rep)


class _Sink:
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


class TestStreamedReport:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("rows", ["sweep", "errors", "empty"])
    def test_stream_gets_the_returned_string(self, fmt, rows, small_report):
        rep = {
            "sweep": small_report,
            "errors": Report(results=AWKWARD_ROWS + small_report.results[:3]),
            "empty": Report(results=()),
        }[rows]
        out = io.StringIO()
        assert cli.format_report(rep, fmt, out) is None
        assert out.getvalue() == cli.format_report(rep, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_rendering_into_a_stream_keeps_no_copy(self, fmt):
        # As many rows as the default sweep, with residues of its size (p^5
        # near 1000).  The peak must not grow with the rows; csv's writer
        # holds one 128 KB record buffer whatever their number.
        rows = tuple(
            CheckResult(f"X{i % 97}.c", 7 + 2 * i, None if i % 3 else f"{i}/16", 5, 5, True,
                        str(10**15 + 7919 * i), str(10**15 + 7919 * i))
            for i in range(30_000)
        )
        rep = Report(results=rows)
        rendered = _Sink()
        cli.format_report(rep, fmt, rendered)
        tracemalloc.start()
        try:
            cli.format_report(rep, fmt, _Sink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rendered.chars / 10


class TestReportPins:
    # SHA-256 of `congrlab --primes 7..100 --format csv|text` (4,653 rows),
    # taken before the JSON writer and the shared columns were introduced.
    PINS = {
        "csv": "75ab75a8f587dd1dc6c040e70ff06dadc46fff047afaf80aaf2404fc5336992d",
        "text": "48033b01f8134e425d25127c61bea9c07ea93983aefa584a4101e2ee40bd7fb1",
    }

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_report_bytes(self, fmt, tmp_path, capsys):
        path = tmp_path / f"report.{fmt}"
        assert cli.main(["--primes", "7..100", "--format", fmt, "--output", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINS[fmt]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_report_bytes_through_stdout(self, fmt, capsys):
        assert cli.main(["--primes", "7..100", "--format", fmt]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == self.PINS[fmt]


class TestMain:
    def test_list_checks(self, capsys):
        assert cli.main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        assert "v.h12" in out and "[congruence]" in out and "[identity]" in out

    def test_list_checks_snapshot(self, capsys):
        # Every check's id, statement, target, minimum prime, exclusions and
        # cap; regenerate with `python -m congrlab --list-checks`.
        assert cli.main(["--list-checks"]) == 0
        snapshot = Path(__file__).with_name("list_checks.txt")
        assert capsys.readouterr().out == snapshot.read_text(encoding="utf-8")

    def test_unknown_pattern_is_an_error(self, capsys):
        assert cli.main(["--checks", "nosuchcheck"]) == 2
        err = capsys.readouterr().err
        assert "no registered check matches" in err

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_empty_pattern_list_is_an_error(self, checks, capsys):
        # An unset shell variable must not turn into a full sweep.
        assert cli.main(["--primes", "7", "--checks", checks]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--checks", "T32.first", "--primes", "7", "--t-panel", "1/7"],  # t skipped at p = 7
            ["--checks", "v.h12", "--primes", "8..10"],  # no prime in range
            ["--checks", "C42.a", "--primes", "601..700"],  # above the check's prime cap
        ],
    )
    def test_empty_sweep_is_an_error(self, argv, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert cli.main(argv + ["--format", "json", "--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "schedules no instance" in captured.err
        assert "minimum prime" in captured.err and "--no-cap" in captured.err
        assert not path.exists()

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory", "empty"])
    def test_unwritable_output_fails_before_the_sweep(self, where, tmp_path, monkeypatch, capsys):
        path = {"missing-dir": tmp_path / "missing" / "x.json", "a-directory": tmp_path, "empty": ""}[where]

        def no_sweep(**kwargs):
            raise AssertionError("the sweep ran before --output was checked")

        monkeypatch.setattr(cli, "run_suite", no_sweep)
        rc = cli.main(["--primes", "7", "--checks", "iv.h1", "--output", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert f"--output {str(path)!r}:" in captured.err
        assert not (tmp_path / "missing").exists()

    def test_empty_sweep_keeps_an_existing_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("earlier report\n")
        argv = ["--checks", "T32.first", "--primes", "7", "--t-panel", "1/7", "--output", str(path)]
        assert cli.main(argv) == 2
        assert "schedules no instance" in capsys.readouterr().err
        assert path.read_text() == "earlier report\n"

    def test_successful_run_to_stdout(self, capsys):
        rc = cli.main(["--primes", "7..20", "--checks", "v.h12", "--format", "csv"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("check,prime,t,")
        assert "checked" in captured.err and "0 failed" in captured.err

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc = cli.main(
            ["--primes", "7..20", "--checks", "v.h12", "--format", "json", "--output", str(path)]
        )
        assert rc == 0
        data = json.loads(path.read_text())
        assert {rec["check"] for rec in data} == {"v.h12"}
        assert capsys.readouterr().out == ""

    def test_failing_report_exit_code(self, monkeypatch, capsys):
        from congrlab.catalog import CheckResult, Report

        failing = Report(
            results=(
                CheckResult(
                    check_id="x.y",
                    prime=7,
                    t=None,
                    target=2,
                    valuation=1,
                    passed=False,
                    lhs="1",
                    rhs="8",
                ),
            ),
            wall_seconds=0.0,
        )
        monkeypatch.setattr(cli, "run_suite", lambda **kw: failing)
        assert cli.main(["--checks", "v.h12"]) == 1
        assert "1 failed" in capsys.readouterr().err

    def test_error_report_exit_code(self, monkeypatch, capsys):
        from congrlab.catalog import CheckResult, Report

        errored = Report(
            results=(
                CheckResult(
                    check_id="x.y",
                    prime=7,
                    t=None,
                    target=2,
                    valuation=0,
                    passed=False,
                    lhs="ERROR: boom",
                    rhs="",
                    error="boom",
                ),
            ),
            wall_seconds=0.0,
        )
        monkeypatch.setattr(cli, "run_suite", lambda **kw: errored)
        assert cli.main(["--checks", "v.h12"]) == 2
        assert "1 errored" in capsys.readouterr().err


def _declared_console_script() -> str:
    """The ``module:attr`` spec of ``[project.scripts].congrlab`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["congrlab"]


class TestEntryPoints:
    def test_module_invocation(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "congrlab", "--primes", "7..11", "--checks", "iv.h1"],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env,
        )
        assert proc.returncode == 0
        assert "iv.h1" in proc.stdout
        assert "0 failed" in proc.stderr

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv,read",
        [
            # The report (about 1.6 MB) is far larger than a pipe buffer, so
            # the write meets the closed pipe part-way through.
            (["--primes", "7..200"], 16),
            # The reader is gone before the report, small enough to sit in
            # stdout's buffer, is flushed.
            (["--primes", "7", "--checks", "iv.h1"], 0),
        ],
        ids=["mid-report", "before-flush"],
    )
    def test_reader_closing_the_pipe_early(self, argv, read, unbuffered, child_env):
        # Buffering decides whether the broken pipe surfaces in a write or in
        # the final flush.
        child_env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            child_env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "congrlab", *argv, "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env,
        )
        try:
            first = proc.stdout.read(read)
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert first == b'[\n  {\n    "check'[:read]
        assert proc.returncode == 0
        # Only the summary line: no traceback, no "Exception ignored" at shutdown.
        lines = err.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("checked ")
        assert " passed, 0 failed, 0 errored" in lines[0]

    def test_console_script_help(self, child_env):
        # Check the declared entry point without an install: resolve it, then
        # call it the way the generated `congrlab` wrapper does.
        spec = _declared_console_script()
        assert callable(pkgutil.resolve_name(spec))
        module, _, attr = spec.partition(":")
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: congrlab ")
        assert "--primes" in proc.stdout
