"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import congrlab
from congrlab.catalog import run_suite


@pytest.fixture(scope="session")
def congruence_sweep():
    """The congruence rows of the default sweep, primes 7..1000 on a pool of
    up to eight workers, run once: criterion 1 reads every row, and the
    zero-vs-zero census the rows with p <= 200."""
    return run_suite(prime_lo=7, prime_hi=1000, patterns=("all",), jobs=8, kinds=("congruence",))


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment in which a child interpreter imports the congrlab under test."""
    env = dict(os.environ)
    paths = [str(Path(congrlab.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env
