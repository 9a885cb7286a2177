"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import congrlab


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment in which a child interpreter imports the congrlab under test."""
    env = dict(os.environ)
    paths = [str(Path(congrlab.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env
