"""The README's documented library example runs against the package."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "the Library use section holds one python block"
    return blocks[0]


def test_library_use_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "-1 + 2*x + 4*x^2",
        "PreconditionViolated: C41.a is stated for p >= 5, not p = 3",
        "pass (704, 0, 0)",
    ]
