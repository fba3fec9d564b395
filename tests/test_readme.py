"""The README's library example runs and prints the numbers it quotes."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_quoted_numbers():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    # the block ends with a comment line holding what its print() shows
    quoted = [float(v) for v in block.strip().splitlines()[-1].lstrip("# ").split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = [float(v) for v in out.getvalue().split()]
    assert len(quoted) == 2
    assert printed == pytest.approx(quoted, rel=1e-9)
