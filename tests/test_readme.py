"""The README's library example prints the numbers it quotes, and its command
line examples run and print documents the output schema accepts."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import biphoton

README = Path(__file__).resolve().parents[1] / "README.md"
SCHEMA = Path(biphoton.__file__).parent / "schemas" / "cli_output.schema.json"
SUBCOMMANDS = {
    "materials",
    "analyze",
    "schmidt",
    "design-gvm",
    "design-asymmetric",
    "design-assembly",
    "paper-repro",
}


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


def test_readme_command_line_examples_run(tmp_path):
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    section = re.search(r"## Command line\n(.*?)\n## ", README.read_text(encoding="utf-8"), re.S)
    block = re.search(r"```sh\n(.*?)```", section.group(1), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line.split("#")[0]) for line in lines if line.startswith("biphoton")]
    assert {argv[1] for argv in commands} == SUBCOMMANDS
    for argv in commands:
        # out/ becomes the test's directory; the examples write it before reading it
        argv = [re.sub(r"^out/", f"{tmp_path}/", arg) for arg in argv[1:]]
        proc = subprocess.run(
            [sys.executable, "-m", "biphoton", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        validator.validate(json.loads(proc.stdout))
