"""The README's library example and the table script, run as a user runs them."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys

import pytest

import ctxkit

from test_golden import GOLDEN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ctxkit.__file__)))


def test_readme_library_example_prints_the_three_paradoxes():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (snippet,) = re.findall(r"## Library use\n\n```python\n(.*?)```", fh.read(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {"__name__": "readme"})
    assert out.getvalue().splitlines() == ["vA 1/9", "vB 1/9", "vC 1/9"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reproduce_tables_prints_the_golden_report(fmt):
    script = os.path.join(ROOT, "scripts", "reproduce_tables.py")
    args = [] if fmt == "text" else ["--format", "json"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, script, *args], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == GOLDEN["report", fmt]
