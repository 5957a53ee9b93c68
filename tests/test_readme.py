"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(text) -> str:
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    return block


def promised_lines(block) -> list:
    """The trailing comment of every `print` line, in order."""
    return [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]


def printed_lines(block) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    return out.getvalue().splitlines()


def test_library_example_prints_its_comments():
    block = python_block(README.read_text(encoding="utf-8"))
    promised = promised_lines(block)
    assert len(promised) == 3
    assert printed_lines(block) == promised
