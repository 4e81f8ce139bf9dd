"""The README's Python examples run, and print what their comments say."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = re.compile(r"-?\d+\.\d+")


def _python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_python_examples_match_their_comments():
    checked = []
    for block in _python_blocks():
        lines = block.splitlines()
        namespace = {}
        for node in ast.parse(block).body:
            source = ast.get_source_segment(block, node)
            comment = lines[node.end_lineno - 1].partition("#")[2]
            expected = [float(x) for x in NUMBER.findall(comment)]
            if not (isinstance(node, ast.Expr) and expected):
                exec(compile(source, str(README), "exec"), namespace)
                continue
            value = eval(compile(source, str(README), "eval"), namespace)
            got = list(value) if isinstance(value, tuple) else [value]
            assert got == pytest.approx(expected, abs=5e-4), source
            checked.extend(expected)
    assert sorted(checked) == [0.225, 0.75, 0.885, 0.897, 1.003]
