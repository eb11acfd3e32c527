"""The README's examples run: the library quick start and every CLI line."""

import ast
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from ar1lab.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str) -> str:
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_gives_its_commented_values():
    namespace: dict = {}
    values = []
    for node in ast.parse(_block("## Quick start (library)", "python")).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), str(README), "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    assert len(values) == 4
    assert values[0] == Fraction(1, 240)
    assert values[1] == Fraction(4181, 15360)
    assert values[2] == pytest.approx(math.pi, abs=1e-12)
    assert values[3] == pytest.approx(0.46381728, abs=1e-8)


def test_every_cli_example_parses():
    parser = build_parser()
    lines = [line for line in _block("## CLI", "bash").splitlines() if line.startswith("ar1lab ")]
    rejected = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            rejected.append(line)
    assert lines
    assert rejected == []
