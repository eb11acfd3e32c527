"""No new knobs: the parameter defaults under ``src/ar1lab`` are counted and pinned."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ar1lab"
MAX_DEFAULTS = 9


def _defaults(tree: ast.AST):
    """Positional plus keyword-only defaults of every def, async def and lambda."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from node.args.defaults
            yield from (d for d in node.args.kw_defaults if d is not None)


def test_parameter_defaults_stay_pinned():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(SRC)}:{default.lineno}"
        for path in sources
        for default in _defaults(ast.parse(path.read_text()))
    ]
    assert len(found) <= MAX_DEFAULTS, (
        f"{len(found)} parameter defaults under src/ar1lab, pinned at {MAX_DEFAULTS}. "
        "A change that adds an option justifies it (two existing callers or workloads "
        "that need different values) and raises MAX_DEFAULTS with it: " + ", ".join(found)
    )
