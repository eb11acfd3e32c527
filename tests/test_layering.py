"""The exact layer imports neither the float layer nor its numeric libraries,
and a command loads mpmath and numpy.random only when it uses them."""

import os
import subprocess
import sys

import pytest

import ar1lab

EXACT_LAYER = ("ar1lab.identities", "ar1lab.persistence", "ar1lab.families", "ar1lab.exact")
FLOAT_LAYER = ("numpy", "mpmath", "ar1lab.asymptotics", "ar1lab.montecarlo")
LAZY = ("mpmath", "numpy.random")


def _loaded_after(code: str, watched: tuple[str, ...]) -> list[str]:
    """The modules of `watched` in sys.modules after `code` runs in a fresh
    interpreter, so nothing another test imported can hide a leak."""
    probe = f"{code}\nimport sys; print(' '.join(m for m in {watched!r} if m in sys.modules))"
    src = os.path.dirname(os.path.dirname(ar1lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _command(argv: str) -> str:
    """Code that runs `ar1lab.cli.main` on argv with its stdout discarded."""
    return (
        "import contextlib, io, ar1lab.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert ar1lab.cli.main({argv.split()!r}) == 0"
    )


def test_exact_layer_imports_no_float_layer():
    code = "import importlib\n" f"[importlib.import_module(m) for m in {EXACT_LAYER!r}]"
    assert _loaded_after(code, FLOAT_LAYER) == []


def test_cli_import_loads_numpy_but_neither_mpmath_nor_numpy_random():
    assert _loaded_after("import ar1lab.cli", ("numpy", *LAZY)) == ["numpy"]


@pytest.mark.parametrize(
    "argv", ["persist --nmax 12 --theta 4/5", "verify --nmax 3", "poly --nmax 6", "figure --n 3"]
)
def test_exact_commands_load_neither_mpmath_nor_numpy_random(argv):
    assert _loaded_after(_command(argv), LAZY) == []


@pytest.mark.parametrize("argv, loaded", [("rates --theta 4", ["mpmath"]), ("simulate --trials 10", ["numpy.random"])])
def test_the_commands_that_use_them_load_them(argv, loaded):
    assert _loaded_after(_command(argv), LAZY) == loaded
