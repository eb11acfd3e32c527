"""The exact layer imports neither the float layer nor its numeric libraries."""

import os
import subprocess
import sys

import ar1lab

EXACT_LAYER = ("ar1lab.identities", "ar1lab.persistence", "ar1lab.families", "ar1lab.exact")
FLOAT_LAYER = ("numpy", "mpmath", "ar1lab.asymptotics", "ar1lab.montecarlo")


def test_exact_layer_imports_no_float_layer():
    # a fresh interpreter, so nothing another test imported can hide a leak
    probe = (
        "import importlib, sys; "
        f"[importlib.import_module(m) for m in {EXACT_LAYER!r}]; "
        f"print(' '.join(m for m in {FLOAT_LAYER!r} if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(ar1lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
