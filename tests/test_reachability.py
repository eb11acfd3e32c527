"""Every routine under src/ar1lab serves a command, or is on a named keep-list.

A fresh interpreter installs ``sys.setprofile`` and ``threading.setprofile``
before it imports ar1lab, runs the CLI over a fixed command list, and
reports the (file, first line) of every code object it entered.  Each
``def`` under src/ar1lab, taken from its first decorator line as code
objects are, is either among them or on ``KEEP`` with the reason it stays.
A stale ``KEEP`` entry, a routine that a command now reaches, fails too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ar1lab

SRC = Path(ar1lab.__file__).resolve().parent

COMMANDS = [
    *(["poly", "--family", family, "--nmax", "5"] for family in ("J", "Jt", "Jh", "C", "zigzag", "tutte", "volume")),
    ["poly", "--nmax", "5", "--check-routes", "--format", "json"],
    ["poly", "--nmax", "5", "--scan-negative"],
    ["persist", "--nmax", "6", "--theta", "1/2", "--theta", "-2", "--theta", "-1/2"],  # symmetric
    ["persist", "--nmax", "6", "--theta", "1/4", "--a", "2", "--b", "1", "--format", "json"],  # asymmetric
    ["persist", "--nmax", "8", "--theta", "4/5"],  # window: the two chains meet
    ["persist", "--nmax", "8", "--theta", "3/2", "--a", "1", "--b", "3"],  # window: the reflected closed forms
    ["verify", "--nmax", "8"],
    ["simulate", "--law", "uniform", "--theta", "1/2", "--trials", "2000"],
    ["simulate", "--law", "biexponential", "--theta", "1/2", "--trials", "2000"],
    ["simulate", "--law", "biexponential", "--theta", "-1/2", "--trials", "2000"],
    ["simulate", "--law", "gaussian", "--theta", "1", "--trials", "2000", "--workers", "2"],
    ["simulate", "--law", "atomic", "--theta", "1/2", "--trials", "2000"],
    ["rates", "--theta", "-1", "--theta", "1/4", "--theta", "-3", "--theta", "4"],
    ["volume", "--kind", "zigzag", "--n", "4", "--trials", "2000"],
    ["volume", "--kind", "cayley", "--n", "4", "--trials", "2000"],
    ["volume", "--kind", "tutte_limit", "--n", "4", "--t", "1/2", "--trials", "2000"],
    ["volume", "--kind", "tutte_q", "--n", "4", "--q", "1/2", "--t", "1/2", "--trials", "2000"],
    ["figure", "--grid", "1/2"],
]

# each exits 2 at one of the rates refusals: (1/2, 1], the window (1, 2), below -2^50,
# a drift whose nu roots pass the float range, and a drift with no float value
REFUSALS = [["rates", "--theta", theta] for theta in ("3/4", "3/2", "-1e16", "1e30", "1e400")]

# Installed before ar1lab is imported, so module-level calls count as reached.
PROBE = """
import contextlib, io, json, sys, threading

reached = set()

def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
threading.setprofile(profile)
import ar1lab
from ar1lab.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
threading.setprofile(None)
root = ar1lab.__path__[0]
print(json.dumps({"codes": codes, "reached": sorted(key for key in reached if key[0].startswith(root))}))
"""

OPERATOR = "an operator of the exact types, kept whole for their library callers and tests"
IMMUTABLE = "the guard that keeps an exact value immutable; only a misuse reaches it"

KEEP = {
    "asymptotics.ell_with_tail": "the independent summation route to the limit, from exact terms and a"
    " geometric tail: test_c12 checks its partial sums, TestLimit checks it against ell_mp, and the"
    " benchmark's tracer wraps it",
    "errors.NoClosedFormError.__init__": "library-only error path: persistence_closed_form inside the window",
    "persistence.window_bounds": "library-only error path: the window that NoClosedFormError carries",
    "montecarlo.mc_identity_check": "test_c08 checks the drift-inversion factorizations for"
    " non-uniform laws through it",
    "montecarlo._binomial_sigma": "the standard error behind mc_identity_check",
    "montecarlo._alternating_target": "the atomic law's alternating target in mc_identity_check",
    "montecarlo.IdentityCheckReport.max_abs_z": "read view of mc_identity_check's report",
    "montecarlo.IdentityCheckReport.passed": "read view of mc_identity_check's report",
    "exact.piecewise.PiecewisePoly.breakpoints": "read view: the Fraction breakpoints, built when read",
    "exact.piecewise.PiecewisePoly.is_zero": "read view: whether a density vanishes",
    "exact.piecewise.PiecewisePoly.__eq__": OPERATOR,
    "exact.piecewise.PiecewisePoly.__repr__": OPERATOR,
    "exact.piecewise.PiecewisePoly.__setattr__": IMMUTABLE,
    "exact.polynomial.Polynomial.__hash__": OPERATOR,
    "exact.polynomial.Polynomial.__repr__": OPERATOR,
    "exact.polynomial.Polynomial.__setattr__": IMMUTABLE,
    "exact.series.TruncatedSeries.__repr__": OPERATOR,
    "exact.series.TruncatedSeries.__setattr__": IMMUTABLE,
}


def _defs():
    """{(file, first line): qualified name} of every def under src/ar1lab."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(str(path), first)] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(ast.parse(path.read_text()), path, module)
    return found


def test_every_def_is_reached_by_a_command_or_kept_with_a_reason():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(COMMANDS + REFUSALS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0] * len(COMMANDS) + [2] * len(REFUSALS)
    reached = {(str(Path(file).resolve()), line) for file, line in report["reached"]}
    unreached = {name for key, name in _defs().items() if key not in reached}
    assert sorted(unreached - KEEP.keys()) == [], "no command reaches these: give each a consumer, or delete it, or keep it"
    assert sorted(KEEP.keys() - unreached) == [], "a command reaches these now: take them off KEEP"
