"""Every command line the benchmark runs parses with the current CLI, its
exact commands (oracle-window, `verify`, and the `rates` and `persist` lines of
closed-mc) and the Monte Carlo commands of closed-mc still print their pinned
outputs, and a traced run still reports each oracle step's size."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ar1lab.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    """A perfbench module loaded by file path (standard library imports only)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_command_parses(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    parser = build_parser()
    rejected = []
    for name, build in workloads.WORKLOADS.items():
        for seed in range(workloads.MC_SEEDS):
            for command in build(seed):
                try:
                    parser.parse_args(list(command.argv))
                except SystemExit:
                    rejected.append(f"{name}: {command.key}")
    assert workloads.WORKLOADS
    assert rejected == []


@pytest.mark.parametrize("workload", ["oracle-window", "verify-suite", "closed-mc"])
def test_exact_outputs_match_the_pinned_references(monkeypatch, capsys, workload):
    # a changed exact rational fails here before it fails the benchmark
    workloads, check = _load("workloads", monkeypatch), _load("check", monkeypatch)
    refs = check.load_refs()
    commands = [c for c in workloads.WORKLOADS[workload](0) if c.argv[0] in ("persist", "rates", "verify")]
    assert commands
    for command in commands:
        assert main(list(command.argv)) == 0
        assert check.compare(refs[command.key], capsys.readouterr().out) is None, command.key


def test_closed_mc_sampling_outputs_match_the_pinned_references(monkeypatch, capsys):
    # a changed success count or volume hit count fails here before it fails the benchmark
    workloads, check = _load("workloads", monkeypatch), _load("check", monkeypatch)
    refs = check.load_refs()
    commands = [c for c in workloads.WORKLOADS["closed-mc"](0) if c.argv[0] in ("simulate", "volume")]
    assert len(commands) == 5
    for command in commands:
        assert main(list(command.argv)) == 0
        assert check.compare(refs[command.key], capsys.readouterr().out) is None, command.key


# pieces, degree and coefficient bits of each pushforward of `persist --nmax 12 --theta 4/5`:
# the forward steps to f_2..f_7, then the backward steps from g_0 = 0 (the zero density)
# to g_4, whose outputs are g_1..g_5 before the division by theta and the linear piece
TRACED_STEPS = [
    (2, 1, 5), (4, 2, 13), (7, 3, 24), (12, 4, 45), (21, 5, 67), (35, 6, 96),
    (1, -1, 0), (3, 2, 10), (6, 3, 19), (12, 4, 35), (23, 5, 56),
]


def test_traced_oracle_window_command_reports_every_step():
    # the benchmark's tracer reads `.pieces` of each pushforward result after the command ends
    argv = ["persist", "--nmax", "12", "--theta", "4/5"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(PERFBENCH.parent / "src"), "1", json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["exit"] == 0, report["error"]
    steps = [s[4] for s in report["spans"] if s[0] == "exact.piecewise_pushforward"]
    assert [(s["pieces"], s["degree"], s["coeff_bits"]) for s in steps] == TRACED_STEPS
