"""Every command line the benchmark runs parses with the current CLI, and the
oracle-window commands still print their pinned outputs."""

import importlib.util
import sys
from pathlib import Path

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


def test_oracle_window_outputs_match_the_pinned_references(monkeypatch, capsys):
    # a changed exact rational fails here before it fails the benchmark
    workloads, check = _load("workloads", monkeypatch), _load("check", monkeypatch)
    refs = check.load_refs()
    commands = workloads.WORKLOADS["oracle-window"](0)
    assert commands
    for command in commands:
        assert main(list(command.argv)) == 0
        assert check.compare(refs[command.key], capsys.readouterr().out) is None, command.key
