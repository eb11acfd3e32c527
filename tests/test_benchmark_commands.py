"""Every command line the benchmark runs parses with the current CLI."""

import importlib.util
import sys
from pathlib import Path

from ar1lab.cli import build_parser

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_benchmark_command_parses(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks the module up
    spec.loader.exec_module(workloads)  # standard library imports only
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
