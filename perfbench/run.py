"""The ar1lab benchmark: CLI workloads, each command in a fresh process.

Run from the root of a checkout (the directory holding ``src/ar1lab``):

    python3 perfbench/run.py --workload oracle-window --seed 1 --seconds 28 --trace 0

One client runs the workload's commands one after another (a closed loop),
each in a new Python process that imports ``ar1lab.cli`` and calls
``ar1lab.cli.main(argv)`` in-process (see child.py).  A CLI user pays the
interpreter start and the cold module caches on every command, so reusing one
process would hide that cost.  Passes over the command list repeat until the
run has measured about ``--seconds``: it stops as soon as one more pass would
end further past that mark than stopping now falls short of it.  Every output
is checked against the reference pinned in refs.json.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (spawn until
``import ar1lab.cli`` is done, median over all processes), ``wall_s`` (time
inside ``cli.main``: each command's median over the passes, summed over the
commands)
and ``peak_rss_mb`` (largest max-RSS of any process).  ``--trace 1``
alternates plain and traced passes and reports the per-layer metrics of the
traced ones (tracer.py) plus ``trace.overhead_s``.  Human-readable lines come
first; the last line of stdout is the JSON result.  Exit code 2, with no
result, when the checkout has no ``src/ar1lab``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND_TIMEOUT_S = 120
RUN_LIMIT_S = 170  # a hanging command is killed so the run still ends in time
# a near-instant command: one process of it warms the bytecode caches that an
# installed CLI already has (not counted), and after every pass a few more add
# set-up samples spread over the whole run
SETUP_ARGV = ["persist", "--nmax", "1"]
SETUP_PER_PASS = 2
PYCACHE_DIR = ".perfbench_cache"


def child_env(src: str) -> dict:
    """An installed CLI imports cached bytecode; children keep theirs in the checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = os.path.join(os.path.dirname(src), PYCACHE_DIR)
    return env


def run_child(src: str, argv: list[str], trace: bool, timeout: float) -> dict:
    """Run one command in a fresh process; its report, plus ``setup_s``."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), src, "1" if trace else "0", json.dumps(argv)]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(src))
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"exit": "timeout", "error": f"no answer within {timeout:.0f} s"}
    try:
        report = json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode, "error": err.strip()[-2000:] or "no report"}
    report["setup_s"] = report["ready"] - spawn
    return report


def problem_with(cmd: workloads.Command, report: dict, refs: dict) -> str | None:
    """Why this command failed, or None when its output and spans check out."""
    if report["exit"] != 0:
        return f"exit {report['exit']}: {report.get('error') or ''}".strip()
    if cmd.key not in refs:
        return "no pinned reference for this command line"
    problem = check.compare(refs[cmd.key], report["stdout"])
    if problem or "spans" not in report:
        return problem
    spans = report["spans"]
    if [s[0] for s in spans].count("cli.main") != 1 or spans[0][0] != "cli.main":
        return "trace self-check: expected exactly one cli.main span, at the root"
    pushforwards = [s[0] for s in spans].count("exact.piecewise_pushforward")
    if cmd.pushforwards is not None and pushforwards != cmd.pushforwards:
        return f"trace self-check: {pushforwards} pushforward spans, expected {cmd.pushforwards}"
    return None


def median(values) -> float:
    """The median, or 0 when every command of the run failed before reporting."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def workload_wall(passes: list[list[dict]]) -> float:
    """Each command's median time inside ``cli.main`` over the passes, summed.

    Every command contributes the middle of its own samples, which come from
    different passes, so one slow stretch of the host moves this less than
    it moves the median of whole-pass sums.
    """
    return sum(median(r.get("main_s", 0.0) for r in column) for column in zip(*passes))


def quartiles(values: list[float], what: str) -> str:
    if len(values) < 2:
        return f"{len(values)} {what}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)} {what}, q1 {q1:.4g}, q3 {q3:.4g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ar1lab", "cli.py")):
        print(f"error: no ar1lab sources under {src}; run from the root of an ar1lab checkout", file=sys.stderr)
        return 2
    commands = workloads.WORKLOADS[args.workload](args.seed)
    refs = check.load_refs()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    def run_within_limit(argv: list[str], traced: bool) -> dict:
        return run_child(src, argv, traced, max(1.0, min(COMMAND_TIMEOUT_S, deadline - time.monotonic())))

    run_within_limit(SETUP_ARGV, False)
    setup_only: list[dict] = []

    passes: list[tuple[bool, list[dict]]] = []  # (traced, reports)
    failures: list[str] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_start = time.monotonic()
        reports = []
        for cmd in commands:
            report = run_within_limit(list(cmd.argv), traced)
            problem = problem_with(cmd, report, refs)
            if problem is None and cmd.same_as is not None and report["stdout"] != reports[cmd.same_as].get("stdout"):
                problem = f"output differs from command {cmd.same_as} ({commands[cmd.same_as].key})"
            if problem:
                failures.append(f"{cmd.key}: {problem}")
            reports.append(report)
        passes.append((traced, reports))
        setup_only += [run_within_limit(SETUP_ARGV, False) for _ in range(SETUP_PER_PASS)]
        elapsed = time.monotonic() - started
        if any(r["exit"] == "timeout" for r in reports):
            break
        need_traced = args.trace and len(passes) < 2
        if not need_traced and elapsed + (time.monotonic() - pass_start) / 2 >= args.seconds:
            break

    attempted = sum(len(reports) for _, reports in passes)
    plain = [reports for traced, reports in passes if not traced]
    walls = [sum(r.get("main_s", 0.0) for r in reports) for reports in plain]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of {len(commands)} commands")
    for line in failures:
        print(f"FAILED {line}")
    if args.trace:
        per_pass = [
            tracer.layer_metrics([r.get("spans", []) for r in reports]) for traced, reports in passes if traced
        ] or [tracer.layer_metrics([])]
        traced_passes = [reports for traced, reports in passes if traced]
        values = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = workload_wall(traced_passes) - workload_wall(plain)
        metrics = {name: {"value": v, "unit": tracer.unit(name)} for name, v in sorted(values.items())}
        for name, m in metrics.items():
            print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    else:
        setups = [r["setup_s"] for reports in plain + [setup_only] for r in reports if "setup_s" in r]
        rss = [r["maxrss_kb"] / 1024 for reports in plain for r in reports if "maxrss_kb" in r]
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": workload_wall(plain), "unit": "s"},
            "peak_rss_mb": {"value": max(rss, default=0.0), "unit": "MB"},
        }
        print(f"setup_s      {metrics['setup_s']['value']:.4f} s   ({quartiles(setups, 'processes')})")
        print(f"wall_s       {metrics['wall_s']['value']:.4f} s   (pass sums: {quartiles(walls, 'passes')})")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB  (max of {len(rss)} processes)")
    print(f"fail_ratio   {len(failures) / attempted:.4g} 1  ({len(failures)} of {attempted} commands)")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
