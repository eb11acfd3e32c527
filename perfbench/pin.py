"""Pin every workload command's output as the reference in refs.json.

Run from the root of a checkout at the commit whose outputs are the truth:

    python3 perfbench/pin.py

Each command runs once, in a fresh process, exactly as run.py runs it; the
Monte Carlo commands run once for each of the ``MC_SEEDS`` seeds.  A command
that exits non-zero is an error, not a reference.
"""

from __future__ import annotations

import json
import os
import sys

import check
import run
import workloads


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    refs = {}
    for name in workloads.WORKLOADS:
        for seed in range(workloads.MC_SEEDS):
            for cmd in workloads.WORKLOADS[name](seed):
                if cmd.key in refs:
                    continue
                report = run.run_child(src, list(cmd.argv), False, run.COMMAND_TIMEOUT_S)
                if report["exit"] != 0:
                    print(f"{cmd.key}: exit {report['exit']}: {report.get('error')}", file=sys.stderr)
                    return 1
                refs[cmd.key] = check.make_reference(report["stdout"])
                print(f"{report['main_s']:8.3f} s  {cmd.key}")
    with open(check.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
