"""Run one ar1lab CLI command in this fresh process and report on stdout.

Usage: python3 child.py SRC_DIR TRACE ARGV_JSON

SRC_DIR is the directory that holds the ``ar1lab`` package; TRACE is 0 or 1;
ARGV_JSON is the command line for ``ar1lab.cli.main`` as a JSON list.  The
CLI's own output is captured in memory, and one JSON report goes to the real
stdout at exit: when ``import ar1lab.cli`` finished (``time.monotonic``, a
clock shared by every process of the machine, so the parent can subtract its
spawn time), the seconds inside ``cli.main``, the exit code, the captured
output, the peak RSS and, with TRACE=1, the spans the tracer recorded.

Nothing but ``sys`` and ``time`` is imported before ``ar1lab.cli``, so the
set-up time is the interpreter plus what the CLI itself imports.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import ar1lab.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    trace, argv = sys.argv[2] == "1", json.loads(sys.argv[3])
    report = {"ready": READY}
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = ar1lab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed command, not a dead benchmark
        code, error = 1, traceback.format_exc()
    report["main_s"] = time.perf_counter() - start
    report.update(
        exit=code,
        error=error,
        stdout=out.getvalue(),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        tracer.finish()
        report["spans"] = tracer.spans
    print(json.dumps(report))


if __name__ == "__main__":
    main()
