"""One fresh benchmark process: import spinfock, then run workload passes.

    python3 -m perfbench.worker setup
    python3 -m perfbench.worker run WORKLOAD SEED [--seconds S | --passes K] [--trace SPANS_PATH]

``setup`` times ``import spinfock`` plus ``cli.build_parser()`` and exits.
``run`` does the same set-up, then runs passes of the workload one command
after another through ``spinfock.cli.main(argv)``. With ``--seconds`` it
starts a new pass while half a median pass still fits in the time left, so
the run ends as near S as passes allow (and it runs at least two); it pins
itself to one CPU and times the reference kernel (see ``reference``) in a
helper process on that CPU before each pass and after the last. With ``--passes`` it runs exactly that many. With ``--trace`` the
layers are wrapped first and the spans are written to SPANS_PATH at the end.
The last line of stdout is one JSON document.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

MIN_PASSES = 2
MAX_PASSES = 500


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def _run_command(cli, argv: list) -> dict:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a result to report, not a reason to stop
        rc = "exception"
        sys.stderr.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "wall_s": wall, "report": buf.getvalue()}


def _setup():
    """Import the program and build its parser, as a user's first command does."""
    start = time.perf_counter()
    from spinfock import cli

    cli.build_parser()
    return cli, time.perf_counter() - start


def run(workload_name: str, seed: int, seconds: float | None, passes: int | None,
        spans_path: str | None) -> dict:
    cli, _ = _setup()

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tracer = absent = None
    if spans_path is not None:
        from perfbench import layers, spans

        tracer = spans.Tracer()
        absent = spans.install(tracer, layers.PACKAGE, layers.TARGETS)

    helper = None
    if seconds is not None:
        from perfbench import reference

        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        helper = reference.Helper()
    commands, pass_walls, reference_s = [], [], []
    try:
        begin = time.perf_counter()
        for index in range(MAX_PASSES):
            if passes is not None:
                if index >= passes:
                    break
            elif index >= MIN_PASSES and (
                time.perf_counter() - begin + 0.5 * statistics.median(pass_walls) >= seconds
            ):
                break
            if helper is not None:
                reference_s.append(helper.measure())
            pass_start = time.perf_counter()
            for argv in workload.commands(seed, index):
                if tracer is not None:
                    tracer.run_id = len(commands)
                record = _run_command(cli, argv)
                record["pass"] = index
                commands.append(record)
            pass_walls.append(time.perf_counter() - pass_start)
        if helper is not None:
            reference_s.append(helper.measure())
    finally:
        if helper is not None:
            helper.close()

    result = {
        "pass_walls": pass_walls,
        "reference_s": reference_s,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        recorded = tracer.spans()
        with open(spans_path, "w", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(span) + "\n" for span in recorded))
        result["trace"] = layers.summarize(recorded, tracer.counts, absent)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    run_p = sub.add_parser("run")
    run_p.add_argument("workload")
    run_p.add_argument("seed", type=int)
    length = run_p.add_mutually_exclusive_group(required=True)
    length.add_argument("--seconds", type=float)
    length.add_argument("--passes", type=int)
    run_p.add_argument("--trace", dest="spans_path", default=None)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        doc = {"setup_s": _setup()[1]}
    else:
        doc = run(args.workload, args.seed, args.seconds, args.passes, args.spans_path)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
