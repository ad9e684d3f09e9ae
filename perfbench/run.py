"""Benchmark of spinfock, driven only through ``spinfock.cli.main(argv)``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout; the program is imported from ``src``.

``--trace 0`` times set-up in fresh processes (one warm-up, then several
probes; the median counts), then runs the workload as a closed loop in one
fresh child process for about S seconds and reports the end-to-end metrics,
with the times of each pass scaled to the machine's nominal speed by a
reference kernel timed around it (see ``reference``).
``--trace 1`` runs a fixed number of passes twice in fresh children, once
plain and once with the layers wrapped, checks that both give byte-identical
reports, and reports the per-layer metrics. BLAS and OpenMP are pinned to one
thread in every child.

Both modes check every report (see ``accounting``), write the full result
with an environment block to ``perfbench/out/`` and print as the last line
of stdout one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import accounting, layers, reference  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
THREADS = "1"
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_steal_s() -> float | None:
    """Time the hypervisor has kept this machine's CPUs from running it, if known."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _child(args: list, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    # A session of its own, so that a child that runs late is stopped
    # together with the reference helper it started.
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args} did not finish in time")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"child {args} exited {proc.returncode}: {stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _command_records(doc: dict, tally: accounting.Tally) -> tuple:
    records, outcomes = [], []
    for cmd in doc["commands"]:
        outcome = accounting.evaluate(cmd["argv"], cmd["rc"], cmd["report"])
        tally.add(outcome)
        outcomes.append(outcome)
        records.append({
            "argv": cmd["argv"], "pass": cmd["pass"], "rc": cmd["rc"], "wall_s": cmd["wall_s"],
            "report_sha256": hashlib.sha256(cmd["report"].encode()).hexdigest(),
            "estimates": outcome.estimates,
        })
    return records, outcomes


def speed_scales(reference_s: list) -> list:
    """Per pass: the nominal reference time over the mean of the two around it."""
    return [reference.NOMINAL_S / (0.5 * (before + after))
            for before, after in zip(reference_s, reference_s[1:])]


def end_to_end(doc: dict, outcomes: list, setups: list) -> dict:
    """The end-to-end metrics of one untraced run.

    Times are scaled pass by pass to the machine's nominal speed (see
    ``reference``); ``setup_s`` runs in fresh processes and is taken as
    measured.
    """
    commands = doc["commands"]
    scales = speed_scales(doc["reference_s"])
    if len(scales) != len(doc["pass_walls"]):
        raise BenchError("the run timed the reference kernel around too few passes")
    pass_walls = [wall * scale for wall, scale in zip(doc["pass_walls"], scales)]
    steps_per_pass = [0] * len(pass_walls)
    for cmd, outcome in zip(commands, outcomes):
        steps_per_pass[cmd["pass"]] += outcome.path_steps
    stochastic = [(cmd["wall_s"] * scales[cmd["pass"]], outcome.rel_error)
                  for cmd, outcome in zip(commands, outcomes) if outcome.rel_error]
    if not stochastic or not all(steps_per_pass):
        raise BenchError("the run completed no stochastic command")
    return {
        "wall_s": statistics.median(pass_walls),
        "path_steps_per_s": statistics.median(
            s / w for s, w in zip(steps_per_pass, pass_walls)
        ),
        "tts_1pct_s": accounting.tts_1pct(
            statistics.median(wall for wall, _ in stochastic),
            math.sqrt(statistics.fmean(rel**2 for _, rel in stochastic)),
        ),
        "peak_rss_mb": doc["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def measure(name: str, seed: int, seconds: int, trace: int, spec: dict, deadline: float) -> dict:
    workload = WORKLOADS[name]
    OUT.mkdir(parents=True, exist_ok=True)
    tally = accounting.Tally()
    result = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds}
    absent: list = []
    if not trace:
        _child(["setup"], deadline)  # warm-up: byte-compiles the program once
        setups = [_child(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        steal = _cpu_steal_s()
        doc = _child(["run", name, str(seed), "--seconds", str(seconds)], deadline)
        if steal is not None:
            result["cpu_steal_s"] = _cpu_steal_s() - steal
        records, outcomes = _command_records(doc, tally)
        values = end_to_end(doc, outcomes, setups)
        wanted = spec["end_to_end"]
        result["setup_probes_s"] = setups
        result["reference_s"] = doc["reference_s"]
        result["raw_pass_walls_s"] = doc["pass_walls"]
    else:
        passes = str(workload.trace_passes)
        plain = _child(["run", name, str(seed), "--passes", passes], deadline)
        spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
        doc = _child(["run", name, str(seed), "--passes", passes, "--trace", str(spans_path)],
                     deadline)
        records, _ = _command_records(doc, tally)
        for a, b in zip(plain["commands"], doc["commands"]):
            tally.item(f"traced report differs: {b['argv']}",
                       a["rc"] == b["rc"] and a["report"] == b["report"])
        tally.item("traced and plain runs ran different commands",
                   len(plain["commands"]) == len(doc["commands"]))
        untraced = sum(c["wall_s"] for c in plain["commands"])
        traced = sum(c["wall_s"] for c in doc["commands"])
        summary = doc["trace"]
        self_sum = sum(own for _, own in summary["totals"].values())
        uncovered = traced - summary["root_s"]
        tally.item("layer self times plus uncovered time differ from traced wall",
                   abs(self_sum + uncovered - traced) <= 1e-6 * max(1.0, traced))
        wanted = spec["per_layer"]
        values, absent = layers.layer_values(summary, [m["name"] for m in wanted],
                                             untraced, traced)
        result["untraced_wall_s"] = untraced
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result.update({
        "env": {**doc["env"], "git_sha": _git_sha(), "seed": seed},
        "metrics": metrics,
        "absent": absent,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "flagged": tally.flagged,
        "failed_frac": tally.failed_frac,
        "failures": tally.failures,
        "commands": records,
    })
    out_path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def _print_table(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"commands={len(result['commands'])}")
    for metric, entry in result["metrics"].items():
        mark = " (absent)" if metric in result["absent"] else ""
        print(f"{result['workload']:<18} {metric:<44} {entry['value']:>16.6g} {entry['unit']}{mark}")
    print(f"{result['workload']:<18} {'failed_frac':<44} {result['failed_frac']:>16.6g} 1")
    for failure in result["failures"]:
        print(f"{result['workload']:<18} failed: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if not (ROOT / "src" / "spinfock" / "cli.py").is_file():
            raise BenchError(f"no spinfock sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [
            measure(name, args.seed, args.seconds, args.trace, spec,
                    deadline=time.monotonic() + DEADLINE_S)
            for name in names
        ]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        _print_table(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": e for r in results for m, e in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
