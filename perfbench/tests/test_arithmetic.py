"""The benchmark's own arithmetic: self times, time to 1 %, failure accounting.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

from perfbench import accounting, layers, spans
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_on_nested_tree_with_generator_segments():
    # root [0, 10] holds two segments of generator g, [1, 4] and [6, 8];
    # leaf [2, 3] runs inside the first segment, leaf [8.5, 9.5] in root.
    recorded = [
        ("root", 0.0, 10.0, -1, 0),
        ("g", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("g", 6.0, 8.0, 0, 0),
        ("leaf", 8.5, 9.5, 0, 0),
    ]
    totals = spans.self_times(recorded)
    assert totals["root"] == pytest.approx((10.0, 10.0 - 3.0 - 2.0 - 1.0))
    assert totals["g"] == pytest.approx((5.0, 4.0))
    assert totals["leaf"] == pytest.approx((2.0, 2.0))
    assert spans.root_time(recorded) == 10.0
    assert sum(own for _, own in totals.values()) == pytest.approx(spans.root_time(recorded))


def test_wrapped_generator_spans_only_time_inside_next():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = spans.span_wrapper(tracer, "leaf", lambda: None)

    def produce():
        for _ in range(2):
            leaf()
            yield 1

    gen = spans.generator_wrapper(tracer, "gen", produce)
    outer = spans.span_wrapper(tracer, "outer", lambda: sum(gen()))
    assert outer() == 2

    recorded = tracer.spans()
    names = [s[0] for s in recorded]
    assert names == ["outer", "gen", "leaf", "gen", "leaf", "gen"]
    parents = [s[3] for s in recorded]
    assert parents == [-1, 0, 1, 0, 3, 0]
    totals = spans.self_times(recorded)
    # each clock read advances one tick: leaf spans last 1, a gen segment
    # around a leaf lasts 3, the final (empty) segment 1
    assert totals["leaf"] == (2.0, 2.0)
    assert totals["gen"] == (7.0, 5.0)
    assert tracer.counts["gen.calls"] == 1
    assert tracer.counts["leaf.calls"] == 2
    assert tracer.stack == []


def test_reentrant_calls_stay_in_the_outer_span():
    tracer = spans.Tracer()

    def depth(k):
        return 0 if k == 0 else 1 + wrapped(k - 1)

    wrapped = spans.span_wrapper(tracer, "depth", depth)
    assert wrapped(5) == 5
    assert len(tracer.spans()) == 1
    assert tracer.counts["depth.calls"] == 1


def test_install_rebinds_every_alias_and_records_absent_names(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return 2 * x

    core.work = work
    user.work = work
    pkg.work = work
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = spans.Tracer()
    targets = [spans.Target("core", "work"), spans.Target("core", "gone"),
               spans.Target("missing", "work")]
    absent = spans.install(tracer, "fakepkg", targets)
    assert absent == ["core.gone", "missing.work"]
    assert core.work is user.work is pkg.work is not work
    assert user.work(3) == 6
    assert tracer.counts["core.work.calls"] == 1

    summary = layers.summarize(tracer.spans(), tracer.counts, absent)
    values, absent_metrics = layers.layer_values(
        summary, ["core.work.calls", "core.gone.s"], untraced_wall=1.0, traced_wall=1.0)
    assert values == {"core.work.calls": 1, "core.gone.s": 0.0}
    assert absent_metrics == ["core.gone.s"]


def test_benchmark_lists_the_workloads_it_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_per_layer_metric_is_recorded_somewhere():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {t.key for t in layers.TARGETS} | layers.SPAN_KEYS
    counters = {
        "sde.evolve_ensemble.chunks", "sde.draws.values", "sde.path_steps",
        "sde.increment_buffer_bytes.computed", "sde.fit_decay_rate.dropped_points",
        "spin_group.angle_pi_resamples", "uea.rewrites",
    }
    for metric in (m["name"] for m in spec["per_layer"]):
        head, _, stat = metric.rpartition(".")
        if metric.startswith("trace."):
            assert metric in ("trace.wall_s", "trace.uncovered_s", "trace.overhead_s", "trace.spans")
        elif metric not in counters:
            assert head in keys and stat in ("calls", "s", "self_s"), metric
        assert set(layers.sources(metric)) <= keys, metric


def test_tts_on_a_hand_computed_case():
    assert accounting.tts_1pct(2.0, 0.02) == pytest.approx(8.0)
    report = {
        "config": {"n": 1, "energies": [1.0], "t_grid": [0.25], "dt": 1e-3, "paths": 10000},
        "rows": [{"t": 0.25, "lhs_re": 0.5 * 2.718281828459045 ** -0.25, "lhs_im": 0.0,
                  "rhs_re": 0.39, "rhs_im": 0.0, "std_error": 0.00389, "z": 0.1}],
    }
    out = accounting.evaluate(["fk"], 0, json.dumps(report))
    assert out.failures == [] and out.flagged == 0
    # rel = 0.00389 / 0.38940039 = 0.0099897; tts = 1.5 s * 0.99897^2 = 1.496917 s
    assert accounting.tts_1pct(1.5, out.rel_error) == pytest.approx(1.496917, rel=1e-6)
    assert out.path_steps == 10000 * 250


def test_run_metrics_on_a_hand_computed_run():
    from perfbench import reference, run

    nominal = reference.NOMINAL_S
    doc = {
        "pass_walls": [1.0, 3.0],
        # pass 0 runs at nominal speed; pass 1 is bracketed by 1x and 2x the
        # nominal reference time, so it ran at 2/3 speed: 3 s scales to 2 s
        "reference_s": [nominal, nominal, 2 * nominal],
        "peak_rss_mb": 100.0,
        "commands": [{"pass": 0, "wall_s": 1.0}, {"pass": 1, "wall_s": 3.0}],
    }
    outcomes = [accounting.Outcome(path_steps=1000, rel_error=0.01),
                accounting.Outcome(path_steps=1000, rel_error=0.02)]
    metrics = run.end_to_end(doc, outcomes, setups=[0.5, 0.3, 0.4])
    assert metrics["wall_s"] == pytest.approx(1.5)
    assert metrics["path_steps_per_s"] == pytest.approx((1000 / 1 + 1000 / 2) / 2)
    # median scaled wall 1.5 s times mean(1, 4) = 2.5 in units of (1 %)^2
    assert metrics["tts_1pct_s"] == pytest.approx(3.75)
    assert metrics["setup_s"] == 0.4
    with pytest.raises(run.BenchError):
        run.end_to_end({**doc, "reference_s": [nominal, nominal]}, outcomes, setups=[0.4])


def test_reference_kernel_is_deterministic_and_quick():
    from perfbench import reference

    kernel = reference.Kernel()
    elapsed = kernel.measure()
    assert 0 < elapsed < 20 * reference.NOMINAL_S
    assert kernel._once() == kernel.checksum


def _haar_report(z_entry):
    return json.dumps({
        "config": {"paths": 2000},
        "checks": [
            {"name": "entry-mean", "value": 0.01, "target": 0.0, "std_error": 0.002,
             "z": z_entry, "passed": z_entry <= 3.0},
            {"name": "trace-moment", "value": 1.0, "target": 1.0, "std_error": 0.03,
             "z": 0.0, "passed": True},
            {"name": "spin-unitarity", "value": 1e-15, "target": 0.0, "std_error": 0.0,
             "z": 0.0, "passed": True},
        ],
    })


def test_failed_frac_on_fabricated_failing_reports():
    tally = accounting.Tally()
    # haar-test exits 1 because entry-mean sits at z = 3.4: flagged, not failed
    unlucky = accounting.evaluate(["haar-test"], 1, _haar_report(3.4))
    assert (unlucky.attempted, unlucky.flagged, unlucky.failures) == (4, 2, [])
    assert unlucky.rel_error == pytest.approx(0.03)
    tally.add(unlucky)
    # the same exit with z = 6 is a failure of the program
    wrong = accounting.evaluate(["haar-test"], 1, _haar_report(6.0))
    assert wrong.flagged == 2 and len(wrong.failures) == 2
    tally.add(wrong)
    # fk row with z = 3.2 (flagged) and an exit code of 1 (failed)
    fk = {
        "config": {"n": 1, "energies": [1.0], "t_grid": [0.25], "dt": 1e-3, "paths": 100},
        "rows": [{"t": 0.25, "lhs_re": 0.5 * 2.718281828459045 ** -0.25, "lhs_im": 0.0,
                  "rhs_re": 0.4, "rhs_im": 0.0, "std_error": 0.003, "z": 3.2}],
    }
    bad_fk = accounting.evaluate(["fk"], 1, json.dumps(fk))
    assert (bad_fk.attempted, bad_fk.flagged) == (3, 2)
    assert bad_fk.failures == ["fk exit=1"]
    tally.add(bad_fk)
    assert tally.attempted == 11
    assert tally.flagged == 6
    assert tally.failed_frac == pytest.approx(6 / 11)
    assert len(tally.failures) == 3


def test_unreadable_report_fails():
    out = accounting.evaluate(["calibrate"], 0, "not json")
    assert out.attempted == 2 and len(out.failures) == 1


def test_workload_commands_resolve_in_the_cli():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from spinfock import cli
    finally:
        sys.path.remove(str(ROOT / "src"))
    parser = cli.build_parser()
    for workload in WORKLOADS.values():
        first = workload.commands(3, 0)
        assert first == workload.commands(3, 0)
        assert first != workload.commands(4, 0)
        for argv in first:
            cli.resolve_config(parser.parse_args(argv))
