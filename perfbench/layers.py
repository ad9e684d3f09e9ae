"""Which public functions of spinfock are traced, and the per-layer metrics.

Each metric is named ``<module>.<function>.<stat>`` (stat: ``calls``,
inclusive ``s`` or ``self_s``), or is one of the counters below, recorded at
the same boundaries:

- ``sde.draws.*``: ``standard_normal`` on the generators ``path_rng``
  returns, through a proxy; ``values`` counts the numbers drawn.
- ``sde.evolve_ensemble.chunks``, ``sde.path_steps`` (paths x steps of the
  yielded chunks) and ``sde.increment_buffer_bytes.computed`` (largest
  chunk x steps x 2n x 8 bytes, computed, not measured).
- ``sde.fit_decay_rate.dropped_points``: grid rows with Re mean <= 0, which
  the fit discards.
- ``spin_group.angle_pi_resamples``: AnglePiError raised by
  ``principal_so_log``.
- ``uea.rewrites``: ``bracket_symbols`` calls inside ``pbw_normalize``.
- ``trace.*``: traced wall time, the part of it no span covers, the
  tracing overhead (traced minus untraced wall) and the span count.
"""

from __future__ import annotations

from . import spans
from .spans import Target

PACKAGE = "spinfock"

CHECK_FUNCTIONS = (
    "check_car",
    "check_ladder_structure",
    "check_clifford_anticommutation",
    "check_clifford_reconstruction",
    "check_defining_trace",
    "check_homomorphism",
    "check_ladder_spin_image",
    "check_cartan_weights",
    "check_uea_normal_order",
    "check_decomposition",
    "check_spectrum",
    "check_commutation_shadow",
    "check_car_on_subspace",
    "check_factorized_identity",
)

# Counters that belong to another function's boundary: metric prefix -> the
# target keys that must exist for the counter to be recorded.
DEPENDS = {
    "sde.draws.": ("sde.path_rng",),
    "sde.path_steps": ("sde.evolve_ensemble",),
    "sde.increment_buffer_bytes.": ("sde.evolve_ensemble",),
    "spin_group.angle_pi_resamples": ("spin_group.principal_so_log",),
    "uea.rewrites": ("uea.pbw_normalize", "so_algebra.bracket_symbols"),
}


class DrawProxy:
    """A path generator whose ``standard_normal`` calls are spans."""

    __slots__ = ("_rng", "_tracer")

    def __init__(self, rng, tracer: spans.Tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        tracer = self._tracer
        tracer.counts["sde.draws.calls"] += 1
        idx = tracer.open("sde.draws")
        try:
            out = self._rng.standard_normal(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.counts["sde.draws.values"] += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _path_rng(tracer, key, fn):
    timed = spans.span_wrapper(tracer, key, fn)

    def wrapper(*args, **kwargs):
        return DrawProxy(timed(*args, **kwargs), tracer)

    return wrapper


def _evolve_ensemble(tracer, key, fn):
    def on_item(args, kwargs, item):
        config = args[0] if args else kwargs["config"]
        t_grid = args[2] if len(args) > 2 else kwargs["t_grid"]
        steps = max((round(float(t) / config.dt) for t in t_grid), default=0)
        paths = item[1].shape[0]
        counts = tracer.counts
        counts[key + ".chunks"] += 1
        counts["sde.path_steps"] += paths * steps
        buffer = paths * steps * 2 * config.spec.n * 8
        counts["sde.increment_buffer_bytes.computed"] = max(
            counts["sde.increment_buffer_bytes.computed"], buffer
        )

    return spans.generator_wrapper(tracer, key, fn, on_item)


def _fit_decay_rate(tracer, key, fn):
    timed = spans.span_wrapper(tracer, key, fn)

    def wrapper(rows, *args, **kwargs):
        rows = list(rows)
        tracer.counts[key + ".dropped_points"] += sum(1 for _, mean, _ in rows if mean.real <= 0)
        return timed(rows, *args, **kwargs)

    return wrapper


def _principal_so_log(tracer, key, fn):
    def on_error(exc):
        if type(exc).__name__ == "AnglePiError":
            tracer.counts["spin_group.angle_pi_resamples"] += 1

    return spans.span_wrapper(tracer, key, fn, on_error)


def _bracket_symbols(tracer, key, fn):
    def on_call():
        if tracer.depth["uea.pbw_normalize"]:
            tracer.counts["uea.rewrites"] += 1

    return spans.counting_wrapper(tracer, key, fn, on_call)


TARGETS = (
    Target("sde", "evolve_ensemble", _evolve_ensemble),
    Target("sde", "path_rng", _path_rng),
    Target("sde", "noise_generator_matrices"),
    Target("sde", "fit_decay_rate", _fit_decay_rate),
    Target("spin_group", "haar_orthogonal"),
    Target("spin_group", "principal_so_log", _principal_so_log),
    Target("spin_group", "expm_antihermitian"),
    Target("spin_group", "haar_sample"),
    Target("spin_group", "l2_inner_mc"),
    Target("spin_group", "complex_mean_stderr"),
    Target("feynman_kac", "fk_report"),
    Target("feynman_kac", "fk_lhs_exact"),
    Target("hamiltonian", "exact_semigroup"),
    Target("hamiltonian", "build_parts"),
    Target("so_algebra", "spin_symbol_matrix"),
    Target("so_algebra", "spin_rep"),
    Target("so_algebra", "bracket_symbols", _bracket_symbols),
    Target("clifford", "gamma"),
    Target("fock", "ladder"),
    Target("uea", "pbw_normalize"),
    *(Target("checks", name) for name in CHECK_FUNCTIONS),
    Target("report_io", "render_json"),
    Target("report_io", "render_csv"),
)

SPAN_KEYS = {t.key for t in TARGETS} | {"sde.draws"}


def sources(metric: str) -> tuple:
    """Target keys a per-layer metric is recorded at (empty for ``trace.*``)."""
    if metric.startswith("trace."):
        return ()
    for prefix, keys in DEPENDS.items():
        if metric.startswith(prefix):
            return keys
    return (metric.rsplit(".", 1)[0],)


def summarize(recorded, counts, absent_targets) -> dict:
    """What a traced process reports: per-name times, root time, counters, absent targets."""
    return {
        "totals": spans.self_times(recorded),
        "root_s": spans.root_time(recorded),
        "spans": len(recorded),
        "counts": dict(counts),
        "absent_targets": list(absent_targets),
    }


def layer_values(summary: dict, metrics, untraced_wall: float, traced_wall: float) -> tuple:
    """(values, absent metric names) for the given per-layer metric names."""
    totals, counts = summary["totals"], summary["counts"]
    trace = {
        "trace.wall_s": traced_wall,
        "trace.uncovered_s": traced_wall - summary["root_s"],
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": summary["spans"],
    }
    values, absent = {}, []
    for metric in metrics:
        if any(key in summary["absent_targets"] for key in sources(metric)):
            absent.append(metric)
        head, _, stat = metric.rpartition(".")
        if metric in trace:
            values[metric] = trace[metric]
        elif head in SPAN_KEYS and stat in ("s", "self_s"):
            incl, own = totals.get(head, (0.0, 0.0))
            values[metric] = incl if stat == "s" else own
        else:
            values[metric] = counts.get(metric, 0)
    return values, absent
