"""The benchmark's workloads: CLI argv generated from the workload seed.

A workload is a sequence of passes; pass ``i`` is a short list of ``spinfock``
commands. Stochastic commands take the seed ``seed * SEED_STRIDE + i``, so
every run seed owns its own block of consecutive command seeds and a pass is
fully determined by (run seed, pass index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

SEED_STRIDE = 1000  # even, so pass i of every run seed has the parity of i


@dataclass(frozen=True)
class Workload:
    """Why each workload is in the benchmark is recorded in BENCHMARK.json."""

    name: str
    pass_commands: Callable[[int], list]
    # Passes in one traced run: fixed, so that its counts repeat exactly.
    trace_passes: int

    def commands(self, seed: int, index: int) -> list:
        return self.pass_commands(seed * SEED_STRIDE + index)


def _fk_smoke(seed: int) -> list:
    return [["fk", "--n", "1", "--energies", "1", "--state", "top", "--t-grid", "0.25",
             "--dt", "1e-3", "--paths", "10000", "--seed", str(seed)]]


def _fk_wide(seed: int) -> list:
    return [["fk", "--n", "4", "--energies", "1,2,3,4", "--state", "top",
             "--t-grid", "0.1,0.3", "--dt", "1e-3", "--paths", "2000", "--seed", str(seed)]]


def _calibrate(seed: int) -> list:
    # One sigma convention per pass, taking turns, so that a pass is one
    # command and a run measures several passes.
    sigma = ("corrected", "paper-literal")[seed % 2]
    return [["calibrate", "--n", "1", "--energies", "1", "--paths", "10000", "--dt", "1e-3",
             "--sigma", sigma, "--seed", str(seed)]]


def _algebra_haar(seed: int) -> list:
    verify = [["verify", "--n", str(k), "--format", "csv"] for k in range(1, 5)]
    return verify + [["haar-test", "--n", "2", "--paths", "2000", "--seed", str(seed)]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fk-smoke-n1", _fk_smoke, trace_passes=3),
        Workload("fk-wide-n4", _fk_wide, trace_passes=1),
        Workload("calibrate-n1-long", _calibrate, trace_passes=2),
        Workload("algebra-haar", _algebra_haar, trace_passes=1),
    )
}
