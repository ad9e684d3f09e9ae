"""Correctness accounting and per-command figures, read from the CLI reports.

Every command yields check items. An item is *flagged* when it fails the
criterion the acceptance suite uses (a nonzero exit, an ``fk`` row with
z > 3, a fitted rate more than 0.05 from its candidate, a ``verify`` or
``haar-test`` row with ``passed: false``); ``failed_frac`` is flagged items
over attempted items. A z-score above 3 happens by chance about 0.27 % of
the time for a correct estimator, so an item *fails* outright only when the
program is wrong: a crash or a nonzero exit not explained by a statistical
row, a deterministic check that fails, an exact value that does not match,
a fitted rate off by more than 0.05, or z > 5.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

Z_FLAG = 3.0
Z_FAIL = 5.0
RATE_TOL = 0.05
TARGET_REL_ERROR = 0.01


@dataclass
class Outcome:
    """What one command's report says."""

    attempted: int = 0
    flagged: int = 0
    failures: list = field(default_factory=list)
    estimates: dict = field(default_factory=dict)
    path_steps: int = 0
    rel_error: float | None = None

    def item(self, name: str, flagged: bool, failed: bool) -> None:
        self.attempted += 1
        self.flagged += bool(flagged)
        if failed:
            self.failures.append(name)


def tts_1pct(wall_s: float, rel_error: float) -> float:
    """Time to 1 % relative error under 1/sqrt(paths) scaling.

    A run reports it from the median wall time of its stochastic commands and
    the root mean square of their relative errors: each error estimate varies
    from seed to seed, and averaging its square is steadier than a median of
    per-command products.
    """
    return wall_s * (rel_error / TARGET_REL_ERROR) ** 2


def _steps(config: dict) -> int:
    return round(max(config["t_grid"]) / config["dt"])


def _fk(doc: dict, out: Outcome) -> None:
    config = doc["config"]
    total = sum(config["energies"])
    out.path_steps = config["paths"] * _steps(config)
    worst = 0.0
    rhs = []
    for row in doc["rows"]:
        t, z = row["t"], row["z"]
        # state "top": 2^-n <top, e^{-tH} top> = 2^-n exp(-t sum E)
        exact = math.exp(-t * total) / 2 ** config["n"]
        lhs_ok = abs(row["lhs_re"] - exact) <= 1e-12 * max(1.0, exact) and row["lhs_im"] == 0
        out.item(f"fk t={t} lhs", not lhs_ok, not lhs_ok)
        out.item(f"fk t={t} z={z:.3g}", z > Z_FLAG, not z <= Z_FAIL)
        worst = max(worst, row["std_error"] / abs(complex(row["lhs_re"], row["lhs_im"])))
        rhs.append([t, row["rhs_re"], row["rhs_im"], row["std_error"]])
    out.rel_error = worst
    out.estimates = {"rhs": rhs}


def _calibrate(doc: dict, out: Outcome) -> None:
    config = doc["config"]
    est = doc["estimates"]
    out.path_steps = config["paths"] * _steps(config)
    rate, rate_se = est["fitted_rate"], est["rate_std_error"]
    candidate = est["candidate_rate_" + config["sigma"]]
    off = abs(rate - candidate) > RATE_TOL
    out.item(f"calibrate {config['sigma']} rate={rate:.4f}", off, off)
    # The fit's own rate error rests on 9 residual degrees of freedom, so its
    # square varies by up to 4x between seeds; the worst fitted row of the
    # curve gives the 1/sqrt(paths) precision steadily.
    out.rel_error = max(row["std_error"] / row["corr_re"] for row in doc["rows"]
                        if row["corr_re"] > 0)
    out.estimates = {
        "fitted_rate": rate,
        "rate_std_error": rate_se,
        # grid rows the fit discards: Re mean <= 0
        "dropped_points": sum(1 for row in doc["rows"] if row["corr_re"] <= 0),
        "corr": [[row["t"], row["corr_re"], row["corr_im"], row["std_error"]] for row in doc["rows"]],
    }


def _verify_csv(text: str, out: Outcome) -> None:
    rows = list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))
    if not rows:
        raise ValueError("verify report holds no check rows")
    for row in rows:
        bad = row["passed"] != "true"
        out.item(f"verify {row['name']}", bad, bad)


def _haar_test(doc: dict, out: Outcome) -> bool:
    """Items for each row; True when every failing row is a plausible statistical excursion."""
    out.path_steps = 2 * doc["config"]["paths"]
    worst = 0.0
    excused = True
    for row in doc["checks"]:
        statistical = row["std_error"] > 0
        bad = not row["passed"]
        failed = (row["z"] > Z_FAIL) if statistical else bad
        excused &= not failed
        out.item(f"haar-test {row['name']} z={row['z']:.3g}", bad, failed)
        if statistical and row["target"] != 0:
            worst = max(worst, row["std_error"] / abs(row["target"]))
    out.rel_error = worst
    out.estimates = {row["name"]: row["value"] for row in doc["checks"]}
    return excused


def evaluate(argv: list, rc, text: str) -> Outcome:
    """Check items and figures of one command from its exit code and report text."""
    out = Outcome()
    command = argv[0]
    excused = False
    try:
        if command == "verify":
            _verify_csv(text, out)
        else:
            doc = json.loads(text)
            if command == "fk":
                _fk(doc, out)
            elif command == "calibrate":
                _calibrate(doc, out)
            elif command == "haar-test":
                excused = _haar_test(doc, out)
            else:
                raise ValueError(f"no accounting for command {command!r}")
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        out.item(f"{command} report unreadable: {exc!r}", True, True)
    # haar-test exits 1 when a statistical row misses 3 sigma by chance
    exit_ok = rc == 0 or (rc == 1 and command == "haar-test" and excused)
    out.item(f"{command} exit={rc}", rc != 0, not exit_ok)
    return out


class Tally:
    """Check items over all commands of a run."""

    def __init__(self):
        self.attempted = self.flagged = 0
        self.failures: list = []

    def add(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.flagged += outcome.flagged
        self.failures += outcome.failures

    def item(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.flagged += not ok
        if not ok:
            self.failures.append(name)

    @property
    def failed_frac(self) -> float:
        return self.flagged / self.attempted
