"""Command-line driver: verification suites, spectra, calibration, and
Feynman-Kac experiments with machine-readable reports.

Subcommands: verify | spectrum | fk | calibrate | haar-test. Reports echo the
fully resolved configuration and are byte-identical for identical configs.
Exit codes: 0 pass, 1 check failure, 2 usage/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import checks, feynman_kac, fock, hamiltonian, report_io, sde, so_algebra, spin_group
from .errors import DomainError, NumericError, SizeError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

STOCHASTIC_COMMANDS = ("fk", "calibrate", "haar-test")

# spectrum builds H from dense 2^n x 2^n matrices and takes all its
# eigenvalues: 0.4-0.5 s and 46 MB peak RSS at n = 9, 2.1-2.3 s and 95 MB
# at n = 10, on one core. Each further mode quadruples the matrices.
MAX_SPECTRUM_MODES = 10


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int
    energies: tuple
    t_grid: tuple
    dt: float
    paths: int
    seed: int | None
    sigma: str
    state: str
    format: str
    out: str | None

    def echo(self) -> dict:
        doc = asdict(self)
        doc["energies"] = list(self.energies)
        doc["t_grid"] = list(self.t_grid)
        return doc


def _parse_number_list(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    value = str(value).strip()
    if not value:
        return ()
    return tuple(float(part) for part in value.split(","))


def _integer(value) -> int:
    """An int, an integral float or an integer literal; ValueError otherwise."""
    number = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(f"{value!r} is not an integer")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfock",
        description="Verification suites and stochastic experiments for "
        "finite-dimensional fermions on Spin(2n+1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify", "run the algebraic check suite"),
        ("spectrum", "spectrum of the quasi-Hamiltonian vs subset sums"),
        ("fk", "Monte Carlo vs exact semigroup inner products"),
        ("calibrate", "fit the diffusion decay rate under a sigma convention"),
        ("haar-test", "statistical checks of the Haar sampler"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--n", type=int, default=None, help="mode count")
        cmd.add_argument("--energies", default=None, help="comma list, e.g. 1,2")
        cmd.add_argument("--t-grid", dest="t_grid", default=None, help="comma list of times")
        cmd.add_argument("--dt", type=float, default=None, help="integrator step size")
        cmd.add_argument("--paths", type=int, default=None, help="Monte Carlo path/sample count")
        cmd.add_argument("--seed", type=int, default=None, help="master RNG seed")
        cmd.add_argument("--sigma", choices=("corrected", "paper-literal"), default=None)
        cmd.add_argument("--state", default=None, help="vacuum | top | comma list of modes")
        cmd.add_argument("--format", choices=("json", "csv"), default=None)
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.add_argument("--config", default=None, help="flat JSON config file")
    return parser


def _command_defaults(command: str, n: int) -> dict:
    defaults = {
        "t_grid": (0.25, 0.5, 1.0),
        "dt": 1e-3,
        "paths": 10000,
        "seed": None,
        "sigma": "corrected",
        "state": "top",
        "format": "json",
        "out": None,
    }
    if command == "calibrate":
        defaults["t_grid"] = tuple(round(0.1 * i, 10) for i in range(11))
    defaults["energies"] = tuple(float(k) for k in range(1, n + 1))
    return defaults


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a flat JSON object")
        # the keys of a report's config echo, so an echo can be run again
        unknown = sorted(set(file_values) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise UsageError(f"unknown keys in config file {args.config}: {', '.join(unknown)}")
        command = file_values.get("command", args.command)
        if command != args.command:
            raise UsageError(f"config file {args.config} is for the {command} command")

    def pick(key, flag_value, convert, default=None):
        """The flag's value, else the file's, converted; else the default."""
        if flag_value is not None:
            value, name = flag_value, "--" + key.replace("_", "-")
        elif file_values.get(key) is not None:
            value, name = file_values[key], f"config file {args.config}, key {key!r}"
        else:
            return default
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"{name}: {exc}")

    n = pick("n", args.n, _integer, 1)
    defaults = _command_defaults(args.command, n)

    config = RunConfig(
        command=args.command,
        n=n,
        energies=pick("energies", args.energies, _parse_number_list, defaults["energies"]),
        t_grid=pick("t_grid", args.t_grid, _parse_number_list, defaults["t_grid"]),
        dt=pick("dt", args.dt, float, defaults["dt"]),
        paths=pick("paths", args.paths, _integer, defaults["paths"]),
        seed=pick("seed", args.seed, _integer),
        sigma=pick("sigma", args.sigma, str, defaults["sigma"]).replace("-", "_"),
        state=pick("state", args.state, str, defaults["state"]),
        format=pick("format", args.format, str, defaults["format"]),
        out=pick("out", args.out, str),
    )
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.sigma not in ("corrected", "paper_literal"):
        raise UsageError(f"unknown sigma convention {config.sigma!r}")
    if config.format not in ("json", "csv"):
        raise UsageError(f"unknown format {config.format!r}")
    if config.command in STOCHASTIC_COMMANDS and config.seed is None:
        raise UsageError(f"--seed is mandatory for the {config.command} command")
    if config.seed is not None and config.seed < 0:
        raise UsageError("--seed must be a non-negative integer")
    if config.command == "verify" and config.n > checks.MAX_VERIFY_MODES:
        raise UsageError(f"verify sweeps are bounded at n <= {checks.MAX_VERIFY_MODES}")
    if config.command == "spectrum" and config.n > MAX_SPECTRUM_MODES:
        raise UsageError(f"spectrum is bounded at n <= {MAX_SPECTRUM_MODES}")
    if config.command == "fk" and config.sigma != "corrected":
        raise UsageError("fk requires the corrected sigma convention")
    if not 0 < config.dt < np.inf:
        raise UsageError("--dt must be positive and finite")
    bad = [t for t in config.t_grid if not 0 <= t < np.inf]
    if config.command in ("fk", "calibrate") and bad:
        raise UsageError(f"--t-grid times must be finite and non-negative, got {bad}")
    if config.paths <= 0:
        raise UsageError("--paths must be positive")
    if config.out and not os.path.isdir(os.path.dirname(config.out) or "."):
        raise UsageError(f"--out {config.out}: its directory does not exist")
    try:
        hamiltonian.HamiltonianSpec(config.n, config.energies)
    except (SizeError, DomainError) as exc:
        raise UsageError(str(exc))


def _resolve_state(config: RunConfig) -> fock.FockVector:
    if config.state == "vacuum":
        return fock.vacuum(config.n)
    if config.state == "top":
        return fock.basis_vector(config.n, range(1, config.n + 1))
    try:
        modes = [int(part) for part in str(config.state).split(",") if part.strip()]
        return fock.basis_vector(config.n, modes)
    except (ValueError, IndexError) as exc:
        raise UsageError(f"cannot parse --state {config.state!r}: {exc}")


def cmd_verify(config: RunConfig):
    results = checks.run_verify(config.n, config.energies)
    rows = [asdict(r) for r in results]
    doc = {"config": config.echo(), "checks": rows}
    code = EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILURE
    return code, doc, ("name", "residual", "tolerance", "passed"), rows, None


def cmd_spectrum(config: RunConfig):
    spec = hamiltonian.HamiltonianSpec(config.n, config.energies)
    h = hamiltonian.quasi_hamiltonian(spec, so_algebra.spin_rep)
    eigs = np.sort(np.linalg.eigvalsh(h))
    sums = hamiltonian.subset_sums(spec)
    rows = [
        {
            "index": i,
            "eigenvalue": float(e),
            "subset_sum": float(s),
            "abs_error": float(abs(e - s)),
        }
        for i, (e, s) in enumerate(zip(eigs, sums))
    ]
    deviation = max((row["abs_error"] for row in rows), default=0.0)
    doc = {
        "config": config.echo(),
        "rows": rows,
        "residuals": {"max_spectrum_deviation": deviation},
    }
    code = EXIT_OK if deviation <= 1e-10 else EXIT_CHECK_FAILURE
    return code, doc, ("index", "eigenvalue", "subset_sum", "abs_error"), rows, {
        "max_spectrum_deviation": deviation
    }


def cmd_fk(config: RunConfig):
    if not config.t_grid:
        raise UsageError("fk compares at grid times, so --t-grid needs at least one time")
    spec = hamiltonian.HamiltonianSpec(config.n, config.energies)
    state = _resolve_state(config)
    report = feynman_kac.fk_report(
        state, state, spec, config.t_grid, config.paths, config.dt, config.seed
    )
    rows = [
        {
            "t": row.t,
            "lhs_re": row.lhs.real,
            "lhs_im": row.lhs.imag,
            "rhs_re": row.rhs_mean.real,
            "rhs_im": row.rhs_mean.imag,
            "std_error": row.std_error,
            "z": row.z_score,
        }
        for row in report
    ]
    doc = {"config": config.echo(), "rows": rows}
    return EXIT_OK, doc, ("t", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "std_error", "z"), rows, None


def cmd_calibrate(config: RunConfig):
    if len(set(config.t_grid)) < 2:
        raise UsageError("calibrate fits a rate, so --t-grid needs at least two distinct times")
    spec = hamiltonian.HamiltonianSpec(config.n, config.energies)
    curve = sde.decay_curve(
        spec, config.t_grid, config.paths, config.dt, config.seed, config.sigma
    )
    rate, rate_se = sde.fit_decay_rate(curve)
    total = sum(spec.energies)
    rows = [
        {"t": t, "corr_re": mean.real, "corr_im": mean.imag, "std_error": stderr}
        for t, mean, stderr in curve
    ]
    estimates = {
        "fitted_rate": rate,
        "rate_std_error": rate_se,
        "dropped_points": sum(not sde.usable_for_fit(row) for row in curve),
        "candidate_rate_corrected": 0.5 * total,
        "candidate_rate_paper_literal": 0.25 * total,
    }
    doc = {"config": config.echo(), "rows": rows, "estimates": estimates}
    return EXIT_OK, doc, ("t", "corr_re", "corr_im", "std_error"), rows, estimates


def cmd_haar_test(config: RunConfig):
    n = config.n
    n_samples = config.paths
    if n_samples < 100:
        raise UsageError(f"haar-test needs at least 100 paths, got {n_samples}")
    rng = np.random.default_rng(config.seed)
    dim = fock.fock_dim(n)
    top = fock.basis_vector(n, range(1, n + 1)).amplitudes

    entry_means = np.empty(n_samples)
    trace_sq = np.empty(n_samples)
    unitarity = 0.0
    deck = 0.0
    eye = np.eye(dim)
    for start, g, u in spin_group.haar_chunks(rng, n, n_samples, eye):
        rot = spin_group.haar_rotations(g)
        stop = start + len(rot)
        entry_means[start:stop] = rot.reshape(len(rot), -1).mean(axis=1)
        trace_sq[start:stop] = np.trace(rot, axis1=1, axis2=2) ** 2
        gram = np.conj(np.swapaxes(u, 1, 2)) @ u
        gram -= eye
        unitarity = max(unitarity, float(np.max(np.abs(gram))))
        # <vac, U vac>^* <vac, U top> against the same for the deck image -U
        a, b = np.conj(u[:, 0, 0]), u[:, 0] @ top
        fa, fb = np.conj(-u[:, 0, 0]), -u[:, 0] @ top
        deck = max(deck, float(np.max(np.abs(a * b - fa * fb))))

    vac = fock.vacuum(n)
    schur = spin_group.l2_inner_mc(vac, vac, n_samples, np.random.default_rng(config.seed + 1))

    def standard_error(values):
        return float(np.std(values, ddof=1) / np.sqrt(len(values)))

    def stat_check(name, mean, target, std_error):
        z = abs(mean - target) / std_error if std_error > 0 else float("inf")
        return {"name": name, "value": mean, "target": float(target), "std_error": std_error,
                "z": z, "passed": z <= 3.0}

    def exact_check(name, value, tolerance):
        return {"name": name, "value": value, "target": 0.0, "std_error": 0.0, "z": 0.0,
                "passed": value <= tolerance}

    # the Schur mean's imaginary part is exactly 0: conj(x) x cancels exactly
    rows = [
        stat_check("entry-mean", float(np.mean(entry_means)), 0.0, standard_error(entry_means)),
        stat_check("trace-moment", float(np.mean(trace_sq)), 1.0, standard_error(trace_sq)),
        stat_check("schur-inner-vacuum", schur.mean.real, 0.5**n, schur.std_error),
        exact_check("spin-unitarity", unitarity, 1e-10),
        exact_check("deck-invariance", deck, 1e-12),
    ]
    doc = {"config": config.echo(), "checks": rows}
    code = EXIT_OK if all(row["passed"] for row in rows) else EXIT_CHECK_FAILURE
    return code, doc, ("name", "value", "target", "std_error", "z", "passed"), rows, None


COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "fk": cmd_fk,
    "calibrate": cmd_calibrate,
    "haar-test": cmd_haar_test,
}


def _emit(config: RunConfig, doc: dict, fieldnames, rows, extra) -> None:
    if config.format == "json":
        text = report_io.render_json(doc) + "\n"
    else:
        text = report_io.render_csv(config.echo(), fieldnames, rows, extra)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {config.out}: {exc}")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, doc, fieldnames, rows, extra = COMMANDS[config.command](config)
        _emit(config, doc, fieldnames, rows, extra)
    except (UsageError, SizeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
