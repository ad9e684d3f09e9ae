"""Command-line driver: verification suites, spectra, calibration, and
Feynman-Kac experiments with machine-readable reports.

Subcommands: verify | spectrum | fk | calibrate | haar-test. ``FLAGS`` names
the flags each command reads; a command refuses any other flag, and a config
file may hold only ``command`` and those keys. A flag's string and a config
value pass through the same ``OPTIONS`` converter and the same ``_validate``,
which keeps only the rules the CLI alone knows; the library refuses the rest
(sigma, dt, the work budget, the path floors) before any draw. The mode count
is checked first, before any default is built from it. A report echoes
the command and the resolved value of each of its flags, so the echo runs
again as a config file, and identical configs give byte-identical reports.
Exit codes: 0 pass, 1 check failure, 2 usage/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import checks, feynman_kac, fock, hamiltonian, report_io, sde, so_algebra, spin_group
from .errors import DomainError, NumericError, SizeError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


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


# every flag: the conversion of its value, from a flag or a config file, and its help
OPTIONS = {
    "n": (_integer, "mode count"),
    "energies": (_parse_number_list, "comma list, e.g. 1,2"),
    "t_grid": (_parse_number_list, "comma list of times"),
    "dt": (float, "integrator step size"),
    "paths": (_integer, "Monte Carlo path/sample count"),
    "seed": (_integer, "master RNG seed"),
    "sigma": (lambda v: str(v).replace("-", "_"), "corrected | paper-literal (or paper_literal)"),
    "state": (str, "vacuum | top | comma list of modes"),
    "format": (str, "json | csv"),
    "out": (str, "output path (default stdout)"),
}

# the flags each command reads, in the order of its config echo
FLAGS = {
    "verify": ("n", "energies", "format", "out"),
    "spectrum": ("n", "energies", "format", "out"),
    "fk": ("n", "energies", "t_grid", "dt", "paths", "seed", "state", "format", "out"),
    "calibrate": ("n", "energies", "t_grid", "dt", "paths", "seed", "sigma", "format", "out"),
    "haar-test": ("n", "paths", "seed", "format", "out"),
}


@functools.cache
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
        for key in FLAGS[name]:
            flag = "--" + key.replace("_", "-")
            cmd.add_argument(flag, dest=key, default=None, help=OPTIONS[key][1])
        cmd.add_argument("--config", default=None, help="flat JSON config file")
    return parser


def _defaults(command: str, n: int) -> dict:
    defaults = {
        "energies": tuple(float(k) for k in range(1, n + 1)),
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
    return defaults


def _read_config_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            values = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(values, dict):
        raise UsageError("config file must hold a flat JSON object")
    # the keys of a report's config echo, so an echo can be run again
    named = values.get("command", command)
    if named != command:
        raise UsageError(f"config file {path} is for the {named} command")
    unknown = sorted(set(values) - {"command", *FLAGS[command]})
    if unknown:
        raise UsageError(f"unknown keys in config file {path}: {', '.join(unknown)}")
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """The command and the value of each flag it reads: flag, else config file, else default."""
    file_values = {} if args.config is None else _read_config_file(args.config, args.command)

    def pick(key, default):
        flag_value = getattr(args, key)
        if flag_value is not None:
            value, name = flag_value, "--" + key.replace("_", "-")
        elif file_values.get(key) is not None:
            value, name = file_values[key], f"config file {args.config}, key {key!r}"
        else:
            return default
        try:
            return OPTIONS[key][0](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"{name}: {exc}")

    # n comes first in every command's flags: the default energies depend on it
    config = {"command": args.command, "n": pick("n", 1)}
    fock.check_mode_count(config["n"])
    defaults = _defaults(args.command, config["n"])
    for key in FLAGS[args.command][1:]:
        config[key] = pick(key, defaults[key])
    _validate(config)
    return config


def _validate(config: dict) -> None:
    command, n = config["command"], config["n"]
    if config["format"] not in ("json", "csv"):
        raise UsageError(f"--format must be json or csv, got {config['format']!r}")
    if "seed" in config and config["seed"] is None:
        raise UsageError(f"--seed is mandatory for the {command} command")
    if "seed" in config and config["seed"] < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {config['seed']}")
    bad = [t for t in config.get("t_grid", ()) if not 0 <= t < np.inf]
    if bad:
        raise UsageError(f"--t-grid times must be finite and non-negative, got {bad}")
    if config["out"] and not os.path.isdir(os.path.dirname(config["out"]) or "."):
        raise UsageError(f"--out {config['out']}: its directory does not exist")
    if "energies" in config:
        hamiltonian.HamiltonianSpec(n, config["energies"])


def _resolve_state(config: dict) -> fock.FockVector:
    n, state = config["n"], config["state"]
    if state == "vacuum":
        return fock.vacuum(n)
    if state == "top":
        return fock.basis_vector(n, range(1, n + 1))
    try:
        modes = [int(part) for part in str(state).split(",") if part.strip()]
        return fock.basis_vector(n, modes)
    except (ValueError, IndexError) as exc:
        raise UsageError(f"cannot parse --state {state!r}: {exc}")


def cmd_verify(config: dict):
    results = checks.run_verify(config["n"], config["energies"])
    doc = {"config": config, "checks": [asdict(r) for r in results]}
    return (EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILURE), doc


def cmd_spectrum(config: dict):
    spec = hamiltonian.HamiltonianSpec(config["n"], config["energies"])
    # the spin H is diagonal, so its eigenvalues are its diagonal, sorted
    eigs = np.sort(hamiltonian.quasi_hamiltonian(spec, so_algebra.spin_diagonal).real)
    sums = hamiltonian.subset_sums(spec)
    rows = [
        {"index": i, "eigenvalue": float(e), "subset_sum": float(s), "abs_error": float(abs(e - s))}
        for i, (e, s) in enumerate(zip(eigs, sums))
    ]
    deviation = max((row["abs_error"] for row in rows), default=0.0)
    doc = {"config": config, "rows": rows, "residuals": {"max_spectrum_deviation": deviation}}
    return (EXIT_OK if deviation <= 1e-10 else EXIT_CHECK_FAILURE), doc


def cmd_fk(config: dict):
    if not config["t_grid"]:
        raise UsageError("fk compares at grid times, so --t-grid needs at least one time")
    spec = hamiltonian.HamiltonianSpec(config["n"], config["energies"])
    state = _resolve_state(config)
    report = feynman_kac.fk_report(
        state, state, spec, config["t_grid"], config["paths"], config["dt"], config["seed"]
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
    return EXIT_OK, {"config": config, "rows": rows}


def cmd_calibrate(config: dict):
    if len(set(config["t_grid"])) < 3:
        raise UsageError("calibrate fits a rate and its error, so --t-grid needs three distinct times")
    spec = hamiltonian.HamiltonianSpec(config["n"], config["energies"])
    curve = sde.decay_curve(
        spec, config["t_grid"], config["paths"], config["dt"], config["seed"], config["sigma"]
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
    return EXIT_OK, {"config": config, "rows": rows, "estimates": estimates}


def cmd_haar_test(config: dict):
    n, n_samples = config["n"], config["paths"]
    if n_samples < 100:
        raise UsageError(f"haar-test needs at least 100 paths, got {n_samples}")
    # each sample lifts the 2^n x 2^n identity, at most 2N - 1 reflections of its
    # rows, and takes its Gram matrix U^H U, 2^n more; 100 samples take 1.6 / 4.2 s
    # at n = 7 / 8 on one core, and n = 9 (1.4e10) is refused
    N, dim = 2 * n + 1, fock.fock_dim(n)
    fock.check_work("samples x (2N - 1 + 2^n) x 4^n", float(n_samples) * (2 * N - 1 + dim) * dim**2)
    eye = np.eye(dim)
    entry_mean, trace_moment, schur = (spin_group.BlockReducer(n_samples) for _ in range(3))
    # the covering relation U spin(X) = spin(R X R^T) U on the vacuum row, for
    # one fixed X = sum_jk x_jk X_jk: both deck signs satisfy it, a wrong lift fails;
    # the vacuum rows e_0^T spin(X_jk) are copied, so no image outlives its row
    syms = so_algebra.symbols(n)
    j, k = np.array(syms).T - 1
    vacuum_rows = np.stack(
        [so_algebra.spin_rep(so_algebra.basis_element(n, *sym))[0].copy() for sym in syms])
    coeffs = np.random.default_rng(0).standard_normal(len(syms))
    x = np.zeros((N, N))
    x[j, k], x[k, j] = coeffs, -coeffs
    spin_x = so_algebra.spin_rep(
        so_algebra.UEAPolynomial(n, {(sym,): c for sym, c in zip(syms, coeffs)}))

    def check_chunk(factors, u):
        """Feed the chunk's rows to the reducers; its worst cover and unitarity gaps."""
        rot = spin_group.haar_rotations(factors)
        entry_mean.add(rot.reshape(len(rot), -1).mean(axis=1))
        trace_moment.add(np.trace(rot, axis1=1, axis2=2) ** 2)
        schur.add(np.conj(u[:, 0, 0]) * u[:, 0, 0])  # real, and 2^{-n} on average by Schur
        rotated_row = (rot @ x @ np.swapaxes(rot, 1, 2))[:, j, k] @ vacuum_rows
        gap = u[:, 0] @ spin_x - np.einsum("pa,pab->pb", rotated_row, u)
        gram = np.conj(np.swapaxes(u, 1, 2)) @ u
        gram -= eye
        return float(np.max(np.abs(gap))), float(np.max(np.abs(gram)))

    cover = unitarity = 0.0
    rng = np.random.default_rng(config["seed"])
    for gaps in spin_group.haar_chunks(rng, n, n_samples, eye, check_chunk):
        cover, unitarity = max(cover, gaps[0]), max(unitarity, gaps[1])

    def stat_check(name, estimate, target):
        mean, std_error = estimate.mean.real, estimate.std_error
        z = abs(mean - target) / std_error if std_error > 0 else float("inf")
        return {"name": name, "value": mean, "target": float(target), "std_error": std_error,
                "z": z, "passed": z <= 3.0}

    def exact_check(name, value, tolerance):
        return {"name": name, "value": value, "target": 0.0, "std_error": 0.0, "z": 0.0,
                "passed": value <= tolerance}

    rows = [
        stat_check("entry-mean", entry_mean.estimate(), 0.0),
        stat_check("trace-moment", trace_moment.estimate(), 1.0),
        stat_check("schur-inner-vacuum", schur.estimate(), 0.5**n),
        exact_check("spin-unitarity", unitarity, 1e-10),
        exact_check("spin-cover", cover, 1e-12),
    ]
    doc = {"config": config, "checks": rows}
    return (EXIT_OK if all(row["passed"] for row in rows) else EXIT_CHECK_FAILURE), doc


COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "fk": cmd_fk,
    "calibrate": cmd_calibrate,
    "haar-test": cmd_haar_test,
}


def _emit(doc: dict) -> None:
    config = doc["config"]
    if config["format"] == "json":
        text = report_io.render_json(doc) + "\n"
    else:
        text = report_io.render_csv(doc)
    if config["out"]:
        try:
            with open(config["out"], "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {config['out']}: {exc}")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        code, doc = COMMANDS[config["command"]](config)
        _emit(doc)
    except (UsageError, SizeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
