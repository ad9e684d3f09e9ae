import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import spinfock
from dense_reference import dense
from spinfock import checks, cli, fock, hamiltonian, report_io, sde, so_algebra, spin_group
from spinfock.errors import NumericError


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_to_draw(*args):
    raise AssertionError("a path was drawn")


def chunk_size(factors, lifted):
    """A read of spin_group.haar_chunks: the number of samples in the chunk."""
    return len(lifted)


# the flags each command reads, in the order of its config echo
READS = {
    "verify": ["n", "energies", "format", "out"],
    "spectrum": ["n", "energies", "format", "out"],
    "fk": ["n", "energies", "t_grid", "dt", "paths", "seed", "state", "format", "out"],
    "calibrate": ["n", "energies", "t_grid", "dt", "paths", "seed", "sigma", "format", "out"],
    "haar-test": ["n", "paths", "seed", "format", "out"],
}

# a valid value of every flag
FLAG_VALUES = {
    "n": "1", "energies": "1", "t_grid": "0.05", "dt": "0.005", "paths": "200", "seed": "1",
    "sigma": "corrected", "state": "top", "format": "json", "out": "report.json",
}

# a short passing run of each command
RUNS = {
    "verify": ["--n", "1"],
    "spectrum": ["--n", "2"],
    "fk": ["--n", "1", "--t-grid", "0.05", "--paths", "200", "--seed", "5", "--dt", "0.005"],
    "calibrate": ["--n", "1", "--t-grid", "0,0.05,0.1", "--paths", "200", "--seed", "5",
                  "--dt", "0.005"],
    "haar-test": ["--n", "1", "--paths", "200", "--seed", "5"],
}


class TestVerify:
    def test_passes_small_modes(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, ["verify", "--n", "1"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0
        doc = json.loads(out)
        assert all(check["passed"] for check in doc["checks"])
        assert {c["name"] for c in doc["checks"]} >= {"car", "homomorphism-spin"}

    def test_passes_two_modes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--energies", "1,2"])
        assert code == 0
        doc = json.loads(out)
        assert all(check["passed"] for check in doc["checks"])
        assert max(c["residual"] for c in doc["checks"]) < 1e-10

    def test_default_energies_echoed(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "2"])
        assert code == 0
        assert json.loads(out)["config"]["energies"] == [1.0, 2.0]

    def test_corrupted_structure_constant_fails_named_check(self, capsys, monkeypatch):
        bracket_symbols = checks.so_algebra.bracket_symbols

        def corrupted(a, b):
            terms = bracket_symbols(a, b)
            if (a, b) == ((1, 2), (2, 3)):
                return tuple((sym, -sign) for sym, sign in terms)
            return terms

        with monkeypatch.context() as patch:
            patch.setattr(checks.so_algebra, "bracket_symbols", corrupted)
            structure = checks.structure_constants(1)
        monkeypatch.setattr(checks, "structure_constants", lambda _: structure)
        code, out, _ = run_cli(capsys, ["verify", "--n", "1"])
        assert code == 1
        doc = json.loads(out)
        failing = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failing == ["homomorphism-defining", "homomorphism-spin"]

    def test_mode_count_bound(self, capsys, monkeypatch):
        # no spin row builds a dense matrix, so the mode count alone bounds verify
        monkeypatch.setattr(
            hamiltonian, "build_parts", lambda *args: pytest.fail("matrices were built")
        )
        code, out, err = run_cli(capsys, ["verify", "--n", str(fock.MAX_MODES + 1)])
        assert code == 2
        assert out == ""
        assert f"in [1, {fock.MAX_MODES}]" in err

    def test_bad_energies(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--n", "2", "--energies", "2,1"])
        assert code == 2


class TestSpectrum:
    def test_matches_subset_sums(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--n", "3", "--energies", "1,1.5,2.5"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 8
        assert doc["residuals"]["max_spectrum_deviation"] <= 1e-10

    def test_builds_only_h(self, capsys, monkeypatch):
        # the eigenvalues need H alone, not P0, B0 and the per-mode parts
        monkeypatch.setattr(
            hamiltonian, "build_parts", lambda *args: pytest.fail("all parts were built")
        )
        code, out, _ = run_cli(capsys, ["spectrum", "--n", "3"])
        assert code == 0
        assert json.loads(out)["residuals"]["max_spectrum_deviation"] <= 1e-10

    def test_mode_count_bound_before_building(self, capsys, monkeypatch):
        monkeypatch.setattr(
            hamiltonian, "build_parts", lambda *args: pytest.fail("matrices were built")
        )
        code, out, err = run_cli(capsys, ["spectrum", "--n", str(fock.MAX_MODES + 1)])
        assert code == 2
        assert out == ""
        assert f"in [1, {fock.MAX_MODES}]" in err

    def test_unscaled_diagonal_fails_spectrum_and_verify(self, capsys, monkeypatch):
        # a spin_diagonal that drops each word's 2^-m factor
        diagonal = so_algebra.spin_diagonal

        def unscaled(elem):
            out = np.zeros(fock.fock_dim(elem.n), dtype=complex)
            for word, coeff in elem.terms.items():
                out += 2 ** len(word) * diagonal(so_algebra.UEAPolynomial(elem.n, {word: coeff}))
            return out

        monkeypatch.setattr(so_algebra, "spin_diagonal", unscaled)
        code, out, _ = run_cli(capsys, ["spectrum", "--n", "3"])
        assert code == 1
        assert json.loads(out)["residuals"]["max_spectrum_deviation"] > 1e-10
        code, out, _ = run_cli(capsys, ["verify", "--n", "2"])
        assert code == 1
        failing = [row["name"] for row in json.loads(out)["checks"] if not row["passed"]]
        # the rows that read spin diagonals: H_j's weights, H against P0 + i B0, H's spectrum,
        # and H against products of the vector-type images, which spin_flip still scales
        assert failing == [
            "cartan-weights", "hamiltonian-decomposition", "spectrum-subset-sums", "factorized-identity"
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "3"],
        ["spectrum", "--n", "10"],
        ["spectrum", "--n", str(fock.MAX_MODES)],
        ["fk", "--n", "1", "--paths", "200", "--t-grid", "0.05,0.1", "--dt", "5e-3", "--seed", "1"],
        ["fk", "--n", "4", "--paths", "200", "--t-grid", "0.05,0.1", "--dt", "5e-3", "--seed", "1"],
    ],
)
def test_no_eigendecomposition_on_command_path(capsys, monkeypatch, argv):
    # H and the first-order part are diagonal in the spin representation
    _, plain, _ = run_cli(capsys, argv)

    def refuse(*args, **kwargs):
        raise AssertionError("an eigendecomposition on the command path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == plain


@pytest.mark.parametrize(
    ("argv", "sha256"),
    [
        (
            ["spectrum", "--n", "10", "--energies", "0.48,0.85,1.22,1.59,1.96,2.33,2.7,3.07,3.44,3.81",
             "--format", "csv"],
            "185408730720665a6862906d3d6e4bb543dc7c3f5ca4f6254e141237f042a2c5",
        ),
        (["verify", "--n", "4", "--format", "csv"], "fb47d0efe51f04bc51e77e24af7ab655038c224d7085fb05fe88fa6001da721c"),
        (
            ["verify", "--n", "3", "--energies", "0.1,0.7,1.3", "--format", "csv"],
            "3bb900de83f94560cee7cb47982f7053bcdf2e7c25160bd056587168ce130df8",
        ),
        (["verify", "--n", "8", "--format", "csv"], "69c3c49d9d2de52a158b42cde9a4546b4ac546e201ae3e2df371dd653db8dc4e"),
        (["verify", "--n", "12", "--format", "csv"], "a178520758cf97fc407b66c20db5953cc6293e9dff2ce3b48b04f15d7c58ed83"),
    ],
)
def test_report_bytes_pinned(capsys, argv, sha256):
    # these reports take elementwise or exact arithmetic alone, so their bytes hold on every
    # numpy and BLAS: a rewrite of the exact layer must leave them as they are. The energies
    # 0.1, 0.7, 1.3 give the enveloping algebra non-integral Fraction coefficients.
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestFK:
    def test_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, ["fk", "--n", "1"])
        assert code == 2
        assert "seed" in err

    def test_rejects_drifted_process(self):
        # there is no process to choose: the flag is unknown
        with pytest.raises(SystemExit) as exc:
            cli.main(["fk", "--n", "1", "--seed", "1", "--process", "p"])
        assert exc.value.code == 2

    def test_repeated_grid_time(self, capsys, monkeypatch):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(
            capsys,
            ["fk", "--n", "1", "--t-grid", "0.25,0.25", "--paths", "1000", "--seed", "1",
             "--dt", "0.005"],
        )
        assert code == 2
        assert out == ""
        assert "distinct" in err

    def test_refuses_empty_grid_before_drawing(self, capsys, monkeypatch):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(
            capsys, ["fk", "--n", "1", "--t-grid=", "--paths", "5", "--seed", "1"]
        )
        assert code == 2
        assert out == ""
        assert "at least one time" in err

    def test_rejects_literal_sigma(self):
        # fk runs the corrected convention only, so it has no --sigma flag
        with pytest.raises(SystemExit) as exc:
            cli.main(["fk", "--n", "1", "--seed", "1", "--sigma", "paper-literal"])
        assert exc.value.code == 2

    def test_report_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["fk", "--n", "1", "--t-grid", "0.0,0.05", "--paths", "300", "--seed", "4", "--dt", "0.005"],
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["t"] for row in doc["rows"]] == [0.0, 0.05]
        for row in doc["rows"]:
            assert set(row) == {"t", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "std_error", "z"}

    def test_byte_identical_reports(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        argv = [
            "fk", "--n", "1", "--t-grid", "0.05", "--paths", "300", "--seed", "9",
            "--dt", "0.005", "--out", str(out_path),
        ]
        assert run_cli(capsys, argv)[0] == 0
        first = out_path.read_bytes()
        assert run_cli(capsys, argv)[0] == 0
        assert out_path.read_bytes() == first

    def test_state_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["fk", "--n", "2", "--state", "vacuum", "--t-grid", "0.0", "--paths", "200",
             "--seed", "2", "--dt", "0.005"],
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["lhs_re"] == pytest.approx(0.25)

    def test_state_mode_list(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["fk", "--n", "2", "--energies", "1,2", "--state", "2", "--t-grid", "0.0",
             "--paths", "200", "--seed", "2", "--dt", "0.005"],
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["lhs_re"] == pytest.approx(0.25)
        code, _, _ = run_cli(capsys, ["fk", "--n", "2", "--state", "5", "--seed", "1"])
        assert code == 2

    def test_non_finite_estimate_is_numeric_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sde, "correlations", lambda *args: [(0.05, complex("nan"), math.nan)]
        )
        code, out, err = run_cli(
            capsys, ["fk", "--n", "1", "--t-grid", "0.05", "--paths", "200", "--seed", "1"]
        )
        assert code == 3
        assert out == ""
        assert "non-finite" in err


class TestOutPath:
    def test_missing_directory_refused_before_drawing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(
            capsys, ["fk", "--n", "1", "--paths", "200", "--seed", "1", "--out", str(target)]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "does not exist" in err
        assert not target.parent.exists()

    def test_failed_write_is_usage_error(self, capsys, tmp_path):
        # the directory exists, so the run goes ahead and opening a directory fails
        code, out, err = run_cli(capsys, ["verify", "--n", "1", "--out", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cannot write" in err


class TestCalibrate:
    def test_reports_candidates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["calibrate", "--n", "1", "--paths", "500", "--seed", "3",
             "--t-grid", "0.0,0.5,1.0", "--dt", "0.005"],
        )
        assert code == 0
        estimates = json.loads(out)["estimates"]
        assert estimates["candidate_rate_corrected"] == pytest.approx(0.5)
        assert estimates["candidate_rate_paper_literal"] == pytest.approx(0.25)
        assert "fitted_rate" in estimates and "rate_std_error" in estimates

    def test_requires_noise_only_process(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["calibrate", "--n", "1", "--seed", "3", "--process", "p"])
        assert exc.value.code == 2

    def test_repeated_grid_time(self, capsys, monkeypatch):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(
            capsys,
            ["calibrate", "--n", "1", "--t-grid", "0.0,0.05,0.05,0.1", "--paths", "300",
             "--seed", "3", "--dt", "0.005"],
        )
        assert code == 2
        assert out == ""
        assert "distinct" in err

    @pytest.mark.parametrize("grid", ["", "0.1", "0.1,0.1", "0,0.1", "0,0.1,0.1"])
    def test_refuses_short_grid_before_drawing(self, capsys, monkeypatch, grid):
        # a line through two times fits exactly, with no residual to give its error
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(
            capsys, ["calibrate", "--n", "1", "--t-grid=" + grid, "--seed", "1", "--dt", "0.005"]
        )
        assert code == 2
        assert out == ""
        assert "three distinct times" in err

    def test_path_floor_before_drawing(self, capsys, monkeypatch):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(
            capsys,
            ["calibrate", "--n", "1", "--paths", "1", "--seed", "1", "--t-grid", "0,0.05,0.1"],
        )
        assert code == 2
        assert out == ""
        assert "at least 100 paths" in err

    def test_negative_grid_time(self, capsys, monkeypatch):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(
            capsys,
            ["calibrate", "--n", "1", "--t-grid=-0.1,0.0", "--paths", "200", "--seed", "1",
             "--dt", "0.005"],
        )
        assert code == 2
        assert out == ""
        assert "negative" in err and "multiple" not in err

    @pytest.mark.parametrize("grid", ["nan", "-0.1"])
    def test_bad_grid_time_named_before_count(self, capsys, monkeypatch, grid):
        # one time is also too few to fit, but the bad time is the fault named
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(capsys, ["calibrate", "--n", "1", "--t-grid=" + grid, "--seed", "1"])
        assert code == 2
        assert out == ""
        assert "finite and non-negative" in err

    def test_reports_dropped_fit_points(self, capsys, monkeypatch):
        curve = [(t, 0.5 * math.exp(-0.5 * t) + 0j, 0.01) for t in (0.0, 0.5, 1.0)]
        curve.append((1.5, -0.01 + 0j, 0.01))
        monkeypatch.setattr(sde, "decay_curve", lambda *args: curve)
        code, out, _ = run_cli(capsys, ["calibrate", "--n", "1", "--seed", "3"])
        assert code == 0
        estimates = json.loads(out)["estimates"]
        assert estimates["dropped_points"] == 1
        assert estimates["fitted_rate"] == pytest.approx(0.5, abs=1e-12)


class TestNonFinite:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fk", "--t-grid", "nan"],
            ["fk", "--t-grid", "inf"],
            ["calibrate", "--t-grid", "0,nan"],
            ["fk", "--t-grid", "0.01", "--energies", "nan"],
            ["fk", "--t-grid", "0.01", "--energies", "inf"],
            ["calibrate", "--energies", "inf"],
            ["fk", "--t-grid", "0.01", "--dt", "inf"],
            ["calibrate", "--dt", "nan"],
        ],
    )
    def test_refused_before_drawing(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(capsys, argv + ["--n", "1", "--paths", "200", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "command, grid", [("fk", "0.01"), ("calibrate", "0,0.005,0.01")], ids=["fk", "calibrate"]
    )
    def test_subnormal_dt_refused_before_drawing(self, capsys, monkeypatch, command, grid):
        # 0 < dt < inf, but 0.01 / 5e-324 overflows: no finite step count
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        argv = [command, "--n", "1", "--paths", "200", "--t-grid", grid, "--dt", "5e-324", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "t/dt finite" in err


class TestWorkBudget:
    @pytest.mark.parametrize(
        "command, grid", [("fk", "0.01"), ("calibrate", "0,0.005,0.01")], ids=["fk", "calibrate"]
    )
    def test_tiny_dt_refused_before_drawing(self, capsys, monkeypatch, command, grid):
        # t/dt = 1e298 is finite, but 200 paths x 1e298 steps x 2^1 is over the budget
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        argv = [command, "--n", "1", "--paths", "200", "--t-grid", grid, "--dt", "1e-300", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "exceeds the budget" in err

    def test_budget_is_inclusive(self, capsys, monkeypatch):
        # 200 paths x (10 steps + 9 reflections of the lift, 2N - 1 at N = 5) x 2^2
        # = 15200 amplitude updates
        argv = ["fk", "--n", "2", "--paths", "200", "--t-grid", "0.01", "--dt", "1e-3", "--seed", "1"]
        monkeypatch.setattr(fock, "MAX_AMPLITUDE_STEPS", 15200)
        assert run_cli(capsys, argv)[0] == 0
        monkeypatch.setattr(fock, "MAX_AMPLITUDE_STEPS", 15199)
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "= 15200 exceeds the budget of 15199" in err

    @pytest.mark.parametrize("command", ["fk", "haar-test"])
    def test_lift_counted_before_drawing(self, capsys, monkeypatch, command):
        # fk at t = 0 takes no step, but each of 10^12 paths is lifted: 5 reflections
        # of a 2-entry row (1e13 updates); haar-test lifts 2 x 2 matrices (2e13)
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        monkeypatch.setattr(spin_group, "haar_lift", refuse_to_draw)
        grid = ["--t-grid", "0"] if command == "fk" else []
        argv = [command, "--n", "1", *grid, "--paths", str(10**12), "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "exceeds the budget" in err

    def test_message_shows_the_excess(self, capsys, monkeypatch):
        # one sample over the bound at n = 6: 27432 x (25 + 64) x 4^6 is 1.00002e10
        monkeypatch.setattr(spin_group, "haar_lift", refuse_to_draw)
        code, _, err = run_cli(capsys, ["haar-test", "--n", "6", "--paths", "27432", "--seed", "1"])
        assert code == 2
        count, budget = (float(part.split()[-1]) for part in err.split(" exceeds the budget of "))
        assert (count, budget) == (27432 * 89 * 4**6, fock.MAX_AMPLITUDE_STEPS)
        assert count > budget

    def test_long_grid_refused_before_drawing(self, capsys, monkeypatch):
        # 2000 grid times at n = 12: the engine counts the run before any read
        # forms a phase, and no grid time has a phase of its own
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        grid = ",".join(str(round(1e-3 * s, 3)) for s in range(1, 2001))
        argv = ["fk", "--n", "12", "--paths", "100000", "--dt", "1e-3", "--t-grid", grid, "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "exceeds the budget" in err


class TestMalformedNumbers:
    # exit 1 means a failed check, so a number that does not parse is a
    # usage error, named by its flag or config key
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify", "--energies", "1,x"], "--energies"),
            (["fk", "--t-grid", "0.1,a", "--seed", "1"], "--t-grid"),
        ],
    )
    def test_flag(self, capsys, monkeypatch, argv, name):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert name in err

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"n": "abc"}, "'n'"),
            ({"n": 2.7}, "'n'"),
            ({"paths": 300.5}, "'paths'"),
            ({"seed": 1.5}, "'seed'"),
        ],
    )
    def test_config_value(self, capsys, monkeypatch, tmp_path, values, key):
        # haar-test reads n, paths and seed
        monkeypatch.setattr(spin_group, "haar_lift", refuse_to_draw)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, ["haar-test", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert key in err and "run.json" in err

    def test_integral_config_value_runs(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2.0, "seed": "3"}))
        code, out, _ = run_cli(capsys, ["haar-test", "--config", str(cfg)])
        assert code == 0
        config = json.loads(out)["config"]
        assert config["n"] == 2 and config["seed"] == 3


class TestHaarTest:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, ["haar-test", "--n", "1", "--paths", "400", "--seed", "6"])
        assert code == 0
        names = {c["name"] for c in json.loads(out)["checks"]}
        assert names == {
            "entry-mean", "trace-moment", "schur-inner-vacuum", "spin-unitarity", "spin-cover",
        }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unitary_wrong_lift_fails_spin_cover(self, capsys, monkeypatch, n):
        # U gamma_1 is unitary, but it covers R composed with a reflection, not R
        lift = spin_group.haar_lift
        monkeypatch.setattr(spin_group, "haar_lift", lambda f, rows: lift(f, rows) @ dense(fock.monomial((1,), n)))
        code, out, _ = run_cli(capsys, ["haar-test", "--n", str(n), "--paths", "400", "--seed", "6"])
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 1
        assert checks["spin-unitarity"]["passed"]
        assert not checks["spin-cover"]["passed"] and checks["spin-cover"]["value"] > 0.1

    @pytest.mark.parametrize("n", [1, 2])
    def test_report_does_not_depend_on_chunk_size(self, capsys, monkeypatch, n):
        # 1440 bytes hold 20 samples a chunk at n = 1 (72 bytes of the N x N
        # stacks each) and 5 at n = 2 (256 bytes of rows each), so the
        # reducer's blocks straddle chunks; 2500 paths end on a partial block
        argv = ["haar-test", "--n", str(n), "--paths", "2500", "--seed", "3"]
        code, default, _ = run_cli(capsys, argv)
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 1440)
        eye = np.eye(1 << n)
        assert next(spin_group.haar_chunks(np.random.default_rng(0), n, 100, eye, chunk_size)) <= 20
        assert run_cli(capsys, argv) == (code, default, "")

    @pytest.mark.parametrize("n", [1, 2])
    def test_schur_row_reads_the_lifted_samples(self, capsys, n):
        # the row reduces conj(U_00) U_00 of the spin matrices the run lifts
        # from its own stream; a second draw, as from seed + 1, differs
        N, paths, seed = 2 * n + 1, 2500, 4
        argv = ["haar-test", "--n", str(n), "--paths", str(paths), "--seed", str(seed)]
        code, out, _ = run_cli(capsys, argv)
        row = {c["name"]: c for c in json.loads(out)["checks"]}["schur-inner-vacuum"]

        def schur(rng):
            g = rng.standard_normal((paths, N, N))
            u = spin_group.haar_lift(spin_group.haar_factors(g), np.eye(1 << n))
            reducer = spin_group.BlockReducer(paths)
            reducer.add(np.conj(u[:, 0, 0]) * u[:, 0, 0])
            estimate = reducer.estimate()
            return estimate.mean.real, estimate.std_error

        assert code == 0
        assert (row["value"], row["std_error"]) == schur(np.random.default_rng(seed))
        assert row["value"] != schur(np.random.default_rng(seed + 1))[0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_factorization_per_chunk(self, capsys, monkeypatch, n):
        # the rotations and the lift of a chunk read one raw QR; no determinant
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 1440)
        rng, eye = np.random.default_rng(0), np.eye(1 << n)
        sizes = list(spin_group.haar_chunks(rng, n, 300, eye, chunk_size))
        qr, modes, dets = np.linalg.qr, [], []

        def counted_qr(a, mode="reduced"):
            modes.append(mode)
            return qr(a, mode)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(np.linalg, "det", dets.append)
        code, _, _ = run_cli(capsys, ["haar-test", "--n", str(n), "--paths", "300", "--seed", "1"])
        assert code == 0
        assert len(sizes) > 1 and modes == ["raw"] * len(sizes)
        assert dets == []

    def test_memory_does_not_grow_with_path_count(self, capsys):
        # every row is reduced chunk by chunk, so four chunks of samples cost
        # no more memory than one
        chunk = next(spin_group.haar_chunks(np.random.default_rng(0), 1, 10**6, np.eye(2), chunk_size))

        def peak(paths):
            tracemalloc.start()
            try:
                cli.main(["haar-test", "--n", "1", "--paths", str(paths), "--seed", "2"])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(100)  # one-time allocations
        assert peak(4 * chunk) <= 1.1 * peak(chunk)

    def test_sample_floor_before_drawing(self, capsys, monkeypatch):
        monkeypatch.setattr(spin_group, "haar_lift", refuse_to_draw)
        code, out, err = run_cli(capsys, ["haar-test", "--n", "8", "--paths", "99", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert "at least 100 paths" in err

    def test_mode_bound_before_drawing(self, capsys, monkeypatch):
        # the work count bounds the modes: at the 100-path floor, n = 9 takes
        # 100 x (2N - 1 + 2^n) x 4^n = 100 x 549 x 4^9, counted before any image
        # or sample is built
        monkeypatch.setattr(so_algebra, "spin_rep", refuse_to_draw)
        monkeypatch.setattr(spin_group, "haar_lift", refuse_to_draw)
        argv = ["haar-test", "--n", "9", "--paths", "100", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "= 14391705600 exceeds the budget" in err

    def test_mode_bound_is_inclusive(self, capsys, monkeypatch):
        # 200 samples x (5 reflections + 2 Gram columns) x 4 = 5600 at n = 1
        monkeypatch.setattr(fock, "MAX_AMPLITUDE_STEPS", 5600)
        assert run_cli(capsys, ["haar-test", *RUNS["haar-test"]])[0] == 0
        monkeypatch.setattr(fock, "MAX_AMPLITUDE_STEPS", 5599)
        monkeypatch.setattr(so_algebra, "spin_rep", refuse_to_draw)
        monkeypatch.setattr(spin_group, "haar_lift", refuse_to_draw)
        code, out, err = run_cli(capsys, ["haar-test", *RUNS["haar-test"]])
        assert code == 2
        assert out == ""
        assert "= 5600 exceeds the budget of 5599" in err

    def test_seven_modes_pass(self, capsys):
        # the largest sample count the budget admits at n = 7 is 3887
        code, out, _ = run_cli(capsys, ["haar-test", "--n", "7", "--paths", "100", "--seed", "1"])
        assert code == 0
        assert all(c["passed"] for c in json.loads(out)["checks"])


class TestParser:
    def test_commands_share_one_parser(self, capsys):
        cli.build_parser.cache_clear()
        assert run_cli(capsys, ["verify", "--n", "1"])[0] == 0
        assert run_cli(capsys, ["haar-test", *RUNS["haar-test"]])[0] == 0
        assert cli.build_parser.cache_info().misses == 1


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        src = os.path.dirname(os.path.dirname(spinfock.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, spinfock, spinfock.cli; spinfock.cli.build_parser(); "
            "assert spinfock.cli.main(['verify', '--n', '1']) == 0; "
            "assert spinfock.cli.main(['fk', '--n', '1', '--t-grid', '0.05', '--paths', '200', "
            "'--seed', '1', '--dt', '0.005']) == 0; "
            "sys.exit('scipy' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=60, stdout=subprocess.DEVNULL
        )
        assert result.returncode == 0


class TestConfigResolution:
    def test_config_file_with_cli_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 1, "paths": 300, "seed": 5, "t_grid": "0.05", "dt": 0.005}))
        code, out, _ = run_cli(capsys, ["fk", "--config", str(cfg), "--paths", "200"])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["paths"] == 200  # flag wins
        assert doc["config"]["seed"] == 5  # file supplies the rest

    @pytest.mark.parametrize("command", ["verify", "fk", "haar-test"])
    def test_mode_count_checked_before_defaults(self, capsys, monkeypatch, command):
        # the default energies are n floats, so an unchecked n of 10^12 would
        # exhaust memory before any refusal
        monkeypatch.setattr(cli, "_defaults", lambda *args: pytest.fail("a default was built"))
        seed = [] if command == "verify" else ["--seed", "1"]
        code, out, err = run_cli(capsys, [command, "--n", str(10**12), *seed])
        assert code == 2
        assert out == ""
        assert f"in [1, {fock.MAX_MODES}], got {10**12}" in err

    @pytest.mark.parametrize("key", ["pths", "process"])
    def test_unknown_config_key(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 1, "seed": 5, key: 300 if key == "pths" else "p"}))
        code, out, err = run_cli(capsys, ["fk", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert key in err

    def test_config_echo_runs_again(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        for command, args in RUNS.items():
            code, first, _ = run_cli(capsys, [command, *args])
            assert code == 0
            cfg.write_text(json.dumps(json.loads(first)["config"]))
            code, again, _ = run_cli(capsys, [command, "--config", str(cfg)])
            assert code == 0
            assert again == first, command
            if command == "fk":
                # the echo holds state, which calibrate does not read: the
                # command is named first
                code, _, err = run_cli(capsys, ["calibrate", "--config", str(cfg)])
                assert code == 2
                assert "fk command" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, ["fk", "--config", "/nonexistent.json"])
        assert code == 2
        assert "config" in err

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "1", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        header_index = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_index] == "name,residual,tolerance,passed"
        assert any(line.startswith("car,") for line in lines)
        assert any(line.startswith("# command=verify") for line in lines)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2


class TestFlagTable:
    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command in READS for flag in FLAG_VALUES
         if flag not in READS[command]],
    )
    def test_refuses_unread_flag(self, command, flag):
        argv = [command, *RUNS[command], "--" + flag.replace("_", "-"), FLAG_VALUES[flag]]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", READS)
    def test_echo_holds_the_flags_read(self, capsys, command):
        code, out, _ = run_cli(capsys, [command, *RUNS[command]])
        assert code == 0
        assert list(json.loads(out)["config"]) == ["command", *READS[command]]

    @pytest.mark.parametrize(
        "command, key",
        [("verify", "seed"), ("spectrum", "paths"), ("fk", "sigma"), ("calibrate", "state"),
         ("haar-test", "energies")],
    )
    def test_config_refuses_unread_key(self, capsys, monkeypatch, tmp_path, command, key):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        monkeypatch.setattr(spin_group, "haar_lift", refuse_to_draw)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 1, key: FLAG_VALUES[key]}))
        code, out, err = run_cli(capsys, [command, "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert "unknown keys" in err and key in err

    @staticmethod
    def seeded(command, key):
        # the seed is mandatory where it is read, so it comes along as a flag
        return ["--seed", "5"] if "seed" in READS[command] and key != "seed" else []

    @pytest.mark.parametrize(
        "command, key, value",
        [(command, key, FLAG_VALUES[key]) for command in READS for key in READS[command]]
        + [("calibrate", "sigma", "paper_literal"), ("calibrate", "sigma", "paper-literal"),
           ("fk", "state", "1"), ("verify", "format", "csv"), ("haar-test", "n", "2")],
    )
    def test_flag_and_config_value_resolve_alike(self, tmp_path, command, key, value):
        # one converter and one check for both ways of giving a value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        base = [command, *self.seeded(command, key)]
        from_flag = cli.build_parser().parse_args([*base, "--" + key.replace("_", "-"), value])
        from_file = cli.build_parser().parse_args([*base, "--config", str(cfg)])
        assert cli.resolve_config(from_flag) == cli.resolve_config(from_file)

    @pytest.mark.parametrize(
        "command, key, bad, flag_name, key_name",
        [(command, "n", "abc", "--n", "'n'") for command in READS]
        + [(command, "format", "xml", "--format", "format") for command in READS]
        + [(command, "dt", "x", "--dt", "'dt'") for command in ("fk", "calibrate")]
        + [("calibrate", "sigma", "bogus", "sigma", "sigma")],
    )
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_bad_value_is_usage_error(
        self, capsys, monkeypatch, tmp_path, command, key, bad, flag_name, key_name, via
    ):
        monkeypatch.setattr(sde, "block_rng", refuse_to_draw)
        monkeypatch.setattr(spin_group, "haar_lift", refuse_to_draw)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: bad}))
        given = ["--" + key, bad] if via == "flag" else ["--config", str(cfg)]
        code, out, err = run_cli(capsys, [command, *self.seeded(command, key), *given])
        assert code == 2
        assert out == ""
        assert (flag_name if via == "flag" else key_name) in err and repr(bad) in err


def leaves(value):
    """The scalars of a document, depth first, with lists and tuples alike."""
    if isinstance(value, dict):
        for item in value.values():
            yield from leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


class TestRendering:
    @staticmethod
    def document(command):
        config = cli.resolve_config(cli.build_parser().parse_args([command, *RUNS[command]]))
        return cli.COMMANDS[command](config)[1]

    @pytest.mark.parametrize("command", RUNS)
    def test_json_floats_parse_back(self, command):
        doc = self.document(command)
        parsed = list(leaves(json.loads(report_io.render_json(doc))))
        expected = list(leaves(doc))
        assert parsed == expected
        assert [type(v) for v in parsed] == [type(v) for v in expected]

    @pytest.mark.parametrize("command", RUNS)
    def test_csv_floats_parse_back(self, command):
        doc = self.document(command)
        config, rows, *summary = doc.values()
        echoed = {key: value for part in (config, *summary) for key, value in part.items()}
        lines = report_io.render_csv(doc).splitlines()
        comments = [line[2:].split("=", 1) for line in lines if line.startswith("# ")]
        assert [key for key, _ in comments] == list(echoed)
        for key, text in comments:
            value = echoed[key]
            if isinstance(value, tuple):
                assert [float(x) for x in text.split(",")] == list(value)
            elif isinstance(value, float):
                assert float(text) == value
        table = list(csv.reader(line for line in lines if not line.startswith("#")))
        assert table[0] == list(rows[0])
        for cells, row in zip(table[1:], rows, strict=True):
            for cell, value in zip(cells, row.values(), strict=True):
                if isinstance(value, float):
                    assert float(cell) == value

    def test_shortest_spelling(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "1"])
        assert code == 0
        assert '"tolerance": 1e-12,' in out
        code, out, _ = run_cli(capsys, ["verify", "--n", "1", "--format", "csv"])
        assert code == 0
        assert "# energies=1.0" in out and ",1e-12,true" in out

    @pytest.mark.parametrize("render", [report_io.render_json, report_io.render_csv])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_refused(self, render, bad):
        doc = {"config": {"command": "fk"}, "rows": [{"t": 0.0, "z": bad}]}
        with pytest.raises(NumericError, match="non-finite"):
            render(doc)
