import json

import numpy as np
import pytest

from evanskam.battery import BATTERY_NAMES, run_battery
from evanskam.cli_io import main
from evanskam.torus_grid import read_field


def t1_config(out_dir, **extra):
    cfg = {
        "hamiltonian": {
            "d": 1,
            "eta": [[{"freq": [1], "cos": 1.0, "sin": 0.0}]],
            "V": [],
            "lambda": 1.0,
        },
        "grid": {"d": 1, "n_x": 64, "n_t": 64},
        "solver": {"k": 8.0, "P": [0.0]},
        "output": {"dir": str(out_dir)},
    }
    cfg.update(extra)
    return cfg


def pendulum_config(out_dir, **extra):
    cfg = t1_config(out_dir, **extra)
    cfg["hamiltonian"] = {
        "d": 1,
        "eta": [[]],
        "V": [{"freq": [1, 0], "cos": 1.0, "sin": 0.0}],
        "lambda": 1.0,
    }
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


class TestSolveCommand:
    def test_trivial_exit_zero(self, tmp_path):
        cfg = t1_config(tmp_path / "out")
        cfg["hamiltonian"]["eta"] = [[]]
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path]) == 0
        meta = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert meta["hbar"] == pytest.approx(0.0, abs=1e-12)
        assert meta["converged"] is True

    def test_analytic_case_metadata_and_fields(self, tmp_path):
        path = write_config(tmp_path, t1_config(tmp_path / "out"))
        assert main(["solve", "--config", path]) == 0
        meta = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert meta["hbar"] == pytest.approx(0.25, abs=1e-8)
        residuals = json.loads((tmp_path / "out" / "residuals.json").read_text())
        assert residuals["hjb_residual"] <= 1e-10
        assert abs(residuals["mass_m"] - 1.0) <= 1e-10
        u = read_field(tmp_path / "out" / "u.field.csv")
        assert u.grid.n_x == 64
        assert abs(u.mean()) <= 1e-12

    def test_nyquist_violation_exit_2(self, tmp_path, capsys):
        cfg = t1_config(tmp_path / "out")
        cfg["hamiltonian"]["V"] = [{"freq": [40, 0], "cos": 1.0, "sin": 0.0}]
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path]) == 2
        assert "Nyquist" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 2

    def test_missing_block_exit_2(self, tmp_path):
        cfg = t1_config(tmp_path / "out")
        del cfg["grid"]
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path]) == 2

    @pytest.mark.parametrize(
        "patch",
        [{"solver": 5}, {"output": "x"}, {"solver": {"k": 8.0, "lambda_schedule": 1.0}}],
        ids=["solver-not-object", "output-not-object", "scalar-lambda-schedule"],
    )
    def test_malformed_block_exit_2(self, tmp_path, capsys, patch):
        path = write_config(tmp_path, t1_config(tmp_path / "out", **patch))
        assert main(["solve", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        cfg = pendulum_config(tmp_path / "out")
        cfg["solver"] = {"k": 16.0, "P": [2.0], "max_newton": 1}
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path]) == 3
        assert "converge" in capsys.readouterr().err

    def test_out_flag_overrides(self, tmp_path):
        cfg = t1_config(tmp_path / "ignored")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "elsewhere"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        assert (out / "solve.json").exists()

    def test_binary_field_format(self, tmp_path):
        cfg = t1_config(tmp_path / "out")
        cfg["output"]["field_format"] = "binary"
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path]) == 0
        u = read_field(tmp_path / "out" / "u.field.bin")
        assert u.grid.n_t == 64

    def test_determinism_bit_identical(self, tmp_path):
        path = write_config(tmp_path, pendulum_config(tmp_path / "a"))
        assert main(["solve", "--config", path]) == 0
        path_b = write_config(tmp_path, pendulum_config(tmp_path / "b"), name="config_b.json")
        assert main(["solve", "--config", path_b]) == 0
        for name in ("solve.json", "residuals.json", "u.field.csv", "m.field.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSweepCommand:
    def test_free_sweep_rows(self, tmp_path):
        cfg = t1_config(tmp_path / "out", sweep={"P_grid": [-1.0, 0.0, 1.0]})
        cfg["hamiltonian"]["eta"] = [[]]
        cfg["grid"] = {"d": 1, "n_x": 16, "n_t": 16}
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path]) == 0
        lines = (tmp_path / "out" / "effective_table.csv").read_text().splitlines()
        assert lines[0] == "P0,hbar,Q0,converged"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [-1.0, 0.0, 1.0]
        assert np.allclose([float(r[1]) for r in rows], [0.5, 0.0, 0.5], atol=1e-9)
        assert np.allclose([float(r[2]) for r in rows], [-1.0, 0.0, 1.0], atol=1e-8)

    def test_drift_sweep_closed_form_with_legendre(self, tmp_path):
        cfg = t1_config(
            tmp_path / "out",
            sweep={"P_grid": [-1.0, -0.5, 0.0, 0.5, 1.0], "Q_grid": [-0.5, 0.0, 0.5]},
        )
        cfg["grid"] = {"d": 1, "n_x": 32, "n_t": 64}
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path]) == 0
        lines = (tmp_path / "out" / "effective_table.csv").read_text().splitlines()[1:]
        for line in lines:
            P, hbar = float(line.split(",")[0]), float(line.split(",")[1])
            assert hbar == pytest.approx(0.5 * P**2 + 0.25, abs=1e-6)
        leg = (tmp_path / "out" / "legendre_table.csv").read_text().splitlines()[1:]
        for line in leg:
            Q, lbar = (float(tok) for tok in line.split(","))
            assert lbar == pytest.approx(0.5 * Q**2 - 0.25, abs=5e-3)

    def test_nonconverged_entry_flagged_exit_3(self, tmp_path, capsys):
        cfg = pendulum_config(tmp_path / "out", sweep={"P_grid": [0.0, 2.0]})
        cfg["grid"] = {"d": 1, "n_x": 32, "n_t": 8}
        cfg["solver"] = {"k": 16.0, "max_newton": 1}
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path]) == 3
        lines = (tmp_path / "out" / "effective_table.csv").read_text().splitlines()[1:]
        assert lines[0].endswith(",1")
        assert lines[1].endswith(",0")

    def test_jobs_parallel_matches(self, tmp_path):
        base = pendulum_config(tmp_path / "seq", sweep={"P_grid": [-0.5, 0.0, 0.5]})
        base["grid"] = {"d": 1, "n_x": 32, "n_t": 8}
        path = write_config(tmp_path, base)
        assert main(["sweep", "--config", path]) == 0
        par = pendulum_config(tmp_path / "par", sweep={"P_grid": [-0.5, 0.0, 0.5]})
        par["grid"] = {"d": 1, "n_x": 32, "n_t": 8}
        path2 = write_config(tmp_path, par, name="par.json")
        assert main(["sweep", "--config", path2, "--jobs", "2"]) == 0
        seq_rows = (tmp_path / "seq" / "effective_table.csv").read_text().splitlines()[1:]
        par_rows = (tmp_path / "par" / "effective_table.csv").read_text().splitlines()[1:]
        for a, b in zip(seq_rows, par_rows):
            assert abs(float(a.split(",")[1]) - float(b.split(",")[1])) <= 1e-8

    def test_missing_sweep_block_exit_2(self, tmp_path):
        path = write_config(tmp_path, t1_config(tmp_path / "out"))
        assert main(["sweep", "--config", path]) == 2

    @pytest.mark.parametrize(
        "sweep", [5, {"P_grid": ["a", "b"]}, {"P_grid": [0.0], "Q_grid": "x"}],
        ids=["not-object", "nonnumeric-P-grid", "nonnumeric-Q-grid"],
    )
    def test_malformed_sweep_block_exit_2(self, tmp_path, capsys, sweep):
        cfg = t1_config(tmp_path / "out", sweep=sweep)
        cfg["grid"] = {"d": 1, "n_x": 16, "n_t": 16}
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err


class TestLimitCommand:
    def test_report_rows(self, tmp_path):
        cfg = pendulum_config(tmp_path / "out", limit={"k_list": [4, 8, 16, 32, 64], "P": [0.0]})
        cfg["grid"] = {"d": 1, "n_x": 32, "n_t": 8}
        path = write_config(tmp_path, cfg)
        assert main(["limit", "--config", path]) == 0
        lines = (tmp_path / "out" / "ksweep.csv").read_text().splitlines()
        assert len(lines) == 6
        sidecar = json.loads((tmp_path / "out" / "ksweep.csv.json").read_text())
        assert sidecar["hbar_ref"] == pytest.approx(1.0, abs=1e-9)

    def test_single_k(self, tmp_path):
        cfg = t1_config(tmp_path / "out", limit={"k_list": [8]})
        path = write_config(tmp_path, cfg)
        assert main(["limit", "--config", path]) == 0
        assert len((tmp_path / "out" / "ksweep.csv").read_text().splitlines()) == 2

    def test_missing_potential_exit_2(self, tmp_path):
        cfg = t1_config(tmp_path / "out", limit={"k_list": [4]})
        del cfg["hamiltonian"]["V"]
        path = write_config(tmp_path, cfg)
        assert main(["limit", "--config", path]) == 2

    @pytest.mark.parametrize(
        "limit",
        [5, {"k_list": [8, 4]}, {"k_list": ["a", "b"]}, {"k_list": [4, 8], "P": [0.0, 1.0]}],
        ids=["not-object", "decreasing-k-list", "nonnumeric-k-list", "wrong-P-shape"],
    )
    def test_malformed_limit_block_exit_2(self, tmp_path, capsys, limit):
        path = write_config(tmp_path, t1_config(tmp_path / "out", limit=limit))
        assert main(["limit", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err


class TestCheckCommand:
    def test_battery_passes_quickly(self, capsys):
        import time

        t0 = time.perf_counter()
        assert main(["check", "--seed", "0"]) == 0
        assert time.perf_counter() - t0 < 10.0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 12
        assert "FAIL" not in out

    def test_battery_has_at_least_12_named_invariants(self):
        results = run_battery(seed=0)
        assert len(results) >= 12
        assert len({r.name for r in results}) == len(results)
        assert [r.name for r in results] == BATTERY_NAMES

    def test_injected_error_exit_1(self, capsys):
        assert main(["check", "--inject-error", "gradient-finite-difference"]) == 1
        captured = capsys.readouterr()
        assert "FAIL  gradient-finite-difference" in captured.out
        assert "gradient-finite-difference" in captured.err

    def test_injected_error_other_check(self, capsys):
        assert main(["check", "--inject-error", "diffusion-factorization"]) == 1
        assert "FAIL  diffusion-factorization" in capsys.readouterr().out

    def test_seed_changes_samples_not_verdict(self):
        for seed in (0, 1, 7):
            assert all(r.passed for r in run_battery(seed=seed))


class TestOracleCommand:
    def test_pendulum_value(self, tmp_path, capsys):
        cfg = pendulum_config(tmp_path / "out", oracle={"P": 2.0})
        path = write_config(tmp_path, cfg)
        assert main(["oracle", "--config", path]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(2.0637954, abs=1e-6)

    def test_flat_branch(self, tmp_path, capsys):
        cfg = pendulum_config(tmp_path / "out", oracle={"P": 0.0})
        path = write_config(tmp_path, cfg)
        assert main(["oracle", "--config", path]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-9)

    def test_drift_rejected_exit_2(self, tmp_path):
        cfg = t1_config(tmp_path / "out", oracle={"P": 0.0})
        path = write_config(tmp_path, cfg)
        assert main(["oracle", "--config", path]) == 2

    @pytest.mark.parametrize("oracle", [5, {"P": [2.0]}, {"P": "x"}], ids=["not-object", "list-P", "nonnumeric-P"])
    def test_malformed_oracle_block_exit_2(self, tmp_path, capsys, oracle):
        path = write_config(tmp_path, pendulum_config(tmp_path / "out", oracle=oracle))
        assert main(["oracle", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err
