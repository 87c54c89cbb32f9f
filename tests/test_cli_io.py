import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evanskam import battery, cli_io, evans_solver, torus_grid
from evanskam.battery import run_battery
from evanskam.cli_io import main
from evanskam.effective import NonconvexTableError
from evanskam.evans_solver import SolveResult, SolverConfig, minimize
from evanskam.hamiltonians import ChiVerificationError, HamiltonianTable, hamiltonian_from_json
from evanskam.torus_grid import ScalarField, TorusGrid, read_field


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


# -- negative controls of the check battery: a library fault at the seam a check reads --


def negated_gradient(mp):
    """Check 14 alone calls ``evans_solver.gradient``; the solver reads the gradient off its state."""
    gradient = evans_solver.gradient

    def negated(ham, grid, cfg, u):
        return ScalarField(grid, -gradient(ham, grid, cfg, u).values)

    mp.setattr(evans_solver, "gradient", negated)


def doubled_sigma(mp):
    """The battery's ``drift_diffusion`` returns 2*sigma; check 8 reads only b, and chi_bound has its own import."""
    drift_diffusion = battery.drift_diffusion

    def doubled(*args):
        a, sigma, b = drift_diffusion(*args)
        return a, 2.0 * sigma, b

    mp.setattr(battery, "drift_diffusion", doubled)


def shifted_lagrangian(mp):
    """L + 1: checks 9, 10 and 18 read ``HamiltonianTable.L``, and the solver's f reads H."""
    L = HamiltonianTable.L
    mp.setattr(HamiltonianTable, "L", lambda table, v: L(table, v) + 1.0)


def non_skew_derivative(mp):
    """D + 1e-6*S, S the symmetric second difference, for the grid and the solver's dense step alike.

    S annihilates constants, so means stay annihilated; D^T = -D fails.  The
    caches built from D (``clear_derivative_caches``) must be cleared around it.
    """
    D = torus_grid.derivative_matrix

    def faulty(n):
        return D(n) + 1e-6 * (np.roll(np.eye(n), 1, 0) + np.roll(np.eye(n), -1, 0) - 2.0 * np.eye(n))

    for module in (torus_grid, evans_solver):
        mp.setattr(module, "derivative_matrix", faulty)


def clear_derivative_caches():
    for cache in (torus_grid.antiderivative_matrix, evans_solver._derivative_columns, evans_solver._flux_kappa):
        cache.cache_clear()


def flipped_H_t(mp):
    """H_t = V_t - w.eta': a sign error in the eta' term."""

    def flipped(table, w):
        out = table.V_t
        for w_i, e_i in zip(w, table.eta_prime):
            out = out - w_i * e_i
        return out

    mp.setattr(HamiltonianTable, "H_t", flipped)


# check name: (fault, the checks that fail under it, in battery order)
NEGATIVE_CONTROLS = {
    "spectral-adjointness": (
        non_skew_derivative,
        ["spectral-exactness", "spectral-adjointness", "operator-symmetry", "operator-positivity"],
    ),
    "hamiltonian-derivatives": (flipped_H_t, ["hamiltonian-derivatives"]),
    "diffusion-factorization": (doubled_sigma, ["diffusion-factorization"]),
    "gradient-finite-difference": (negated_gradient, ["gradient-finite-difference"]),
    "state-legendre-identity": (
        shifted_lagrangian,
        ["fenchel-equality", "fenchel-grid-inequality", "state-legendre-identity"],
    ),
}


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_newton", 2.5),
            ("grad_tol", float("nan")),
            ("max_newton", "5"),
            ("k", float("nan")),
            ("k", True),
            ("grad_tol", True),
            ("P", True),
            ("P", [float("nan")]),
            ("P", [float("inf")]),
            pytest.param("k", 10**400, id="k-huge"),
            ("max_newton", True),
        ],
    )
    def test_malformed_solver_field_exit_2(self, tmp_path, capsys, field, value):
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        cfg["solver"] = {"k": 8.0, "P": [0.5], field: value}
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path]) == 2
        assert "configuration error: invalid solver block:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any solve

    def test_nested_P_exit_2_naming_it(self, tmp_path, capsys):
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        cfg["solver"] = {"k": 8.0, "P": [[2.0]]}
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert "P must be None or finite numbers, got [[2.0]]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_max_newton_counts_as_an_integer(self, tmp_path):
        # as "n_x": 16.0 counts as 16: the same solve, bit for bit
        written = []
        for max_newton in (60.0, 60):
            out = tmp_path / f"out-{max_newton!r}"
            cfg = pendulum_config(out, grid={"d": 1, "n_x": 16, "n_t": 4})
            cfg["solver"] = {"k": 4.0, "max_newton": max_newton}
            assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "path, value",
        [
            (("V", 0, "cos"), float("nan")),
            (("V", 0, "sin"), float("inf")),
            (("V", 0, "cos"), True),
            (("V", 0, "cos"), "1.0"),
            (("V", 0, "freq", 0), 1.5),
            (("lambda",), True),
            (("lambda",), float("nan")),
            (("d",), 1.5),
            (("d",), True),
        ],
        ids=["nan-cos", "inf-sin", "bool-cos", "string-cos", "fractional-freq", "bool-lambda", "nan-lambda",
             "fractional-d", "bool-d"],
    )
    def test_malformed_hamiltonian_field_exit_2(self, tmp_path, capsys, path, value):
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        target = cfg["hamiltonian"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert "configuration error: invalid hamiltonian block:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any solve

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("V", {"freq": [1, 0]}, 'V must be a list of terms {"freq": [2 integers], "cos": c, "sin": s}'),
            ("V", [[[1, 0], 1.0, 0.0]], 'each term of V must be an object {"freq": [2 integers]'),
            ("V", [{"freq": 1, "cos": 1.0}], "'freq' of a term of V must be a list of 2 integers"),
            ("eta", None, "eta must be a list of 1 Fourier series in t"),
            ("eta", [{"freq": [1], "cos": 1.0}], 'eta[0] must be a list of terms {"freq": [1 integer]'),
        ],
        ids=["V-object", "term-list", "freq-scalar", "eta-null", "eta-term-not-in-list"],
    )
    def test_misshapen_hamiltonian_field_exit_2(self, tmp_path, capsys, field, value, message):
        # the message names the field and the shape it needs, not Python's
        # own indexing error
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        cfg["hamiltonian"][field] = value
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"invalid hamiltonian block: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_hamiltonian_block_not_an_object_exit_2(self, tmp_path, capsys):
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        cfg["hamiltonian"] = [1]
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert "invalid hamiltonian block: the block must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["V", "d", "freq"])
    def test_missing_hamiltonian_field_exit_2(self, tmp_path, capsys, field):
        # a missing field of the block is named as such, not as a missing block
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        del (cfg["hamiltonian"]["V"][0] if field == "freq" else cfg["hamiltonian"])[field]
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"invalid hamiltonian block: missing field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_x", 16.7),
            ("n_t", 4.5),
            ("d", True),
            ("n_x", "16"),
            ("n_t", float("nan")),
            ("n_x", float("inf")),
            ("n_x", 10**400),
        ],
        ids=["fractional-n_x", "fractional-n_t", "bool-d", "string-n_x", "nan-n_t", "inf-n_x", "huge-n_x"],
    )
    def test_malformed_grid_field_exit_2(self, tmp_path, capsys, field, value):
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        cfg["grid"][field] = value
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path]) == 2
        assert f"configuration error: invalid grid block: {field} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_grid_accepted(self, tmp_path):
        # 16.0 is the integer 16, not a truncated 16.7
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1.0, "n_x": 16.0, "n_t": 4.0})
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
        meta = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert read_field(tmp_path / "out" / "u.field.csv").grid.shape == (16, 4)
        assert meta["converged"] is True

    def test_odd_grid_solves_and_its_fields_read_back(self, tmp_path):
        # tc1 on 33 x 15: V = cos(2 pi x) + 0.3 sin(2 pi (x + t)), eta = cos(2 pi t)/2
        cfg = t1_config(tmp_path / "out", grid={"d": 1, "n_x": 33, "n_t": 15})
        cfg["hamiltonian"]["eta"] = [[{"freq": [1], "cos": 0.5, "sin": 0.0}]]
        cfg["hamiltonian"]["V"] = [{"freq": [1, 0], "cos": 1.0, "sin": 0.0}, {"freq": [1, 1], "cos": 0.0, "sin": 0.3}]
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
        assert json.loads((tmp_path / "out" / "solve.json").read_text())["converged"] is True
        for name in ("u", "m"):
            assert read_field(tmp_path / "out" / f"{name}.field.csv").grid.shape == (33, 15)

    @pytest.mark.parametrize("field, value", [("n_x", 1), ("n_t", 0)])
    def test_grid_below_the_size_rule_exit_2(self, tmp_path, capsys, field, value):
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        cfg["grid"][field] = value
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert "invalid grid block: grid sizes must be n_x >= 2 and n_t >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dealias", False),
            ("epsilon", 0.0),
            ("lambda_schedule", [0.0, 0.5, 1.0]),
            ("cg_tol", 1e-12),
            ("cg_max", 500),
            ("method", "central4"),
            ("k_continuation", "false"),
            ("k_continuation", True),
        ],
    )
    def test_removed_solver_field_exit_2(self, tmp_path, capsys, field, value):
        # a field the solver no longer has is refused, not ignored
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        cfg["solver"] = {"k": 8.0, "P": [0.5], field: value}
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path]) == 2
        assert f"unknown solver fields: ['{field}']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nonstring_output_dir_exit_2(self, tmp_path, capsys):
        cfg = t1_config(tmp_path / "out")
        cfg["output"]["dir"] = 5
        path = write_config(tmp_path, cfg)
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

    def test_binary_field_format(self, tmp_path, capsys):
        # csv is the one field format: field_format is an unknown output field
        cfg = t1_config(tmp_path / "out")
        cfg["output"]["field_format"] = "binary"
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert "configuration error: unknown output fields: ['field_format']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_k_writes_the_files_of_its_float(self, tmp_path):
        # SolverConfig stores k as a float: "k": 16 used to write "k": 16 into solve.json
        written = []
        for k in (16, 16.0):
            out = tmp_path / f"out-{k!r}"
            cfg = pendulum_config(out, grid={"d": 1, "n_x": 16, "n_t": 4})
            cfg["solver"] = {"k": k, "P": [2.0]}
            assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert written[0] == written[1]
        assert json.loads(written[0]["solve.json"])["k"] == 16.0

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
        assert lines[0] == "P0,hbar,Q0,converged,grad_norm,lip_norm,iterations"
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
        assert [line.split(",")[3] for line in lines] == ["1", "0"]  # the converged column

    def test_nonconvex_table_skips_legendre_exit_3(self, tmp_path, capsys):
        # one Newton step per stage leaves the k = 16 table nonconvex (at k = 256 the
        # cold re-solves of the capped warm entries leave it convex); the
        # unconverged entries must still be reported, without a traceback
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "pendulum_sweep.json").read_text())
        cfg["solver"].update(k=16.0, max_newton=1)
        cfg["output"]["dir"] = str(tmp_path / "out")
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert "legendre transform skipped: midpoint convexity violated" in err
        assert "sweep entries did not converge: [" in err
        assert "Traceback" not in err
        assert (tmp_path / "out" / "effective_table.csv").exists()
        assert not (tmp_path / "out" / "legendre_table.csv").exists()

    def test_nonconvex_table_on_a_converged_sweep_exit_1(self, tmp_path, capsys, monkeypatch):
        def nonconvex(table, Q_grid):
            raise NonconvexTableError("midpoint convexity violated along axis 0")

        monkeypatch.setattr(cli_io, "legendre_transform", nonconvex)
        cfg = pendulum_config(tmp_path / "out", sweep={"P_grid": [-0.5, 0.0, 0.5], "Q_grid": [0.0]})
        cfg["grid"] = {"d": 1, "n_x": 32, "n_t": 8}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "legendre transform skipped: midpoint convexity violated along axis 0\n"
        assert (tmp_path / "out" / "effective_table.csv").exists()
        assert not (tmp_path / "out" / "legendre_table.csv").exists()

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

    @pytest.mark.parametrize("jobs", ["0", "-3", "abc"])
    def test_invalid_jobs_exit_2(self, tmp_path, capsys, jobs):
        # values below 1 used to run serially and exit 0
        path = write_config(tmp_path, pendulum_config(tmp_path / "out", sweep={"P_grid": [0.0]}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", path, "--jobs", jobs])
        assert exc.value.code == 2
        assert "jobs must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_sweep_block_exit_2(self, tmp_path):
        path = write_config(tmp_path, t1_config(tmp_path / "out"))
        assert main(["sweep", "--config", path]) == 2

    @pytest.mark.parametrize(
        "sweep",
        [
            5,
            {"P_grid": ["a", "b"]},
            {"P_grid": [0.0], "Q_grid": "x"},
            {"P_grid": [-1.0, 0.0, 1.0], "Q_grid": [[0.0, 1.0]]},
            {"P_grid": [0.0, 1.0], "Q_grid": [0.0]},
            {"P_grid": [0.0, float("nan"), 1.0]},
        ],
        ids=[
            "not-object",
            "nonnumeric-P-grid",
            "nonnumeric-Q-grid",
            "wrong-dimension-Q-grid",
            "short-P-grid-with-Q-grid",
            "nan-P-grid",
        ],
    )
    def test_malformed_sweep_block_exit_2(self, tmp_path, capsys, sweep):
        cfg = t1_config(tmp_path / "out", sweep=sweep)
        cfg["grid"] = {"d": 1, "n_x": 16, "n_t": 16}
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any entry is solved

    @pytest.mark.parametrize("field", ["P_grid", "Q_grid"])
    def test_empty_grid_exit_2(self, tmp_path, capsys, field):
        # an empty P_grid used to exit 0 with a header-only table
        cfg = t1_config(tmp_path / "out", sweep={"P_grid": [-1.0, 0.0, 1.0], field: []})
        cfg["grid"] = {"d": 1, "n_x": 16, "n_t": 16}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        noun = {"P_grid": "momentum", "Q_grid": "velocity"}[field]
        assert f"configuration error: sweep.{field}: expected a nonempty list of {noun} vectors" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_wrong_dimension_P_grid_exit_2(self, tmp_path, capsys):
        cfg = t1_config(tmp_path / "out", sweep={"P_grid": [[0.0, 1.0]]})
        cfg["grid"] = {"d": 1, "n_x": 16, "n_t": 16}
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "d, sweep",
        [
            (2, {"P_grid": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "Q_grid": [[0.0, 0.0]]}),
            (2, {"P_grid": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "Q_grid": [[0.0, 0.0]]}),
            (1, {"P_grid": [-1.0, 0.0, 0.5, 1.0], "Q_grid": [0.0]}),
        ],
        ids=["non-rectangular-d2", "column-major-d2", "nonuniform-d1"],
    )
    def test_P_grid_unfit_for_the_convexity_check_exit_2(self, tmp_path, capsys, d, sweep):
        cfg = t1_config(tmp_path / "out", sweep=sweep)
        cfg["grid"] = {"d": d, "n_x": 4, "n_t": 4}
        if d == 2:
            cfg["hamiltonian"] = {"d": 2, "eta": [[], []], "V": [], "lambda": 1.0}
            cfg["solver"] = {"k": 4.0}
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "effective_table.csv").exists()  # rejected before any entry is solved


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

    def test_entropy_column_is_the_mean_of_m_log_m_over_k(self, tmp_path):
        # an oracle apart from mather_diagnostics: m = exp(k (f - hbar)) has
        # unit mean, so S/k = mean(m log m)/k over the same warm-started solves
        cfg = pendulum_config(tmp_path / "out", limit={"k_list": [4, 16], "P": [0.8]})
        cfg["grid"] = {"d": 1, "n_x": 32, "n_t": 8}
        assert main(["limit", "--config", write_config(tmp_path, cfg)]) == 0
        rows = [line.split(",") for line in (tmp_path / "out" / "ksweep.csv").read_text().splitlines()[1:]]
        ham, grid, res = hamiltonian_from_json(cfg["hamiltonian"]), TorusGrid(1, 32, 8), None
        for row in rows:
            k = float(row[0])
            res = minimize(ham, grid, SolverConfig(k=k, P=(0.8,)), warm_start=res)
            m = res.m.values
            direct = grid.integrate(m * np.log(np.maximum(m, np.finfo(float).tiny))) / k
            assert float(row[2]) == pytest.approx(direct, abs=1e-9)
            assert direct > 1e-3

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

    def test_P_defaults_to_the_solver_P(self, tmp_path):
        # without limit.P the sweep runs at solver.P, the momentum `solve` uses
        cfg = pendulum_config(tmp_path / "out", limit={"k_list": [4, 8]})
        cfg["grid"] = {"d": 1, "n_x": 32, "n_t": 8}
        cfg["solver"] = {"k": 4.0, "P": [2.0]}
        path = write_config(tmp_path, cfg)
        assert main(["limit", "--config", path]) == 0
        assert main(["solve", "--config", path]) == 0
        sidecar = json.loads((tmp_path / "out" / "ksweep.csv.json").read_text())
        assert sidecar["P"] == [2.0]
        first = (tmp_path / "out" / "ksweep.csv").read_text().splitlines()[1].split(",")
        assert float(first[0]) == 4.0
        assert float(first[1]) == json.loads((tmp_path / "out" / "solve.json").read_text())["hbar"]

    def test_unconverged_solves_exit_3_naming_their_ks(self, tmp_path, capsys):
        # one Newton step per stage leaves the solves at P = 2 unconverged:
        # the table is still written, and stderr lists the ks it flags
        cfg = pendulum_config(tmp_path / "out", limit={"k_list": [4, 16], "P": [2.0]})
        cfg["grid"] = {"d": 1, "n_x": 32, "n_t": 8}
        cfg["solver"] = {"k": 4.0, "max_newton": 1}
        assert main(["limit", "--config", write_config(tmp_path, cfg)]) == 3
        rows = [line.split(",") for line in (tmp_path / "out" / "ksweep.csv").read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [4.0, 16.0]
        bad = [float(row[0]) for row in rows if row[6] == "0"]  # the converged column
        assert bad
        err = capsys.readouterr().err
        assert f"k-sweep entries did not converge: {bad}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "limit",
        [
            5,
            {"k_list": [8, 4]},
            {"k_list": ["a", "b"]},
            {"k_list": [4, 8], "P": [0.0, 1.0]},
            {"k_list": [4, float("inf")]},
            {"k_list": [4], "P": [float("nan")]},
        ],
        ids=["not-object", "decreasing-k-list", "nonnumeric-k-list", "wrong-P-shape", "infinite-k", "nan-P"],
    )
    def test_malformed_limit_block_exit_2(self, tmp_path, capsys, limit):
        path = write_config(tmp_path, t1_config(tmp_path / "out", limit=limit))
        assert main(["limit", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any solve

    def test_nested_P_exit_2_naming_it(self, tmp_path, capsys):
        # limit.P is read as solver.P is: a nested list is refused with its value
        path = write_config(tmp_path, pendulum_config(tmp_path / "out", limit={"k_list": [4], "P": [[0.0]]}))
        assert main(["limit", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "configuration error: limit.P: P must be None or finite numbers, got [[0.0]]" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


def as_written(value):
    """A solve.json or sidecar value as a table writes it: a float's repr, an integer's digits, a flag as 0 or 1."""
    if isinstance(value, list):
        return [as_written(v) for v in value]
    return str(int(value)) if isinstance(value, int) else repr(value)


class TestOneRecord:
    """``solve.json``, ``effective_table.csv`` and ``ksweep.csv`` show one per-solve record, ``SolveResult.metadata()``."""

    @staticmethod
    def run_all(tmp_path):
        """solve.json, then the one row and the sidecar of a one-entry sweep and of a one-k limit of the same solve."""
        cfg = pendulum_config(tmp_path / "out", sweep={"P_grid": [1.5]}, limit={"k_list": [8.0]})
        cfg["grid"] = {"d": 1, "n_x": 32, "n_t": 8}
        cfg["solver"] = {"k": 8.0, "P": [1.5]}
        path = write_config(tmp_path, cfg)
        for command in ("solve", "sweep", "limit"):
            assert main([command, "--config", path]) == 0
        out = tmp_path / "out"

        def table(name):
            header, row = (out / name).read_text().splitlines()
            return dict(zip(header.split(","), row.split(","), strict=True)), json.loads((out / f"{name}.json").read_text())

        return json.loads((out / "solve.json").read_text()), table("effective_table.csv"), table("ksweep.csv")

    def test_each_solve_field_reads_alike_in_the_sweep_and_limit_rows(self, tmp_path):
        # the one cold solve is the sweep's first entry and the limit's first k
        meta, (sweep, sweep_side), (limit, limit_side) = self.run_all(tmp_path)
        for key, value in meta.items():
            # the sweep shows P as its P columns and k in its sidecar, the limit P in its sidecar
            in_sweep = [sweep["P0"]] if key == "P" else as_written(sweep_side["k"]) if key == "k" else sweep[key]
            in_limit = as_written(limit_side["P"]) if key == "P" else limit[key]
            assert as_written(value) == in_sweep == in_limit, key

    def test_headers_extend_the_old_ones(self, tmp_path):
        # the leading columns keep their names and positions (perfbench reads
        # ksweep.csv's columns 1 and 6); the rest of the record trails
        _, (sweep, _), (limit, _) = self.run_all(tmp_path)
        assert list(sweep) == ["P0", "hbar", "Q0", "converged"] + ["grad_norm", "lip_norm", "iterations"]
        assert list(limit) == (
            ["k", "hbar", "entropy_over_k", "sup_excess_pos", "lip_norm", "aronsson_residual", "converged"]
            + ["grad_norm", "iterations"]
        )
        assert sweep["iterations"].isdigit() and limit["iterations"].isdigit()

    def test_a_new_metadata_field_trails_both_tables(self, tmp_path, monkeypatch):
        metadata = SolveResult.metadata
        monkeypatch.setattr(SolveResult, "metadata", lambda self: {**metadata(self), "probe": 0.25})
        meta, (sweep, _), (limit, _) = self.run_all(tmp_path)
        assert meta["probe"] == 0.25
        for row in (sweep, limit):
            assert list(row)[-2:] == ["iterations", "probe"]
            assert row["probe"] == "0.25"


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
        assert [r.name for r in results] == [
            "spectral-exactness",
            "derivative-mean-annihilation",
            "spectral-adjointness",
            "quadrature-band-limited",
            "zero-mean-projection",
            "hamiltonian-derivatives",
            "diffusion-factorization",
            "drift-k-independence",
            "fenchel-equality",
            "fenchel-grid-inequality",
            "chi-bound-verification",
            "objective-shift-invariance",
            "objective-convexity",
            "gradient-finite-difference",
            "operator-symmetry",
            "operator-null-constants",
            "operator-positivity",
            "state-legendre-identity",
            "hbar-jensen-bounds",
            "mfg-certificates",
            "minmax-dominates-hbar",
            "lipschitz-certificate",
            "convexity-check-quadratic",
        ]

    def test_injected_error_exit_1(self, monkeypatch, capsys):
        # a fault changes its own check's line and the tally, and nothing else
        assert main(["check"]) == 0
        clean = capsys.readouterr().out.splitlines()
        negated_gradient(monkeypatch)
        assert main(["check"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        changed = [i for i, (a, b) in enumerate(zip(clean, lines)) if a != b]
        assert len(lines) == len(clean) and changed == [13, 23]
        assert lines[13].startswith("FAIL  gradient-finite-difference: max relative defect ")
        assert lines[23] == "22/23 invariants passed"
        assert captured.err == "failed invariants: gradient-finite-difference\n"

    @pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
    def test_every_injection_point_fails_its_check(self, name, capsys):
        # each check that had a sign to flip, under a library fault at the seam it reads
        fault, failed = NEGATIVE_CONTROLS[name]
        try:
            with pytest.MonkeyPatch.context() as mp:
                clear_derivative_caches()
                fault(mp)
                assert main(["check"]) == 1
        finally:
            clear_derivative_caches()
        captured = capsys.readouterr()
        assert name in failed
        assert f"FAIL  {name}" in captured.out
        assert captured.err == f"failed invariants: {', '.join(failed)}\n"

    def test_failed_chi_bound_fails_the_lipschitz_certificate(self, monkeypatch):
        # the certificate is built from chi: without a verified chi it cannot pass
        def violated(*args, **kwargs):
            raise ChiVerificationError("|b| = 100.0 exceeds chi(|q|) = 0.0")

        monkeypatch.setattr(battery, "chi_bound", violated)
        failed = [r for r in run_battery(seed=0) if not r.passed]
        assert [r.name for r in failed] == ["chi-bound-verification", "lipschitz-certificate"]
        assert failed[0].detail == "|b| = 100.0 exceeds chi(|q|) = 0.0"

    def test_hamiltonian_derivatives_sees_H_t(self, monkeypatch):
        # a sign error in the eta' term of H_t must fail that check, and only it
        flipped_H_t(monkeypatch)
        failed = [r for r in run_battery(seed=0) if not r.passed]
        assert [r.name for r in failed] == ["hamiltonian-derivatives"]
        assert failed[0].detail == "max relative defect 1.15e+01"

    @pytest.mark.parametrize("name", ["bogus", "objective-convexity"])
    def test_name_without_injection_point_exit_2(self, name, capsys):
        # the battery has no injection points: its negative controls are NEGATIVE_CONTROLS' faults
        with pytest.raises(SystemExit) as exc:
            main(["check", "--inject-error", name])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --inject-error {name}" in capsys.readouterr().err
        with pytest.raises(TypeError):
            run_battery(inject_error=name)

    @pytest.mark.parametrize("seed", ["-1", "-7", "1.5", "abc"])
    def test_invalid_seed_exit_2(self, seed, capsys):
        # a negative seed used to reach numpy and exit 1 with a traceback
        with pytest.raises(SystemExit) as exc:
            main(["check", "--seed", seed])
        assert exc.value.code == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

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

    def test_P_defaults_to_the_solver_P(self, tmp_path, capsys):
        cfg = pendulum_config(tmp_path / "out", oracle={"P": 2.0})
        assert main(["oracle", "--config", write_config(tmp_path, cfg)]) == 0
        explicit = capsys.readouterr().out
        cfg = pendulum_config(tmp_path / "out", oracle={})
        cfg["solver"] = {"k": 4.0, "P": [2.0]}
        assert main(["oracle", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out == explicit
        del cfg["oracle"]
        assert main(["oracle", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out == explicit

    def test_drift_rejected_exit_2(self, tmp_path):
        cfg = t1_config(tmp_path / "out", oracle={"P": 0.0})
        path = write_config(tmp_path, cfg)
        assert main(["oracle", "--config", path]) == 2

    @pytest.mark.parametrize(
        "oracle, code",
        [(5, 2), ({"P": [2.0]}, 0), ({"P": "x"}, 2), ({"P": float("nan")}, 2), ({"P": float("-inf")}, 2)],
        ids=["not-object", "list-P", "nonnumeric-P", "nan-P", "infinite-P"],
    )
    def test_malformed_oracle_block_exit_2(self, tmp_path, capsys, oracle, code):
        # [2.0] is well formed: oracle.P is read as solver.P is, so it prints what 2.0 prints
        path = write_config(tmp_path, pendulum_config(tmp_path / "out", oracle=oracle))
        assert main(["oracle", "--config", path]) == code
        captured = capsys.readouterr()
        if code == 0:
            scalar = write_config(tmp_path, pendulum_config(tmp_path / "out", oracle={"P": 2.0}), name="scalar.json")
            assert main(["oracle", "--config", scalar]) == 0
            assert captured.out == capsys.readouterr().out
        else:
            assert "configuration error:" in captured.err
            assert captured.out == ""


class TestNumericBlocks:
    """Each number meets the library's own reader; the CLI puts the config key in front of its message."""

    @staticmethod
    def refused(tmp_path, capsys, command, field, value) -> str:
        """The stderr of ``command`` on a config whose ``command.field`` is ``value``, which must exit 2 early."""
        block = {"oracle": {}, "limit": {"k_list": [4, 8], "P": [0.0]}, "sweep": {"P_grid": [0.0, 0.5, 1.0]}}[command]
        cfg = pendulum_config(tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4})
        cfg[command] = {**block, field: value}
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
        return captured.err

    @pytest.mark.parametrize(
        "command, field, value, message",
        [
            ("oracle", "P", "2.0", "P must be None or finite numbers, got '2.0'"),
            ("oracle", "P", True, "P must be None or finite numbers, got True"),
            ("limit", "k_list", ["4", "8"], "k must be a finite number, got '4'"),
            ("limit", "k_list", [True, 8], "k must be a finite number, got True"),
            ("limit", "P", ["2.0"], "P must be None or finite numbers, got ['2.0']"),
            ("limit", "P", True, "P must be None or finite numbers, got True"),
            ("sweep", "P_grid", ["0.0", "0.5", "1.0"], "P must be None or finite numbers, got ['0.0']"),
            ("sweep", "P_grid", [False, True, 0.5], "P must be None or finite numbers, got [False]"),
            ("sweep", "Q_grid", ["0.0"], "Q must be finite numbers, got ['0.0']"),
            ("sweep", "Q_grid", [True], "Q must be finite numbers, got [True]"),
        ],
        ids=[
            "string-oracle-P", "bool-oracle-P", "string-k-list", "bool-k-list", "string-limit-P", "bool-limit-P",
            "string-P-grid", "bool-P-grid", "string-Q-grid", "bool-Q-grid",
        ],
    )
    def test_string_or_boolean_exit_2(self, tmp_path, capsys, command, field, value, message):
        # numpy converts "2.0" and true to numbers; JSON strings and booleans are not
        err = self.refused(tmp_path, capsys, command, field, value)
        assert f"configuration error: {command}.{field}: {message}\n" in err

    @pytest.mark.parametrize(
        "command, field, value, message",
        [
            ("sweep", "P_grid", {"a": 1.0}, "expected a nonempty list of momentum vectors, got shape ()"),
            ("sweep", "P_grid", "abc", "expected a nonempty list of momentum vectors, got shape ()"),
            ("sweep", "P_grid", [[0.0], [0.5, 1.0]], "P must be None or finite numbers, got [[0.0]]"),
            ("sweep", "Q_grid", [[0.0], [0.5, 1.0]], "Q must be finite numbers, got [[0.0]]"),
            ("limit", "k_list", 4, "k_list must be a list of numbers, got 4"),
            ("limit", "k_list", [[4, 8]], "k must be a finite number, got [4, 8]"),
            ("limit", "k_list", [], "k_list must be nonempty and strictly increasing"),
            ("limit", "k_list", [0, 4], "k must be positive, got 0.0"),
            ("limit", "P", {"a": 1.0}, "P must be None or finite numbers, got {'a': 1.0}"),
            ("oracle", "P", [[0.0], [0.5, 1.0]], "P must be None or finite numbers, got [[0.0], [0.5, 1.0]]"),
        ],
        ids=[
            "dict-P-grid", "string-P-grid", "ragged-P-grid", "ragged-Q-grid", "scalar-k-list", "nested-k-list",
            "empty-k-list", "zero-k", "dict-limit-P", "ragged-oracle-P",
        ],
    )
    def test_malformed_shape_exit_2(self, tmp_path, capsys, command, field, value, message):
        # numpy alone raises TypeError on a dict and its own ValueError on a string or a ragged list
        err = self.refused(tmp_path, capsys, command, field, value)
        assert f"configuration error: {command}.{field}: {message}\n" in err
        assert "Traceback" not in err


class TestUnknownFields:
    # every block refuses a key it does not read, before any output, as the
    # solver block does: "lamda" solved at lambda = 1, a "coss" term read as
    # V = 0 and "limit.p" ran at solver.P, each with exit 0
    @pytest.mark.parametrize(
        "command, path, key, value, message",
        [
            ("solve", ("hamiltonian",), "lamda", 0.5, "unknown hamiltonian fields: ['lamda']"),
            ("solve", ("hamiltonian", "V", 0), "coss", 1.0, "unknown V term fields: ['coss']"),
            ("solve", ("hamiltonian", "eta", 0, 0), "sine", 0.0, "unknown eta[0] term fields: ['sine']"),
            ("solve", ("grid",), "nx", 16, "unknown grid fields: ['nx']"),
            ("solve", ("solver",), "method", "spectral", "unknown solver fields: ['method']"),
            ("sweep", ("solver",), "method", "spectral", "unknown solver fields: ['method']"),
            ("limit", ("solver",), "method", "spectral", "unknown solver fields: ['method']"),
            ("solve", ("output",), "field_fromat", "binary", "unknown output fields: ['field_fromat']"),
            ("sweep", ("sweep",), "Q_gird", [0.0], "unknown sweep fields: ['Q_gird']"),
            ("limit", ("limit",), "p", [0.0], "unknown limit fields: ['p']"),
            ("oracle", ("oracle",), "p", 2.0, "unknown oracle fields: ['p']"),
            ("solve", (), "oracel", {"P": 2.0}, "unknown top-level blocks: ['oracel']"),
        ],
        ids=[
            "hamiltonian", "V-term", "eta-term", "grid", "solver", "solver-sweep", "solver-limit",
            "output", "sweep", "limit", "oracle", "top-level",
        ],
    )
    def test_unknown_key_exit_2(self, tmp_path, capsys, command, path, key, value, message):
        cfg = pendulum_config(
            tmp_path / "out", grid={"d": 1, "n_x": 16, "n_t": 4},
            sweep={"P_grid": [0.0, 0.5, 1.0]}, limit={"k_list": [4, 8]}, oracle={"P": 2.0},
        )
        cfg["hamiltonian"]["eta"] = [[{"freq": [1], "cos": 0.5, "sin": 0.0}]]
        block = cfg
        for step in path:
            block = block[step]
        block[key] = value
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--method", "spectral"],
            ["solve", "--config", "cfg.json", "--method", "spectral"],
            ["sweep", "--config", "cfg.json", "--method", "spectral"],
            ["limit", "--config", "cfg.json", "--method", "central4"],
            ["solve", "--config", "cfg.json", "--jobs", "2"],
            ["oracle", "--out", "d"],
        ],
        ids=["check-method", "solve-method", "sweep-method", "limit-method", "solve-jobs", "oracle-out"],
    )
    def test_flag_not_read_by_command_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    # the suite itself imports scipy for its oracles, so check in a fresh interpreter
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import evanskam, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_the_process_pool():
    # only `sweep --jobs N` with N > 1 needs it; every CLI process imports cli_io
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import evanskam.cli_io, sys; "
        "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_every_module_the_tracer_wraps():
    # perfbench/tracing.py imports cli_io and then reads each module of its
    # SPANNED from sys.modules; a module loaded lazily would break --trace 1
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "perfbench" / "tracing.py").read_text())
    spanned = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANNED"
    )
    modules = sorted({module for module, _ in spanned})
    assert modules == [
        f"evanskam.{name}"
        for name in ("battery", "effective", "evans_solver", "hamiltonians", "mather_limits", "mfg_diagnostics", "torus_grid")
    ]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = f"import evanskam.cli_io, sys; missing = [m for m in {modules!r} if m not in sys.modules]; assert not missing, missing"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
