import json

import numpy as np
import pytest

from evanskam.torus_grid import (
    GridError,
    ScalarField,
    TorusGrid,
    integrate,
    partial_derivative,
    project_zero_mean,
    read_field,
    write_field,
)


def random_band_limited(grid: TorusGrid, rng: np.random.Generator, max_freq: int = 4) -> np.ndarray:
    x = grid.coords()
    out = grid.zeros()
    for _ in range(8):
        freqs = [int(rng.integers(-max_freq, max_freq + 1)) for _ in range(grid.n_axes)]
        phase = sum((2 * np.pi * k) * c for k, c in zip(freqs, x))
        out = out + float(rng.normal()) * np.cos(np.asarray(phase) + float(rng.uniform(0, 7)))
    return out


class TestGridConstruction:
    def test_shape_and_count(self):
        g = TorusGrid(1, 8, 4)
        assert g.shape == (8, 4)
        assert g.n_nodes == 32
        g2 = TorusGrid(2, 6, 4)
        assert g2.shape == (6, 6, 4)
        assert g2.n_nodes == 6 * 6 * 4

    def test_node_coordinates(self):
        g = TorusGrid(1, 8, 4)
        x, t = g.coords()
        assert np.allclose(x.ravel(), np.arange(8) / 8)
        assert np.allclose(t.ravel(), np.arange(4) / 4)
        assert g.spacing(0) == 1 / 8 and g.spacing(1) == 1 / 4

    @pytest.mark.parametrize("d,n_x,n_t", [(3, 8, 8), (1, 7, 8), (1, 8, 7), (1, 0, 8), (1, 8, -2)])
    def test_invalid_grids_rejected(self, d, n_x, n_t):
        with pytest.raises(GridError):
            TorusGrid(d, n_x, n_t)

    def test_temporal_collapse_allowed(self):
        g = TorusGrid(1, 8, 1)
        assert g.shape == (8, 1)
        u = np.random.default_rng(0).normal(size=g.shape)
        assert np.all(g.deriv(u, 1) == 0.0)


class TestPartialDerivative:
    def test_sine_exact(self):
        g = TorusGrid(1, 16, 4)
        x, _ = g.coords()
        f = ScalarField(g, np.broadcast_to(np.sin(2 * np.pi * x), g.shape))
        df = partial_derivative(f, 0)
        exact = 2 * np.pi * np.cos(2 * np.pi * np.broadcast_to(x, g.shape))
        assert np.max(np.abs(df.values - exact)) <= 1e-12

    def test_constant_derivative_zero(self):
        g = TorusGrid(1, 8, 8)
        f = ScalarField(g, np.ones(g.shape))
        for axis in (0, 1):
            for method in ("spectral", "central4"):
                assert np.max(np.abs(partial_derivative(f, axis, method).values)) == 0.0

    def test_time_derivative_against_closed_form(self):
        # oracle: d/dt [cos(2 pi x) cos(4 pi t)] = -4 pi cos(2 pi x) sin(4 pi t)
        g = TorusGrid(1, 16, 32)
        x, t = g.coords()
        f = ScalarField(g, np.cos(2 * np.pi * x) * np.cos(4 * np.pi * t))
        exact = -4 * np.pi * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * t)
        df = partial_derivative(f, 1)
        assert np.max(np.abs(df.values - exact)) <= 1e-10

    def test_central4_fourth_order(self):
        errs = []
        for n in (16, 32):
            g = TorusGrid(1, n, 2)
            x, _ = g.coords()
            f = np.broadcast_to(np.sin(2 * np.pi * x), g.shape)
            exact = 2 * np.pi * np.cos(2 * np.pi * np.broadcast_to(x, g.shape))
            errs.append(np.max(np.abs(g.deriv(f, 0, "central4") - exact)))
        assert errs[0] / errs[1] > 12  # ratio 16 expected at fourth order

    def test_axis_out_of_range(self):
        g = TorusGrid(1, 8, 8)
        with pytest.raises(GridError):
            g.deriv(g.zeros(), 2)

    def test_nonfinite_rejected(self):
        g = TorusGrid(1, 8, 8)
        bad = g.zeros()
        bad[0, 0] = np.nan
        with pytest.raises(GridError):
            g.deriv(bad, 0)

    @pytest.mark.parametrize("method", ["spectral", "central4"])
    def test_mean_annihilation(self, method, rng):
        g = TorusGrid(1, 16, 16)
        f = random_band_limited(g, rng) + 2.1
        for axis in (0, 1):
            assert abs(g.integrate(g.deriv(f, axis, method))) <= 1e-13

    @pytest.mark.parametrize("method", ["spectral", "central4"])
    def test_skew_adjointness(self, method, rng):
        # makes the objective gradient identical to the transport residual
        g = TorusGrid(1, 16, 16)
        for _ in range(5):
            a = random_band_limited(g, rng)
            b = random_band_limited(g, rng)
            for axis in (0, 1):
                lhs = g.inner(b, g.deriv(a, axis, method))
                rhs = -g.inner(a, g.deriv(b, axis, method))
                assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_second_derivative(self):
        g = TorusGrid(1, 32, 4)
        x, _ = g.coords()
        f = np.broadcast_to(np.sin(2 * np.pi * x), g.shape)
        exact = -((2 * np.pi) ** 2) * f
        assert np.max(np.abs(g.deriv2(f, 0) - exact)) <= 1e-10


class TestIntegrate:
    def test_unit_volume(self):
        g = TorusGrid(1, 8, 8)
        assert integrate(ScalarField(g, np.ones(g.shape))) == 1.0

    def test_sine_integrates_to_zero(self):
        g = TorusGrid(1, 16, 4)
        x, _ = g.coords()
        f = ScalarField(g, np.broadcast_to(np.sin(2 * np.pi * x), g.shape))
        assert abs(integrate(f)) <= 1e-15

    @pytest.mark.parametrize("n_x", [4, 8, 16])
    def test_cos_squared_exact(self, n_x):
        g = TorusGrid(1, n_x, 2)
        x, _ = g.coords()
        f = ScalarField(g, np.broadcast_to(np.cos(2 * np.pi * x) ** 2, g.shape))
        assert abs(integrate(f) - 0.5) <= 1e-15

    def test_linearity(self, rng):
        g = TorusGrid(1, 16, 16)
        a = random_band_limited(g, rng)
        b = random_band_limited(g, rng)
        lhs = g.integrate(2.0 * a + 3.0 * b)
        assert abs(lhs - (2 * g.integrate(a) + 3 * g.integrate(b))) <= 1e-13


class TestProjectZeroMean:
    def test_constant_to_zero(self):
        g = TorusGrid(1, 8, 8)
        out = project_zero_mean(ScalarField(g, 5.0 * np.ones(g.shape)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_idempotent(self, rng):
        g = TorusGrid(1, 16, 16)
        f = ScalarField(g, random_band_limited(g, rng))
        p1 = project_zero_mean(f)
        p2 = project_zero_mean(p1)
        assert np.max(np.abs(p1.values - p2.values)) <= 1e-15
        assert abs(p1.mean()) <= 1e-15

    def test_shifted_sine(self):
        g = TorusGrid(1, 16, 2)
        x, _ = g.coords()
        s = np.broadcast_to(np.sin(2 * np.pi * x), g.shape)
        out = project_zero_mean(ScalarField(g, 2.0 + s))
        assert np.max(np.abs(out.values - s)) <= 1e-14


class TestDealias:
    def test_filter_removes_high_modes(self):
        g = TorusGrid(1, 24, 4)
        x, _ = g.coords()
        low = np.broadcast_to(np.cos(2 * np.pi * x), g.shape)
        high = np.broadcast_to(np.cos(2 * np.pi * 10 * x), g.shape)
        out = g.dealias(low + high)
        assert np.max(np.abs(out - low)) <= 1e-12

    def test_filter_keeps_low_band(self, rng):
        g = TorusGrid(1, 16, 16)
        f = random_band_limited(g, rng, max_freq=3)
        assert np.max(np.abs(g.dealias(f) - f)) <= 1e-12


class TestFieldTypes:
    def test_shape_mismatch_rejected(self):
        g = TorusGrid(1, 8, 8)
        with pytest.raises(GridError):
            ScalarField(g, np.zeros((8, 4)))

    def test_nonfinite_rejected(self):
        g = TorusGrid(1, 8, 8)
        vals = g.zeros()
        vals[1, 1] = np.inf
        with pytest.raises(GridError):
            ScalarField(g, vals)


class TestFieldIO:
    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_bit_exact_round_trip(self, fmt, tmp_path, rng):
        g = TorusGrid(1, 8, 6)
        f = ScalarField(g, rng.normal(size=g.shape) * np.pi)
        path = tmp_path / f"field.{fmt}"
        write_field(path, f, fmt)
        back = read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)  # bit exact

    def test_header_contents(self, tmp_path):
        g = TorusGrid(2, 4, 6)
        path = tmp_path / "f.csv"
        write_field(path, ScalarField(g, np.zeros(g.shape)), "csv")
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"d": 2, "n_x": 4, "n_t": 6, "ordering": "row-major, time-last", "format": "csv"}

    def test_truncated_file_rejected(self, tmp_path):
        g = TorusGrid(1, 4, 4)
        path = tmp_path / "f.csv"
        write_field(path, ScalarField(g, np.zeros(g.shape)), "csv")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(GridError):
            read_field(path)
