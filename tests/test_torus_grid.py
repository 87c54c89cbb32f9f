import json

import numpy as np
import pytest

from conftest import assert_bitwise
from evanskam import torus_grid
from evanskam.torus_grid import (
    GridError,
    ScalarField,
    TorusGrid,
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

    @pytest.mark.parametrize(
        "d,n_x,n_t",
        [
            (3, 8, 8), (1, 0, 8), (1, 8, -2),
            # sizes that are not integers used to construct and fail later, in zeros() or deriv()
            (1, 16.0, 8), (1.0, 8, 8), (1, 8, 8.0), (1, "8", 8), (True, 8, 8), (1, 8, True),
            # below the size rule n_x >= 2, n_t >= 1
            (1, 1, 8), (1, 8, 0),
        ],
    )
    def test_invalid_grids_rejected(self, d, n_x, n_t):
        with pytest.raises(GridError):
            TorusGrid(d, n_x, n_t)

    @pytest.mark.parametrize("d,n_x,n_t", [(1, 7, 8), (1, 8, 7), (1, 33, 15), (1, 33, 1), (2, 7, 7)])
    def test_odd_sizes_accepted(self, d, n_x, n_t):
        # deriv is exact on the highest mode below half of each axis length, odd or even
        g = TorusGrid(d, n_x, n_t)
        assert g.shape == (n_x,) * d + (n_t,)
        freqs = [(n - 1) // 2 for n in g.shape]
        phase = 0.3 + 2 * np.pi * sum(k * c for k, c in zip(freqs, g.coords()))
        for axis in range(g.n_axes):
            exact = -2 * np.pi * freqs[axis] * np.sin(phase)
            assert np.max(np.abs(g.deriv(2.0 + np.cos(phase), axis) - exact)) <= 1e-12 * (1 + freqs[axis])

    def test_numpy_integer_sizes_accepted(self):
        g = TorusGrid(np.int64(1), np.int32(8), np.int64(4))
        assert g.shape == (8, 4) and g.zeros().shape == (8, 4)

    def test_temporal_collapse_allowed(self):
        g = TorusGrid(1, 8, 1)
        assert g.shape == (8, 1)
        u = np.random.default_rng(0).normal(size=g.shape)
        assert np.all(g.deriv(u, 1) == 0.0)


class TestPartialDerivative:
    def test_sine_exact(self):
        g = TorusGrid(1, 16, 4)
        x, _ = g.coords()
        df = g.deriv(np.broadcast_to(np.sin(2 * np.pi * x), g.shape), 0)
        exact = 2 * np.pi * np.cos(2 * np.pi * np.broadcast_to(x, g.shape))
        assert np.max(np.abs(df - exact)) <= 1e-12

    def test_constant_derivative_zero(self):
        g = TorusGrid(1, 8, 8)
        for axis in (0, 1):
            assert np.max(np.abs(g.deriv(np.ones(g.shape), axis))) == 0.0

    def test_time_derivative_against_closed_form(self):
        # oracle: d/dt [cos(2 pi x) cos(4 pi t)] = -4 pi cos(2 pi x) sin(4 pi t)
        g = TorusGrid(1, 16, 32)
        x, t = g.coords()
        exact = -4 * np.pi * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * t)
        df = g.deriv(np.cos(2 * np.pi * x) * np.cos(4 * np.pi * t), 1)
        assert np.max(np.abs(df - exact)) <= 1e-10

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_exact_on_every_mode_below_nyquist(self, n):
        # no truncation error: each mode below n/2 is differentiated to
        # round-off, and the Nyquist mode, which D drops, maps to zero
        g = TorusGrid(1, n, 2)
        x = np.broadcast_to(g.coords()[0], g.shape)
        for j in range(1, n // 2):
            y = 2 * np.pi * j * x
            for f, exact in ((np.sin(y), 2 * np.pi * j * np.cos(y)), (np.cos(y), -2 * np.pi * j * np.sin(y))):
                assert np.max(np.abs(g.deriv(f, 0) - exact)) <= 1e-14 * n * n
        assert np.max(np.abs(g.deriv(np.cos(np.pi * n * x), 0))) <= 1e-14 * n * n

    @pytest.mark.parametrize("shape", [(1, 16, 16), (2, 8, 8)])
    def test_axes_of_one_length_share_one_matrix(self, shape, rng):
        # D is chosen by the axis length alone: any axis of a given length is
        # differentiated as the first one is, to the bit
        g = TorusGrid(*shape)
        u = rng.normal(size=g.shape)
        ref = g.deriv(u, 0)
        for axis in range(1, g.n_axes):
            moved = np.ascontiguousarray(u.swapaxes(0, axis))
            assert_bitwise(g.deriv(moved, axis).swapaxes(0, axis), ref)

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

    @pytest.mark.parametrize("axis", [0.5, 1.0])
    def test_non_integer_axis_refused(self, axis):
        # both pass the range test; the integer test comes first
        g = TorusGrid(1, 8, 8)
        with pytest.raises(GridError, match=f"axis must be an integer, got {axis}"):
            g.deriv(g.zeros(), axis)
        with pytest.raises(GridError, match=f"axis must be an integer, got {axis}"):
            g.axis_size(axis)

    def test_numpy_integer_axis_accepted(self, rng):
        g = TorusGrid(1, 8, 8)
        f = rng.normal(size=g.shape)
        assert g.axis_size(np.int64(1)) == 8
        assert_bitwise(g.deriv(f, np.int64(1)), g.deriv(f, 1))

    @pytest.mark.parametrize("shape", [(1, 8, 8), (1, 8, 1), (2, 6, 4), (2, 6, 1), (1, 2, 2)])
    def test_nonfinite_rejected_on_every_axis(self, shape):
        # a time axis of length 1 returns zeros, but only after the check
        g = TorusGrid(*shape)
        for bad_value in (np.nan, np.inf):
            bad = g.zeros()
            bad.flat[3] = bad_value
            for axis in range(g.n_axes):
                with pytest.raises(GridError):
                    g.deriv(bad, axis)

    @pytest.mark.parametrize("shape", [(1, 16, 16), (1, 32, 1), (2, 8, 6)])
    def test_mean_annihilation(self, shape, rng):
        g = TorusGrid(*shape)
        f = random_band_limited(g, rng) + 2.1
        for axis in range(g.n_axes):
            assert abs(g.integrate(g.deriv(f, axis))) <= 1e-13

    @pytest.mark.parametrize("shape", [(1, 16, 16), (1, 32, 1), (2, 8, 6)])
    def test_skew_adjointness(self, shape, rng):
        # makes the objective gradient identical to the transport residual
        g = TorusGrid(*shape)
        for _ in range(5):
            a = random_band_limited(g, rng)
            b = random_band_limited(g, rng)
            for axis in range(g.n_axes):
                lhs = g.inner(b, g.deriv(a, axis))
                rhs = -g.inner(a, g.deriv(b, axis))
                assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_second_derivative(self):
        g = TorusGrid(1, 32, 4)
        x, _ = g.coords()
        f = np.broadcast_to(np.sin(2 * np.pi * x), g.shape)
        exact = -((2 * np.pi) ** 2) * f
        assert np.max(np.abs(g.deriv(g.deriv(f, 0), 0) - exact)) <= 1e-10


def uncached_spectral(arr: np.ndarray, axis: int) -> np.ndarray:
    """The spectral derivative by its definition: FFT, times 2*pi*i*freq with any Nyquist bin zeroed, inverse FFT."""
    n = arr.shape[axis]
    mult = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        mult[-1] = 0.0  # an odd n has no Nyquist bin
    shp = [1] * arr.ndim
    shp[axis] = mult.size
    return np.fft.irfft(np.fft.rfft(arr, axis=axis) * mult.reshape(shp), n=n, axis=axis)


def fresh_spectral_matrix(n: int) -> np.ndarray:
    """pi*(-1)^(i-j)*cot(pi*(i-j)/n) built afresh, offsets above n/2 negated from their mirrors."""
    col = np.zeros(n)
    k = np.arange(1, (n + 1) // 2)
    col[k] = np.pi * (-1.0) ** k / np.tan(np.pi * k / n)
    col[n - k] = -col[k]
    idx = np.arange(n)
    return col[(idx[:, None] - idx[None, :]) % n]


class TestKernelBits:
    """The node-mean and derivative kernels give the bits of their plain numpy forms."""

    @staticmethod
    def wide_field(rng, shape):
        # magnitudes over six decades and an offset, so rounding shows
        vals = 3.7 + rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        vals.flat[0] = -0.0
        return vals

    @pytest.mark.parametrize("shape", [(3,), (6,), (64,), (128, 128)])
    def test_node_means_match_np_mean(self, shape, rng):
        g = TorusGrid(1, 8, 8)  # node means read the values alone
        a, b = self.wide_field(rng, shape), self.wide_field(rng, shape)
        assert_bitwise(g.integrate(a), float(np.mean(a)))
        assert_bitwise(g.inner(a, b), float(np.mean(a * b)))
        assert_bitwise(g.norm(a), float(np.sqrt(np.mean(np.square(a)))))
        assert_bitwise(g.project_zero_mean(a), a - np.mean(a))

    @pytest.mark.parametrize("shape", [(1, 64, 8), (2, 16, 4), (1, 6, 8), (2, 16, 6)])
    def test_spectral_deriv_matches_the_uncached_formula(self, shape, rng):
        # a freshly built matrix applied to each line, shifted by its first value
        g = TorusGrid(*shape)
        u = self.wide_field(rng, g.shape)
        for axis in range(g.n_axes):
            D = fresh_spectral_matrix(g.shape[axis])
            expected = np.apply_along_axis(lambda line: D @ (line - line[0]), axis, u)
            for _ in range(2):  # the second call reads the cached matrix
                assert_bitwise(g.deriv(u, axis), expected)

    def test_cached_multiplier_is_read_only(self):
        g = TorusGrid(1, 16, 4)
        g.deriv(g.zeros(), 0)
        D = torus_grid.derivative_matrix(16)
        assert torus_grid.derivative_matrix(16) is D
        with pytest.raises(ValueError):
            D[1, 0] = 0.0

    @pytest.mark.parametrize("n", [2, 7, 33, 64, 128, 129])
    def test_cached_matrices_start_on_a_64_byte_boundary(self, n):
        # so that a BLAS call's speed does not hang on where malloc put the matrix
        for M in (torus_grid.derivative_matrix(n), torus_grid.antiderivative_matrix(n)):
            assert M.ctypes.data % 64 == 0 and M.flags.c_contiguous and M.shape == (n, n)

    def test_deriv_agrees_with_the_fft_definition(self, rng):
        for n in range(2, 257):
            for g in (TorusGrid(1, n, n), TorusGrid(2, n, 2), TorusGrid(2, 2, n)):
                u = self.wide_field(rng, g.shape)
                for axis in range(g.n_axes):
                    ref = uncached_spectral(u, axis)
                    err = np.max(np.abs(g.deriv(u, axis) - ref))
                    assert err <= 1e-14 * np.max(np.abs(ref)), (g, axis, err)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 9, 16, 64, 65, 255, 256])
    def test_derivative_matrix_is_exact_below_half_the_nodes(self, n):
        # odd n has no Nyquist mode: its weights are pi*(-1)^k/sin(pi*k/n), not the
        # even-n cot weights, which missed sin(2 pi x) by 0.35 at n = 7
        D = torus_grid.derivative_matrix(n)
        x = np.arange(n) / n
        for m in range(1, (n + 1) // 2):  # every mode below n/2
            phase = 2 * np.pi * m * x
            for f, df in ((np.sin(phase), np.cos(phase)), (np.cos(phase), -np.sin(phase))):
                assert np.max(np.abs(D @ f - 2 * np.pi * m * df)) <= 1e-12 * 2 * np.pi * m, (n, m)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 16, 32, 64, 65, 128, 256])
    def test_derivative_matrix_is_exactly_odd(self, n):
        D = torus_grid.derivative_matrix(n)
        assert np.array_equal(D.T, -D)  # exact float equality; zeros only differ in sign

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 16, 32, 64, 65])
    def test_antiderivative_matrix_is_the_pseudo_inverse(self, n):
        # the FFT construction against an SVD; odd and exactly skew, and read-only in the cache
        Dp = torus_grid.antiderivative_matrix(n)
        assert torus_grid.antiderivative_matrix(n) is Dp
        assert np.array_equal(Dp.T, -Dp)
        assert np.max(np.abs(Dp - np.linalg.pinv(torus_grid.derivative_matrix(n)))) <= 1e-14
        with pytest.raises(ValueError):
            Dp[1, 0] = 0.0

    def test_antiderivative_maps_onto_zero_mean_nyquist_free_fields(self, rng):
        n = 1024
        D, Dp = torus_grid.derivative_matrix(n), torus_grid.antiderivative_matrix(n)
        alternating = (-1.0) ** np.arange(n)
        for x in (rng.standard_normal(n), np.ones(n), alternating):
            y = Dp @ x
            assert abs(y.sum()) <= 1e-14 * np.abs(x).sum()
            assert abs(alternating @ y) <= 1e-14 * np.abs(x).sum()
        x = rng.standard_normal(n)
        x -= x.mean() + (alternating @ x) / n * alternating
        assert np.max(np.abs(D @ (Dp @ x) - x)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("shape", [(1, 8, 8), (1, 64, 1), (2, 6, 6), (2, 16, 8), (1, 2, 2), (2, 4, 1)])
    def test_constants_along_the_axis_map_to_exact_zeros(self, shape, rng):
        # constant along the differentiated axis, varying along the others
        g = TorusGrid(*shape)
        for axis in range(g.n_axes):
            u = np.repeat(self.wide_field(rng, g.shape).take([0], axis=axis), g.shape[axis], axis=axis)
            assert np.all(g.deriv(u, axis) == 0.0)

    @pytest.mark.parametrize("L", [1, 3, 8, 17])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_each_line_has_the_bits_of_its_own_call(self, L, axis, rng):
        # what lets a certificate on the caller's grid reproduce a one-plane solve to the bit:
        # on 64 x L, each line along the axis has the bits of the one line of a one-plane grid
        g = TorusGrid(1, 64, L)
        u = self.wide_field(rng, g.shape)
        whole = g.deriv(u, axis)
        for j in range(g.shape[1 - axis]):
            line = u.take(j, axis=1 - axis)
            # a line of one node has derivative zero, and a one-plane grid has two or more
            alone = TorusGrid(1, line.size, 1).deriv(line[:, None], 0)[:, 0] if line.size > 1 else np.zeros(1)
            assert_bitwise(whole.take(j, axis=1 - axis), alone)


class TestNoMethodArgument:
    """One derivative: the matrix builders and ``deriv`` take no differentiation method."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: torus_grid.derivative_matrix(16, "spectral"),
            lambda: torus_grid.antiderivative_matrix(16, "spectral"),
            lambda: TorusGrid(1, 8, 8).deriv(np.zeros((8, 8)), 0, "spectral"),
            lambda: TorusGrid(1, 8, 8).deriv(np.zeros((8, 8)), 0, method="central4"),
        ],
        ids=["derivative_matrix", "antiderivative_matrix", "deriv", "deriv-keyword"],
    )
    def test_method_argument_refused(self, call):
        with pytest.raises(TypeError):
            call()


class TestMatrixCaches:
    """The derivative and antiderivative matrices are cached per length n in bounded caches."""

    BUILDERS = [torus_grid.derivative_matrix, torus_grid.antiderivative_matrix]

    @pytest.mark.parametrize("build", BUILDERS, ids=["derivative", "antiderivative"])
    def test_cache_is_bounded(self, build):
        maxsize = build.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 64

    @pytest.mark.parametrize("build", BUILDERS, ids=["derivative", "antiderivative"])
    def test_rebuilt_after_eviction_bit_identical_and_read_only(self, build):
        first = build(64)
        kept = first.copy()
        for n in range(65, 65 + 2 * build.cache_info().maxsize, 2):  # as many other lengths as the cache holds
            build(n)
        assert build.cache_info().currsize <= build.cache_info().maxsize
        rebuilt = build(64)
        assert rebuilt is not first
        assert_bitwise(rebuilt, kept)
        with pytest.raises(ValueError):
            rebuilt[1, 0] = 0.0


class TestIntegrate:
    def test_unit_volume(self):
        g = TorusGrid(1, 8, 8)
        assert ScalarField(g, np.ones(g.shape)).mean() == 1.0

    def test_sine_integrates_to_zero(self):
        g = TorusGrid(1, 16, 4)
        x, _ = g.coords()
        f = ScalarField(g, np.broadcast_to(np.sin(2 * np.pi * x), g.shape))
        assert abs(f.mean()) <= 1e-15

    @pytest.mark.parametrize("n_x", [4, 8, 16])
    def test_cos_squared_exact(self, n_x):
        g = TorusGrid(1, n_x, 2)
        x, _ = g.coords()
        f = ScalarField(g, np.broadcast_to(np.cos(2 * np.pi * x) ** 2, g.shape))
        assert abs(f.mean() - 0.5) <= 1e-15

    def test_linearity(self, rng):
        g = TorusGrid(1, 16, 16)
        a = random_band_limited(g, rng)
        b = random_band_limited(g, rng)
        lhs = g.integrate(2.0 * a + 3.0 * b)
        assert abs(lhs - (2 * g.integrate(a) + 3 * g.integrate(b))) <= 1e-13


class TestProjectZeroMean:
    def test_constant_to_zero(self):
        g = TorusGrid(1, 8, 8)
        out = g.project_zero_mean(5.0 * np.ones(g.shape))
        assert np.max(np.abs(out)) == 0.0

    def test_idempotent(self, rng):
        g = TorusGrid(1, 16, 16)
        p1 = g.project_zero_mean(random_band_limited(g, rng))
        p2 = g.project_zero_mean(p1)
        assert np.max(np.abs(p1 - p2)) <= 1e-15
        assert abs(g.integrate(p1)) <= 1e-15

    def test_shifted_sine(self):
        g = TorusGrid(1, 16, 2)
        x, _ = g.coords()
        s = np.broadcast_to(np.sin(2 * np.pi * x), g.shape)
        out = g.project_zero_mean(2.0 + s)
        assert np.max(np.abs(out - s)) <= 1e-14


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

    def test_values_whose_sum_overflows_are_accepted(self):
        # the one-sum finiteness test overflows here and reads the values one by one
        g = TorusGrid(1, 8, 1)
        big = np.full(g.shape, 1e308)
        with np.errstate(over="ignore"):
            assert ScalarField(g, big).values is big
            assert np.all(g.deriv(big, 0) == 0.0)


class TestFieldIO:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        g = TorusGrid(1, 8, 6)
        f = ScalarField(g, rng.normal(size=g.shape) * np.pi)
        path = tmp_path / "field.csv"
        write_field(path, f)
        back = read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)  # bit exact

    def test_header_contents(self, tmp_path):
        g = TorusGrid(2, 4, 6)
        path = tmp_path / "f.csv"
        write_field(path, ScalarField(g, np.zeros(g.shape)))
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"d": 2, "n_x": 4, "n_t": 6, "ordering": "row-major, time-last", "format": "csv"}

    def test_format_argument_refused(self, tmp_path):
        # csv is the one field format
        g = TorusGrid(1, 4, 4)
        with pytest.raises(TypeError):
            write_field(tmp_path / "f.bin", ScalarField(g, np.zeros(g.shape)), "binary")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("format", "binary", "unsupported format 'binary'"),
            ("ordering", "column-major", "unsupported ordering 'column-major'"),
        ],
        ids=["format", "ordering"],
    )
    def test_foreign_header_refused(self, tmp_path, key, value, message):
        g = TorusGrid(1, 4, 4)
        path = tmp_path / "f.csv"
        write_field(path, ScalarField(g, np.zeros(g.shape)))
        header, *values = path.read_text().splitlines()
        path.write_text("\n".join([json.dumps({**json.loads(header), key: value}), *values]) + "\n")
        with pytest.raises(GridError, match=f"^{message}$"):
            read_field(path)

    def test_truncated_file_rejected(self, tmp_path):
        g = TorusGrid(1, 4, 4)
        path = tmp_path / "f.csv"
        write_field(path, ScalarField(g, np.zeros(g.shape)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(GridError):
            read_field(path)
