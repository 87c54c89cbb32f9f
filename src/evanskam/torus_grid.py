"""Uniform periodic grids on the space-time torus and spectral calculus on them.

Every axis has period one: ``d`` spatial axes with ``n_x`` points each plus a
temporal axis with ``n_t`` points, nodes at ``j/n``.  Fields are float64
arrays of shape ``grid.shape``, stored row-major with the time axis last;
that ordering is also the on-disk serialization order.

The default derivative is the discrete Fourier one (exact for trigonometric
polynomials below the Nyquist frequency); a fourth-order centered stencil is
available as a robustness fallback.  Both derivative operators are exactly
skew-adjoint in the node-mean inner product and annihilate constants, which
downstream code relies on: the discrete gradient of the exponential objective
is then literally the discrete transport residual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridError",
    "TorusGrid",
    "ScalarField",
    "partial_derivative",
    "integrate",
    "project_zero_mean",
    "write_field",
    "read_field",
]

_ORDERING = "row-major, time-last"


class GridError(ValueError):
    """Invalid grid construction or a field/grid mismatch."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform sampling of the space-time torus.

    ``n_t == 1`` collapses the temporal axis; time derivatives then vanish
    identically, which turns the time-periodic problem into its autonomous
    reduction on the spatial torus.
    """

    d: int
    n_x: int
    n_t: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise GridError(f"spatial dimension must be 1 or 2, got {self.d}")
        if self.n_x < 2 or self.n_x % 2 != 0:
            raise GridError(f"n_x must be a positive even integer, got {self.n_x}")
        if self.n_t != 1 and (self.n_t < 2 or self.n_t % 2 != 0):
            raise GridError(
                "n_t must be a positive even integer, or 1 for the autonomous "
                f"collapse, got {self.n_t}"
            )

    # -- geometry -----------------------------------------------------------

    @property
    def n_axes(self) -> int:
        return self.d + 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_x,) * self.d + (self.n_t,)

    @property
    def n_nodes(self) -> int:
        return self.n_x**self.d * self.n_t

    def axis_size(self, axis: int) -> int:
        self._check_axis(axis)
        return self.n_x if axis < self.d else self.n_t

    def spacing(self, axis: int) -> float:
        return 1.0 / self.axis_size(axis)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinates as an open mesh, broadcastable to ``shape``."""
        out = []
        for axis in range(self.n_axes):
            n = self.axis_size(axis)
            c = np.arange(n, dtype=float) / n
            shp = [1] * self.n_axes
            shp[axis] = n
            out.append(c.reshape(shp))
        return tuple(out)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.n_axes:
            raise GridError(f"axis {axis} out of range for d={self.d} (+ time)")

    def _check_values(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        if arr.shape != self.shape:
            raise GridError(f"field shape {arr.shape} does not match grid {self.shape}")
        return arr

    # -- calculus ------------------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        # Unit-volume torus: periodic trapezoidal quadrature is the node mean.
        return float(np.mean(values))

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.mean(a * b))

    def norm(self, values: np.ndarray) -> float:
        return float(np.sqrt(np.mean(np.square(values))))

    def project_zero_mean(self, values: np.ndarray) -> np.ndarray:
        return values - np.mean(values)

    def deriv(self, values: np.ndarray, axis: int, method: str = "spectral") -> np.ndarray:
        self._check_axis(axis)
        arr = self._check_values(values)
        if not np.all(np.isfinite(arr)):
            raise GridError("cannot differentiate a field with non-finite values")
        n = self.axis_size(axis)
        if n == 1:
            return np.zeros_like(arr)
        if method == "spectral":
            return self._deriv_spectral(arr, axis, n)
        if method == "central4":
            return self._deriv_central4(arr, axis, n)
        raise GridError(f"unknown differentiation method {method!r}")

    def _deriv_spectral(self, arr: np.ndarray, axis: int, n: int) -> np.ndarray:
        spec = np.fft.rfft(arr, axis=axis)
        mult = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
        mult[-1] = 0.0  # Nyquist must be zeroed to keep the operator real and skew-adjoint
        shp = [1] * arr.ndim
        shp[axis] = mult.size
        return np.fft.irfft(spec * mult.reshape(shp), n=n, axis=axis)

    def _deriv_central4(self, arr: np.ndarray, axis: int, n: int) -> np.ndarray:
        if n < 5:
            raise GridError("central4 differentiation needs at least 5 points per axis")
        h = 1.0 / n

        def sh(off: int) -> np.ndarray:
            return np.roll(arr, -off, axis=axis)

        return (8.0 * (sh(1) - sh(-1)) - (sh(2) - sh(-2))) / (12.0 * h)

    def deriv2(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Spectral second derivative in a single transform (Nyquist kept)."""
        self._check_axis(axis)
        arr = self._check_values(values)
        n = self.axis_size(axis)
        if n == 1:
            return np.zeros_like(arr)
        spec = np.fft.rfft(arr, axis=axis)
        mult = -((2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)) ** 2)
        shp = [1] * arr.ndim
        shp[axis] = mult.size
        return np.fft.irfft(spec * mult.reshape(shp), n=n, axis=axis)

    def dealias(self, values: np.ndarray) -> np.ndarray:
        """Two-thirds-rule filter: zero all modes with |freq| > n/3 on any axis."""
        arr = self._check_values(values)
        spec = np.fft.fftn(arr)
        for axis in range(self.n_axes):
            n = self.axis_size(axis)
            if n == 1:
                continue
            k = np.fft.fftfreq(n, d=1.0 / n)
            keep = (np.abs(k) <= n // 3).astype(float)
            shp = [1] * arr.ndim
            shp[axis] = n
            spec = spec * keep.reshape(shp)
        return np.real(np.fft.ifftn(spec))


@dataclass(frozen=True)
class ScalarField:
    """A real field sampled on a :class:`TorusGrid`."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = self.grid._check_values(self.values)
        if not np.all(np.isfinite(arr)):
            raise GridError("field values must be finite")
        object.__setattr__(self, "values", arr)

    def mean(self) -> float:
        return self.grid.integrate(self.values)


def partial_derivative(f: ScalarField, axis: int, method: str = "spectral") -> ScalarField:
    """Discrete partial derivative along one torus axis.

    Spectral differentiation is exact for trigonometric polynomials strictly
    below the Nyquist frequency; both methods return an exactly zero-mean
    field (up to rounding).
    """
    return ScalarField(f.grid, f.grid.deriv(f.values, axis, method))


def integrate(f: ScalarField) -> float:
    """Integral over the unit-volume torus, i.e. the mean of node values."""
    return f.grid.integrate(f.values)


def project_zero_mean(f: ScalarField) -> ScalarField:
    """Subtract the mean; idempotent."""
    return ScalarField(f.grid, f.grid.project_zero_mean(f.values))


# -- serialization -----------------------------------------------------------
#
# Dump format: one JSON header line, then node values in row-major, time-last
# order, either one decimal repr per line ("csv") or raw little-endian float64
# ("binary").  Both round-trip bit-exactly.


def _header(grid: TorusGrid, fmt: str) -> dict:
    return {
        "d": grid.d,
        "n_x": grid.n_x,
        "n_t": grid.n_t,
        "ordering": _ORDERING,
        "format": fmt,
    }


def write_field(path, f: ScalarField, fmt: str = "csv") -> None:
    if fmt not in ("csv", "binary"):
        raise GridError(f"unknown field format {fmt!r}")
    header = json.dumps(_header(f.grid, fmt), sort_keys=True)
    flat = f.values.ravel(order="C")
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(repr(float(v)) + "\n" for v in flat)
    else:
        with open(path, "wb") as fh:
            fh.write((header + "\n").encode("ascii"))
            fh.write(flat.astype("<f8").tobytes())


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        grid = TorusGrid(d=header["d"], n_x=header["n_x"], n_t=header["n_t"])
        if header.get("ordering") != _ORDERING:
            raise GridError(f"unsupported ordering {header.get('ordering')!r}")
        if header.get("format") == "binary":
            vals = np.frombuffer(fh.read(), dtype="<f8").astype(float)
        else:
            vals = np.array([float(tok) for tok in fh.read().decode("ascii").split()])
    if vals.size != grid.n_nodes:
        raise GridError(f"expected {grid.n_nodes} values, found {vals.size}")
    return ScalarField(grid, vals.reshape(grid.shape))
