"""Uniform periodic grids on the space-time torus and spectral calculus on them.

Every axis has period one: ``d`` spatial axes with ``n_x`` points each plus a
temporal axis with ``n_t`` points, nodes at ``j/n``.  Fields are float64
arrays of shape ``grid.shape``, stored row-major with the time axis last;
that ordering is also the on-disk serialization order.

The derivative is the discrete Fourier one, exact for trigonometric
polynomials below half the axis length.  It is one cached circulant matrix
per axis length (``derivative_matrix``), exactly skew (D^T = -D to the bit),
and ``deriv`` maps constants to exact zeros, which downstream code relies on:
the discrete gradient of the exponential objective is then literally the
discrete transport residual.  On an odd axis the constants are D's only null
mode; on an even axis D also drops the Nyquist mode, and so does a second
derivative, which is two ``deriv`` calls.  ``antiderivative_matrix`` is its
pseudo-inverse, built once from its FFT eigenvalues.

Solves call the kernels thousands of times on small grids, so node means are
one sum and one division (the bits of ``np.mean``), and a derivative is one
BLAS matvec per grid line, whose bits do not depend on the number of lines.
The per-call set-up is kept short: ``shape`` is built once per grid, a
field's checks are one shape comparison and one sum (a finite sum proves
every value finite), and a field of one line is one plain matvec.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "GridError",
    "derivative_matrix",
    "antiderivative_matrix",
    "TorusGrid",
    "ScalarField",
    "write_field",
    "read_field",
    "write_table",
    "write_json",
]

_ORDERING = "row-major, time-last"


class GridError(ValueError):
    """Invalid grid construction or a field/grid mismatch."""


# Both matrix caches keep 8 lengths: a solve reads at most two (n_x and
# n_t), and one 4,096-node matrix is 128 MiB.
@lru_cache(maxsize=8)
def derivative_matrix(n: int) -> np.ndarray:
    """The spectral first-derivative matrix on n periodic nodes, cached and read-only.

    D_ij = pi*(-1)^(i-j)*cot(pi*(i-j)/n) for even n, Nyquist mode dropped,
    and pi*(-1)^(i-j)/sin(pi*(i-j)/n) for odd n, whose only null mode is the
    constant (Trefethen, Spectral Methods in MATLAB, ch. 3): exact on every
    mode below n/2.  Offsets k and n - k take opposite weights from one
    evaluation, so D^T = -D to the bit.
    """
    col = np.zeros(n)  # the weight at offset i - j; the Nyquist offset n/2 keeps 0
    k = np.arange(1, (n + 1) // 2)
    col[k] = np.pi * (-1.0) ** k / (np.tan(np.pi * k / n) if n % 2 == 0 else np.sin(np.pi * k / n))
    col[n - k] = -col[k]
    return _skew_circulant(col)


@lru_cache(maxsize=8)
def antiderivative_matrix(n: int) -> np.ndarray:
    """The pseudo-inverse D+ of ``derivative_matrix(n)``, cached and read-only.

    D is circulant, so D+ is the circulant whose eigenvalues are the
    reciprocals of D's FFT eigenvalues, with D's null modes (the constant
    and, for even n, the Nyquist mode) kept at zero.  Offsets k and n - k
    take opposite weights, so D+^T = -D+ to the bit.  D+ maps onto the
    zero-mean, Nyquist-free fields, where D+ D and D D+ are the identity.
    """
    k = np.arange(1, (n + 1) // 2)  # D keeps the frequencies k and n - k; 0 and n/2 are its null modes
    eig = np.fft.fft(derivative_matrix(n)[:, 0])
    inv = np.zeros(n, complex)
    inv[k], inv[n - k] = 1.0 / eig[k], 1.0 / eig[n - k]
    col = np.zeros(n)
    col[k] = np.fft.ifft(inv).real[k]
    col[n - k] = -col[k]
    return _skew_circulant(col)


def _skew_circulant(col: np.ndarray) -> np.ndarray:
    """The read-only circulant M_ij = col[(i - j) mod n] of an odd weight column, on a 64-byte boundary.

    Where malloc puts a matrix depends on the heap's history, and BLAS reads one that starts
    16 bytes off a 32-byte boundary about 25 % slower (128-node batched matvecs).
    """
    n = col.size
    offsets = np.arange(n)
    buf = np.empty(n * n + 8)  # 64 bytes of slack
    start = -buf.ctypes.data % 64 // 8
    M = buf[start : start + n * n].reshape(n, n)
    M[...] = col[(offsets[:, None] - offsets) % n]
    M.flags.writeable = False  # shared by every later call
    return M


@dataclass(frozen=True)
class TorusGrid:
    """Uniform sampling of the space-time torus, ``n_x >= 2`` nodes per spatial axis and ``n_t >= 1`` in time.

    Sizes of either parity are grids.  On an odd axis the derivative's only null mode is the
    constant, so a solve determines u up to its mean; an even axis leaves u's Nyquist mode
    undetermined.  ``n_t == 1`` collapses the temporal axis; time derivatives then vanish
    identically, which turns the time-periodic problem into its autonomous reduction on the
    spatial torus.
    """

    d: int
    n_x: int
    n_t: int

    def __post_init__(self) -> None:
        for name in ("d", "n_x", "n_t"):
            size = getattr(self, name)
            if type(size) is not int and (isinstance(size, bool) or not isinstance(size, numbers.Integral)):
                raise GridError(f"{name} must be an integer, got {size!r}")
        if self.d not in (1, 2):
            raise GridError(f"spatial dimension must be 1 or 2, got {self.d}")
        if self.n_x < 2 or self.n_t < 1:
            raise GridError(f"grid sizes must be n_x >= 2 and n_t >= 1, got n_x={self.n_x}, n_t={self.n_t}")

    # -- geometry -----------------------------------------------------------

    @property
    def n_axes(self) -> int:
        return self.d + 1

    @cached_property
    def shape(self) -> tuple[int, ...]:
        # built on first read and kept on the instance: solves read it on every state
        return (self.n_x,) * self.d + (self.n_t,)

    @property
    def n_nodes(self) -> int:
        return self.n_x**self.d * self.n_t

    def axis_size(self, axis: int) -> int:
        self._check_axis(axis)
        return self.n_x if axis < self.d else self.n_t

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
        if type(axis) is not int and not isinstance(axis, numbers.Integral):
            raise GridError(f"axis must be an integer, got {axis!r}")
        if not 0 <= axis < self.n_axes:
            raise GridError(f"axis {axis} out of range for d={self.d} (+ time)")

    def _checked(self, values: np.ndarray, nonfinite: str) -> np.ndarray:
        """``values`` as a float array of the grid's shape with finite values.

        A shape other than the grid's raises GridError, then a NaN or an
        infinity raises GridError(``nonfinite``).  A finite sum proves every
        value finite in one reduction, since a NaN or an infinity makes every
        sum that contains it NaN or infinite; only a sum that meets one of
        them, or overflows (values near the largest double, where numpy warns
        of the overflow), reads the values one by one.
        """
        arr = np.asarray(values, dtype=float)
        if arr.shape != self.shape:
            raise GridError(f"field shape {arr.shape} does not match grid {self.shape}")
        if not (math.isfinite(np.add.reduce(arr, None)) or np.isfinite(arr).all()):
            raise GridError(nonfinite)
        return arr

    # -- calculus ------------------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        # Unit-volume torus: periodic trapezoidal quadrature is the node mean.
        # One reduction, then the division np.mean makes: the same bits.
        return float(np.add.reduce(values, None)) / values.size

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return self.integrate(a * b)

    def norm(self, values: np.ndarray) -> float:
        return math.sqrt(self.integrate(np.square(values)))

    def project_zero_mean(self, values: np.ndarray) -> np.ndarray:
        return values - self.integrate(values)

    def deriv(self, values: np.ndarray, axis: int) -> np.ndarray:
        """The derivative of a field along ``axis``: ``derivative_matrix`` applied to each grid line.

        Each line is first shifted by its own first value, which maps
        constant lines to exact zeros.  A field of one line (a one-plane 1-d
        grid) is one plain matvec; more lines take one batched ``matmul``,
        which does one matvec per line (one GEMM would round differently),
        so a line's bits do not depend on the number of lines.  An axis out
        of range, a shape other than the grid's and a non-finite value raise
        GridError, in that order; an axis of one node gives zeros.
        """
        self._check_axis(axis)
        arr = self._checked(values, "cannot differentiate a field with non-finite values")
        n = arr.shape[axis]
        if arr.size == n:  # one line
            line = arr.ravel()
            return np.dot(derivative_matrix(n), line - line[0]).reshape(arr.shape)
        x, out = arr.swapaxes(axis, -1), np.empty(arr.shape)
        np.matmul(derivative_matrix(n), (x - x[..., :1])[..., None], out=out.swapaxes(axis, -1)[..., None])
        return out


@dataclass(frozen=True)
class ScalarField:
    """A real field sampled on a :class:`TorusGrid`."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", self.grid._checked(self.values, "field values must be finite"))

    def mean(self) -> float:
        return self.grid.integrate(self.values)


# -- serialization -----------------------------------------------------------
#
# Dump format ("csv"): one JSON header line, then the node values in
# row-major, time-last order, one decimal repr per line.  It round-trips
# bit-exactly.


def write_field(path, f: ScalarField) -> None:
    """``f`` as a field dump: its grid's header, then one repr per node."""
    header = {"d": f.grid.d, "n_x": f.grid.n_x, "n_t": f.grid.n_t, "ordering": _ORDERING, "format": "csv"}
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.writelines(repr(float(v)) + "\n" for v in f.values.ravel(order="C"))


def write_table(path, header: list[str], rows, sidecar: dict | None = None, records=None, shown=()) -> None:
    """A CSV table of numbers, each float as its repr, each integer as its digits and each flag as 0 or 1.

    ``records`` holds one dict per row (a ``SolveResult.metadata()``); each key of the first that is neither
    in ``header`` nor in ``shown`` is a trailing column.  ``sidecar`` goes to ``path`` + ".json" (``write_json``).
    """
    if records:
        extra = [key for key in records[0] if key not in header and key not in shown]
        header = header + extra
        rows = ([*row, *(rec[key] for key in extra)] for row, rec in zip(rows, records, strict=True))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([int(v) if isinstance(v, (int, np.integer, np.bool_)) else repr(float(v)) for v in row] for row in rows)
    if sidecar is not None:
        write_json(str(path) + ".json", sidecar)


def write_json(path, obj) -> None:
    """``obj`` as JSON with sorted keys, two-space indents and a closing newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_field(path) -> ScalarField:
    """The field of a ``write_field`` dump; another ordering or format, or a wrong count of values, raises GridError."""
    with open(path, encoding="ascii") as fh:
        header = json.loads(fh.readline())
        grid = TorusGrid(d=header["d"], n_x=header["n_x"], n_t=header["n_t"])
        if header.get("ordering") != _ORDERING:
            raise GridError(f"unsupported ordering {header.get('ordering')!r}")
        if header.get("format") != "csv":
            raise GridError(f"unsupported format {header.get('format')!r}")
        vals = np.array([float(tok) for tok in fh.read().split()])
    if vals.size != grid.n_nodes:
        raise GridError(f"expected {grid.n_nodes} values, found {vals.size}")
    return ScalarField(grid, vals.reshape(grid.shape))
