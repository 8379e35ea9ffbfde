"""Phase-space and coordinate-space discretization.

Uniform, origin-symmetric rectangular grids with trapezoidal quadrature
and central finite-difference derivative kernels of accuracy order 4,
applied as a weighted sum of shifted slices of the field.  Fields are
treated as identically zero outside the grid, which is the correct
extension for the Gaussian-enveloped states this package works with.
A derivative can be taken on a band of lines that spans the differentiated
axis, and a quadrature summed over a rectangle of nodes; the nodes they
cover get the whole grid's values.

A configured grid can be cut to a rectangle of its nodes
(PhaseSpaceGrid.cut): the cut is a grid of its own whose nodes, spacings
and quadrature weights are the configured grid's, so a field on the cut
is the configured field's restriction.  Node windows are index slices of
the configured grid, and PhaseSpaceGrid.local maps one onto a cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import RejectionError

#: Highest derivative order served by :func:`partial_derivative`.  Chosen to
#: cover the momentum derivatives of the quantum-correction series up to
#: truncation order 3 (derivative order 2*nu).
MAX_DERIVATIVE_ORDER = 6

#: Design accuracy of the interior stencils.
STENCIL_ACCURACY = 4


def _validate_axis_extent(name: str, lo: float, hi: float, n: int, symmetric: bool = True) -> None:
    if n < 16:
        raise RejectionError(f"{name}: need at least 16 nodes, got {n}")
    if not hi > lo:
        raise RejectionError(f"{name}: empty extent [{lo}, {hi}]")
    if symmetric and abs(lo + hi) > 1e-12 * max(abs(lo), abs(hi)):
        raise RejectionError(
            f"{name}: grid must be symmetric about the origin, got [{lo}, {hi}]"
        )


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform node-centered discretization of the dimensionless (x, k) plane.

    A configured grid is symmetric about the origin.  A cut (see cut) is
    the rectangle of a configured grid's nodes that starts at index origin
    along x and k; full is that configured grid, None for a configured one.
    """

    x_min: float
    x_max: float
    k_min: float
    k_max: float
    n_x: int
    n_k: int
    full: PhaseSpaceGrid | None = field(default=None, repr=False)
    origin: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        symmetric = self.full is None
        _validate_axis_extent("x axis", self.x_min, self.x_max, self.n_x, symmetric)
        _validate_axis_extent("k axis", self.k_min, self.k_max, self.n_k, symmetric)

    @classmethod
    def centered(cls, x_max: float, k_max: float, n_x: int, n_k: int) -> "PhaseSpaceGrid":
        return cls(-x_max, x_max, -k_max, k_max, n_x, n_k)

    @property
    def configured(self) -> "PhaseSpaceGrid":
        """The configured grid: full for a cut, else the grid itself."""
        return self if self.full is None else self.full

    @property
    def h_x(self) -> float:
        g = self.configured
        return (g.x_max - g.x_min) / (g.n_x - 1)

    @property
    def h_k(self) -> float:
        g = self.configured
        return (g.k_max - g.k_min) / (g.n_k - 1)

    @property
    def x(self) -> np.ndarray:
        g, i = self.configured, self.origin[0]
        return np.linspace(g.x_min, g.x_max, g.n_x)[i : i + self.n_x]

    @property
    def k(self) -> np.ndarray:
        g, j = self.configured, self.origin[1]
        return np.linspace(g.k_min, g.k_max, g.n_k)[j : j + self.n_k]

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate matrices X, K of shape (n_x, n_k)."""
        return np.meshgrid(self.x, self.k, indexing="ij")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_x, self.n_k)

    @property
    def window(self) -> tuple[slice, slice]:
        """This grid's nodes as a window of the configured grid: index slices along x and k."""
        (i, j) = self.origin
        return slice(i, i + self.n_x), slice(j, j + self.n_k)

    def cut(self, rows: slice, cols: slice) -> "PhaseSpaceGrid":
        """The window rows x cols of this configured grid's nodes as a grid; the grid itself when it is all of them."""
        if self.full is not None:
            raise RejectionError("only a configured grid can be cut")
        if not (0 <= rows.start < rows.stop <= self.n_x and 0 <= cols.start < cols.stop <= self.n_k):
            raise RejectionError(f"window {(rows, cols)} is not a rectangle of the grid's {self.shape} nodes")
        if (rows.start, rows.stop, cols.start, cols.stop) == (0, self.n_x, 0, self.n_k):
            return self
        x, k = self.x, self.k
        return PhaseSpaceGrid(
            float(x[rows.start]), float(x[rows.stop - 1]), float(k[cols.start]), float(k[cols.stop - 1]),
            rows.stop - rows.start, cols.stop - cols.start, full=self, origin=(rows.start, cols.start),
        )

    def local(self, window: tuple[slice, slice]) -> tuple[slice, slice]:
        """A window of the configured grid's nodes as index slices of this grid's nodes (empty stays empty)."""
        return tuple(
            slice(s.start - o, s.stop - o) if s.stop > s.start else slice(0, 0) for s, o in zip(window, self.origin)
        )


@dataclass(frozen=True)
class CoordinateGrid:
    """Uniform symmetric grid for wavefunction samples; node count is a power of two."""

    x_max: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 16 or self.n & (self.n - 1):
            raise RejectionError(f"coordinate grid: node count must be a power of two >= 16, got {self.n}")
        if not self.x_max > 0:
            raise RejectionError(f"coordinate grid: x_max must be positive, got {self.x_max}")

    @property
    def h(self) -> float:
        return 2.0 * self.x_max / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.x_max, self.x_max, self.n)


@dataclass(frozen=True)
class DimensionlessMap:
    """Scales (m, omega, hbar) mapping dimensional (q, p, t) to dimensionless (x, k, tau).

    x = sqrt(m*omega/hbar) q,  k = p / sqrt(m*omega*hbar),  tau = omega t.
    The identity map corresponds to m = omega = hbar = 1.
    """

    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if min(self.m, self.omega, self.hbar) <= 0:
            raise RejectionError("dimensionless map: m, omega, hbar must all be positive")

    def x_from_q(self, q: float) -> float:
        return float(np.sqrt(self.m * self.omega / self.hbar) * q)

    def q_from_x(self, x: float) -> float:
        return float(x / np.sqrt(self.m * self.omega / self.hbar))

    def k_from_p(self, p: float) -> float:
        return float(p / np.sqrt(self.m * self.omega * self.hbar))

    def p_from_k(self, k: float) -> float:
        return float(k * np.sqrt(self.m * self.omega * self.hbar))

    def tau_from_t(self, t: float) -> float:
        return float(self.omega * t)

    def t_from_tau(self, tau: float) -> float:
        return float(tau / self.omega)


def _quadrature_weights(grid: PhaseSpaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid weights of the configured grid's x and k nodes, cut to the grid's."""
    out = []
    for n, h, s in zip(grid.configured.shape, (grid.h_x, grid.h_k), grid.window):
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        out.append(w[s])
    return out[0], out[1]


def integrate_volume(
    grid: PhaseSpaceGrid, values: np.ndarray, mask: np.ndarray | None = None, window: tuple[slice, slice] | None = None
) -> float:
    """2-D trapezoidal quadrature of a scalar field over the grid or a rectangle of its nodes.

    Parameters
    ----------
    grid : PhaseSpaceGrid
        A cut's nodes keep the trapezoid weights they have on the configured grid.
    values : ndarray
        Field samples on the window (the whole grid by default); must be
        finite at every node.
    mask : ndarray of bool, optional
        Node selector of values' shape; nodes outside the mask contribute zero.
    window : (slice, slice), optional
        The rectangle of nodes that values covers: one index slice along x
        and one along k, each with explicit start and stop.  Nodes outside
        it contribute zero.

    Returns
    -------
    float
    """
    values = np.asarray(values)
    rows, cols = window or (slice(0, grid.n_x), slice(0, grid.n_k))
    wx, wk = (w[s] for w, s in zip(_quadrature_weights(grid), (rows, cols)))
    if values.shape != (wx.size, wk.size):
        where = f"grid {grid.shape}" if window is None else f"the window {window}"
        raise RejectionError(f"field shape {values.shape} does not match {where}")
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0] + [rows.start, cols.start]
        raise RejectionError(
            f"non-finite field value at node (i_x={bad[0]}, i_k={bad[1]}), "
            f"(x={grid.x[bad[0]]:.6g}, k={grid.k[bad[1]]:.6g})"
        )
    integrand = values * wx[:, None] * wk[None, :]
    if mask is not None:
        integrand = np.where(mask, integrand, 0.0)
    return float(np.sum(integrand))


@lru_cache(maxsize=None)
def stencil_weights(order: int) -> np.ndarray:
    """Central finite-difference weights for d^order/dx^order at unit spacing.

    Uses Fornberg's recursion on a symmetric node set; the returned array has
    odd length ``2*m + 1`` with ``2*m + 1 >= order + STENCIL_ACCURACY`` (order
    and accuracy parities matched so the central stencil attains the design
    accuracy), exactly even or odd about its centre.
    """
    if order < 1:
        raise RejectionError(f"derivative order must be >= 1, got {order}")
    half = (order + STENCIL_ACCURACY - 1) // 2
    x = np.arange(-half, half + 1, dtype=float)
    n = x.size
    # Fornberg weight recursion (B. Fornberg, Math. Comp. 51, 1988), expansion point 0.
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    c[i, m] = c1 * (m * c[i - 1, m - 1] - c5 * c[i - 1, m]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for m in range(mn, 0, -1):
                c[j, m] = (c4 * c[j, m] - m * c[j, m - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    w = c[:, order].copy()
    # A central stencil is even about its centre for even orders and odd for
    # odd ones; mirroring the left half keeps that exact under rounding.
    parity = 1.0 if order % 2 == 0 else -1.0
    w[half + 1 :] = parity * w[:half][::-1]
    if order % 2:
        w[half] = 0.0
    w.flags.writeable = False
    return w


def partial_derivative(grid: PhaseSpaceGrid, values: np.ndarray, axis: str, order: int = 1) -> np.ndarray:
    """Central finite difference of a scalar field along one phase-space axis.

    Interior accuracy is order 4; the field is taken to be identically zero
    beyond the grid boundary, so nodes near the edge apply the same stencil
    to the zero extension.

    Parameters
    ----------
    values : ndarray
        The field on every node of the differentiated axis and on any band
        of lines along the other: a band of x-rows for axis "k", of
        k-columns for axis "x".  Each line is differentiated on its own, so
        a band's result equals the same lines of the whole-grid derivative
        bit for bit.
    axis : {"x", "k"}
    order : int
        Derivative order, 1 .. MAX_DERIVATIVE_ORDER.
    """
    if axis not in ("x", "k"):
        raise RejectionError(f"axis must be 'x' or 'k', got {axis!r}")
    if order > MAX_DERIVATIVE_ORDER:
        raise RejectionError(
            f"derivative order {order} beyond supported maximum {MAX_DERIVATIVE_ORDER}"
        )
    values = np.asarray(values, dtype=float)
    ax = 0 if axis == "x" else 1
    n = grid.shape[ax]
    if values.ndim != 2 or values.shape[ax] != n:
        raise RejectionError(f"field shape {values.shape} does not span the grid's {n} nodes along {axis}")
    h = grid.h_x if axis == "x" else grid.h_k
    # The stencil (at most 9 nodes, and PhaseSpaceGrid has at least 16 per
    # axis) is symmetric for even orders and antisymmetric for odd ones, so
    # each pair of nodes j either side is combined before its one multiply:
    # out[i] = w_0 f[i] + sum_j w_-j (f[i-j] +/- f[i+j]), summed from the
    # outermost pair in, on a copy padded with half zeros per side.
    w = stencil_weights(order)
    half = w.size // 2

    def along(offset: int) -> tuple[slice, ...]:
        return tuple(slice(half + offset, half + offset + n) if a == ax else slice(None) for a in range(2))

    shape = list(values.shape)
    shape[ax] += 2 * half
    padded = np.zeros(shape)
    padded[along(0)] = values
    pair = np.add if order % 2 == 0 else np.subtract
    out = values * w[half]
    term = np.empty_like(out)
    for j in range(half, 0, -1):
        pair(padded[along(-j)], padded[along(j)], out=term)
        term *= w[half - j]
        out += term
    return out / h**order
