"""Phase-space and coordinate-space discretization.

Uniform, origin-symmetric rectangular grids with trapezoidal quadrature
and central finite-difference derivative kernels of accuracy order 4,
applied as a weighted sum of shifted slices of the field.  Fields are
treated as identically zero outside the grid, which is the correct
extension for the Gaussian-enveloped states this package works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RejectionError

#: Highest derivative order served by :func:`partial_derivative`.  Chosen to
#: cover the momentum derivatives of the quantum-correction series up to
#: truncation order 3 (derivative order 2*nu).
MAX_DERIVATIVE_ORDER = 6

#: Design accuracy of the interior stencils.
STENCIL_ACCURACY = 4


def _validate_axis_extent(name: str, lo: float, hi: float, n: int) -> None:
    if n < 16:
        raise RejectionError(f"{name}: need at least 16 nodes, got {n}")
    if not hi > lo:
        raise RejectionError(f"{name}: empty extent [{lo}, {hi}]")
    if abs(lo + hi) > 1e-12 * max(abs(lo), abs(hi)):
        raise RejectionError(
            f"{name}: grid must be symmetric about the origin, got [{lo}, {hi}]"
        )


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform node-centered discretization of the dimensionless (x, k) plane."""

    x_min: float
    x_max: float
    k_min: float
    k_max: float
    n_x: int
    n_k: int

    def __post_init__(self) -> None:
        _validate_axis_extent("x axis", self.x_min, self.x_max, self.n_x)
        _validate_axis_extent("k axis", self.k_min, self.k_max, self.n_k)

    @classmethod
    def centered(cls, x_max: float, k_max: float, n_x: int, n_k: int) -> "PhaseSpaceGrid":
        return cls(-x_max, x_max, -k_max, k_max, n_x, n_k)

    @property
    def h_x(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def h_k(self) -> float:
        return (self.k_max - self.k_min) / (self.n_k - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def k(self) -> np.ndarray:
        return np.linspace(self.k_min, self.k_max, self.n_k)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate matrices X, K of shape (n_x, n_k)."""
        return np.meshgrid(self.x, self.k, indexing="ij")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_x, self.n_k)


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


def _quadrature_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


#: A rectangle of grid nodes: one index slice along x and one along k, each
#: with explicit, non-negative start and stop.
Window = tuple[slice, slice]


def node_window(shape: tuple[int, int], mask: np.ndarray | None = None) -> Window:
    """Bounding box of a node mask's true nodes; the whole grid for None.

    An all-false mask gives an empty window.
    """
    if mask is None:
        return (slice(0, shape[0]), slice(0, shape[1]))
    rows = np.flatnonzero(np.any(mask, axis=1))
    cols = np.flatnonzero(np.any(mask, axis=0))
    if rows.size == 0:
        return (slice(0, 0), slice(0, 0))
    return (slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1))


def widen_window(window: Window, margin: int, shape: tuple[int, int]) -> Window:
    """The window grown by margin nodes on every side, clipped at the grid edge."""
    return tuple(slice(max(s.start - margin, 0), min(s.stop + margin, n)) for s, n in zip(window, shape))


def _window_block(grid: PhaseSpaceGrid, values, window: Window | None, margin: int) -> tuple[np.ndarray, Window, Window]:
    """The one window convention of the stencil and the quadrature.

    values holds the field on the window widened by margin nodes per side
    (clipped at the grid edge); None stands for the whole grid.  Returns
    the values, the window, and the window's nodes as slices of values.
    """
    values = np.asarray(values)
    whole, window = window is None, window or node_window(grid.shape)
    block = widen_window(window, margin, grid.shape)
    extent = tuple(s.stop - s.start for s in block)
    if values.shape != extent:
        where = f"grid {grid.shape}" if whole else f"the window {window} widened by {margin} ({extent})"
        raise RejectionError(f"field shape {values.shape} does not match {where}")
    inner = tuple(slice(s.start - b.start, s.stop - b.start) for s, b in zip(window, block))
    return values, window, inner


def integrate_volume(
    grid: PhaseSpaceGrid, values: np.ndarray, mask: np.ndarray | None = None, window: Window | None = None
) -> float:
    """2-D trapezoidal quadrature of a scalar field over the grid or a node window of it.

    Parameters
    ----------
    grid : PhaseSpaceGrid
    values : ndarray
        Field samples on the window (the whole grid by default); must be
        finite at every node.
    mask : ndarray of bool, optional
        Node selector of the same shape; nodes outside the mask contribute zero.
    window : Window, optional
        The rectangle of nodes that values covers (see node_window); nodes
        outside it contribute zero.

    Returns
    -------
    float
    """
    values, window, _ = _window_block(grid, values, window, 0)
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0] + [window[0].start, window[1].start]
        raise RejectionError(
            f"non-finite field value at node (i_x={bad[0]}, i_k={bad[1]}), "
            f"(x={grid.x[bad[0]]:.6g}, k={grid.k[bad[1]]:.6g})"
        )
    wx = _quadrature_weights(grid.n_x, grid.h_x)[window[0]]
    wk = _quadrature_weights(grid.n_k, grid.h_k)[window[1]]
    integrand = values * wx[:, None] * wk[None, :]
    if mask is not None:
        integrand = np.where(mask, integrand, 0.0)
    return float(np.sum(integrand))


@lru_cache(maxsize=None)
def stencil_weights(order: int, accuracy: int = STENCIL_ACCURACY) -> np.ndarray:
    """Central finite-difference weights for d^order/dx^order at unit spacing.

    Uses Fornberg's recursion on a symmetric node set; the returned array has
    odd length ``2*m + 1`` with ``2*m + 1 >= order + accuracy`` (order and
    accuracy parities matched so the central stencil attains the design
    accuracy), exactly even or odd about its centre.
    """
    if order < 1:
        raise RejectionError(f"derivative order must be >= 1, got {order}")
    half = (order + accuracy - 1) // 2
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


def partial_derivative(
    grid: PhaseSpaceGrid, values: np.ndarray, axis: str, order: int = 1, window: Window | None = None
) -> np.ndarray:
    """Central finite difference of a scalar field along one phase-space axis.

    Interior accuracy is order 4; the field is taken to be identically zero
    beyond the grid boundary, so rows near the edge apply the same stencil to
    the zero extension.

    Parameters
    ----------
    axis : {"x", "k"}
    order : int
        Derivative order, 1 .. MAX_DERIVATIVE_ORDER.
    window : Window, optional
        Differentiate on this rectangle of nodes only.  values then holds
        the field on the window widened by the stencil's half-width
        (stencil_weights(order).size // 2) on every side, clipped at the
        grid edge, and the result covers the window's nodes, equal bit for
        bit to the same nodes of the whole-grid derivative.  Default: the
        whole grid.
    """
    if axis not in ("x", "k"):
        raise RejectionError(f"axis must be 'x' or 'k', got {axis!r}")
    if order > MAX_DERIVATIVE_ORDER:
        raise RejectionError(
            f"derivative order {order} beyond supported maximum {MAX_DERIVATIVE_ORDER}"
        )
    w = stencil_weights(order)
    half = w.size // 2
    values, _, inner = _window_block(grid, np.asarray(values, dtype=float), window, half)
    ax = 0 if axis == "x" else 1
    h = grid.h_x if axis == "x" else grid.h_k
    if grid.shape[ax] < w.size:
        raise RejectionError(
            f"grid has {grid.shape[ax]} nodes along {axis}, stencil needs {w.size}"
        )
    # The stencil is symmetric for even orders and antisymmetric for odd
    # ones, so each pair of nodes j either side is combined before its one
    # multiply: out[i] = w_0 f[i] + sum_j w_-j (f[i-j] +/- f[i+j]), summed
    # from the outermost pair in.  values is padded with half zeros along
    # the axis: beyond a clipped side that is the zero extension, and an
    # unclipped side carries half real nodes, so the window never reads the
    # padding there.
    def along(offset: int) -> tuple[slice, ...]:
        s = inner[ax]
        return tuple(slice(s.start + half + offset, s.stop + half + offset) if a == ax else inner[a] for a in range(2))

    shape = list(values.shape)
    shape[ax] += 2 * half
    padded = np.zeros(shape)
    padded[tuple(slice(half, half + values.shape[ax]) if a == ax else slice(None) for a in range(2))] = values
    pair = np.add if order % 2 == 0 else np.subtract
    out = values[inner] * w[half]
    term = np.empty_like(out)
    for j in range(half, 0, -1):
        pair(padded[along(-j)], padded[along(j)], out=term)
        term *= w[half - j]
        out += term
    return out / h**order
