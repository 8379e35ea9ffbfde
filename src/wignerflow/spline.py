"""Not-a-knot cubic splines on uniform axes, in numpy alone.

On an axis of n >= 4 nodes with spacing h, the node slopes s of the
not-a-knot cubic spline through the values y solve the tridiagonal system
(de Boor, A Practical Guide to Splines, ch. IV)

    [1, 2]       s_0 + 2 s_1                 = (5 d_0 + d_1) / 2
    [1, 4, 1]    s_{i-1} + 4 s_i + s_{i+1}   = 3 (d_{i-1} + d_i)
    [2, 1]       2 s_{n-2} + s_{n-1}         = (d_{n-3} + 5 d_{n-2}) / 2

with secant slopes d_i = (y_{i+1} - y_i) / h; the end rows make the third
derivative continuous across the second and the second-last node.
Subtracting each end row from its neighbour removes s_0 and s_{n-1} and
leaves a strictly diagonally dominant system in s_1 .. s_{n-2}, with end
rows [2, 1] and [1, 2].  Odd-even cyclic reduction (Hockney, J. ACM 12,
95 (1965)) solves it without pivoting in O(n): each level eliminates the
odd rows from the even ones, the last level holds one unknown, and back
substitution fills the odd rows in level by level.  The multipliers of
every level depend on n alone and are cached per node count, O(n) floats
in all; any number of right-hand sides, real or complex, is solved at once,
with the nodes along the first axis.

UniformSpline evaluates the cubic pieces of one axis.  GridSpline is the
tensor-product spline of a field on a PhaseSpaceGrid, which is the s = 0
bicubic interpolant of FITPACK's regrid: in each cell it is the bicubic
Hermite polynomial of the corner values, x-slopes, k-slopes and cross
slopes, each slope array a one-axis not-a-knot solve.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import RejectionError
from .grid import PhaseSpaceGrid

#: Fewest nodes of a not-a-knot axis: one cubic through four points.
MIN_NODES = 4


@lru_cache(maxsize=16)
def _reduction(size: int) -> tuple[list[tuple[np.ndarray, ...]], float]:
    """Cyclic-reduction multipliers of the reduced system of the given size.

    Per level: the multipliers alpha, gamma that fold the odd rows into the
    even ones, and the odd rows' sub- and super-diagonal and reciprocal
    diagonal for the back substitution, as read-only column vectors shared
    between calls.  Returns the levels and the reciprocal of the last
    remaining pivot.
    """
    a = np.ones(size)
    b = np.full(size, 4.0)
    c = np.ones(size)
    a[0] = c[-1] = 0.0
    b[0] = b[-1] = 2.0
    levels = []
    while size > 1:
        n_odd = size // 2
        n_even = size - n_odd
        a_e, b_e, c_e = a[0::2], b[0::2], c[0::2]
        a_o, b_o, c_o = a[1::2], b[1::2], c[1::2]
        alpha = -a_e[1:] / b_o[: n_even - 1]
        gamma = -c_e[:n_odd] / b_o
        a, b, c = np.zeros(n_even), b_e.copy(), np.zeros(n_even)
        a[1:] = alpha * a_o[: n_even - 1]
        b[1:] += alpha * c_o[: n_even - 1]
        b[:n_odd] += gamma * a_o
        c[:n_odd] = gamma * c_o
        level = tuple(v[:, None] for v in (alpha, gamma, a_o, c_o[: n_even - 1], 1.0 / b_o))
        for v in level:
            v.flags.writeable = False
        levels.append(level)
        size = n_even
    return levels, 1.0 / float(b[0])


def _solve_reduced(x: np.ndarray) -> None:
    """Solve the reduced system (rows [2, 1], [1, 4, 1], [1, 2]) in place.

    x holds the right-hand sides, a 2-D array with the nodes (at least two)
    along axis 0, and is overwritten by the solution.  Level l works on the
    rows i = 0 mod 2^l: the reduction folds its odd rows into its even rows,
    and the back substitution turns its odd rows into solution values once
    the even ones hold theirs.  One work array holds every product.
    """
    levels, last = _reduction(x.shape[0])
    work = np.empty(((x.shape[0] + 1) // 2,) + x.shape[1:], dtype=x.dtype)
    d = x
    for alpha, gamma, *_ in levels:
        odd, even = d[1::2], d[0::2]
        t = work[: alpha.shape[0]]
        even[1:] += np.multiply(alpha, odd[: t.shape[0]], out=t)
        t = work[: odd.shape[0]]
        even[: t.shape[0]] += np.multiply(gamma, odd, out=t)
        d = even
    d[0] *= last
    step = 1 << len(levels)
    for _, _, a_o, c_o, inv_b in reversed(levels):
        half = step // 2
        even, odd = x[::step], x[half::step]
        t = work[: odd.shape[0]]
        odd -= np.multiply(a_o, even[: t.shape[0]], out=t)
        t = work[: c_o.shape[0]]
        odd[: t.shape[0]] -= np.multiply(c_o, even[1:], out=t)
        odd *= inv_b
        step = half


def slopes(values: np.ndarray, h: float) -> np.ndarray:
    """Node slopes of the not-a-knot cubic through values along axis 0, spacing h."""
    values = np.asarray(values)
    n = values.shape[0]
    if n < MIN_NODES:
        raise RejectionError(f"a not-a-knot cubic needs at least {MIN_NODES} nodes, got {n}")
    y = values.reshape(n, -1)
    d0, d1 = (y[1] - y[0]) / h, (y[2] - y[1]) / h
    d2, d3 = (y[-2] - y[-3]) / h, (y[-1] - y[-2]) / h
    r0 = 0.5 * (5.0 * d0 + d1)
    r1 = 0.5 * (d2 + 5.0 * d3)
    s = np.empty(y.shape, dtype=np.result_type(y, h))
    inner = s[1:-1]
    np.subtract(y[2:], y[:-2], out=inner)
    inner *= 3.0 / h
    inner[0] -= r0
    inner[-1] -= r1
    _solve_reduced(inner)
    s[0] = r0 - 2.0 * s[1]
    s[-1] = r1 - 2.0 * s[-2]
    return s.reshape(values.shape)


def pieces(values: np.ndarray, h: float) -> np.ndarray:
    """Coefficients c[p, i] of (x - x_i)**(3-p) on each interval i, as CubicSpline.c.

    The nodes run along axis 0 of values; the result has shape (4, n - 1, ...).
    """
    values = np.asarray(values)
    s = slopes(values, h)
    d = np.diff(values, axis=0) / h
    t = (s[:-1] + s[1:] - 2.0 * d) / h
    return np.stack([t / h, (d - s[:-1]) / h - t, s[:-1], values[:-1]])


class UniformSpline:
    """The not-a-knot cubic through values at the nodes x0 + i h.

    Calling it evaluates the piece of the interval holding each point; a
    point beyond either end node is evaluated on the end piece.
    """

    def __init__(self, x0: float, h: float, values: np.ndarray) -> None:
        self.x0, self.h = float(x0), float(h)
        self.c = pieces(values, h)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        i = np.clip(np.floor((x - self.x0) / self.h).astype(np.intp), 0, self.c.shape[1] - 1)
        dx = x - (self.x0 + i * self.h)
        c = self.c[:, i]
        return ((c[0] * dx + c[1]) * dx + c[2]) * dx + c[3]


def _hermite_weights(u: np.ndarray) -> np.ndarray:
    """Cubic Hermite basis at cell coordinates u: [value_0, slope_0, value_1, slope_1] columns."""
    v = 1.0 - u
    return np.stack([(1.0 + 2.0 * u) * v * v, u * v * v, u * u * (3.0 - 2.0 * u), -u * u * v], axis=-1)


class GridSpline:
    """Tensor-product not-a-knot bicubic spline of a field on a PhaseSpaceGrid.

    Stored in Hermite form as one (2 n_x', 2 n_k') table whose rows
    interleave each x node's values and h_x-scaled x-slopes and whose
    columns interleave values and h_k-scaled k-slopes; the cell (i, j) reads
    the 4 x 4 block at rows 2i.. and columns 2j...  With near = (x, k), the
    table covers only the cells holding those points: the x-slopes still
    come from one solve along x over the whole grid, and the k-slopes and
    cross slopes are solved along k for the covered rows only.  Every solve
    runs over a whole axis and columns are solved independently, so the
    covered part equals the full fit's bit for bit.
    """

    def __init__(self, grid: PhaseSpaceGrid, values: np.ndarray, near: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise RejectionError(f"field shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self._x, self._k = grid.x, grid.k
        if near is None:
            rows, cols = slice(0, grid.n_x), slice(0, grid.n_k)
        else:
            rows = self._node_span(near[0], self._x, grid.h_x)
            cols = self._node_span(near[1], self._k, grid.h_k)
        self._rows, self._cols = rows, cols
        fx = slopes(values, grid.h_x)[rows]
        fk = slopes(values[rows].T, grid.h_k).T
        fxk = slopes(fx.T, grid.h_k).T
        f = values[rows, cols]
        table = np.empty((2 * f.shape[0], 2 * f.shape[1]))
        table[0::2, 0::2] = f
        table[1::2, 0::2] = grid.h_x * fx[:, cols]
        table[0::2, 1::2] = grid.h_k * fk[:, cols]
        table[1::2, 1::2] = (grid.h_x * grid.h_k) * fxk[:, cols]
        self.table = table

    @staticmethod
    def _node_span(points: np.ndarray, nodes: np.ndarray, h: float) -> slice:
        """Nodes bounding every cell that holds one of the points."""
        lo, hi = np.floor((np.array([np.min(points), np.max(points)]) - nodes[0]) / h)
        lo, hi = (int(np.clip(c, 0, nodes.size - 2)) for c in (lo, hi))
        return slice(lo, hi + 2)

    @staticmethod
    def _locate(points: np.ndarray, nodes: np.ndarray, h: float, span: slice) -> tuple[np.ndarray, np.ndarray]:
        """Cell index within the span and Hermite weights of each point."""
        points = np.asarray(points, dtype=float)
        r = (points - nodes[0]) / h
        lo, hi = span.start, span.stop - 1
        if points.size and (r.min() < lo - 1e-9 or r.max() > hi + 1e-9):
            raise RejectionError("spline sample outside the fitted cells")
        cell = np.clip(np.floor(r).astype(np.intp), lo, hi - 1)
        u = (points - nodes[cell]) / h
        return cell - lo, _hermite_weights(u)

    def ev(self, x, k) -> np.ndarray:
        """Spline values at the points (x[i], k[i])."""
        i, wx = self._locate(x, self._x, self.grid.h_x, self._rows)
        j, wk = self._locate(k, self._k, self.grid.h_k, self._cols)
        width = self.table.shape[1]
        corner = 2 * (i * width + j)
        block = self.table.ravel().take(corner[:, None, None] + np.add.outer(np.arange(4) * width, np.arange(4)))
        return np.einsum("np,np->n", np.einsum("npq,nq->np", block, wk), wx)
