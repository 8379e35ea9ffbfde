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

pieces gives the cubic pieces of one axis.  GridSpline is the
tensor-product spline of a field on a PhaseSpaceGrid, which is the s = 0
bicubic interpolant of FITPACK's regrid: in each cell it is the bicubic
Hermite polynomial of the corner values, x-slopes, k-slopes and cross
slopes.  Slopes are linear in the values, so each axis has a slope
operator, the matrix S with S @ y == slopes(y, h) up to rounding
(slope_operator, built from slopes of the identity and cached per node
count and spacing), and a fit is three matrix products with the two
operators.  A SamplingPlan holds what does not depend on the field: the
grid, the node span that its named point sets need, the operators, and
each point's cell and Hermite weights.  Every GridSpline is fitted on a
plan and sampled at the plan's point sets by name, so fields sampled at
the same points, as every snapshot's W and Delta J_k are on an orbit,
share one plan.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


@lru_cache(maxsize=16)
def slope_operator(n: int, h: float) -> np.ndarray:
    """The (n, n) matrix S with S @ y == slopes(y, h) up to rounding, read-only.

    Column j is slopes of the j-th unit vector: the slopes are linear in
    the values.  Built once per node count and spacing and shared between
    calls.
    """
    s = slopes(np.eye(n), h)
    s.flags.writeable = False
    return s


def _hermite_weights(u: np.ndarray) -> np.ndarray:
    """Cubic Hermite basis at cell coordinates u: [value_0, slope_0, value_1, slope_1] columns."""
    v = 1.0 - u
    return np.stack([(1.0 + 2.0 * u) * v * v, u * v * v, u * u * (3.0 - 2.0 * u), -u * u * v], axis=-1)


def node_span(points: np.ndarray, nodes: np.ndarray, h: float) -> slice:
    """Nodes bounding every cell that holds one of the points."""
    lo, hi = np.floor((np.array([np.min(points), np.max(points)]) - nodes[0]) / h)
    lo, hi = (int(np.clip(c, 0, nodes.size - 2)) for c in (lo, hi))
    return slice(lo, hi + 2)


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


class SamplingPlan:
    """Where splines of fields on one grid are fitted and sampled, worked out once.

    rows and cols are the node span of the fit: the nodes bounding every
    cell that holds one of the named point sets, or the whole grid when
    none is given.  s_x and s_k are the axes' slope operators, and located
    holds, per point set, each point's cell within the span (its row-major
    index) and its four x- and four k-Hermite weights.  Every field fitted
    with the plan (W and Delta J_k of each snapshot) reuses all of it.
    """

    def __init__(self, grid: PhaseSpaceGrid, **points: tuple[np.ndarray, np.ndarray]) -> None:
        self.grid = grid
        if points:
            xs, ks = (np.concatenate(axis) for axis in zip(*points.values()))
            self.rows = node_span(xs, grid.x, grid.h_x)
            self.cols = node_span(ks, grid.k, grid.h_k)
        else:
            self.rows, self.cols = slice(0, grid.n_x), slice(0, grid.n_k)
        self.s_x = slope_operator(grid.n_x, grid.h_x)
        self.s_k = slope_operator(grid.n_k, grid.h_k)
        self.located = {name: self.locate(*p) for name, p in points.items()}

    def locate(self, x, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cells within the span and x- and k-Hermite weights of the points (x[n], k[n])."""
        i, wx = _locate(x, self.grid.x, self.grid.h_x, self.rows)
        j, wk = _locate(k, self.grid.k, self.grid.h_k, self.cols)
        return i * (self.cols.stop - self.cols.start - 1) + j, wx, wk


#: Nodes per block of an axis in a GridSpline fit.  The slope-operator
#: products run over a fixed lattice of blocks, so a node's slopes come from
#: the same product, with the same shapes, whichever span is fitted.
_FIT_BLOCK = 16


def _aligned_blocks(span: slice, n: int) -> list[slice]:
    """The blocks of the fixed _FIT_BLOCK lattice on an axis of n nodes that meet the span."""
    first = span.start - span.start % _FIT_BLOCK
    return [slice(s, min(s + _FIT_BLOCK, n)) for s in range(first, span.stop, _FIT_BLOCK)]


class GridSpline:
    """Tensor-product not-a-knot bicubic spline of a field on a PhaseSpaceGrid.

    Built in Hermite form as one (2 n_x', 2 n_k') table whose rows
    interleave each x node's values and h_x-scaled x-slopes and whose
    columns interleave values and h_k-scaled k-slopes; the cell (i, j) reads
    the 4 x 4 block at rows 2i.. and columns 2j...  Each cell's block is
    kept as one row of cells, so a sample gathers 16 contiguous numbers.
    The table covers the span of the SamplingPlan it is fitted on, whose
    grid is the field's; a whole-grid fit is SamplingPlan(grid).

    The slopes are matrix products with the plan's slope operators:
    fx = S_x W, fk = W S_k^T and the cross slopes fxk = S_x fk, with fk
    taken on every row.  Both axes are cut into the aligned blocks of
    _FIT_BLOCK nodes, and only the blocks that meet the span are computed:
    every block product has the same operands and shapes as in the full
    fit, so the covered part equals the full fit's bit for bit, on any BLAS
    whose products are deterministic.  A product over the span itself need
    not be: BLAS picks its kernel, and so its summation order, by the
    operand shapes, and on OpenBLAS 0.3.31 products of 2-4, 9-12 or 193 and
    more columns (not a multiple of 8) differ from the full product in
    their last bits.
    """

    def __init__(self, values: np.ndarray, plan: SamplingPlan) -> None:
        grid = plan.grid
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise RejectionError(f"field shape {values.shape} does not match grid {grid.shape}")
        self.plan = plan
        rows, cols = plan.rows, plan.cols
        row_blocks, col_blocks = _aligned_blocks(rows, grid.n_x), _aligned_blocks(cols, grid.n_k)
        top, left = row_blocks[0].start, col_blocks[0].start
        fx, fk, fxk = [], [], []
        for c in col_blocks:
            # k-slopes on every row, since the cross slopes are their x-slopes
            gk = values @ plan.s_k[c].T
            fx.append(np.vstack([plan.s_x[r] @ values[:, c] for r in row_blocks]))
            fk.append(gk[top : row_blocks[-1].stop])
            fxk.append(np.vstack([plan.s_x[r] @ gk for r in row_blocks]))
        span = (slice(rows.start - top, rows.stop - top), slice(cols.start - left, cols.stop - left))
        fx, fk, fxk = (np.hstack(blocks)[span] for blocks in (fx, fk, fxk))
        table = np.empty((2 * fx.shape[0], 2 * fx.shape[1]))
        table[0::2, 0::2] = values[rows, cols]
        table[1::2, 0::2] = grid.h_x * fx
        table[0::2, 1::2] = grid.h_k * fk
        table[1::2, 1::2] = (grid.h_x * grid.h_k) * fxk
        #: The 4 x 4 block of each cell of the span, flattened, cells in row-major order.
        self.cells = sliding_window_view(table, (4, 4))[::2, ::2].reshape(-1, 16)

    def at(self, name: str) -> np.ndarray:
        """Spline values at the plan's point set of that name."""
        cell, wx, wk = self.plan.located[name]
        block = self.cells.take(cell, axis=0).reshape(-1, 4, 4)
        return np.einsum("np,np->n", np.einsum("npq,nq->np", block, wk), wx)
