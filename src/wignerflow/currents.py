"""The quantum remainder of the Wigner current and Liouvillian-departure diagnostics.

The current J = (J_x, J_k) transports W through the quantum continuity
equation dW/dtau + div J = 0.  J_x = k W is exact; J_k is the truncated
correction series whose nu = 0 term is the classical force term -u'(x) W.
Every flux quantifier downstream reads only the nu >= 1 remainder
Delta J_k = J_k + u'(x) W, which delta_current sums directly, so no
full-grid J is built on the run path.  The coefficient (i/2)^(2 nu) is the
real number (-1/4)^nu, so no complex arithmetic is involved, and a term
whose potential derivative u^(2 nu + 1) vanishes on the grid (nu >= 2 for
every catalog well, which is at most quartic) is skipped rather than
differentiated.

The phase velocity w = J / W has w_x = k, which does not depend on x, and
the classical part -u'(x) of w_k does not depend on k, so

    div(w) = d/dk (Delta J_k / W) = (W d_k Delta J_k - Delta J_k d_k W) / W^2:

two k-derivatives and none along x.  div_w evaluates it on a rectangle
of nodes, the one a volume correction reads: both derivatives run along
the rectangle's x-rows over the field's whole k axis, so each node gets
the value it has on the field's grid.  continuity_residual alone
assembles the full J, as the check of the series against the
Schrodinger dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import RejectionError
from .grid import MAX_DERIVATIVE_ORDER, partial_derivative
from .potentials import PotentialModel
from .states import WignerField

#: Default truncation order; the quartic catalog series terminates at nu = 1,
#: so the default lets tests confirm the nu = 2 term is exactly zero.
DEFAULT_NU_MAX = 2

#: Relative mask threshold of the divergence quotient.
MASK_EPS_REL = 1e-12


@dataclass
class MaskedField:
    """Scalar field defined only where a validity mask is true; excluded nodes hold 0."""

    values: np.ndarray
    valid: np.ndarray


def require_nu_max(nu_max: int) -> None:
    """Reject a truncation order whose k-derivatives the stencils do not serve."""
    if nu_max < 0:
        raise RejectionError(f"nu_max must be >= 0, got {nu_max}")
    if 2 * nu_max > MAX_DERIVATIVE_ORDER:
        raise RejectionError(
            f"nu_max={nu_max} needs k-derivatives of order {2 * nu_max}, "
            f"beyond the supported maximum {MAX_DERIVATIVE_ORDER}"
        )


def delta_current(w: WignerField, potential: PotentialModel, nu_max: int) -> np.ndarray:
    """Quantum remainder Delta J_k = J_k + u'(x) W, the nu >= 1 part of the series, on the grid.

    Delta J_k = -sum_{nu=1}^{nu_max} (-1/4)^nu / (2 nu + 1)! u^(2nu+1)(x) d^{2nu}W/dk^{2nu}.

    A term whose u^(2nu+1) is zero at every grid x is skipped: it would
    subtract exact zeros, so the sum keeps its values and the k-derivative
    of that order is never taken.  Delta J_x = J_x - k W vanishes
    identically.
    """
    require_nu_max(nu_max)
    x = w.grid.x
    out = np.zeros_like(w.values)
    for nu in range(1, nu_max + 1):
        u_der = potential.derivative(x, 2 * nu + 1)
        if not np.any(u_der):
            continue
        coeff = (-0.25) ** nu / factorial(2 * nu + 1)
        out -= coeff * np.asarray(u_der)[:, None] * partial_derivative(w.grid, w.values, "k", 2 * nu)
    if not np.all(np.isfinite(out)):
        raise RejectionError("Delta J_k contains non-finite values")
    return out


def _mask_epsilon(w: WignerField, epsilon: float | None) -> float:
    """The |W| floor of the quotient: epsilon, or MASK_EPS_REL of max|W| over every node w holds.

    A snapshot passes W on its region's field grid, so the maximum is read
    on the field window, not on the whole grid.
    """
    if epsilon is None:
        return MASK_EPS_REL * float(np.max(np.abs(w.values)))
    if epsilon <= 0:
        raise RejectionError(f"epsilon must be positive, got {epsilon}")
    return epsilon


def div_w(
    w: WignerField, dj_k: np.ndarray, epsilon: float | None = None, window: tuple[slice, slice] | None = None
) -> MaskedField:
    """Divergence of the phase velocity, (W d_k Delta J_k - Delta J_k d_k W) / W^2, on a rectangle of nodes.

    dj_k is delta_current's Delta J_k of w on w's grid, a configured grid
    or a cut of one.  The quotient measures the departure from Liouvillian
    flow; nodes with |W| below the mask threshold (see _mask_epsilon) are
    excluded.  window is the rectangle, an index slice along x and one
    along k of the configured grid's nodes, inside w's (w's whole grid by
    default).  Both k-derivatives are taken on its x-rows over w's whole k
    axis, so each value equals that node's value on w's grid bit for bit.
    values and valid have the window's shape.
    """
    eps = _mask_epsilon(w, epsilon)
    rows, cols = w.grid.local(window) if window else (slice(None), slice(None))
    d_dj, d_w = (partial_derivative(w.grid, f[rows], "k")[:, cols] for f in (dj_k, w.values))
    dj, wv = dj_k[rows, cols], w.values[rows, cols]
    valid = np.abs(wv) > eps
    out = np.zeros_like(wv)
    np.divide(wv * d_dj - dj * d_w, wv**2, out=out, where=valid)
    return MaskedField(out, valid)


def continuity_residual(
    w_minus: WignerField,
    w_0: WignerField,
    w_plus: WignerField,
    potential: PotentialModel,
    nu_max: int,
    dtau: float,
    interior_margin: int = 4,
) -> tuple[np.ndarray, float]:
    """Residual of dW/dtau + div J at the middle snapshot.

    J is assembled here, J_x = k W and J_k = -u'(x) W + Delta J_k, and its
    divergence taken by stencils along both axes.  The time derivative is
    the central difference of the outer snapshots; returns the residual
    field and its max-norm over the interior (the boundary margin excludes
    zero-extension stencil rows).
    """
    for name, field, expected in (
        ("w_minus", w_minus, w_0.tau - dtau),
        ("w_plus", w_plus, w_0.tau + dtau),
    ):
        if abs(field.tau - expected) > 1e-9 * max(1.0, abs(expected)):
            raise RejectionError(
                f"{name} tagged tau={field.tau}, expected {expected} (dtau={dtau})"
            )
        if field.grid != w_0.grid:
            raise RejectionError(f"{name} lives on a different grid")
    dw_dtau = (w_plus.values - w_minus.values) / (2.0 * dtau)
    grid, w = w_0.grid, w_0.values
    jx = w * grid.k[None, :]
    jk = delta_current(w_0, potential, nu_max) - np.asarray(potential.derivative(grid.x, 1))[:, None] * w
    divergence = partial_derivative(grid, jx, "x") + partial_derivative(grid, jk, "k")
    residual = dw_dtau + divergence
    m = interior_margin
    interior_max = float(np.max(np.abs(residual[m:-m, m:-m])))
    return residual, interior_max
