"""Wigner current fields and Liouvillian-departure diagnostics.

The current J = (J_x, J_k) transports W through the quantum continuity
equation dW/dtau + div J = 0.  J_x = k W is exact; J_k is the truncated
correction series whose nu = 0 term is the classical force term -u'(x) W
and whose nu >= 1 remainder Delta J drives every flux quantifier
downstream.  The coefficient (i/2)^(2 nu) is the real number (-1/4)^nu,
so no complex arithmetic is involved, and a term whose potential
derivative u^(2 nu + 1) vanishes on the grid (nu >= 2 for every catalog
well, which is at most quartic) is skipped rather than differentiated.
The divergence of the phase velocity is evaluated on a node window, the
rectangle a volume correction reads, from the fields on that window plus
the stencil's reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import RejectionError
from .grid import (
    MAX_DERIVATIVE_ORDER, PhaseSpaceGrid, Window, node_window, partial_derivative, stencil_weights, widen_window,
)
from .potentials import PotentialModel
from .states import WignerField

#: Default truncation order; the quartic catalog series terminates at nu = 1,
#: so the default lets tests confirm the nu = 2 term is exactly zero.
DEFAULT_NU_MAX = 2

#: Relative mask threshold for phase-velocity and divergence quotients.
MASK_EPS_REL = 1e-12


@dataclass
class CurrentField:
    """Two-component current (jx, jk) with the truncation order that built it."""

    jx: np.ndarray
    jk: np.ndarray
    grid: PhaseSpaceGrid
    tau: float
    nu_max: int

    def __post_init__(self) -> None:
        for name, comp in (("jx", self.jx), ("jk", self.jk)):
            if comp.shape != self.grid.shape:
                raise RejectionError(f"{name} shape {comp.shape} does not match grid")
            if not np.all(np.isfinite(comp)):
                raise RejectionError(f"current component {name} contains non-finite values")


@dataclass
class MaskedField:
    """Scalar field defined only where a validity mask is true; excluded nodes hold 0."""

    values: np.ndarray
    valid: np.ndarray


@dataclass
class MaskedVectorField:
    wx: np.ndarray
    wk: np.ndarray
    valid: np.ndarray


def current_x(w: WignerField) -> np.ndarray:
    """J_x = k W, node-wise."""
    return w.values * w.grid.k[None, :]


def current_k(w: WignerField, potential: PotentialModel, nu_max: int) -> np.ndarray:
    """Truncated correction series for the momentum component of J.

    J_k = -sum_{nu=0}^{nu_max} (-1/4)^nu / (2 nu + 1)! u^(2nu+1)(x) d^{2nu}W/dk^{2nu}.

    A term whose u^(2nu+1) is zero at every grid x is skipped: it would
    subtract exact zeros, so the sum keeps its values and the k-derivative
    of that order is never taken.
    """
    if nu_max < 0:
        raise RejectionError(f"nu_max must be >= 0, got {nu_max}")
    if 2 * nu_max > MAX_DERIVATIVE_ORDER:
        raise RejectionError(
            f"nu_max={nu_max} needs k-derivatives of order {2 * nu_max}, "
            f"beyond the supported maximum {MAX_DERIVATIVE_ORDER}"
        )
    x = w.grid.x
    out = np.zeros_like(w.values)
    for nu in range(nu_max + 1):
        u_der = potential.derivative(x, 2 * nu + 1)
        if not np.any(u_der):
            continue
        w_der = w.values if nu == 0 else partial_derivative(w.grid, w.values, "k", 2 * nu)
        coeff = (-0.25) ** nu / factorial(2 * nu + 1)
        out -= coeff * np.asarray(u_der)[:, None] * w_der
    return out


def wigner_current(w: WignerField, potential: PotentialModel, nu_max: int = DEFAULT_NU_MAX) -> CurrentField:
    """Assemble the full current field at the field's time tag."""
    return CurrentField(current_x(w), current_k(w, potential, nu_max), w.grid, w.tau, nu_max)


def delta_current(j: CurrentField, w: WignerField, potential: PotentialModel) -> CurrentField:
    """Quantum remainder Delta J = J - v_C W, the nu >= 1 part of the series.

    Delta J_x vanishes identically (v_x = k); Delta J_k = J_k + u'(x) W.
    """
    if j.grid != w.grid:
        raise RejectionError("current and Wigner field live on different grids")
    if j.tau != w.tau:
        raise RejectionError(f"time tags differ: current at {j.tau}, field at {w.tau}")
    classical = -np.asarray(potential.derivative(w.grid.x, 1))[:, None] * w.values
    return CurrentField(np.zeros_like(w.values), j.jk - classical, w.grid, w.tau, j.nu_max)


def _mask_epsilon(w: WignerField, epsilon: float | None) -> float:
    if epsilon is None:
        return MASK_EPS_REL * float(np.max(np.abs(w.values)))
    if epsilon <= 0:
        raise RejectionError(f"epsilon must be positive, got {epsilon}")
    return epsilon


def phase_velocity(j: CurrentField, w: WignerField, epsilon: float | None = None) -> MaskedVectorField:
    """w = J / W where |W| exceeds the mask threshold; excluded nodes hold 0."""
    eps = _mask_epsilon(w, epsilon)
    valid = np.abs(w.values) > eps
    wx = np.zeros_like(w.values)
    wk = np.zeros_like(w.values)
    np.divide(j.jx, w.values, out=wx, where=valid)
    np.divide(j.jk, w.values, out=wk, where=valid)
    return MaskedVectorField(wx, wk, valid)


def div_w(
    j: CurrentField, w: WignerField, epsilon: float | None = None, window: Window | None = None
) -> MaskedField:
    """Divergence of the phase velocity, (W div J - J . grad W) / W^2, on a node window.

    The quotient-rule form measures the departure from Liouvillian flow;
    nodes with |W| below the mask threshold (relative to max|W| over the
    whole grid) are excluded.  Only the window's nodes are evaluated (the
    whole grid by default): J and W are read on the window widened by the
    first-derivative stencil's half-width, clipped at the grid edge, where
    the zero extension applies as on the whole grid, so each value equals
    that node's whole-grid value bit for bit.  values and valid have the
    window's shape.
    """
    eps = _mask_epsilon(w, epsilon)
    grid = w.grid
    if window is None:
        window = node_window(grid.shape)
    block = widen_window(window, stencil_weights(1).size // 2, grid.shape)
    div_j = partial_derivative(grid, j.jx[block], "x", window=window) + partial_derivative(grid, j.jk[block], "k", window=window)
    grad_x = partial_derivative(grid, w.values[block], "x", window=window)
    grad_k = partial_derivative(grid, w.values[block], "k", window=window)
    jx, jk, wv = j.jx[window], j.jk[window], w.values[window]
    valid = np.abs(wv) > eps
    numerator = wv * div_j - (jx * grad_x + jk * grad_k)
    out = np.zeros_like(wv)
    np.divide(numerator, wv**2, out=out, where=valid)
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

    The time derivative is the central difference of the outer snapshots;
    returns the residual field and its max-norm over the interior (the
    boundary margin excludes zero-extension stencil rows).
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
    j = wigner_current(w_0, potential, nu_max)
    divergence = partial_derivative(j.grid, j.jx, "x") + partial_derivative(j.grid, j.jk, "k")
    residual = dw_dtau + divergence
    m = interior_margin
    interior_max = float(np.max(np.abs(residual[m:-m, m:-m])))
    return residual, interior_max
