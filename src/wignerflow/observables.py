"""Scalar information quantifiers of a Wigner field.

Expectation values against Weyl symbols, purity, the phase-space entropy
-int W ln|W|, and the one-parameter Renyi family.  Entropies are reported
in natural-log units.  Because a Wigner field may be negative, ln W is
read as ln|W| with a floor excluding |W| <= epsilon nodes, and W**beta
for non-integer beta is defined only for non-negative fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectionError
from .grid import PhaseSpaceGrid, integrate_volume
from .potentials import PotentialModel
from .states import WignerField

#: Default magnitude floor below which nodes drop out of entropy quadratures.
ENTROPY_FLOOR = 1e-30
#: Weyl normalisation of the purity, PURITY_FACTOR * int W^2.
PURITY_FACTOR = 2.0 * np.pi


@dataclass
class WeylSymbol:
    """Real phase-space representation of an observable."""

    values: np.ndarray
    grid: PhaseSpaceGrid
    label: str = ""

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise RejectionError(
                f"symbol shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise RejectionError(f"Weyl symbol {self.label!r} contains non-finite values")


def unit_symbol(grid: PhaseSpaceGrid) -> WeylSymbol:
    return WeylSymbol(np.ones(grid.shape), grid, "1")


def position_symbol(grid: PhaseSpaceGrid) -> WeylSymbol:
    X, _ = grid.meshes()
    return WeylSymbol(X, grid, "x")


def momentum_symbol(grid: PhaseSpaceGrid) -> WeylSymbol:
    _, K = grid.meshes()
    return WeylSymbol(K, grid, "k")


def hamiltonian_symbol(grid: PhaseSpaceGrid, potential: PotentialModel) -> WeylSymbol:
    X, K = grid.meshes()
    return WeylSymbol(0.5 * K**2 + potential.u(X), grid, f"k^2/2 + {potential.label}")


def expectation(w: WignerField, symbol: WeylSymbol) -> float:
    """Phase-space average of the symbol against W."""
    if symbol.grid != w.grid:
        raise RejectionError("Weyl symbol and Wigner field live on different grids")
    return integrate_volume(w.grid, w.values * symbol.values)


def purity(w: WignerField) -> float:
    """PURITY_FACTOR * integral of W^2; equals 1 for pure states."""
    return PURITY_FACTOR * integrate_volume(w.grid, np.square(w.values))


def entropy_density(values: np.ndarray, floor: float = ENTROPY_FLOOR) -> np.ndarray:
    """-W ln|W| on nodes with |W| > floor, zero elsewhere."""
    keep = np.abs(values) > floor
    out = np.zeros_like(values)
    out[keep] = -values[keep] * np.log(np.abs(values[keep]))
    return out


def von_neumann_entropy(w: WignerField, epsilon: float = ENTROPY_FLOOR) -> float:
    """-integral of W ln|W| over nodes with |W| > epsilon."""
    if epsilon <= 0:
        raise RejectionError(f"epsilon must be positive, got {epsilon}")
    return integrate_volume(w.grid, entropy_density(w.values, epsilon))


def require_beta(beta: float) -> None:
    """Reject a Renyi order that is not positive or equals 1."""
    if beta <= 0 or beta == 1.0:
        raise RejectionError(f"beta must be positive and different from 1, got {beta}")


def negative_nodes(values: np.ndarray, floor: float = ENTROPY_FLOOR) -> np.ndarray:
    """Nodes where W < 0 with |W| > floor: where a non-integer power of W is undefined."""
    return (values < 0.0) & (np.abs(values) > floor)


def require_power_domain(values: np.ndarray, beta: float, floor: float = ENTROPY_FLOOR) -> None:
    """Reject a beta for which W**beta is undefined on the given nodes.

    beta must be positive and different from 1; a non-integer beta also
    needs every node above the floor to be non-negative.
    """
    require_beta(beta)
    if not float(beta).is_integer():
        negative = int(np.count_nonzero(negative_nodes(values, floor)))
        if negative:
            raise RejectionError(
                f"W**beta undefined for non-integer beta={beta}: {negative} negative nodes above floor"
            )


def power_field(values: np.ndarray, beta: float, floor: float = ENTROPY_FLOOR) -> np.ndarray:
    """W**beta with the signed-power convention and magnitude floor.

    Nodes with |W| <= floor contribute zero.  Even integer beta is always
    allowed; odd integer beta keeps the sign; non-integer beta requires a
    non-negative field above the floor (see require_power_domain).
    """
    require_power_domain(values, beta, floor)
    keep = np.abs(values) > floor
    out = np.zeros_like(values, dtype=float)
    if float(beta).is_integer():
        out[keep] = values[keep] ** int(beta)
        return out
    out[keep] = values[keep] ** beta
    return out


def renyi_entropy(w: WignerField, beta: float, floor: float = ENTROPY_FLOOR) -> float:
    """(1 - beta)^-1 ln integral of W**beta."""
    integral = integrate_volume(w.grid, power_field(w.values, beta, floor))
    if integral <= 0.0:
        raise RejectionError(f"integral of W**{beta} is {integral:.3e}, not positive")
    return float(np.log(integral) / (1.0 - beta))
