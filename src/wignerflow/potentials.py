"""Dimensionless potential catalog with exact analytic derivatives.

All catalog wells are polynomials in x, so derivatives of arbitrary order
are exact; the quantum-correction series needs odd derivatives up to order
2*nu_max + 1, where finite differencing of the potential would dominate
the error budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectionError


@dataclass(frozen=True)
class PotentialModel:
    """Polynomial potential u(x) = sum_j coefficients[j] * x**j."""

    label: str
    coefficients: tuple[float, ...]

    @property
    def parity_even(self) -> bool:
        return all(c == 0.0 for c in self.coefficients[1::2])

    def u(self, x):
        """Potential values; accepts scalars or arrays."""
        return np.polynomial.polynomial.polyval(x, self.coefficients)

    def derivative(self, x, order: int = 1):
        """Exact derivative of the given order; accepts scalars or arrays."""
        if order < 0:
            raise RejectionError(f"derivative order must be >= 0, got {order}")
        c = np.polynomial.polynomial.polyder(self.coefficients, order) if order else self.coefficients
        return np.polynomial.polynomial.polyval(x, c)


def harmonic() -> PotentialModel:
    """u(x) = x^2 / 2, the well whose quantum corrections vanish identically."""
    return PotentialModel("harmonic", (0.0, 0.0, 0.5))


def quartic_perturbed(lam: float) -> PotentialModel:
    """u(x) = x^2/2 + lam * x^4."""
    return PotentialModel("quartic_perturbed", (0.0, 0.0, 0.5, 0.0, float(lam)))


def pure_quartic() -> PotentialModel:
    """u(x) = x^4 / 4."""
    return PotentialModel("pure_quartic", (0.0, 0.0, 0.0, 0.0, 0.25))


def double_well(lam: float) -> PotentialModel:
    """u(x) = -x^2/2 + lam * x^4; bounded below for lam > 0."""
    if lam <= 0:
        raise RejectionError(f"double well requires lam > 0, got {lam}")
    return PotentialModel("double_well", (0.0, 0.0, -0.5, 0.0, float(lam)))


CATALOG = {
    "harmonic": harmonic,
    "quartic_perturbed": quartic_perturbed,
    "pure_quartic": pure_quartic,
    "double_well": double_well,
}
