"""Wigner quasi-probability flow analysis.

Phase-space currents of (an)harmonic quantum systems, their departure
from classical Liouvillian transport, and the continuity-equation fluxes
of probability, purity, von Neumann and Renyi entropies across classical
periodic orbits.
"""

from .classical import ClassicalOrbit, period_quadrature, solve_orbit
from .currents import MaskedField, continuity_residual, delta_current, div_w
from .errors import ConfigError, RejectionError, WignerFlowError
from .fluxes import (
    PURITY,
    SIGMA,
    SVN,
    OrbitRegion,
    Snapshot,
    oracle_rates,
    oracle_times,
    orbit_interior_mask,
    period_accumulation,
    quantities,
    renyi,
    renyi_entropy,
)
from .grid import (
    CoordinateGrid,
    DimensionlessMap,
    PhaseSpaceGrid,
    integrate_volume,
    partial_derivative,
)
from .potentials import PotentialModel, double_well, harmonic, pure_quartic, quartic_perturbed
from .states import (
    EigenPropagator,
    StateSpec,
    Wavefunction,
    WignerField,
    cat,
    coherent,
    evaluate_state,
    evolve_wavefunction,
    harmonic_eigenstate,
    superposition,
    wigner_transform,
)

__version__ = "0.1.0"
