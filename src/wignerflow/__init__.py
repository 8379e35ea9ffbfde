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
    OrbitRegion,
    Snapshot,
    oracle_rates,
    oracle_times,
    orbit_interior_mask,
    period_accumulation,
    quantities,
)
from .grid import (
    CoordinateGrid,
    DimensionlessMap,
    PhaseSpaceGrid,
    integrate_volume,
    partial_derivative,
)
from .observables import (
    WeylSymbol,
    expectation,
    hamiltonian_symbol,
    momentum_symbol,
    position_symbol,
    purity,
    renyi_entropy,
    unit_symbol,
    von_neumann_entropy,
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
