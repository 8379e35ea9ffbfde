"""Shared fixtures: default grids and frequently reused fields.

Heavy objects (Wigner transforms, orbits) are session-scoped; tests must
treat them as read-only.
"""

import numpy as np
import pytest

from wignerflow.classical import solve_orbit
from wignerflow.grid import CoordinateGrid, PhaseSpaceGrid
from wignerflow.potentials import harmonic, pure_quartic
from wignerflow.states import (
    WignerField,
    cat,
    coherent,
    evaluate_state,
    harmonic_eigenstate,
    wigner_transform,
)


@pytest.fixture(scope="session")
def pgrid():
    return PhaseSpaceGrid.centered(8.0, 8.0, 256, 256)


@pytest.fixture(scope="session")
def cgrid():
    return CoordinateGrid(16.0, 2048)


@pytest.fixture(scope="session")
def ground_w(pgrid, cgrid):
    return wigner_transform(evaluate_state(harmonic_eigenstate(0), cgrid), pgrid)


@pytest.fixture(scope="session")
def excited_w(pgrid, cgrid):
    return wigner_transform(evaluate_state(harmonic_eigenstate(1), cgrid), pgrid)


@pytest.fixture(scope="session")
def cat_w(pgrid, cgrid):
    return wigner_transform(evaluate_state(cat(1.5, 0.0), cgrid), pgrid)


@pytest.fixture(scope="session")
def gaussian_w(pgrid):
    """Analytic ground-state field pi^-1 exp(-x^2-k^2): exactly positive."""
    X, K = pgrid.meshes()
    return WignerField(np.exp(-X**2 - K**2) / np.pi, pgrid)


@pytest.fixture(scope="session")
def wide_w(pgrid):
    """Analytic positive field far from zero on every grid edge (W = 1.8e-4 at the corners)."""
    X, K = pgrid.meshes()
    return WignerField(np.exp(-(X**2 + K**2) / 32.0) / (32.0 * np.pi), pgrid)


@pytest.fixture(scope="session")
def offset_gaussian_w(pgrid, cgrid):
    """Transformed coherent(1, 0.5) field: positive, breaks k-parity."""
    return wigner_transform(evaluate_state(coherent(1.0, 0.5), cgrid), pgrid)


@pytest.fixture(scope="session")
def harmonic_orbit():
    return solve_orbit(harmonic(), (2.0, 0.0))


@pytest.fixture(scope="session")
def quartic_orbit():
    return solve_orbit(pure_quartic(), (1.0, 0.0))
