"""Properties of the flux table over coherent and cat states, checked row by row.

Each property runs on a small grid pair and a 512-sample orbit, so that an
example costs a few milliseconds.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerflow import fluxes
from wignerflow.classical import solve_orbit
from wignerflow.errors import RejectionError
from wignerflow.fluxes import ENTROPY_FLOOR, PURITY, PURITY_FACTOR, OrbitRegion, Snapshot, quantities, renyi
from wignerflow.grid import CoordinateGrid, PhaseSpaceGrid
from wignerflow.potentials import harmonic, pure_quartic
from wignerflow.states import StateSpec, evaluate_state, wigner_transform

PGRID = PhaseSpaceGrid.centered(5.0, 5.0, 64, 64)
CGRID = CoordinateGrid(10.0, 256)
QUARTIC = solve_orbit(pure_quartic(), (1.0, 0.0), n_samples=512)
REVERSED = QUARTIC.reversed()
HARMONIC = solve_orbit(harmonic(), (1.5, 0.0), n_samples=512)
REGIONS = {id(orbit): OrbitRegion(orbit, PGRID) for orbit in (QUARTIC, REVERSED, HARMONIC)}

PROPERTY = settings(max_examples=25, deadline=None)

specs = st.builds(
    StateSpec, st.sampled_from(["coherent", "cat"]), x0=st.floats(0.3, 1.5), k0=st.floats(-1.5, 1.5)
)
betas = st.lists(
    st.one_of(st.sampled_from([0.5, 2.0, 3.0]), st.floats(0.25, 3.5).filter(lambda b: b != 1.0)),
    min_size=1, max_size=3, unique_by=lambda b: f"{b:g}",
)


@lru_cache(maxsize=None)
def field(spec: StateSpec):
    return wigner_transform(evaluate_state(spec, CGRID), PGRID)


def snapshot(spec, orbit, potential):
    return Snapshot(field(spec), REGIONS[id(orbit)], potential)


def loop(snap, q):
    """The row's loop flux, or None where its domain rule rejects."""
    try:
        return snap.loop(q)
    except RejectionError:
        return None


def volume(snap, q):
    """The row's volume term over the region, or None where it rejects."""
    try:
        return snap.volume(q)[0]
    except RejectionError:
        return None


def quantity(snap, q):
    """The row's region quantity, or None where it rejects."""
    try:
        return snap.quantity(q)
    except RejectionError:
        return None


def region_scale(snap, q):
    """Magnitude of the region sum's terms: factor * sum |density * weight|."""
    return q.factor * float(np.sum(np.abs(q.density(snap.region_w, ENTROPY_FLOOR) * snap.region.weights)))


def loop_scale(snap, q):
    """Magnitude of the loop sum's terms: sum |weight Delta J_k dx/dtau| dtau."""
    weight = q.loop[1](snap.w_on)
    return float(np.sum(np.abs(weight * snap.dj_on * snap.orbit.vx)) * snap.orbit.dtau)


@PROPERTY
@given(spec=specs, betas=betas)
def test_reversal_negates_every_loop_and_keeps_every_volume_term(spec, betas):
    fwd = snapshot(spec, QUARTIC, pure_quartic())
    rev = snapshot(spec, REVERSED, pure_quartic())
    for q in quantities(betas):
        a, b = loop(fwd, q), loop(rev, q)
        assert (a is None) == (b is None), q.key
        if a is not None:
            # the reversed sum adds the same terms in the opposite order
            assert abs(a + b) <= 1e-12 * loop_scale(fwd, q), q.key
        if q.volume is not None:
            assert volume(fwd, q) == volume(rev, q), q.key
        # both directions have the same region nodes and weights, summed in
        # the opposite order
        a, b = quantity(fwd, q), quantity(rev, q)
        assert (a is None) == (b is None), q.key
        if a is not None:
            assert abs(a - b) <= 1e-12 * region_scale(fwd, q), q.key


@PROPERTY
@given(spec=specs, betas=betas)
def test_harmonic_flow_has_no_loop_flux_or_volume_term(spec, betas):
    snap = snapshot(spec, HARMONIC, harmonic())
    for q in quantities(betas):
        values = [loop(snap, q)] + ([volume(snap, q)] if q.volume is not None else [])
        for value in values:
            assert value is None or abs(value) < 1e-10, q.key


@PROPERTY
@given(spec=specs)
def test_beta_two_is_purity(spec):
    snap = snapshot(spec, QUARTIC, pure_quartic())
    two = renyi(2.0)
    assert loop(snap, two) == loop(snap, PURITY)
    # power_field drops the nodes with |W| <= floor, where W^2 <= floor^2
    np.testing.assert_allclose(volume(snap, two), volume(snap, PURITY), rtol=1e-12, atol=1e-40)
    np.testing.assert_allclose(snap.quantity(two), snap.quantity(PURITY) / PURITY_FACTOR, rtol=1e-12, atol=0)


@PROPERTY
@given(spec=specs, betas=betas)
def test_per_point_form_of_a_frozen_field_sums_to_the_loop(spec, betas):
    snap = snapshot(spec, QUARTIC, pure_quartic())
    orbit = snap.orbit
    for q in quantities(betas):
        terms = np.array([
            fluxes._diagonal_sample(q, float(w), float(dj), vx, ENTROPY_FLOOR)
            for w, dj, vx in zip(snap.w_on, snap.dj_on, orbit.vx)
        ])
        flux = loop(snap, q)
        assert (flux is None) == bool(np.isnan(terms).any()), q.key
        if flux is not None:
            assert abs(np.sum(terms) * orbit.dtau - flux) <= 1e-12 * loop_scale(snap, q), q.key

