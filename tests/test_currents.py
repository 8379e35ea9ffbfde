"""Current fields, phase velocity, divergence, continuity residual."""

from math import factorial

import numpy as np
import pytest

from wignerflow import currents
from wignerflow.currents import (
    continuity_residual,
    current_k,
    current_x,
    delta_current,
    div_w,
    phase_velocity,
    wigner_current,
)
from wignerflow.errors import RejectionError
from wignerflow.fluxes import orbit_interior_mask
from wignerflow.grid import integrate_volume, node_window, partial_derivative
from wignerflow.potentials import PotentialModel, harmonic, pure_quartic
from wignerflow.states import (
    WignerField,
    coherent,
    evaluate_state,
    evolve_wavefunction,
    harmonic_eigenstate,
    wigner_transform,
)


#: u = x^2/2 + x^6/10, whose fifth derivative 72 x keeps the nu = 2 term alive.
SEXTIC = PotentialModel("sextic", (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1))


class TestCurrentX:
    def test_product_form(self, ground_w):
        jx = current_x(ground_w)
        np.testing.assert_array_equal(jx, ground_w.values * ground_w.grid.k[None, :])

    def test_antisymmetric_in_k_for_symmetric_w(self, ground_w):
        jx = current_x(ground_w)
        assert np.max(np.abs(jx + jx[:, ::-1])) < 1e-12

    def test_zero_field(self, pgrid):
        w = WignerField(np.zeros(pgrid.shape), pgrid)
        assert np.all(current_x(w) == 0.0)


class TestCurrentK:
    def test_harmonic_series_terminates(self, ground_w):
        # cubic and higher derivatives of x^2/2 vanish, so every truncation
        # order gives the classical force term exactly
        x = ground_w.grid.x
        reference = -(x[:, None] * ground_w.values)
        for nu_max in (0, 1, 2):
            np.testing.assert_array_equal(current_k(ground_w, harmonic(), nu_max), reference)

    def test_pure_quartic_first_correction(self, ground_w):
        # u = x^4/4: u' = x^3, u''' = 6x; the nu = 1 coefficient is
        # -(-1/4)(1/3!) 6x = +x/4
        grid = ground_w.grid
        x = grid.x[:, None]
        d2 = partial_derivative(grid, ground_w.values, "k", 2)
        reference = -(x**3) * ground_w.values + (x / 4.0) * d2
        got = current_k(ground_w, pure_quartic(), 1)
        assert np.max(np.abs(got - reference)) < 1e-12

    def test_nu_zero_is_classical_force_term(self, cat_w):
        for pot in (harmonic(), pure_quartic()):
            got = current_k(cat_w, pot, 0)
            ref = -np.asarray(pot.derivative(cat_w.grid.x, 1))[:, None] * cat_w.values
            np.testing.assert_array_equal(got, ref)

    def test_quartic_series_terminates_at_nu_one(self, cat_w):
        # fifth derivative of any quartic is identically zero
        a = current_k(cat_w, pure_quartic(), 1)
        b = current_k(cat_w, pure_quartic(), 2)
        assert np.array_equal(a, b)

    def test_sextic_keeps_its_fifth_derivative_term(self, cat_w):
        assert not np.array_equal(current_k(cat_w, SEXTIC, 2), current_k(cat_w, SEXTIC, 1))

    def test_pure_quartic_equals_the_full_sum(self, cat_w):
        # every term of the series, the vanishing nu = 2 one included
        pot, grid = pure_quartic(), cat_w.grid
        reference = np.zeros_like(cat_w.values)
        for nu in range(3):
            w_der = cat_w.values if nu == 0 else partial_derivative(grid, cat_w.values, "k", 2 * nu)
            u_der = np.asarray(pot.derivative(grid.x, 2 * nu + 1))
            reference -= (-0.25) ** nu / factorial(2 * nu + 1) * u_der[:, None] * w_der
        assert np.array_equal(current_k(cat_w, pot, 2), reference)

    def test_terms_with_a_zero_potential_derivative_take_no_k_derivative(self, monkeypatch, cat_w):
        orders = []

        def recording(grid, values, axis, order=1, window=None):
            orders.append(order)
            return partial_derivative(grid, values, axis, order, window)

        monkeypatch.setattr(currents, "partial_derivative", recording)
        current_k(cat_w, pure_quartic(), 2)
        assert orders == [2]
        orders.clear()
        current_k(cat_w, SEXTIC, 2)
        assert orders == [2, 4]

    def test_unsupported_truncation_rejected(self, ground_w):
        with pytest.raises(RejectionError, match="beyond the supported maximum"):
            current_k(ground_w, pure_quartic(), 4)


class TestDeltaCurrent:
    def test_harmonic_remainder_vanishes_identically(self, ground_w, excited_w, cat_w):
        for w in (ground_w, excited_w, cat_w):
            j = wigner_current(w, harmonic(), 2)
            dj = delta_current(j, w, harmonic())
            assert np.max(np.abs(dj.jk)) < 1e-14
            assert np.all(dj.jx == 0.0)

    def test_quartic_remainder_is_first_correction(self, ground_w):
        grid = ground_w.grid
        j = wigner_current(ground_w, pure_quartic(), 1)
        dj = delta_current(j, ground_w, pure_quartic())
        d2 = partial_derivative(grid, ground_w.values, "k", 2)
        ref = (grid.x[:, None] / 4.0) * d2
        assert np.max(np.abs(dj.jk - ref)) < 1e-12

    def test_center_line_vanishes_for_quartic(self, ground_w):
        # u'''(0) = 0 for x^4/4 and W is even in x, so Delta J_k is odd in x
        # and interpolates to zero on the x = 0 line
        j = wigner_current(ground_w, pure_quartic(), 2)
        dj = delta_current(j, ground_w, pure_quartic())
        interpolate = pytest.importorskip("scipy.interpolate")
        spline = interpolate.RectBivariateSpline(ground_w.grid.x, ground_w.grid.k, dj.jk)
        line = spline(np.array([0.0]), ground_w.grid.k)[0]
        assert np.max(np.abs(line)) < 1e-8

    def test_time_tag_mismatch_rejected(self, ground_w, pgrid):
        j = wigner_current(ground_w, harmonic(), 1)
        shifted = WignerField(ground_w.values.copy(), pgrid, tau=1.0)
        with pytest.raises(RejectionError, match="time tags"):
            delta_current(j, shifted, harmonic())


class TestPhaseVelocity:
    def test_harmonic_classical_velocity_field(self, ground_w):
        j = wigner_current(ground_w, harmonic(), 2)
        pv = phase_velocity(j, ground_w)
        X, K = ground_w.grid.meshes()
        assert np.max(np.abs((pv.wx - K)[pv.valid])) < 1e-8
        assert np.max(np.abs((pv.wk + X)[pv.valid])) < 1e-8

    def test_masked_nodes_hold_zero_not_nan(self, ground_w):
        j = wigner_current(ground_w, harmonic(), 2)
        pv = phase_velocity(j, ground_w)
        assert not pv.valid.all()
        assert np.all(np.isfinite(pv.wx)) and np.all(np.isfinite(pv.wk))
        assert np.all(pv.wx[~pv.valid] == 0.0)

    def test_explicit_epsilon(self, ground_w):
        j = wigner_current(ground_w, harmonic(), 2)
        pv = phase_velocity(j, ground_w, epsilon=1e-3)
        assert pv.valid.sum() < ground_w.values.size
        with pytest.raises(RejectionError):
            phase_velocity(j, ground_w, epsilon=-1.0)


class TestDivW:
    @pytest.mark.parametrize("state", ["ground", "excited", "cat"])
    def test_harmonic_flow_is_divergence_free(self, state, request):
        w = request.getfixturevalue(f"{state}_w")
        j = wigner_current(w, harmonic(), 2)
        dv = div_w(j, w)
        assert np.max(np.abs(dv.values[dv.valid])) < 5e-6

    def test_quartic_flow_changes_sign(self, excited_w):
        j = wigner_current(excited_w, pure_quartic(), 2)
        dv = div_w(j, excited_w)
        vals = dv.values[dv.valid]
        assert np.max(np.abs(vals)) > 0.0
        assert np.any(vals > 0.0) and np.any(vals < 0.0)

    def test_scale_invariance(self, excited_w):
        from wignerflow.currents import CurrentField

        c = 3.7
        j = wigner_current(excited_w, pure_quartic(), 2)
        dv = div_w(j, excited_w)
        scaled_w = WignerField(c * excited_w.values, excited_w.grid, excited_w.tau)
        scaled_j = CurrentField(c * j.jx, c * j.jk, j.grid, j.tau, j.nu_max)
        dv2 = div_w(scaled_j, scaled_w)
        both = dv.valid & dv2.valid
        np.testing.assert_allclose(dv2.values[both], dv.values[both], rtol=1e-9, atol=1e-12)


class TestWindowedDivW:
    @pytest.mark.parametrize("field", ["offset_gaussian_w", "cat_w"])
    def test_region_window_equals_the_whole_grid(self, field, request, quartic_orbit):
        w = request.getfixturevalue(field)
        j = wigner_current(w, pure_quartic(), 2)
        window = node_window(w.grid.shape, orbit_interior_mask(quartic_orbit, w.grid))
        whole, part = div_w(j, w), div_w(j, w, window=window)
        assert part.values.shape == (window[0].stop - window[0].start, window[1].stop - window[1].start)
        assert part.valid.any()
        assert np.array_equal(part.values, whole.values[window])
        assert np.array_equal(part.valid, whole.valid[window])

    @pytest.mark.parametrize(
        "window",
        [(slice(0, 12), slice(0, 9)), (slice(244, 256), slice(240, 256)), (slice(1, 20), slice(254, 255)),
         (slice(0, 256), slice(0, 256)), (slice(0, 0), slice(0, 0))],
        ids=["low_edges", "high_edges", "one_in", "whole", "empty"],
    )
    def test_edge_windows_equal_the_whole_grid(self, window, wide_w):
        w = wide_w
        j = wigner_current(w, pure_quartic(), 2)
        whole, part = div_w(j, w), div_w(j, w, window=window)
        assert part.valid.all()
        assert np.array_equal(part.values, whole.values[window])

    def test_reads_the_window_plus_the_stencil_reach(self, monkeypatch, cat_w, quartic_orbit):
        received = []

        def recording(grid, values, axis, order=1, window=None):
            received.append((np.shape(values), window))
            return partial_derivative(grid, values, axis, order, window)

        j = wigner_current(cat_w, pure_quartic(), 2)
        window = node_window(cat_w.grid.shape, orbit_interior_mask(quartic_orbit, cat_w.grid))
        monkeypatch.setattr(currents, "partial_derivative", recording)
        div_w(j, cat_w, window=window)
        extent = (window[0].stop - window[0].start, window[1].stop - window[1].start)
        assert len(received) == 4
        for shape, win in received:
            assert win == window
            assert shape[0] <= extent[0] + 4 and shape[1] <= extent[1] + 4


class TestContinuityResidual:
    def test_harmonic_coherent_state(self, pgrid, cgrid):
        # continuity holds exactly in the continuum; the residual is pure
        # discretization, O(dtau^2) + O(h^4)
        dtau = 1e-3
        phi = evaluate_state(coherent(2.0, 0.0), cgrid)
        snaps = {}
        phi = evolve_wavefunction(phi, harmonic(), dtau, 199)
        for label in ("minus", "mid", "plus"):
            phi = evolve_wavefunction(phi, harmonic(), dtau, 1)
            snaps[label] = wigner_transform(phi, pgrid)
        _, interior_max = continuity_residual(
            snaps["minus"], snaps["mid"], snaps["plus"], harmonic(), 0, dtau
        )
        assert interior_max < 1e-4

    def test_stationary_state_time_term_vanishes(self, pgrid, cgrid):
        dtau = 1e-3
        fields = [
            wigner_transform(evaluate_state(harmonic_eigenstate(1), cgrid, t), pgrid)
            for t in (0.2 - dtau, 0.2, 0.2 + dtau)
        ]
        time_term = np.max(np.abs(fields[2].values - fields[0].values)) / (2 * dtau)
        assert time_term < 1e-10
        _, interior_max = continuity_residual(*fields, harmonic(), 2, dtau)
        j = wigner_current(fields[1], harmonic(), 2)
        div = partial_derivative(pgrid, j.jx, "x") + partial_derivative(pgrid, j.jk, "k")
        stencil_error = np.max(np.abs(div[4:-4, 4:-4]))
        assert interior_max == pytest.approx(stencil_error, rel=1e-6)
        assert interior_max < 1e-3

    def test_quartic_truncation_order_improves_residual(self, pgrid, cgrid):
        dtau = 1e-3
        phi = evaluate_state(coherent(1.0, 0.0), cgrid)
        phi = evolve_wavefunction(phi, pure_quartic(), dtau, 499)
        fields = []
        for _ in range(3):
            phi = evolve_wavefunction(phi, pure_quartic(), dtau, 1)
            fields.append(wigner_transform(phi, pgrid))
        maxima = {}
        for nu in (0, 1, 2):
            _, maxima[nu] = continuity_residual(*fields, pure_quartic(), nu, dtau)
        assert maxima[0] >= 2.0 * maxima[1]
        assert maxima[1] >= maxima[2] * (1 - 1e-12)

    def test_mismatched_tau_rejected(self, ground_w, pgrid):
        other = WignerField(ground_w.values.copy(), pgrid, tau=0.5)
        with pytest.raises(RejectionError, match="tagged tau"):
            continuity_residual(other, ground_w, other, harmonic(), 0, 1e-3)


class TestGlobalInvariants:
    @pytest.mark.parametrize("state", ["ground", "excited", "cat"])
    @pytest.mark.parametrize("pot", [harmonic, pure_quartic])
    def test_global_conservation(self, state, pot, request):
        # zero extension keeps the total probability static: the full-grid
        # integral of div J stays at rounding level
        w = request.getfixturevalue(f"{state}_w")
        j = wigner_current(w, pot(), 2)
        div = partial_derivative(w.grid, j.jx, "x") + partial_derivative(w.grid, j.jk, "k")
        assert abs(integrate_volume(w.grid, div)) < 1e-8
