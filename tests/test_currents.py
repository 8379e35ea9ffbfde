"""The current's quantum remainder, divergence of the phase velocity, continuity residual."""

from math import factorial

import numpy as np
import pytest

from wignerflow import currents
from wignerflow.currents import continuity_residual, delta_current, div_w
from wignerflow.errors import RejectionError
from wignerflow.fluxes import OrbitRegion
from wignerflow.grid import integrate_volume, partial_derivative
from wignerflow.potentials import PotentialModel, double_well, harmonic, pure_quartic
from wignerflow.states import (
    WignerField,
    cat,
    coherent,
    evaluate_state,
    evolve_wavefunction,
    harmonic_eigenstate,
    wigner_transform,
)


#: u = x^2/2 + x^6/10, whose fifth derivative 72 x keeps the nu = 2 term alive.
SEXTIC = PotentialModel("sextic", (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1))


def full_current(w, potential, nu_max):
    """J = (k W, J_k) with every term of the series up to nu_max, the classical force term included."""
    grid = w.grid
    jk = np.zeros_like(w.values)
    for nu in range(nu_max + 1):
        w_der = w.values if nu == 0 else partial_derivative(grid, w.values, "k", 2 * nu)
        u_der = np.asarray(potential.derivative(grid.x, 2 * nu + 1))
        jk -= (-0.25) ** nu / factorial(2 * nu + 1) * u_der[:, None] * w_der
    return w.values * grid.k[None, :], jk


def full_divergence(w, potential, nu_max):
    """div J of the full current, by stencils along both axes."""
    jx, jk = full_current(w, potential, nu_max)
    return partial_derivative(w.grid, jx, "x") + partial_derivative(w.grid, jk, "k")


class TestCurrentK:
    """The k-component series, whose nu >= 1 part delta_current sums."""

    def test_harmonic_series_terminates(self, ground_w):
        # cubic and higher derivatives of x^2/2 vanish, so at every
        # truncation order J_k is the classical force term alone
        for nu_max in (0, 1, 2):
            np.testing.assert_array_equal(delta_current(ground_w, harmonic(), nu_max), 0.0)

    def test_pure_quartic_first_correction(self, ground_w):
        # u = x^4/4: u''' = 6x; the nu = 1 coefficient is
        # -(-1/4)(1/3!) 6x = +x/4
        grid = ground_w.grid
        x = grid.x[:, None]
        d2 = partial_derivative(grid, ground_w.values, "k", 2)
        reference = (x / 4.0) * d2
        got = delta_current(ground_w, pure_quartic(), 1)
        assert np.max(np.abs(got - reference)) < 1e-12

    def test_nu_zero_is_classical_force_term(self, cat_w):
        # at nu_max = 0, J_k = -u'(x) W leaves no remainder
        for pot in (harmonic(), pure_quartic()):
            np.testing.assert_array_equal(delta_current(cat_w, pot, 0), 0.0)

    def test_quartic_series_terminates_at_nu_one(self, cat_w):
        # fifth derivative of any quartic is identically zero
        a = delta_current(cat_w, pure_quartic(), 1)
        b = delta_current(cat_w, pure_quartic(), 2)
        assert np.array_equal(a, b)

    def test_sextic_keeps_its_fifth_derivative_term(self, cat_w):
        assert not np.array_equal(delta_current(cat_w, SEXTIC, 2), delta_current(cat_w, SEXTIC, 1))

    def test_pure_quartic_equals_the_full_sum(self, cat_w):
        # every nu >= 1 term of the series, the vanishing nu = 2 one included
        pot, grid = pure_quartic(), cat_w.grid
        reference = np.zeros_like(cat_w.values)
        for nu in (1, 2):
            w_der = partial_derivative(grid, cat_w.values, "k", 2 * nu)
            u_der = np.asarray(pot.derivative(grid.x, 2 * nu + 1))
            reference -= (-0.25) ** nu / factorial(2 * nu + 1) * u_der[:, None] * w_der
        assert np.array_equal(delta_current(cat_w, pot, 2), reference)

    def test_terms_with_a_zero_potential_derivative_take_no_k_derivative(self, monkeypatch, cat_w):
        orders = []

        def recording(grid, values, axis, order=1):
            orders.append(order)
            return partial_derivative(grid, values, axis, order)

        monkeypatch.setattr(currents, "partial_derivative", recording)
        delta_current(cat_w, pure_quartic(), 2)
        assert orders == [2]
        orders.clear()
        delta_current(cat_w, SEXTIC, 2)
        assert orders == [2, 4]

    def test_unsupported_truncation_rejected(self, ground_w):
        with pytest.raises(RejectionError, match="beyond the supported maximum"):
            delta_current(ground_w, pure_quartic(), 4)
        with pytest.raises(RejectionError, match="nu_max must be >= 0"):
            delta_current(ground_w, pure_quartic(), -1)


class TestDeltaCurrent:
    def test_harmonic_remainder_vanishes_identically(self, ground_w, excited_w, cat_w):
        for w in (ground_w, excited_w, cat_w):
            assert np.max(np.abs(delta_current(w, harmonic(), 2))) < 1e-14

    def test_quartic_remainder_is_first_correction(self, ground_w):
        grid = ground_w.grid
        dj = delta_current(ground_w, pure_quartic(), 1)
        d2 = partial_derivative(grid, ground_w.values, "k", 2)
        ref = (grid.x[:, None] / 4.0) * d2
        assert np.max(np.abs(dj - ref)) < 1e-12

    def test_center_line_vanishes_for_quartic(self, ground_w):
        # u'''(0) = 0 for x^4/4 and W is even in x, so Delta J_k is odd in x
        # and interpolates to zero on the x = 0 line
        dj = delta_current(ground_w, pure_quartic(), 2)
        interpolate = pytest.importorskip("scipy.interpolate")
        spline = interpolate.RectBivariateSpline(ground_w.grid.x, ground_w.grid.k, dj)
        line = spline(np.array([0.0]), ground_w.grid.k)[0]
        assert np.max(np.abs(line)) < 1e-8

    def test_non_finite_remainder_rejected(self, pgrid):
        # the k-stencil of a finite field near the largest float overflows
        w = WignerField(np.full(pgrid.shape, 1e308), pgrid)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RejectionError, match="Delta J_k contains non-finite values"):
                delta_current(w, pure_quartic(), 1)


class TestPhaseVelocity:
    """The mask of the phase-velocity quotient, as div_w applies it."""

    def test_masked_nodes_hold_zero_not_nan(self, ground_w):
        dv = div_w(ground_w, delta_current(ground_w, harmonic(), 2))
        assert not dv.valid.all()
        assert np.all(np.isfinite(dv.values))
        assert np.all(dv.values[~dv.valid] == 0.0)

    def test_explicit_epsilon(self, ground_w):
        dj = delta_current(ground_w, harmonic(), 2)
        dv = div_w(ground_w, dj, epsilon=1e-3)
        assert dv.valid.sum() < ground_w.values.size
        with pytest.raises(RejectionError):
            div_w(ground_w, dj, epsilon=-1.0)


class TestDivW:
    @pytest.mark.parametrize("state", ["ground", "excited", "cat"])
    def test_harmonic_flow_is_divergence_free(self, state, request):
        w = request.getfixturevalue(f"{state}_w")
        dv = div_w(w, delta_current(w, harmonic(), 2))
        assert np.max(np.abs(dv.values[dv.valid])) < 5e-6

    def test_quartic_flow_changes_sign(self, excited_w):
        dv = div_w(excited_w, delta_current(excited_w, pure_quartic(), 2))
        vals = dv.values[dv.valid]
        assert np.max(np.abs(vals)) > 0.0
        assert np.any(vals > 0.0) and np.any(vals < 0.0)

    def test_scale_invariance(self, excited_w):
        c = 3.7
        dj = delta_current(excited_w, pure_quartic(), 2)
        dv = div_w(excited_w, dj)
        scaled_w = WignerField(c * excited_w.values, excited_w.grid, excited_w.tau)
        dv2 = div_w(scaled_w, c * dj)
        both = dv.valid & dv2.valid
        np.testing.assert_allclose(dv2.values[both], dv.values[both], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("pot", [pure_quartic(), double_well(0.25)], ids=["pure_quartic", "double_well"])
    @pytest.mark.parametrize("spec", [cat(1.5, 0.0), coherent(1.0, 0.5)], ids=["cat", "coherent"])
    def test_identity_matches_the_quotient_rule_of_the_full_current(self, spec, pot, pgrid, cgrid):
        # w_x = k does not depend on x and -u'(x) does not depend on k, so
        # (W div J - J . grad W) / W^2 = d_k(Delta J_k / W): the x-terms and
        # the classical force terms cancel, here up to rounding
        w = wigner_transform(evolve_wavefunction(evaluate_state(spec, cgrid), pot, 1e-3, 500), pgrid)
        jx, jk = full_current(w, pot, 2)
        dj = delta_current(w, pot, 2)
        remainder = jk + np.asarray(pot.derivative(pgrid.x, 1))[:, None] * w.values
        assert np.max(np.abs(dj - remainder)) <= 1e-14 * np.max(np.abs(dj))

        grad_x, grad_k = (partial_derivative(pgrid, w.values, axis) for axis in ("x", "k"))
        numerator = w.values * full_divergence(w, pot, 2) - (jx * grad_x + jk * grad_k)
        dv = div_w(w, dj)
        assert dv.valid.any() and not dv.valid.all()
        quotient_rule = numerator[dv.valid] / w.values[dv.valid]
        got = (w.values * dv.values)[dv.valid]
        assert np.max(np.abs(got - quotient_rule)) <= 1e-14 * np.max(np.abs(quotient_rule))


class TestWindowedDivW:
    @pytest.mark.parametrize("field", ["offset_gaussian_w", "cat_w"])
    def test_region_window_equals_the_whole_grid(self, field, request, quartic_orbit):
        w = request.getfixturevalue(field)
        dj = delta_current(w, pure_quartic(), 2)
        window = OrbitRegion(quartic_orbit, w.grid).window
        whole, part = div_w(w, dj), div_w(w, dj, window=window)
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
        dj = delta_current(w, pure_quartic(), 2)
        whole, part = div_w(w, dj), div_w(w, dj, window=window)
        assert part.valid.all()
        assert np.array_equal(part.values, whole.values[window])

    def test_reads_the_window_rows_over_the_k_axis(self, monkeypatch, cat_w, quartic_orbit):
        received = []

        def recording(grid, values, axis, order=1):
            received.append((np.shape(values), axis, order))
            return partial_derivative(grid, values, axis, order)

        dj = delta_current(cat_w, pure_quartic(), 2)
        window = OrbitRegion(quartic_orbit, cat_w.grid).window
        monkeypatch.setattr(currents, "partial_derivative", recording)
        div_w(cat_w, dj, window=window)
        rows = window[0].stop - window[0].start
        assert 0 < rows < cat_w.grid.n_x // 4
        # d_k Delta J_k and d_k W on the window's x-rows, and no derivative along x
        assert received == [((rows, cat_w.grid.n_k), "k", 1)] * 2


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
        div = full_divergence(fields[1], harmonic(), 2)
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
        assert abs(integrate_volume(w.grid, full_divergence(w, pot(), 2))) < 1e-8
