"""Orbit integration, period detection, loop frame geometry."""

import numpy as np
import pytest

from wignerflow import classical
from wignerflow.classical import ClassicalOrbit, orbit_frame, period_quadrature, solve_orbit
from wignerflow.errors import RejectionError
from wignerflow.potentials import double_well, harmonic, pure_quartic


class TestHarmonicOrbit:
    def test_period_is_two_pi(self, harmonic_orbit):
        assert harmonic_orbit.period == pytest.approx(2 * np.pi, abs=1e-5)

    def test_orbit_is_the_circle(self, harmonic_orbit):
        r = np.hypot(harmonic_orbit.x, harmonic_orbit.k)
        assert np.max(np.abs(r - 2.0)) < 1e-6

    def test_energy_drift(self, harmonic_orbit):
        h = 0.5 * harmonic_orbit.k**2 + 0.5 * harmonic_orbit.x**2
        assert np.max(np.abs(h - harmonic_orbit.energy)) < 1e-8

    def test_circumference(self, harmonic_orbit):
        _, dl = orbit_frame(harmonic_orbit)
        assert np.sum(dl) == pytest.approx(4 * np.pi, abs=1e-4)

    def test_normal_at_rightmost_point(self, harmonic_orbit):
        # at (2, 0) the flow is v = (0, -2); the frame normal is (1, 0),
        # pointing outward
        i = int(np.argmax(harmonic_orbit.x))
        assert harmonic_orbit.x[i] == pytest.approx(2.0, abs=1e-6)
        assert (harmonic_orbit.nx[i], harmonic_orbit.nk[i]) == pytest.approx((1.0, 0.0), abs=1e-5)
        assert harmonic_orbit.vk[i] == pytest.approx(-2.0, abs=1e-5)

    def test_normals_orthogonal_to_velocity(self, harmonic_orbit):
        dots = harmonic_orbit.nx * harmonic_orbit.vx + harmonic_orbit.nk * harmonic_orbit.vk
        assert np.max(np.abs(dots)) < 1e-10

    def test_normals_unit_length(self, harmonic_orbit):
        norms = np.hypot(harmonic_orbit.nx, harmonic_orbit.nk)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_green_theorem_area(self, harmonic_orbit):
        # closed-curve area: |oint (x dk - k dx) / 2| = pi r^2 = 4 pi
        x, k = harmonic_orbit.x, harmonic_orbit.k
        dx = np.roll(x, -1) - x
        dk = np.roll(k, -1) - k
        area = 0.5 * np.sum(x * dk - k * dx)
        assert abs(area) == pytest.approx(4 * np.pi, abs=1e-4)

    def test_period_quadrature_cross_check(self):
        pytest.importorskip("scipy")
        assert period_quadrature(harmonic(), 2.0) == pytest.approx(2 * np.pi, rel=1e-8)


class TestQuarticOrbit:
    def test_energy_conserved(self, quartic_orbit):
        h = 0.5 * quartic_orbit.k**2 + 0.25 * quartic_orbit.x**4
        assert quartic_orbit.energy == pytest.approx(0.25, abs=1e-12)
        assert np.max(np.abs(h - 0.25)) < 1e-8

    def test_period_reproducible_under_step_halving(self, quartic_orbit):
        finer = solve_orbit(pure_quartic(), (1.0, 0.0), dtau=5e-5)
        assert abs(finer.period - quartic_orbit.period) < 1e-5

    def test_period_matches_turning_point_quadrature(self, quartic_orbit):
        # T = 2 int dx / sqrt(2 (E - u)) with the sqrt singularity removed
        pytest.importorskip("scipy")
        t_ref = period_quadrature(pure_quartic(), 0.25)
        assert abs(quartic_orbit.period - t_ref) / t_ref < 1e-4

    def test_not_parity_flagged(self, quartic_orbit):
        assert not quartic_orbit.single_well_asymmetric


class TestDoubleWell:
    def test_sub_barrier_orbit_flagged(self):
        orbit = solve_orbit(double_well(0.25), (1.2, 0.0))
        assert orbit.single_well_asymmetric
        assert np.min(orbit.x) > 0.0
        pytest.importorskip("scipy")
        t_ref = period_quadrature(double_well(0.25), orbit.energy)
        assert abs(orbit.period - t_ref) / t_ref < 1e-4

    def test_near_separatrix_orbit_times_out(self):
        # u(sqrt(2)) = 0 equals the barrier-top energy: the trajectory dwells
        # at the saddle far longer than this tau_limit allows
        with pytest.raises(RejectionError, match="no period found"):
            solve_orbit(double_well(0.25), (np.sqrt(2.0), 0.0), dtau=1e-3, tau_limit=10.0)


class TestContracts:
    def test_equilibrium_start_rejected(self):
        with pytest.raises(RejectionError, match="equilibrium"):
            solve_orbit(harmonic(), (0.0, 0.0))

    def test_orbit_exceeding_limit_rejected(self):
        with pytest.raises(RejectionError, match="exceeded"):
            solve_orbit(harmonic(), (2.0, 0.0), x_limit=1.5)

    def test_reversed_orbit_flips_frame(self, harmonic_orbit):
        rev = harmonic_orbit.reversed()
        assert rev.period == harmonic_orbit.period
        np.testing.assert_allclose(rev.x, harmonic_orbit.x[::-1], atol=1e-12)
        np.testing.assert_allclose(rev.vx, -harmonic_orbit.vx[::-1], atol=1e-12)
        np.testing.assert_allclose(rev.nx, -harmonic_orbit.nx[::-1], atol=1e-12)

    def test_reversed_frame_is_the_flipped_frame_bit_for_bit(self, quartic_orbit):
        rev = quartic_orbit.reversed()
        assert np.array_equal(rev.nx, -quartic_orbit.nx[::-1])
        assert np.array_equal(rev.nk, -quartic_orbit.nk[::-1])
        assert np.array_equal(rev.dl, quartic_orbit.dl[::-1])

    def test_frame_is_derived_once_per_orbit(self, quartic_orbit):
        o = quartic_orbit
        nx, nk, dl = classical._normal_frame(o.x, o.k, o.vx, o.vk, o.dtau)
        assert np.array_equal(o.nx, nx) and np.array_equal(o.nk, nk) and np.array_equal(o.dl, dl)
        assert o.nx is o.nx and o.nk is o.nk and o.dl is o.dl

    def test_degenerate_speed_rejected_at_construction(self):
        # the velocity (v_x, v_k) = (tau, 0) vanishes at the first sample
        tau = np.linspace(0.0, 1.0, 16)
        with pytest.raises(RejectionError, match="degenerate sample"):
            ClassicalOrbit(tau, tau, tau, tau, np.zeros(16), 1.0, 0.5, "test")


class TestIntegratorProperties:
    def test_symplectic_energy_error_second_order(self):
        # max energy error scales as dtau^2: halving the step cuts it by
        # about 4 (within 30 percent)
        errs = []
        for dtau in (2e-4, 1e-4):
            orb = solve_orbit(pure_quartic(), (1.0, 0.0), dtau=dtau)
            h = 0.5 * orb.k**2 + 0.25 * orb.x**4
            errs.append(np.max(np.abs(h - orb.energy)))
        ratio = errs[0] / errs[1]
        assert 2.8 < ratio < 5.2

    def test_time_reversal(self):
        # velocity Verlet retraces its path exactly up to rounding
        pot = pure_quartic()
        dtau, steps = 1e-4, 20000
        x, k = 1.0, 0.0
        for _ in range(steps):
            half = k + 0.5 * dtau * pot.force(x)
            x += dtau * half
            k = half + 0.5 * dtau * pot.force(x)
        for _ in range(steps):
            half = k - 0.5 * dtau * pot.force(x)
            x -= dtau * half
            k = half - 0.5 * dtau * pot.force(x)
        assert abs(x - 1.0) < 1e-8 and abs(k) < 1e-8

    def test_one_force_call_per_step_and_the_two_call_orbit(self, monkeypatch):
        # the end-of-step force is reused as the next first half-kick, so
        # the orbit equals the two-call Verlet loop bit for bit
        calls = []

        class CountedQuartic(type(pure_quartic())):
            def force(self, x):
                calls.append(x)
                return super().force(x)

        dense = []
        spline = classical.UniformSpline

        def recording_spline(x0, h, values):
            dense.append(values.copy())
            return spline(x0, h, values)

        pot = pure_quartic()
        counted = CountedQuartic(pot.label, pot.coefficients)
        monkeypatch.setattr(classical, "UniformSpline", recording_spline)
        orbit = solve_orbit(counted, (1.0, 0.0))
        steps = dense[0].size - 1
        assert len(calls) <= steps + 1

        dtau = classical.DEFAULT_ORBIT_DTAU
        xs, ks = np.empty(steps + 1), np.empty(steps + 1)
        x, k = xs[0], ks[0] = 1.0, 0.0
        for i in range(1, steps + 1):
            half = k + 0.5 * dtau * pot.force(x)
            x += dtau * half
            k = half + 0.5 * dtau * pot.force(x)
            xs[i], ks[i] = x, k
        assert np.array_equal(orbit.x, spline(0.0, dtau, xs)(orbit.tau))
        assert np.array_equal(orbit.k, spline(0.0, dtau, ks)(orbit.tau))
