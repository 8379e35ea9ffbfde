"""Orbit by turning-point quadrature, its rejections, loop frame geometry."""

import re

import numpy as np
import pytest

from wignerflow import classical
from wignerflow.classical import ClassicalOrbit, period_quadrature, solve_orbit
from wignerflow.errors import RejectionError
from wignerflow.potentials import PotentialModel, double_well, harmonic, pure_quartic, quartic_perturbed


def verlet_samples(potential, orbit, dtau_max=1e-4):
    """(x, k) at the orbit's sample times by velocity Verlet from its first sample.

    The step divides the sample spacing and is at most dtau_max; the force
    is a plain-float Horner evaluation of -u'(x).
    """
    per_sample = int(np.ceil(orbit.dtau / dtau_max))
    h = orbit.dtau / per_sample
    dcoeffs = [j * c for j, c in enumerate(potential.coefficients)][:0:-1]

    def force(x):
        acc = 0.0
        for c in dcoeffs:
            acc = acc * x + c
        return -acc

    xs, ks = np.empty(orbit.x.size), np.empty(orbit.x.size)
    x, k = float(orbit.x[0]), float(orbit.k[0])
    f = force(x)
    for i in range(orbit.x.size):
        xs[i], ks[i] = x, k
        for _ in range(per_sample):
            half = k + 0.5 * h * f
            x += h * half
            f = force(x)
            k = half + 0.5 * h * f
    return xs, ks


class TestHarmonicOrbit:
    def test_period_is_two_pi(self, harmonic_orbit):
        assert harmonic_orbit.period == pytest.approx(2 * np.pi, abs=1e-12)

    def test_orbit_is_the_circle(self, harmonic_orbit):
        r = np.hypot(harmonic_orbit.x, harmonic_orbit.k)
        assert np.max(np.abs(r - 2.0)) < 1e-12

    def test_energy_drift(self, harmonic_orbit):
        h = 0.5 * harmonic_orbit.k**2 + 0.5 * harmonic_orbit.x**2
        assert np.max(np.abs(h - harmonic_orbit.energy)) < 1e-12

    def test_circumference(self, harmonic_orbit):
        assert np.sum(harmonic_orbit.dl) == pytest.approx(4 * np.pi, abs=1e-4)

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
        assert np.max(np.abs(h - 0.25)) < 1e-12

    def test_period_matches_turning_point_quadrature(self, quartic_orbit):
        # T = 2 int dx / sqrt(2 (E - u)) with the sqrt singularity removed
        pytest.importorskip("scipy")
        t_ref = period_quadrature(pure_quartic(), 0.25)
        assert abs(quartic_orbit.period - t_ref) / t_ref < 1e-11

    def test_not_parity_flagged(self, quartic_orbit):
        assert not quartic_orbit.single_well_asymmetric


class TestDoubleWell:
    def test_sub_barrier_orbit_flagged(self):
        orbit = solve_orbit(double_well(0.25), (1.2, 0.0))
        assert orbit.single_well_asymmetric
        assert np.min(orbit.x) > 0.0
        pytest.importorskip("scipy")
        t_ref = period_quadrature(double_well(0.25), orbit.energy)
        assert abs(orbit.period - t_ref) / t_ref < 1e-11

    def test_near_separatrix_orbit_times_out(self):
        # u(sqrt(2)) = 0 equals the barrier-top energy to rounding: the orbit
        # turns at or skims the saddle, and no finite period is resolved
        with pytest.raises(RejectionError, match="no period found"):
            solve_orbit(double_well(0.25), (np.sqrt(2.0), 0.0), tau_limit=10.0)

    def test_unconverged_quadrature_names_the_nearby_separatrix(self):
        # E = 5e-7 lies just above the saddle u(0) = 0: E - u pinches near
        # x = 0, where r(x) has the complex roots +-i sqrt(2E) = +-1e-3 i
        with pytest.raises(RejectionError, match="did not converge; the start lies near a separatrix") as caught:
            solve_orbit(double_well(0.25), (0.0, 1e-3))
        gap = float(re.search(r"nearest complex root (\S+) from", str(caught.value)).group(1))
        assert gap == pytest.approx(1e-3, rel=1e-3)

    def test_exact_separatrix_rejected(self):
        # u = -x^2 + x^4 has u(1) = u(0) = 0 exactly: the orbit from (1, 0)
        # turns at the saddle x = 0, where u' = 0, so its period is infinite
        with pytest.raises(RejectionError, match="no period found.*separatrix"):
            solve_orbit(PotentialModel("separatrix", (0.0, 0.0, -1.0, 0.0, 1.0)), (1.0, 0.0))


class TestContracts:
    def test_equilibrium_start_rejected(self):
        with pytest.raises(RejectionError, match="equilibrium"):
            solve_orbit(harmonic(), (0.0, 0.0))

    def test_orbit_exceeding_limit_rejected(self):
        with pytest.raises(RejectionError, match="exceeded"):
            solve_orbit(harmonic(), (2.0, 0.0), x_limit=1.5)

    def test_motion_without_a_turning_point_rejected(self):
        # u = x: E - u has one root, so the motion to the left is unbounded
        with pytest.raises(RejectionError, match="unbounded motion.*exceeded"):
            solve_orbit(PotentialModel("slope", (0.0, 1.0)), (0.0, 1.0))

    def test_period_beyond_tau_limit_rejected(self):
        with pytest.raises(RejectionError, match="no period found within tau_limit=6.0.*period 6.28319"):
            solve_orbit(harmonic(), (2.0, 0.0), tau_limit=6.0)

    @pytest.mark.parametrize("start", [(1.0, 0.0), (0.3, 0.9), (-0.7, -0.4), (0.0, -1.1)])
    def test_first_sample_is_the_start(self, start):
        orbit = solve_orbit(pure_quartic(), start)
        assert (orbit.x[0], orbit.k[0]) == start
        assert orbit.tau[0] == 0.0
        assert orbit.energy == pytest.approx(0.5 * start[1] ** 2 + 0.25 * start[0] ** 4, rel=1e-15)

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


class TestVerletReference:
    @pytest.mark.parametrize(
        "potential, start",
        [
            (pure_quartic(), (1.0, 0.0)),
            (pure_quartic(), (0.3, 0.9)),
            (harmonic(), (2.0, 0.0)),
            (double_well(0.25), (1.2, 0.0)),
            (quartic_perturbed(0.1), (0.7, -0.6)),
        ],
        ids=["quartic", "quartic_moving_start", "harmonic", "double_well", "perturbed_backward"],
    )
    def test_samples_follow_the_verlet_trajectory(self, potential, start):
        # velocity Verlet at dtau <= 1e-4 is second order: its own error over
        # one period is a few 1e-9, and the quadrature's samples agree with it
        orbit = solve_orbit(potential, start)
        xs, ks = verlet_samples(potential, orbit)
        assert np.max(np.abs(orbit.x - xs)) < 1e-8
        assert np.max(np.abs(orbit.k - ks)) < 1e-8
