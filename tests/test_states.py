"""State catalog, Wigner transform fidelity, spectral propagation."""

import numpy as np
import pytest

from wignerflow import states
from wignerflow.errors import RejectionError
from wignerflow.grid import CoordinateGrid, PhaseSpaceGrid, integrate_volume
from wignerflow.potentials import PotentialModel, harmonic, pure_quartic
from wignerflow.states import (
    Wavefunction,
    cat,
    coherent,
    evaluate_state,
    evolve_wavefunction,
    harmonic_eigenstate,
    hermite_function,
    superposition,
    wigner_transform,
)


def full_lattice_transform(phi, grid):
    """W by the dense complex quadrature over the full symmetric y-lattice."""
    cgrid = phi.grid
    m = int(np.floor(0.5 * cgrid.x_max / cgrid.h))
    y = np.arange(-m, m + 1) * cgrid.h
    wy = np.full(y.size, cgrid.h)
    wy[0] = wy[-1] = 0.5 * cgrid.h
    interpolate = pytest.importorskip("scipy.interpolate")
    spline = interpolate.CubicSpline(cgrid.x, phi.values, extrapolate=False)
    minus = np.nan_to_num(spline(grid.x[:, None] - y[None, :]))
    plus = np.nan_to_num(spline(grid.x[:, None] + y[None, :]))
    return (((minus * np.conj(plus)) * wy) @ np.exp(2j * np.outer(y, grid.k))).real / np.pi


CATALOG_SPECS = [
    harmonic_eigenstate(0),
    harmonic_eigenstate(1),
    harmonic_eigenstate(3),
    coherent(2.0, 0.0),
    coherent(1.0, 0.5),
    cat(1.5, 0.0),
    superposition([(1.0, 0), (1.0j, 2)]),
]


class TestEvaluateState:
    def test_ground_state_value_at_origin(self):
        # closed form pi^(-1/4) exp(-x^2/2) at x = 0
        assert hermite_function(0, np.array([0.0]))[0] == pytest.approx(
            np.pi ** (-0.25), abs=1e-12
        )

    def test_ground_state_peak_on_grid(self, cgrid):
        phi = evaluate_state(harmonic_eigenstate(0), cgrid)
        # no node sits exactly at x = 0; the nearest is h/2 away
        assert np.max(np.abs(phi.values)) == pytest.approx(np.pi ** (-0.25), abs=1e-4)

    def test_zero_displacement_coherent_is_ground_state(self, cgrid):
        a = evaluate_state(coherent(0.0, 0.0), cgrid)
        b = evaluate_state(harmonic_eigenstate(0), cgrid)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    @pytest.mark.parametrize("spec", CATALOG_SPECS, ids=lambda s: s.kind + str(s.n))
    def test_normalization(self, spec, cgrid):
        phi = evaluate_state(spec, cgrid, tau=0.3)
        assert phi.norm() == pytest.approx(1.0, abs=1e-10)

    def test_eigenstate_phase_evolution(self, cgrid):
        # analytic phase exp(-i (n + 1/2) tau) for n = 2 at tau = 0.7
        p0 = evaluate_state(harmonic_eigenstate(2), cgrid, 0.0)
        pt = evaluate_state(harmonic_eigenstate(2), cgrid, 0.7)
        np.testing.assert_allclose(
            pt.values, p0.values * np.exp(-1j * 2.5 * 0.7), atol=1e-12
        )

    def test_insufficient_extent_rejected(self, cgrid):
        with pytest.raises(RejectionError, match="boundary amplitude"):
            evaluate_state(coherent(14.0, 0.0), cgrid)

    def test_unknown_kind_rejected(self):
        from wignerflow.states import StateSpec

        with pytest.raises(RejectionError):
            StateSpec("squeezed")


class TestWignerTransform:
    def test_ground_state_closed_form(self, ground_w, pgrid):
        # Gaussian integral gives W = pi^-1 exp(-x^2 - k^2)
        X, K = pgrid.meshes()
        ref = np.exp(-X**2 - K**2) / np.pi
        assert np.max(np.abs(ground_w.values - ref)) < 1e-6

    def test_first_excited_negativity_at_origin(self, excited_w, pgrid):
        # Laguerre form: W_1(0, 0) = -1/pi
        interpolate = pytest.importorskip("scipy.interpolate")
        spline = interpolate.RectBivariateSpline(pgrid.x, pgrid.k, excited_w.values)
        assert float(spline.ev(0.0, 0.0)) == pytest.approx(-1.0 / np.pi, abs=1e-5)

    @pytest.mark.parametrize("spec", CATALOG_SPECS, ids=lambda s: s.kind + str(s.n))
    def test_normalization_and_bound(self, spec, pgrid, cgrid):
        w = wigner_transform(evaluate_state(spec, cgrid), pgrid)
        assert w.total() == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(w.values)) <= 1.0 / np.pi + 1e-9

    def test_marginal_reproduces_position_density(self, pgrid, cgrid):
        phi = evaluate_state(cat(1.5, 0.0), cgrid)
        w = wigner_transform(phi, pgrid)
        wk = np.full(pgrid.n_k, pgrid.h_k)
        wk[0] = wk[-1] = pgrid.h_k / 2
        marginal = w.values @ wk
        density = pytest.importorskip("scipy.interpolate").CubicSpline(cgrid.x, np.abs(phi.values) ** 2)(pgrid.x)
        assert np.max(np.abs(marginal - density)) < 1e-6

    @pytest.mark.parametrize("spec", CATALOG_SPECS[:4], ids=lambda s: s.kind + str(s.n))
    def test_purity_consistency(self, spec, pgrid, cgrid):
        w = wigner_transform(evaluate_state(spec, cgrid), pgrid)
        assert 2 * np.pi * integrate_volume(pgrid, w.values**2) == pytest.approx(1.0, abs=1e-4)

    def test_coarse_coordinate_grid_rejected(self, pgrid):
        phi = evaluate_state(harmonic_eigenstate(0), CoordinateGrid(16.0, 64))
        with pytest.raises(RejectionError, match="coarser"):
            wigner_transform(phi, pgrid)

    def test_short_coordinate_grid_rejected(self):
        phi = evaluate_state(harmonic_eigenstate(0), CoordinateGrid(8.0, 1024))
        wide = PhaseSpaceGrid.centered(10.0, 8.0, 256, 256)
        with pytest.raises(RejectionError, match="does not cover"):
            wigner_transform(phi, wide)

    def test_capture_guard_rejects_a_truncated_k_range(self, cgrid):
        # k_max = 4 keeps 76 % of coherent(0, 3.5)'s norm; the imaginary part
        # of the full-lattice quadrature stays at 1e-16 all the same
        narrow = PhaseSpaceGrid.centered(8.0, 4.0, 256, 256)
        phi = evaluate_state(coherent(0.0, 3.5), cgrid)
        with pytest.raises(RejectionError, match=r"capture defect .* 2\.398e-01"):
            wigner_transform(phi, narrow)

    @pytest.mark.parametrize("case", ["ground", "cat", "evolved_coherent", "aligned_ground", "aligned_edge"])
    def test_half_range_matches_the_full_lattice_quadrature(self, case, pgrid, cgrid):
        if case.startswith("aligned"):
            # h = h_x = 1/16 and every x_i is a coordinate node (t_i = 0);
            # the y-reach of the last row ends on the last coordinate node
            cgrid = CoordinateGrid(255 / 32, 256)
            pgrid = PhaseSpaceGrid.centered(129 / 32, 4.0, 130, 129)
        if case in ("ground", "aligned_ground"):
            phi = evaluate_state(harmonic_eigenstate(0), cgrid)
        elif case == "cat":
            phi = evaluate_state(cat(1.5, 0.0), cgrid)
        elif case == "evolved_coherent":
            phi = evolve_wavefunction(evaluate_state(coherent(1.0, 0.5), cgrid), pure_quartic(), 1e-3, 500)
        else:
            # a ground state's last node holds ~1e-14, too little to show
            # whether the sample on it is kept; this tail holds 1e-2 there
            ground = evaluate_state(harmonic_eigenstate(0), cgrid)
            phi = Wavefunction(ground.values + 0.01 * (cgrid.x > 7.5) * np.exp(1j * cgrid.x), cgrid)
        assert np.max(np.abs(wigner_transform(phi, pgrid).values - full_lattice_transform(phi, pgrid))) <= 1e-14


    @pytest.mark.parametrize("case", ["cat", "evolved_coherent", "aligned_edge"])
    def test_each_block_tabulates_only_the_pieces_it_reads(self, case, pgrid, cgrid, monkeypatch):
        # W is the same, bit for bit, as with every piece tabulated in every block
        if case == "aligned_edge":
            cgrid = CoordinateGrid(255 / 32, 256)
            pgrid = PhaseSpaceGrid.centered(129 / 32, 4.0, 130, 129)
            ground = evaluate_state(harmonic_eigenstate(0), cgrid)
            phi = Wavefunction(ground.values + 0.01 * (cgrid.x > 7.5) * np.exp(1j * cgrid.x), cgrid)
        elif case == "cat":
            phi = evaluate_state(cat(1.5, 0.0), cgrid)
        else:
            phi = evolve_wavefunction(evaluate_state(coherent(1.0, 0.5), cgrid), pure_quartic(), 1e-3, 500)
        restricted = wigner_transform(phi, pgrid).values
        monkeypatch.setattr(states, "_pieces_read", lambda s, m, n: (0, n - 1))
        assert np.array_equal(restricted, wigner_transform(phi, pgrid).values)


class TestEvolveWavefunction:
    def test_coherent_state_period_fidelity(self, cgrid):
        # coherent states return after the classical period T = 2 pi
        phi0 = evaluate_state(coherent(2.0, 0.0), cgrid)
        steps = 6284
        phi = evolve_wavefunction(phi0, harmonic(), 2 * np.pi / steps, steps)
        overlap = np.trapezoid(np.conj(phi0.values) * phi.values, dx=cgrid.h)
        assert abs(overlap) ** 2 > 1 - 1e-6

    def test_zero_steps_identity(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.0), cgrid)
        phi = evolve_wavefunction(phi0, harmonic(), 1e-3, 0)
        assert np.array_equal(phi.values, phi0.values)
        assert phi.tau == phi0.tau

    def test_eigenstate_modulus_stationary(self, cgrid):
        # the split-step wobble of a stationary state is O(dtau^2)
        phi0 = evaluate_state(harmonic_eigenstate(2), cgrid)
        phi = evolve_wavefunction(phi0, harmonic(), 1e-4, 5000)
        assert np.max(np.abs(np.abs(phi.values) - np.abs(phi0.values))) < 1e-8

    def test_backward_evolution_reverses(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.5), cgrid)
        fwd = evolve_wavefunction(phi0, pure_quartic(), 1e-3, 400)
        back = evolve_wavefunction(fwd, pure_quartic(), -1e-3, 400)
        assert np.max(np.abs(back.values - phi0.values)) < 1e-10
        assert back.tau == pytest.approx(0.0, abs=1e-12)

    def test_matches_a_numpy_fft_split_step_loop(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.5), cgrid)
        before = phi0.values.copy()
        pot, dtau = pure_quartic(), 1e-3
        kappa = 2.0 * np.pi * np.fft.fftfreq(cgrid.n, d=cgrid.h)
        half_v = np.exp(-0.5j * dtau * pot.u(cgrid.x))
        full_t = np.exp(-0.5j * dtau * kappa**2)
        ref = phi0.values.copy()
        for _ in range(1000):
            ref = half_v * np.fft.ifft(full_t * np.fft.fft(half_v * ref))
        phi = evolve_wavefunction(phi0, pot, dtau, 1000)
        assert np.max(np.abs(phi.values - ref)) <= 1e-12
        assert np.array_equal(phi0.values, before)

    def test_norm_preserved_per_thousand_steps(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.0), cgrid)
        phi = evolve_wavefunction(phi0, pure_quartic(), 1e-3, 1000)
        assert abs(phi.norm() - 1.0) < 1e-10

    def test_non_finite_potential_rejected(self, cgrid):
        phi0 = evaluate_state(harmonic_eigenstate(0), cgrid)
        blowup = PotentialModel("blowup", (0.0, 0.0, 1e308))
        with pytest.raises(RejectionError, match="non-finite"):
            evolve_wavefunction(phi0, blowup, 1e-3, 1)

    def test_negative_step_count_rejected(self, cgrid):
        phi0 = evaluate_state(harmonic_eigenstate(0), cgrid)
        with pytest.raises(RejectionError):
            evolve_wavefunction(phi0, harmonic(), 1e-3, -4)
