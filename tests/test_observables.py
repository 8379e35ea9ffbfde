"""Phase-space moments, purity, and the entropy family."""

import numpy as np
import pytest

from wignerflow.errors import RejectionError
from wignerflow.fluxes import PURITY, SVN, power_field, renyi_entropy
from wignerflow.grid import integrate_volume
from wignerflow.potentials import harmonic
from wignerflow.states import WignerField


class TestExpectation:
    def test_unit_symbol_gives_normalization(self, ground_w):
        assert integrate_volume(ground_w.grid, ground_w.values) == pytest.approx(1.0, abs=1e-6)

    def test_ground_state_energy(self, ground_w):
        # dimensionless ground-state energy is 1/2
        X, K = ground_w.grid.meshes()
        h = 0.5 * K**2 + harmonic().u(X)
        assert integrate_volume(ground_w.grid, ground_w.values * h) == pytest.approx(0.5, abs=1e-4)

    def test_position_vanishes_for_even_state(self, ground_w):
        X, _ = ground_w.grid.meshes()
        assert integrate_volume(ground_w.grid, ground_w.values * X) == pytest.approx(0.0, abs=1e-8)


class TestPurity:
    def test_pure_states(self, ground_w, excited_w, cat_w):
        for w in (ground_w, excited_w, cat_w):
            assert PURITY.total(w) == pytest.approx(1.0, abs=1e-4)

    def test_equal_mixture_of_orthogonal_states(self, ground_w, excited_w):
        # purity of (W0 + W1)/2 is (1 + 2 Tr[rho0 rho1] + 1)/4 = 1/2 for
        # orthogonal states
        mix = WignerField(0.5 * (ground_w.values + excited_w.values), ground_w.grid)
        assert PURITY.total(mix) == pytest.approx(0.5, abs=1e-3)

    def test_zero_field(self, pgrid):
        assert PURITY.total(WignerField(np.zeros(pgrid.shape), pgrid)) == 0.0


class TestVonNeumannEntropy:
    def test_ground_state_closed_form(self, gaussian_w):
        # -int W ln W = ln(pi) * 1 + int r^2 W = ln(pi) + 1 for the Gaussian
        assert SVN.total(gaussian_w, 1e-30) == pytest.approx(
            1.0 + np.log(np.pi), abs=1e-3
        )

    def test_zero_field(self, pgrid):
        assert SVN.total(WignerField(np.zeros(pgrid.shape), pgrid)) == 0.0

    def test_epsilon_stability(self, gaussian_w):
        # tail nodes dropped by the floor carry |W ln W| bounded by
        # eps ln(1/eps) times the grid area, far below 1e-6
        values = [SVN.total(gaussian_w, eps) for eps in (1e-30, 1e-20, 1e-12)]
        assert max(values) - min(values) < 1e-6

    def test_bad_epsilon_rejected(self, gaussian_w):
        with pytest.raises(RejectionError):
            SVN.total(gaussian_w, 0.0)


class TestRenyiEntropy:
    def test_collision_entropy_of_gaussian(self, gaussian_w):
        # int W^2 = 1/(2 pi) for the pure Gaussian, so R_2 = ln(2 pi)
        assert renyi_entropy(gaussian_w, 2.0) == pytest.approx(np.log(2 * np.pi), abs=1e-4)

    def test_r2_matches_purity_exactly(self, ground_w):
        # identical discrete sums: exp(-R_2) must equal purity / (2 pi)
        r2 = renyi_entropy(ground_w, 2.0)
        assert np.exp(-r2) == pytest.approx(PURITY.total(ground_w) / (2 * np.pi), rel=1e-10)

    def test_beta_to_one_limit_brackets_shannon(self, gaussian_w):
        shannon = SVN.total(gaussian_w, 1e-30)
        lo = renyi_entropy(gaussian_w, 1.0 + 1e-4)
        hi = renyi_entropy(gaussian_w, 1.0 - 1e-4)
        assert hi >= lo
        assert abs(lo - shannon) < 1e-3
        assert abs(hi - shannon) < 1e-3

    def test_definition_round_trip(self, gaussian_w):
        for beta in (0.5, 2.0, 3.0):
            r = renyi_entropy(gaussian_w, beta)
            integral = integrate_volume(gaussian_w.grid, power_field(gaussian_w.values, beta))
            assert np.exp((1 - beta) * r) == pytest.approx(integral, rel=1e-14)

    def test_monotone_in_beta_for_gaussian(self, gaussian_w):
        values = [renyi_entropy(gaussian_w, b) for b in (0.5, 1.5, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_non_integer_beta_on_negative_field_rejected(self, excited_w):
        with pytest.raises(RejectionError, match="negative nodes"):
            renyi_entropy(excited_w, 0.5)

    def test_odd_integer_beta_keeps_sign(self, excited_w):
        # signed cubes are defined even with negative regions
        assert np.isfinite(renyi_entropy(excited_w, 3.0))

    def test_negative_power_integral_rejected(self, gaussian_w, pgrid):
        flipped = WignerField(-gaussian_w.values, pgrid)
        with pytest.raises(RejectionError, match="not positive"):
            renyi_entropy(flipped, 3.0)

    def test_beta_one_rejected(self, gaussian_w):
        with pytest.raises(RejectionError, match="different from 1"):
            renyi_entropy(gaussian_w, 1.0)
