"""Loop fluxes, volume corrections, and the finite-difference oracle."""

from collections import Counter

import numpy as np
import pytest

from wignerflow import fluxes
from wignerflow.classical import solve_orbit
from wignerflow.errors import RejectionError
from wignerflow.fluxes import (
    OrbitRegion,
    instantaneous_block,
    interpolate_on_orbit,
    oracle_rates,
    oracle_flux,
    oracle_times,
    orbit_interior_mask,
    period_accumulation,
    propagate_states,
    purity_flux,
    renyi_flux,
    sigma_flux,
    svn_flux,
    volume_term,
)
from wignerflow.grid import PhaseSpaceGrid, integrate_volume
from wignerflow.currents import div_w, wigner_current
from wignerflow.potentials import harmonic, pure_quartic
from wignerflow.states import WignerField, coherent, evaluate_state, evolve_wavefunction, wigner_transform

BETAS = (0.5, 2.0, 3.0)


class TestInterpolateOnOrbit:
    def test_smooth_polynomial(self, pgrid, harmonic_orbit):
        X, K = pgrid.meshes()
        vals = interpolate_on_orbit(pgrid, X**2 + K**2, harmonic_orbit)
        np.testing.assert_allclose(vals, 4.0, atol=1e-6)

    def test_constant_field_exact(self, pgrid, harmonic_orbit):
        vals = interpolate_on_orbit(pgrid, np.full(pgrid.shape, 0.75), harmonic_orbit)
        np.testing.assert_allclose(vals, 0.75, atol=1e-13)

    def test_gaussian_closed_form(self, pgrid, harmonic_orbit):
        X, K = pgrid.meshes()
        vals = interpolate_on_orbit(pgrid, np.exp(-(X**2) - K**2) / np.pi, harmonic_orbit)
        np.testing.assert_allclose(vals, np.exp(-4.0) / np.pi, atol=1e-7)

    def test_orbit_outside_safe_interior_rejected(self, harmonic_orbit):
        tight = PhaseSpaceGrid.centered(2.1, 2.1, 32, 32)
        with pytest.raises(RejectionError, match="safe grid interior"):
            interpolate_on_orbit(tight, np.ones(tight.shape), harmonic_orbit)


class TestInteriorMask:
    def test_mask_area_matches_circle(self, pgrid, harmonic_orbit):
        mask = orbit_interior_mask(harmonic_orbit, pgrid)
        area = integrate_volume(pgrid, mask.astype(float))
        assert area == pytest.approx(4 * np.pi, rel=2e-2)

    def test_coverage_weights_refine_the_area(self, pgrid, quartic_orbit):
        # enclosed area of the E = 1/4 quartic orbit: 2 int sqrt(2(E - x^4/4))
        from scipy.integrate import quad

        ref = 2 * quad(lambda x: np.sqrt(2 * (0.25 - x**4 / 4)), -1, 1)[0]
        region = OrbitRegion(quartic_orbit, pgrid)
        area = region.integral(np.ones(pgrid.shape))
        assert area == pytest.approx(ref, rel=1e-4)


class TestClassicalLimitNullity:
    @pytest.mark.parametrize("state", ["ground", "excited", "cat"])
    def test_all_fluxes_vanish_for_harmonic(self, state, request, harmonic_orbit):
        w = request.getfixturevalue(f"{state}_w")
        pot = harmonic()
        assert abs(sigma_flux(w, harmonic_orbit, pot, 2)) < 1e-10
        assert abs(svn_flux(w, harmonic_orbit, pot, 2)) < 1e-10
        assert abs(purity_flux(w, harmonic_orbit, pot, 2)) < 1e-10
        for beta in BETAS:
            assert abs(renyi_flux(w, harmonic_orbit, pot, 2, beta)) < 1e-10

    def test_truncation_gate_gives_exact_zero(self, offset_gaussian_w, quartic_orbit):
        # nu_max = 0 removes every quantum term: Delta J is identically zero
        pot = pure_quartic()
        assert sigma_flux(offset_gaussian_w, quartic_orbit, pot, 0) == 0.0
        assert svn_flux(offset_gaussian_w, quartic_orbit, pot, 0) == 0.0
        assert purity_flux(offset_gaussian_w, quartic_orbit, pot, 0) == 0.0
        assert renyi_flux(offset_gaussian_w, quartic_orbit, pot, 0, 3.0) == 0.0


class TestLoopFluxAlgebra:
    def test_beta_two_equals_purity_flux(self, offset_gaussian_w, quartic_orbit):
        pot = pure_quartic()
        assert renyi_flux(offset_gaussian_w, quartic_orbit, pot, 2, 2.0) == purity_flux(
            offset_gaussian_w, quartic_orbit, pot, 2
        )

    def test_orientation_reversal_flips_every_flux(self, offset_gaussian_w, quartic_orbit):
        pot = pure_quartic()
        rev = quartic_orbit.reversed()
        for flux in (sigma_flux, purity_flux):
            a = flux(offset_gaussian_w, quartic_orbit, pot, 2)
            b = flux(offset_gaussian_w, rev, pot, 2)
            assert b == pytest.approx(-a, rel=1e-12)
        a = svn_flux(offset_gaussian_w, quartic_orbit, pot, 2)
        b = svn_flux(offset_gaussian_w, rev, pot, 2)
        assert b == pytest.approx(-a, rel=1e-12)

    def test_rescaled_field_shifts_svn_by_log_times_sigma(self, offset_gaussian_w, quartic_orbit):
        # ln(cW) = ln c + ln W and Delta J scales linearly, so
        # svn(cW) = c svn(W) - c ln(c) sigma(W)
        pot = pure_quartic()
        c = 1.7
        svn1 = svn_flux(offset_gaussian_w, quartic_orbit, pot, 2)
        sig1 = sigma_flux(offset_gaussian_w, quartic_orbit, pot, 2)
        scaled = WignerField(c * offset_gaussian_w.values, offset_gaussian_w.grid)
        with pytest.warns(RuntimeWarning, match="unnormalized"):
            svn2 = svn_flux(scaled, quartic_orbit, pot, 2)
        assert svn2 == pytest.approx(c * svn1 - c * np.log(c) * sig1, rel=1e-10)

    def test_beta_near_one_approaches_sigma_minus_svn_correction(
        self, offset_gaussian_w, quartic_orbit
    ):
        # W**(beta-1) = 1 + (beta-1) ln W + O((beta-1)^2)
        pot = pure_quartic()
        delta = 1e-4
        r = renyi_flux(offset_gaussian_w, quartic_orbit, pot, 2, 1.0 + delta)
        sig = sigma_flux(offset_gaussian_w, quartic_orbit, pot, 2)
        svn = svn_flux(offset_gaussian_w, quartic_orbit, pot, 2)
        assert r == pytest.approx(sig - delta * svn, rel=1e-2)

    def test_svn_rejects_orbit_through_small_w(self, offset_gaussian_w, quartic_orbit):
        with pytest.raises(RejectionError, match="<= epsilon"):
            svn_flux(offset_gaussian_w, quartic_orbit, pure_quartic(), 2, epsilon=1.0)

    def test_renyi_rejects_negative_samples_for_fractional_beta(self, excited_w):
        # the first excited state is negative inside r < 1/sqrt(2)
        inner = solve_orbit(harmonic(), (0.5, 0.0))
        with pytest.raises(RejectionError, match="negative orbit samples"):
            renyi_flux(excited_w, inner, harmonic(), 2, 0.5)

    def test_renyi_invalid_beta_rejected(self, ground_w, harmonic_orbit):
        with pytest.raises(RejectionError):
            renyi_flux(ground_w, harmonic_orbit, harmonic(), 2, 1.0)


class TestVolumeTerm:
    def test_harmonic_flow_gives_zero(self, ground_w, harmonic_orbit, pgrid):
        mask = orbit_interior_mask(harmonic_orbit, pgrid)
        vt = volume_term(ground_w, harmonic(), 2, None, mask, "one")
        assert abs(vt.value) < 1e-8

    def test_weight_variants_match_manual_integrands(self, offset_gaussian_w, quartic_orbit, pgrid):
        mask = orbit_interior_mask(quartic_orbit, pgrid)
        w = offset_gaussian_w
        pot = pure_quartic()
        dv = div_w(wigner_current(w, pot, 2), w)
        keep = dv.valid & mask
        ref_one = integrate_volume(pgrid, w.values * dv.values, mask=keep)
        ref_w = integrate_volume(pgrid, w.values**2 * dv.values, mask=keep)
        assert volume_term(w, pot, 2, None, mask, "one").value == pytest.approx(ref_one, rel=1e-14)
        assert volume_term(w, pot, 2, None, mask, "w").value == pytest.approx(ref_w, rel=1e-14)
        # Renyi weight carries the (beta - 1) prefactor; beta = 2 reduces to w
        assert volume_term(w, pot, 2, None, mask, 2.0).value == pytest.approx(ref_w, rel=1e-14)

    def test_full_grid_diagnostic_is_finite_and_small(self, ground_w):
        vt = volume_term(ground_w, pure_quartic(), 2, None, None, "one")
        assert np.isfinite(vt.value)
        assert vt.masked_in_region >= 0


class TestOracle:
    def test_stationary_state_rates_vanish(self, pgrid, cgrid, harmonic_orbit):
        from wignerflow.states import harmonic_eigenstate

        region = OrbitRegion(harmonic_orbit, pgrid)
        for quantity in ("sigma", "svn", "purity"):
            rate = oracle_flux(
                harmonic_eigenstate(1), harmonic(), harmonic_orbit, quantity,
                1e-3, pgrid=pgrid, cgrid=cgrid, dtau_evolve=1e-4, region=region,
            )
            assert abs(rate) < 1e-8
        rate = oracle_flux(
            harmonic_eigenstate(1), harmonic(), harmonic_orbit, "renyi", 1e-3,
            beta=2.0, pgrid=pgrid, cgrid=cgrid, dtau_evolve=1e-4, region=region,
        )
        assert abs(rate) < 1e-8

    def test_central_difference_is_second_order(self, pgrid, cgrid, quartic_orbit):
        region = OrbitRegion(quartic_orbit, pgrid)
        rates = [
            oracle_flux(
                coherent(1.0, 0.5), pure_quartic(), quartic_orbit, "sigma", dt,
                pgrid=pgrid, cgrid=cgrid, dtau_evolve=1e-4, region=region,
            )
            for dt in (8e-3, 4e-3, 2e-3)
        ]
        ratio = (rates[0] - rates[1]) / (rates[1] - rates[2])
        assert 2.8 < ratio < 5.2

    def test_divergence_theorem_consistency(self, pgrid, cgrid, quartic_orbit, offset_gaussian_w):
        # loop form of the probability rate against the region derivative
        pot = pure_quartic()
        region = OrbitRegion(quartic_orbit, pgrid)
        loop = sigma_flux(offset_gaussian_w, quartic_orbit, pot, 2)
        rate = oracle_flux(
            coherent(1.0, 0.5), pot, quartic_orbit, "sigma", 1e-3,
            pgrid=pgrid, cgrid=cgrid, dtau_evolve=1e-4, region=region,
        )
        assert loop == pytest.approx(rate, rel=5e-2)

    def test_svn_balance_against_oracle(self, pgrid, cgrid, quartic_orbit, offset_gaussian_w):
        pot = pure_quartic()
        region = OrbitRegion(quartic_orbit, pgrid)
        loop = svn_flux(offset_gaussian_w, quartic_orbit, pot, 2)
        vol = volume_term(offset_gaussian_w, pot, 2, None, region.mask, "one").value
        rate = oracle_flux(
            coherent(1.0, 0.5), pot, quartic_orbit, "svn", 1e-3,
            pgrid=pgrid, cgrid=cgrid, dtau_evolve=1e-4, region=region,
        )
        assert loop + vol == pytest.approx(rate, rel=5e-2)

    def test_unknown_quantity_rejected(self, pgrid, cgrid, harmonic_orbit):
        with pytest.raises(RejectionError, match="unknown quantity"):
            oracle_flux(
                coherent(1.0, 0.0), harmonic(), harmonic_orbit, "entanglement",
                pgrid=pgrid, cgrid=cgrid,
            )


class TestPeriodAccumulation:
    def test_quartic_balance_matches_direct_change(self, pgrid, cgrid, quartic_orbit):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            acc = period_accumulation(
                coherent(1.0, 0.0), pure_quartic(), quartic_orbit, 2, (2.0,),
                pgrid=pgrid, cgrid=cgrid, n_nodes=64, dtau_evolve=1e-3,
            )
        # at tau = 0 the state is even in k, so the frozen printed form vanishes
        assert abs(acc["sigma"]["frozen"]) < 1e-10
        assert acc["sigma"]["rel_dev"] < 0.1
        assert acc["purity"]["rel_dev"] < 0.02
        assert acc["renyi_2"]["balance"] == acc["purity"]["balance"]
        for key in ("sigma", "svn", "purity"):
            assert np.isfinite(acc[key]["time_consistent"])


class TestSnapshotEvaluation:
    @pytest.mark.parametrize("field", ["offset_gaussian_w", "cat_w"])
    def test_block_equals_standalone_functions(self, field, request, pgrid, quartic_orbit):
        # The block reads every value from one snapshot; each standalone
        # function builds its own.  Values and rejections must agree exactly.
        w = request.getfixturevalue(field)
        pot, orbit = pure_quartic(), quartic_orbit
        region = OrbitRegion(orbit, pgrid)
        blk = instantaneous_block(w, orbit, pot, 2, BETAS, region=region)

        sig = sigma_flux(w, orbit, pot, 2)
        assert blk["sigma"] == {"loop": sig, "full": sig}
        for name, flux, weight, full in (
            ("svn", svn_flux, "one", lambda loop, vt: loop + vt),
            ("purity", purity_flux, "w", lambda loop, vt: loop - vt),
        ):
            loop = flux(w, orbit, pot, 2)
            vt = volume_term(w, pot, 2, None, region.mask, weight)
            assert blk[name] == {
                "loop": loop, "volume_term": vt.value,
                "masked_nodes": vt.masked_in_region, "full": full(loop, vt.value),
            }
        for beta in BETAS:
            try:
                loop = renyi_flux(w, orbit, pot, 2, beta)
            except RejectionError as exc:
                assert blk["renyi"][f"{beta:g}"] == {"rejected": str(exc)}
                continue
            expected = {"loop": loop}
            try:
                vt = volume_term(w, pot, 2, None, region.mask, beta)
                expected.update(volume_term=vt.value, masked_nodes=vt.masked_in_region, full=loop - vt.value)
            except RejectionError as exc:
                expected["volume_term_rejected"] = str(exc)
            try:
                power = region.quantity(w, "renyi", beta=beta)
                expected["region_power_integral"] = power
                if power > 0:
                    expected["rate"] = loop / power
            except RejectionError as exc:
                expected["rate_rejected"] = str(exc)
            assert blk["renyi"][f"{beta:g}"] == expected

    def test_fractional_beta_rejections_reach_the_block(self, quartic_orbit, offset_gaussian_w, cat_w):
        # Transformed fields carry noise-level negative nodes, so the beta = 0.5
        # volume term rejects while the loop stands; the cat is negative on the
        # orbit itself, so its beta = 0.5 loop rejects.
        pot = pure_quartic()
        entry = instantaneous_block(offset_gaussian_w, quartic_orbit, pot, 2, (0.5,))["renyi"]["0.5"]
        assert "loop" in entry and "rate" in entry
        assert entry["volume_term_rejected"].startswith("W**beta undefined for non-integer beta=0.5")
        entry = instantaneous_block(cat_w, quartic_orbit, pot, 2, (0.5,))["renyi"]["0.5"]
        assert list(entry) == ["rejected"]
        assert entry["rejected"].endswith("negative orbit samples")

    @staticmethod
    def _count_work(monkeypatch) -> Counter:
        counts = Counter()

        class CountingSpline(fluxes.GridSpline):
            def __init__(self, *args, **kwargs):
                counts["fits"] += 1
                super().__init__(*args, **kwargs)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fluxes, "GridSpline", CountingSpline)
        for name in ("wigner_current", "delta_current", "div_w", "wigner_transform"):
            monkeypatch.setattr(fluxes, name, counted(name, getattr(fluxes, name)))
        return counts

    def test_one_block_is_one_evaluation(self, monkeypatch, pgrid, quartic_orbit, offset_gaussian_w):
        region = OrbitRegion(quartic_orbit, pgrid)
        counts = self._count_work(monkeypatch)
        instantaneous_block(offset_gaussian_w, quartic_orbit, pure_quartic(), 2, BETAS, region=region)
        assert counts["fits"] <= 2
        assert counts["wigner_current"] == 1
        assert counts["delta_current"] == 1
        assert counts["div_w"] == 1

    def test_oracle_rates_sample_each_field_once(self, monkeypatch, pgrid, cgrid, quartic_orbit):
        region = OrbitRegion(quartic_orbit, pgrid)
        counts = self._count_work(monkeypatch)
        rates = oracle_rates(
            coherent(1.0, 0.5), pure_quartic(), quartic_orbit, BETAS,
            pgrid=pgrid, cgrid=cgrid, dtau_evolve=1e-3, region=region,
        )
        assert counts["wigner_transform"] == 2
        assert counts["fits"] == 2
        assert counts["wigner_current"] == 0
        assert rates["sigma"] == oracle_flux(
            coherent(1.0, 0.5), pure_quartic(), quartic_orbit, "sigma",
            pgrid=pgrid, cgrid=cgrid, dtau_evolve=1e-3, region=region,
        )


class TestPropagateStates:
    def test_legs_continue_from_the_running_state(self, cgrid):
        pot = pure_quartic()
        phi0 = evaluate_state(coherent(1.0, 0.5), cgrid, 0.0)
        states = propagate_states(phi0, pot, [0.0, *oracle_times(0.0, 1e-2), 0.05, 0.05], 1e-3)
        assert sorted(states) == [-1e-2, 0.0, 1e-2, 0.05]
        assert states[0.0] is phi0
        for t in (-1e-2, 1e-2):
            assert np.array_equal(states[t].values, evolve_wavefunction(phi0, pot, t / 10, 10).values)
        # the last leg starts from tau = 0.01, not from tau = 0
        direct = evolve_wavefunction(phi0, pot, 1e-3, 50)
        assert np.max(np.abs(states[0.05].values - direct.values)) < 1e-12
        assert [states[t].tau for t in sorted(states)] == sorted(states)

    def test_steps_grow_linearly_with_the_output_times(self, monkeypatch, cgrid):
        steps = Counter()

        def counted(phi, potential, dtau, n):
            steps["n"] += n
            return evolve_wavefunction(phi, potential, dtau, n)

        monkeypatch.setattr(fluxes, "evolve_wavefunction", counted)
        times = [t for tau in (0.0, 0.1, 0.2, 0.3) for t in oracle_times(tau, 1e-3)]
        propagate_states(evaluate_state(coherent(1.0, 0.5), cgrid, 0.0), pure_quartic(), times, 5e-4)
        assert steps["n"] == 2 + 602

    def test_sweep_states_reproduce_the_stand_alone_oracle(self, pgrid, cgrid, quartic_orbit):
        spec, pot = coherent(1.0, 0.5), pure_quartic()
        region = OrbitRegion(quartic_orbit, pgrid)
        kw = dict(tau=0.5, pgrid=pgrid, cgrid=cgrid, dtau_evolve=5e-4, region=region)
        times = [t for tau in (0.0, 0.25, 0.5) for t in oracle_times(tau, 1e-3)]
        states = propagate_states(evaluate_state(spec, cgrid, 0.0), pot, times, 5e-4)
        swept = oracle_rates(spec, pot, quartic_orbit, BETAS, states=states, **kw)
        alone = oracle_rates(spec, pot, quartic_orbit, BETAS, **kw)
        for name in ("sigma", "svn", "purity"):
            assert swept[name] == pytest.approx(alone[name], rel=1e-10, abs=0)
        for beta in ("2", "3"):
            assert swept["renyi"][beta] == pytest.approx(alone["renyi"][beta], rel=1e-10, abs=0)

    def test_missing_oracle_state_is_rejected(self, pgrid, cgrid, quartic_orbit):
        spec, pot = coherent(1.0, 0.5), pure_quartic()
        states = propagate_states(evaluate_state(spec, cgrid, 0.0), pot, oracle_times(0.0, 1e-3), 5e-4)
        with pytest.raises(RejectionError, match="no oracle state"):
            oracle_flux(spec, pot, quartic_orbit, "sigma", pgrid=pgrid, cgrid=cgrid, tau=0.5, states=states)

    def test_non_positive_step_rejected(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.5), cgrid, 0.0)
        with pytest.raises(RejectionError, match="dtau_evolve"):
            propagate_states(phi0, pure_quartic(), [0.1], 0.0)
