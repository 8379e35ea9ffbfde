"""Loop fluxes, volume corrections, and the finite-difference oracle."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

from wignerflow import fluxes
from wignerflow.classical import solve_orbit
from wignerflow.errors import RejectionError
from wignerflow.fluxes import (
    SIGMA,
    OrbitRegion,
    Snapshot,
    attach_oracles,
    instantaneous_block,
    oracle_rates,
    oracle_times,
    orbit_interior_mask,
    period_accumulation,
    propagate_states,
    purity_flux,
    quantities,
    renyi,
    renyi_flux,
    sigma_flux,
    svn_flux,
    volume_term,
)
from wignerflow.grid import PhaseSpaceGrid, integrate_volume
from wignerflow.currents import div_w, wigner_current
from wignerflow.observables import power_field
from wignerflow.potentials import harmonic, pure_quartic
from wignerflow.states import WignerField, cat, coherent, evaluate_state, evolve_wavefunction, wigner_transform

BETAS = (0.5, 2.0, 3.0)


def whole_grid_volume(w, pot, mask, weight):
    """The volume term with div(w) and the weight on every node, then the masked sum.

    Returns the value, the masked-node count and the integral of the
    integrand's magnitude, the scale of the sum's rounding.
    """
    dv = div_w(wigner_current(w, pot, 2), w)
    if weight == "one":
        factor = w.values
    elif weight == "w":
        factor = w.values**2
    else:
        factor = (weight - 1.0) * power_field(w.values, weight)
    keep = dv.valid if mask is None else dv.valid & mask
    n_region = w.values.size if mask is None else int(np.count_nonzero(mask))
    integrand = factor * dv.values
    return (
        integrate_volume(w.grid, integrand, mask=keep),
        n_region - int(np.count_nonzero(keep)),
        integrate_volume(w.grid, np.abs(integrand), mask=keep),
    )


def on_orbit(grid, values, orbit):
    """Bicubic samples of a grid field at the orbit points."""
    return Snapshot(WignerField(values, grid), orbit).w_on


def oracle(spec, pot, region, cgrid, betas=(), dtau_fd=1e-3, tau=0.0, dtau_evolve=1e-4):
    """oracle_rates from a sweep of its own over the two oracle times of tau."""
    states = propagate_states(evaluate_state(spec, cgrid, 0.0), pot, oracle_times(tau, dtau_fd), dtau_evolve)
    return oracle_rates(states, tau, region, betas, dtau_fd)


def edge_masks(grid):
    """Node masks reaching the low edges, the high edges, one edge, and all four."""
    masks = {name: np.zeros(grid.shape, dtype=bool) for name in ("low", "high", "strip", "all")}
    masks["low"][0:12, 0:9] = True
    masks["low"][3, 4] = False
    masks["high"][244:, 240:] = True
    masks["strip"][100:140, 0:3] = True
    masks["all"][0, 50] = masks["all"][255, 60] = masks["all"][70, 0] = masks["all"][80, 255] = True
    return masks


class TestInterpolateOnOrbit:
    def test_smooth_polynomial(self, pgrid, harmonic_orbit):
        X, K = pgrid.meshes()
        vals = on_orbit(pgrid, X**2 + K**2, harmonic_orbit)
        np.testing.assert_allclose(vals, 4.0, atol=1e-6)

    def test_constant_field_exact(self, pgrid, harmonic_orbit):
        vals = on_orbit(pgrid, np.full(pgrid.shape, 0.75), harmonic_orbit)
        np.testing.assert_allclose(vals, 0.75, atol=1e-13)

    def test_gaussian_closed_form(self, pgrid, harmonic_orbit):
        X, K = pgrid.meshes()
        vals = on_orbit(pgrid, np.exp(-(X**2) - K**2) / np.pi, harmonic_orbit)
        np.testing.assert_allclose(vals, np.exp(-4.0) / np.pi, atol=1e-7)

    def test_orbit_outside_safe_interior_rejected(self, harmonic_orbit):
        tight = PhaseSpaceGrid.centered(2.1, 2.1, 32, 32)
        with pytest.raises(RejectionError, match="safe grid interior"):
            on_orbit(tight, np.ones(tight.shape), harmonic_orbit)


class TestInteriorMask:
    def test_mask_area_matches_circle(self, pgrid, harmonic_orbit):
        mask = orbit_interior_mask(harmonic_orbit, pgrid)
        area = integrate_volume(pgrid, mask.astype(float))
        assert area == pytest.approx(4 * np.pi, rel=2e-2)


#: Enclosed area of the E = 1/4 quartic orbit: 2 int sqrt(2(E - x^4/4)) dx
#: over -1 < x < 1, which is B(1/4, 3/2) / sqrt(2).
QUARTIC_AREA = math.gamma(0.25) * math.gamma(1.5) / (math.sqrt(2.0) * math.gamma(1.75))


def region_area(orbit, grid):
    return Snapshot(WignerField(np.ones(grid.shape), grid), region=OrbitRegion(orbit, grid)).quantity(SIGMA)


class TestRegionQuadrature:
    def test_quartic_orbit_area(self, pgrid, quartic_orbit):
        assert region_area(quartic_orbit, pgrid) == pytest.approx(QUARTIC_AREA, rel=1e-8)

    # 4096 and 1000 samples have a divisor stride that keeps at least 256
    # loop samples (16 and 2); 1021 is prime and 200 is too few, so every
    # sample is a loop sample
    @pytest.mark.parametrize(("n_samples", "loop_samples"), [(4096, 256), (1000, 500), (1021, 1021), (200, 200)])
    def test_loop_samples_divide_the_orbit(self, n_samples, loop_samples, pgrid):
        orbit = solve_orbit(pure_quartic(), (1.0, 0.0), n_samples=n_samples)
        region = OrbitRegion(orbit, pgrid)
        assert region.nodes[0].size == region.weights.size == loop_samples * fluxes.REGION_GAUSS_NODES
        assert region_area(orbit, pgrid) == pytest.approx(QUARTIC_AREA, rel=1e-8)

    def test_gaussian_mass_inside_the_harmonic_orbit(self, pgrid, gaussian_w, harmonic_orbit):
        # pi^-1 exp(-r^2) over the disc r < 2
        mass = Snapshot(gaussian_w, region=OrbitRegion(harmonic_orbit, pgrid)).quantity(SIGMA)
        assert mass == pytest.approx(1.0 - np.exp(-4.0), rel=1e-7)


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

    def test_renyi_below_one_rejects_zero_w_like_svn(self, pgrid, quartic_orbit):
        # |W|**(beta-1) is singular at W = 0 for beta < 1, as ln|W| is
        zero = WignerField(np.zeros(pgrid.shape), pgrid)
        with pytest.warns(RuntimeWarning, match="unnormalized"), pytest.raises(RejectionError) as svn:
            svn_flux(zero, quartic_orbit, pure_quartic(), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RejectionError) as ren:
                renyi_flux(zero, quartic_orbit, pure_quartic(), 2, 0.5)
        assert str(ren.value) == str(svn.value)
        assert str(ren.value).startswith("|W|=0.000e+00 <= epsilon at orbit sample 0")

    @pytest.mark.parametrize("level", [0.0, 1e-31, -1e-31, 1e-3, -1e-3])
    def test_per_point_form_reads_the_loop_domain(self, level, pgrid, quartic_orbit):
        # On a constant field every orbit sample is W = level: the loop
        # rejects exactly where the per-point form is NaN.
        w = WignerField(np.full(pgrid.shape, level), pgrid)
        snap = Snapshot(w, quartic_orbit, pure_quartic())
        for q in quantities((0.5, 2.0, 2.5)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    snap.loop(q)
                    rejected = False
                except RejectionError:
                    rejected = True
            sample = fluxes._diagonal_sample(q, float(snap.w_on[0]), 1.0, 1.0, 1e-30)
            assert np.isnan(sample) == rejected, (q.key, level)


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

    # A node window sums the same node values in a different order, so the
    # bound is relative to the integrand's magnitude: a cat state's volume
    # term cancels to ~1e-16 of terms that are each far larger.
    @pytest.mark.parametrize("weight", ["one", "w", 2.0, 3.0])
    @pytest.mark.parametrize("field", ["offset_gaussian_w", "cat_w"])
    def test_region_window_matches_the_whole_grid(self, field, weight, request, quartic_orbit, pgrid):
        w = request.getfixturevalue(field)
        mask = orbit_interior_mask(quartic_orbit, pgrid)
        ref, ref_masked, scale = whole_grid_volume(w, pure_quartic(), mask, weight)
        vt = volume_term(w, pure_quartic(), 2, None, mask, weight)
        assert scale > 0.0
        assert abs(vt.value - ref) <= 1e-14 * scale
        assert vt.masked_in_region == ref_masked

    @pytest.mark.parametrize("weight", ["one", "w", 2.0, 3.0])
    @pytest.mark.parametrize("mask_name", ["low", "high", "strip", "all"])
    def test_edge_masks_match_the_whole_grid(self, mask_name, weight, wide_w, pgrid):
        w, mask = wide_w, edge_masks(pgrid)[mask_name]
        ref, ref_masked, scale = whole_grid_volume(w, pure_quartic(), mask, weight)
        vt = volume_term(w, pure_quartic(), 2, None, mask, weight)
        assert abs(ref) > 0.0
        assert abs(vt.value - ref) <= 1e-14 * scale
        assert vt.masked_in_region == ref_masked

    @pytest.mark.parametrize("weight", ["one", "w", 3.0])
    def test_no_mask_is_the_whole_grid(self, weight, offset_gaussian_w):
        ref, ref_masked, _ = whole_grid_volume(offset_gaussian_w, pure_quartic(), None, weight)
        vt = volume_term(offset_gaussian_w, pure_quartic(), 2, None, None, weight)
        assert (vt.value, vt.masked_in_region) == (ref, ref_masked)

    def test_empty_mask_gives_zero(self, offset_gaussian_w, pgrid):
        empty = np.zeros(pgrid.shape, dtype=bool)
        for weight in ("one", "w", 3.0):
            vt = volume_term(offset_gaussian_w, pure_quartic(), 2, None, empty, weight)
            assert (vt.value, vt.masked_in_region) == (0.0, 0)

    @pytest.mark.parametrize("mask_name", ["region", "empty"])
    def test_fractional_beta_rejection_counts_the_whole_grid(self, mask_name, offset_gaussian_w, quartic_orbit, pgrid):
        # the noise-level negative nodes of a transformed field reject beta =
        # 0.5 wherever they are, inside the mask's window or not
        w = offset_gaussian_w
        mask = orbit_interior_mask(quartic_orbit, pgrid) if mask_name == "region" else np.zeros(pgrid.shape, dtype=bool)
        with pytest.raises(RejectionError) as whole:
            power_field(w.values, 0.5)
        with pytest.raises(RejectionError) as windowed:
            volume_term(w, pure_quartic(), 2, None, mask, 0.5)
        negative = int(np.count_nonzero((np.abs(w.values) > 1e-30) & (w.values < 0.0)))
        expected = f"W**beta undefined for non-integer beta=0.5: {negative} negative nodes above floor"
        assert str(windowed.value) == str(whole.value) == expected

    def test_block_reads_only_the_region_window(self, monkeypatch, offset_gaussian_w, quartic_orbit, pgrid):
        region = OrbitRegion(quartic_orbit, pgrid)
        extent = (region.window[0].stop - region.window[0].start, region.window[1].stop - region.window[1].start)
        assert extent[0] * extent[1] <= 0.02 * pgrid.n_x * pgrid.n_k
        seen = Counter()

        def recorded(name, fn, shape_of):
            def wrapper(*args, **kwargs):
                seen[(name, shape_of(*args, **kwargs))] += 1
                return fn(*args, **kwargs)
            return wrapper

        bounds = lambda window: tuple((s.start, s.stop) for s in window)  # noqa: E731
        monkeypatch.setattr(fluxes, "div_w", recorded("div_w", div_w, lambda j, w, eps, window: bounds(window)))
        monkeypatch.setattr(fluxes, "power_field", recorded("power", power_field, lambda v, *rest: v.shape))
        monkeypatch.setattr(
            fluxes, "integrate_volume", recorded("sum", integrate_volume, lambda g, v, mask, window: v.shape)
        )
        instantaneous_block(offset_gaussian_w, quartic_orbit, pure_quartic(), 2, BETAS, region=region)
        # one div(w); the beta = 2 and 3 weights and the four volume sums on
        # the window (the beta = 0.5 term rejects first), and no call on the grid
        assert [key for key in seen if key[0] == "div_w"] == [("div_w", bounds(region.window))]
        assert seen[("div_w", bounds(region.window))] == 1
        assert seen[("power", extent)] == 2
        assert seen[("sum", extent)] == 4
        assert not any(shape == pgrid.shape for _, shape in seen)

    def test_full_grid_diagnostic_is_finite_and_small(self, ground_w):
        vt = volume_term(ground_w, pure_quartic(), 2, None, None, "one")
        assert np.isfinite(vt.value)
        assert vt.masked_in_region >= 0


class TestOracle:
    def test_stationary_state_rates_vanish(self, pgrid, cgrid, harmonic_orbit):
        from wignerflow.states import harmonic_eigenstate

        region = OrbitRegion(harmonic_orbit, pgrid)
        rates = oracle(harmonic_eigenstate(1), harmonic(), region, cgrid, (2.0,))
        for key in ("sigma", "svn", "purity", "renyi_2"):
            assert abs(rates[key]) < 1e-8

    def test_central_difference_is_second_order(self, pgrid, cgrid, quartic_orbit):
        region = OrbitRegion(quartic_orbit, pgrid)
        rates = [
            oracle(coherent(1.0, 0.5), pure_quartic(), region, cgrid, dtau_fd=dt)["sigma"]
            for dt in (8e-3, 4e-3, 2e-3)
        ]
        ratio = (rates[0] - rates[1]) / (rates[1] - rates[2])
        assert 2.8 < ratio < 5.2

    def test_divergence_theorem_consistency(self, pgrid, cgrid, quartic_orbit, offset_gaussian_w):
        # loop form of the probability rate against the region derivative
        pot = pure_quartic()
        region = OrbitRegion(quartic_orbit, pgrid)
        loop = sigma_flux(offset_gaussian_w, quartic_orbit, pot, 2)
        rate = oracle(coherent(1.0, 0.5), pot, region, cgrid)["sigma"]
        assert loop == pytest.approx(rate, rel=2e-5)

    def test_svn_balance_against_oracle(self, pgrid, cgrid, quartic_orbit, offset_gaussian_w):
        pot = pure_quartic()
        region = OrbitRegion(quartic_orbit, pgrid)
        loop = svn_flux(offset_gaussian_w, quartic_orbit, pot, 2)
        vol = volume_term(offset_gaussian_w, pot, 2, None, region.mask, "one").value
        rate = oracle(coherent(1.0, 0.5), pot, region, cgrid)["svn"]
        assert loop + vol == pytest.approx(rate, rel=5e-2)

    def test_attached_purity_balance_meets_the_rate_over_2pi(self, pgrid, cgrid, quartic_orbit, offset_gaussian_w):
        # the oracle differentiates 2 pi int W^2, the balance form int W^2
        pot = pure_quartic()
        region = OrbitRegion(quartic_orbit, pgrid)
        states = propagate_states(evaluate_state(coherent(1.0, 0.5), cgrid, 0.0), pot, oracle_times(0.0, 1e-3), 1e-4)
        blk = instantaneous_block(offset_gaussian_w, quartic_orbit, pot, 2, (2.0,), region=region)
        attach_oracles(blk, states, region, (2.0,))
        purity = blk["purity"]
        assert purity["oracle_2pi_adjusted"] == purity["oracle"] / (2 * np.pi)
        assert purity["rel_dev"] < 5e-2
        assert blk["renyi"]["2"]["oracle"] == pytest.approx(purity["oracle_2pi_adjusted"], rel=1e-12)
        assert "oracle_2pi_adjusted" not in blk["sigma"] and "oracle_2pi_adjusted" not in blk["svn"]

    def test_symmetric_time_gives_zero_rates_and_deviations(self, pgrid, cgrid, quartic_orbit, cat_w):
        # The cat is even in k at tau = 0 and the orbit is symmetric under
        # k -> -k, so every region quantity is even in tau and every balance
        # form vanishes: the oracle must read zero too, not noise.
        pot, betas = pure_quartic(), (2.0, 3.0)
        region = OrbitRegion(quartic_orbit, pgrid)
        states = propagate_states(evaluate_state(cat(1.5, 0.0), cgrid, 0.0), pot, oracle_times(0.0, 1e-3), 1e-4)
        rates = oracle_rates(states, 0.0, region, betas)
        assert all(abs(rate) <= 1e-12 for rate in rates.values()), rates
        blk = attach_oracles(instantaneous_block(cat_w, quartic_orbit, pot, 2, betas, region=region), states, region, betas)
        deviations = [(q.key, key, value) for q in quantities(betas) for key, value in q.entry(blk).items()
                      if key.startswith("rel_dev")]
        assert len(deviations) == 6
        assert all(value == 0.0 for _, _, value in deviations), deviations

    @pytest.mark.parametrize("dtau_fd", [0.0, -1e-3, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_dtau_fd_rejected(self, dtau_fd, pgrid, cgrid, quartic_orbit):
        # dtau_fd = 0 used to divide by zero, and -1e-3 returned the +1e-3 rate
        spec, pot = coherent(1.0, 0.5), pure_quartic()
        states = propagate_states(evaluate_state(spec, cgrid, 0.0), pot, [0.5, *oracle_times(0.5, 1e-3)], 5e-4)
        with pytest.raises(RejectionError, match="dtau_fd must be positive"):
            oracle_rates(states, 0.5, OrbitRegion(quartic_orbit, pgrid), BETAS, dtau_fd)


class TestPeriodAccumulation:
    def test_quartic_balance_matches_direct_change(self, pgrid, cgrid, quartic_orbit):
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
                power = Snapshot(w, region=region).quantity(renyi(beta))
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
        phi0 = evaluate_state(coherent(1.0, 0.5), cgrid, 0.0)
        states = propagate_states(phi0, pure_quartic(), oracle_times(0.0, 1e-3), 1e-3)
        counts = self._count_work(monkeypatch)
        oracle_rates(states, 0.0, region, BETAS)
        assert counts["wigner_transform"] == 2
        assert counts["fits"] == 2
        assert counts["wigner_current"] == 0


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

    def test_legs_start_at_the_base_state_time(self, cgrid):
        pot = pure_quartic()
        base = propagate_states(evaluate_state(coherent(1.0, 0.5), cgrid, 0.0), pot, [0.25], 1e-3)[0.25]
        states = propagate_states(base, pot, [0.2, 0.24, 0.25, 0.26, 0.3], 1e-3)
        assert sorted(states) == [0.2, 0.24, 0.25, 0.26, 0.3]
        assert states[0.25] is base
        # later times ascend from the base and earlier ones descend from it,
        # each leg continuing from the state before it
        for t, start in ((0.26, 0.25), (0.3, 0.26), (0.24, 0.25), (0.2, 0.24)):
            n = int(round(abs(t - start) / 1e-3))
            direct = evolve_wavefunction(states[start], pot, (t - start) / n, n)
            assert np.array_equal(states[t].values, direct.values)
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
        times = [t for tau in (0.0, 0.25, 0.5) for t in oracle_times(tau, 1e-3)]
        states = propagate_states(evaluate_state(spec, cgrid, 0.0), pot, times, 5e-4)
        swept = oracle_rates(states, 0.5, region, BETAS)
        alone = oracle(spec, pot, region, cgrid, BETAS, tau=0.5, dtau_evolve=5e-4)
        for key in ("sigma", "svn", "purity", "renyi_2", "renyi_3"):
            assert swept[key] == pytest.approx(alone[key], rel=1e-10, abs=0)

    def test_missing_oracle_state_is_rejected(self, pgrid, cgrid, quartic_orbit):
        spec, pot = coherent(1.0, 0.5), pure_quartic()
        states = propagate_states(evaluate_state(spec, cgrid, 0.0), pot, oracle_times(0.0, 1e-3), 5e-4)
        with pytest.raises(RejectionError, match="no oracle state"):
            oracle_rates(states, 0.5, OrbitRegion(quartic_orbit, pgrid), ())

    def test_non_positive_step_rejected(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.5), cgrid, 0.0)
        with pytest.raises(RejectionError, match="dtau_evolve"):
            propagate_states(phi0, pure_quartic(), [0.1], 0.0)
