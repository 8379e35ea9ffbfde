"""Loop fluxes, volume corrections, and the finite-difference oracle."""

import gc
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from wignerflow import fluxes, spline
from wignerflow.classical import solve_orbit
from wignerflow.errors import RejectionError
from wignerflow.fluxes import (
    PURITY,
    SIGMA,
    SVN,
    OrbitRegion,
    Snapshot,
    attach_oracles,
    instantaneous_block,
    oracle_rates,
    oracle_times,
    orbit_interior_mask,
    period_accumulation,
    power_field,
    quantities,
    renyi,
)
from wignerflow.grid import CoordinateGrid, PhaseSpaceGrid, integrate_volume
from wignerflow.currents import delta_current, div_w
from wignerflow.potentials import harmonic, pure_quartic
from wignerflow.states import EigenPropagator, WignerField, cat, coherent, evaluate_state, wigner_transform

BETAS = (0.5, 2.0, 3.0)


def whole_grid_volume(w, pot, mask, weight):
    """The volume term with div(w) and the weight on every node, then the masked sum.

    Returns the value, the masked-node count and the integral of the
    integrand's magnitude, the scale of the sum's rounding.
    """
    dv = div_w(w, delta_current(w, pot, 2))
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


def snapshot(w, orbit, pot=None, nu_max=2):
    """A snapshot of w on the orbit's region of w's grid."""
    return Snapshot(w, OrbitRegion(orbit, w.grid), pot, nu_max)


def on_orbit(grid, values, orbit):
    """Bicubic samples of a grid field at the orbit points."""
    return snapshot(WignerField(values, grid), orbit).w_on


def row(weight):
    """The flux-table row of a volume weight: "one" (svn), "w" (purity) or a Renyi beta."""
    return {"one": SVN, "w": PURITY}.get(weight) or renyi(float(weight))


def propagator(spec, pot, cgrid):
    """The eigen expansion of a catalog state at tau = 0."""
    return EigenPropagator(evaluate_state(spec, cgrid, 0.0), pot)


def oracle(spec, pot, region, cgrid, betas=(), dtau_fd=1e-3, tau=0.0):
    """oracle_rates from a propagator of its own."""
    return oracle_rates(propagator(spec, pot, cgrid), tau, region, betas, dtau_fd)


def nodeless_orbit():
    """The harmonic circle of radius 0.01, inside the origin's cell of a 256-node axis (nodes at +-h/2)."""
    return solve_orbit(harmonic(), (0.01, 0.0))


def node_region(orbit, grid, mask):
    """The orbit's region with its volume terms moved to mask's nodes: its window is their bounding box.

    A node mask can reach the grid's edges, where the interior of an orbit
    the grid holds cannot.
    """
    region = OrbitRegion(orbit, grid)
    rows, cols = (np.flatnonzero(np.any(mask, axis=axis)) for axis in (1, 0))
    region.window = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    region.inside = mask[region.window]
    return region


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

    def test_field_on_another_grid_rejected(self, gaussian_w, harmonic_orbit):
        # the region's sampling plan belongs to its own grid
        other = PhaseSpaceGrid.centered(8.0, 8.0, 128, 128)
        with pytest.raises(RejectionError, match="not the orbit region's grid"):
            Snapshot(gaussian_w, OrbitRegion(harmonic_orbit, other))


class TestInteriorMask:
    def test_mask_area_matches_circle(self, pgrid, harmonic_orbit):
        mask = orbit_interior_mask(harmonic_orbit, pgrid)
        area = integrate_volume(pgrid, mask.astype(float))
        assert area == pytest.approx(4 * np.pi, rel=2e-2)


class TestRegionWindow:
    def test_bounding_box_of_the_true_nodes(self, pgrid, harmonic_orbit, quartic_orbit):
        for orbit in (harmonic_orbit, quartic_orbit):
            mask = orbit_interior_mask(orbit, pgrid)
            region = OrbitRegion(orbit, pgrid)
            (rows, cols), inside = region.window, region.inside
            assert np.array_equal(inside, mask[region.window])
            assert np.count_nonzero(inside) == np.count_nonzero(mask) > 0
            # every edge of the box holds a true node
            assert inside[0].any() and inside[-1].any() and inside[:, 0].any() and inside[:, -1].any()
            assert 0 < rows.start < rows.stop < pgrid.n_x and 0 < cols.start < cols.stop < pgrid.n_k

    def test_empty_for_no_nodes(self, pgrid):
        orbit = nodeless_orbit()
        assert not orbit_interior_mask(orbit, pgrid).any()
        region = OrbitRegion(orbit, pgrid)
        assert region.window == (slice(0, 0), slice(0, 0))
        assert region.inside.shape == (0, 0)

    def test_nodes_on_the_edges_span_the_grid(self, harmonic_orbit):
        # the circle of radius 2 encloses every node of the grid [-1, 1]^2
        grid = PhaseSpaceGrid.centered(1.0, 1.0, 16, 16)
        region = OrbitRegion(harmonic_orbit, grid)
        assert region.window == (slice(0, 16), slice(0, 16))
        assert region.inside.all()


#: Enclosed area of the E = 1/4 quartic orbit: 2 int sqrt(2(E - x^4/4)) dx
#: over -1 < x < 1, which is B(1/4, 3/2) / sqrt(2).
QUARTIC_AREA = math.gamma(0.25) * math.gamma(1.5) / (math.sqrt(2.0) * math.gamma(1.75))


def region_area(orbit, grid):
    return Snapshot(WignerField(np.ones(grid.shape), grid), OrbitRegion(orbit, grid)).quantity(SIGMA)


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
        mass = Snapshot(gaussian_w, OrbitRegion(harmonic_orbit, pgrid)).quantity(SIGMA)
        assert mass == pytest.approx(1.0 - np.exp(-4.0), rel=1e-7)


class TestClassicalLimitNullity:
    @pytest.mark.parametrize("state", ["ground", "excited", "cat"])
    def test_all_fluxes_vanish_for_harmonic(self, state, request, harmonic_orbit):
        snap = snapshot(request.getfixturevalue(f"{state}_w"), harmonic_orbit, harmonic())
        assert abs(snap.loop(SIGMA)) < 1e-10
        assert abs(snap.loop(SVN)) < 1e-10
        assert abs(snap.loop(PURITY)) < 1e-10
        for beta in BETAS:
            assert abs(snap.loop(renyi(beta))) < 1e-10

    def test_truncation_gate_gives_exact_zero(self, offset_gaussian_w, quartic_orbit):
        # nu_max = 0 removes every quantum term: Delta J is identically zero
        snap = snapshot(offset_gaussian_w, quartic_orbit, pure_quartic(), 0)
        assert snap.loop(SIGMA) == 0.0
        assert snap.loop(SVN) == 0.0
        assert snap.loop(PURITY) == 0.0
        assert snap.loop(renyi(3.0)) == 0.0


class TestLoopFluxAlgebra:
    def test_beta_two_equals_purity_flux(self, offset_gaussian_w, quartic_orbit):
        snap = snapshot(offset_gaussian_w, quartic_orbit, pure_quartic())
        assert snap.loop(renyi(2.0)) == snap.loop(PURITY)

    def test_orientation_reversal_flips_every_flux(self, offset_gaussian_w, quartic_orbit):
        fwd = snapshot(offset_gaussian_w, quartic_orbit, pure_quartic())
        rev = snapshot(offset_gaussian_w, quartic_orbit.reversed(), pure_quartic())
        for q in (SIGMA, PURITY, SVN):
            assert rev.loop(q) == pytest.approx(-fwd.loop(q), rel=1e-12)

    def test_rescaled_field_shifts_svn_by_log_times_sigma(self, offset_gaussian_w, quartic_orbit):
        # ln(cW) = ln c + ln W and Delta J scales linearly, so
        # svn(cW) = c svn(W) - c ln(c) sigma(W)
        pot = pure_quartic()
        c = 1.7
        snap = snapshot(offset_gaussian_w, quartic_orbit, pot)
        svn1, sig1 = snap.loop(SVN), snap.loop(SIGMA)
        scaled = WignerField(c * offset_gaussian_w.values, offset_gaussian_w.grid)
        with pytest.warns(RuntimeWarning, match="unnormalized"):
            svn2 = Snapshot(scaled, snap.region, pot, 2).loop(SVN)
        assert svn2 == pytest.approx(c * svn1 - c * np.log(c) * sig1, rel=1e-10)

    def test_beta_near_one_approaches_sigma_minus_svn_correction(
        self, offset_gaussian_w, quartic_orbit
    ):
        # W**(beta-1) = 1 + (beta-1) ln W + O((beta-1)^2)
        snap = snapshot(offset_gaussian_w, quartic_orbit, pure_quartic())
        delta = 1e-4
        r = snap.loop(renyi(1.0 + delta))
        sig = snap.loop(SIGMA)
        svn = snap.loop(SVN)
        assert r == pytest.approx(sig - delta * svn, rel=1e-2)

    def test_svn_rejects_orbit_through_small_w(self, offset_gaussian_w, quartic_orbit):
        with pytest.raises(RejectionError, match="<= epsilon"):
            Snapshot(
                offset_gaussian_w, OrbitRegion(quartic_orbit, offset_gaussian_w.grid), pure_quartic(), 2,
                epsilon_entropy=1.0,
            ).loop(SVN)

    def test_renyi_rejects_negative_samples_for_fractional_beta(self, excited_w):
        # the first excited state is negative inside r < 1/sqrt(2)
        inner = solve_orbit(harmonic(), (0.5, 0.0))
        with pytest.raises(RejectionError, match="negative orbit samples"):
            snapshot(excited_w, inner, harmonic()).loop(renyi(0.5))

    def test_renyi_invalid_beta_rejected(self, ground_w, harmonic_orbit):
        with pytest.raises(RejectionError):
            snapshot(ground_w, harmonic_orbit, harmonic()).loop(renyi(1.0))

    def test_renyi_below_one_rejects_zero_w_like_svn(self, pgrid, quartic_orbit):
        # |W|**(beta-1) is singular at W = 0 for beta < 1, as ln|W| is
        snap = snapshot(WignerField(np.zeros(pgrid.shape), pgrid), quartic_orbit, pure_quartic())
        with pytest.warns(RuntimeWarning, match="unnormalized"), pytest.raises(RejectionError) as svn:
            snap.loop(SVN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RejectionError) as ren:
                snap.loop(renyi(0.5))
        assert str(ren.value) == str(svn.value)
        assert str(ren.value).startswith("|W|=0.000e+00 <= epsilon at orbit sample 0")

    @pytest.mark.parametrize("level", [0.0, 1e-31, -1e-31, 1e-3, -1e-3])
    def test_per_point_form_reads_the_loop_domain(self, level, pgrid, quartic_orbit):
        # On a constant field every orbit sample is W = level: the loop
        # rejects exactly where the per-point form is NaN.
        snap = snapshot(WignerField(np.full(pgrid.shape, level), pgrid), quartic_orbit, pure_quartic())
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
    def test_harmonic_flow_gives_zero(self, ground_w, harmonic_orbit):
        value, _ = snapshot(ground_w, harmonic_orbit, harmonic()).volume(SVN)
        assert abs(value) < 1e-8

    def test_weight_variants_match_manual_integrands(self, offset_gaussian_w, quartic_orbit, pgrid):
        mask = orbit_interior_mask(quartic_orbit, pgrid)
        w = offset_gaussian_w
        pot = pure_quartic()
        dv = div_w(w, delta_current(w, pot, 2))
        keep = dv.valid & mask
        ref_one = integrate_volume(pgrid, w.values * dv.values, mask=keep)
        ref_w = integrate_volume(pgrid, w.values**2 * dv.values, mask=keep)
        snap = snapshot(w, quartic_orbit, pot)
        assert snap.volume(SVN)[0] == pytest.approx(ref_one, rel=1e-14)
        assert snap.volume(PURITY)[0] == pytest.approx(ref_w, rel=1e-14)
        # Renyi weight carries the (beta - 1) prefactor; beta = 2 reduces to w
        assert snap.volume(renyi(2.0))[0] == pytest.approx(ref_w, rel=1e-14)

    # A node window sums the same node values in a different order, so the
    # bound is relative to the integrand's magnitude: a cat state's volume
    # term cancels to ~1e-16 of terms that are each far larger.
    @pytest.mark.parametrize("weight", ["one", "w", 2.0, 3.0])
    @pytest.mark.parametrize("field", ["offset_gaussian_w", "cat_w"])
    def test_region_window_matches_the_whole_grid(self, field, weight, request, quartic_orbit, pgrid):
        w = request.getfixturevalue(field)
        mask = orbit_interior_mask(quartic_orbit, pgrid)
        ref, ref_masked, scale = whole_grid_volume(w, pure_quartic(), mask, weight)
        value, masked = snapshot(w, quartic_orbit, pure_quartic()).volume(row(weight))
        assert scale > 0.0
        assert abs(value - ref) <= 1e-14 * scale
        assert masked == ref_masked

    @pytest.mark.parametrize("weight", ["one", "w", 2.0, 3.0])
    @pytest.mark.parametrize("mask_name", ["low", "high", "strip", "all"])
    def test_edge_masks_match_the_whole_grid(self, mask_name, weight, wide_w, pgrid, quartic_orbit):
        w, mask = wide_w, edge_masks(pgrid)[mask_name]
        ref, ref_masked, scale = whole_grid_volume(w, pure_quartic(), mask, weight)
        snap = Snapshot(w, node_region(quartic_orbit, pgrid, mask), pure_quartic(), 2)
        value, masked = snap.volume(row(weight))
        assert abs(ref) > 0.0
        assert abs(value - ref) <= 1e-14 * scale
        assert masked == ref_masked

    @pytest.mark.parametrize("weight", ["one", "w", 3.0])
    def test_no_mask_is_the_whole_grid(self, weight, offset_gaussian_w, quartic_orbit, pgrid):
        ref, ref_masked, _ = whole_grid_volume(offset_gaussian_w, pure_quartic(), None, weight)
        whole = np.ones(pgrid.shape, dtype=bool)
        snap = Snapshot(offset_gaussian_w, node_region(quartic_orbit, pgrid, whole), pure_quartic(), 2)
        assert snap.volume(row(weight)) == (ref, ref_masked)

    def test_empty_mask_gives_zero(self, offset_gaussian_w, pgrid):
        snap = snapshot(offset_gaussian_w, nodeless_orbit(), harmonic())
        assert snap.region.window == (slice(0, 0), slice(0, 0))
        for weight in ("one", "w", 3.0):
            assert snap.volume(row(weight)) == (0.0, 0)

    @pytest.mark.parametrize("mask_name", ["region", "empty"])
    def test_fractional_beta_rejection_counts_the_whole_grid(self, mask_name, offset_gaussian_w, quartic_orbit, pgrid):
        # the noise-level negative nodes of a transformed field reject beta =
        # 0.5 wherever they are, inside the region's window or not, also
        # when the interior holds no node
        w = offset_gaussian_w
        orbit, pot = (quartic_orbit, pure_quartic()) if mask_name == "region" else (nodeless_orbit(), harmonic())
        with pytest.raises(RejectionError) as whole:
            power_field(w.values, 0.5)
        with pytest.raises(RejectionError) as windowed:
            snapshot(w, orbit, pot).volume(renyi(0.5))
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
        monkeypatch.setattr(fluxes, "div_w", recorded("div_w", div_w, lambda w, dj, eps, window: bounds(window)))
        monkeypatch.setattr(fluxes, "power_field", recorded("power", power_field, lambda v, *rest: v.shape))
        monkeypatch.setattr(
            fluxes, "integrate_volume", recorded("sum", integrate_volume, lambda g, v, mask, window: v.shape)
        )
        instantaneous_block(offset_gaussian_w, region, pure_quartic(), 2, BETAS)
        # one div(w); the beta = 2 and 3 weights and the four volume sums on
        # the window (the beta = 0.5 term rejects first), and no call on the grid
        assert [key for key in seen if key[0] == "div_w"] == [("div_w", bounds(region.window))]
        assert seen[("div_w", bounds(region.window))] == 1
        assert seen[("power", extent)] == 2
        assert seen[("sum", extent)] == 4
        assert not any(shape == pgrid.shape for _, shape in seen)

    def test_full_grid_diagnostic_is_finite_and_small(self, ground_w):
        value, masked, _ = whole_grid_volume(ground_w, pure_quartic(), None, "one")
        assert np.isfinite(value)
        assert masked >= 0


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
        loop = Snapshot(offset_gaussian_w, region, pot, 2).loop(SIGMA)
        rate = oracle(coherent(1.0, 0.5), pot, region, cgrid)["sigma"]
        assert loop == pytest.approx(rate, rel=2e-5)

    def test_svn_balance_against_oracle(self, pgrid, cgrid, quartic_orbit, offset_gaussian_w):
        pot = pure_quartic()
        region = OrbitRegion(quartic_orbit, pgrid)
        snap = Snapshot(offset_gaussian_w, region, pot, 2)
        loop = snap.loop(SVN)
        vol, _ = snap.volume(SVN)
        rate = oracle(coherent(1.0, 0.5), pot, region, cgrid)["svn"]
        assert loop + vol == pytest.approx(rate, rel=5e-2)

    def test_attached_purity_balance_meets_the_rate_over_2pi(self, pgrid, cgrid, quartic_orbit, offset_gaussian_w):
        # the oracle differentiates 2 pi int W^2, the balance form int W^2
        pot = pure_quartic()
        region = OrbitRegion(quartic_orbit, pgrid)
        prop = propagator(coherent(1.0, 0.5), pot, cgrid)
        blk = instantaneous_block(offset_gaussian_w, region, pot, 2, (2.0,))
        attach_oracles(blk, prop, region, (2.0,))
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
        prop = propagator(cat(1.5, 0.0), pot, cgrid)
        rates = oracle_rates(prop, 0.0, region, betas)
        assert all(abs(rate) <= 1e-12 for rate in rates.values()), rates
        blk = attach_oracles(instantaneous_block(cat_w, region, pot, 2, betas), prop, region, betas)
        deviations = [(q.key, key, value) for q in quantities(betas) for key, value in q.entry(blk).items()
                      if key.startswith("rel_dev")]
        assert len(deviations) == 6
        assert all(value == 0.0 for _, _, value in deviations), deviations

    def test_rejected_rate_leaves_no_reference_cycle(self, pgrid, cgrid, quartic_orbit):
        # The cat's W is negative inside the orbit, so the beta = 0.5 rate
        # rejects.  Its exception used to keep the traceback whose frames
        # reach the result and both oracle snapshots: a cycle that held two
        # grid fields until the garbage collector ran.
        region = OrbitRegion(quartic_orbit, pgrid)
        prop = propagator(cat(1.5, 0.0), pure_quartic(), cgrid)
        gc.collect()
        gc.disable()
        try:
            rates = oracle_rates(prop, 0.0, region, (0.5,))
            assert isinstance(rates["renyi_0.5"], RejectionError)
            assert rates["renyi_0.5"].__traceback__ is None
            del rates
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("dtau_fd", [0.0, -1e-3, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_dtau_fd_rejected(self, dtau_fd, pgrid, cgrid, quartic_orbit):
        # dtau_fd = 0 used to divide by zero, and -1e-3 returned the +1e-3 rate
        spec, pot = coherent(1.0, 0.5), pure_quartic()
        prop = propagator(spec, pot, cgrid)
        with pytest.raises(RejectionError, match="dtau_fd must be positive"):
            oracle_rates(prop, 0.5, OrbitRegion(quartic_orbit, pgrid), BETAS, dtau_fd)

    def test_oracle_differences_the_propagator_states_at_its_two_times(self, pgrid, cgrid, quartic_orbit):
        prop, region = propagator(coherent(1.0, 0.5), pure_quartic(), cgrid), OrbitRegion(quartic_orbit, pgrid)
        asked = []

        class Recording:
            def state(self, tau):
                asked.append(tau)
                return prop.state(tau)

        rates = oracle_rates(Recording(), 0.5, region, ())
        assert asked == list(oracle_times(0.5, 1e-3))
        before, after = (Snapshot(wigner_transform(prop.state(t), pgrid), region).quantity(SIGMA) for t in asked)
        assert rates["sigma"] == (after - before) / 2e-3


class TestPeriodAccumulation:
    def test_quartic_balance_matches_direct_change(self, pgrid, cgrid, quartic_orbit):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            acc = period_accumulation(
                propagator(coherent(1.0, 0.0), pure_quartic(), cgrid), OrbitRegion(quartic_orbit, pgrid), 2, (2.0,),
                n_nodes=64,
            )
        # at tau = 0 the state is even in k, so the frozen printed form vanishes
        assert abs(acc["sigma"]["frozen"]) < 1e-10
        assert acc["sigma"]["rel_dev"] < 0.1
        assert acc["purity"]["rel_dev"] < 0.02
        assert acc["renyi_2"]["balance"] == acc["purity"]["balance"]
        for key in ("sigma", "svn", "purity"):
            assert np.isfinite(acc[key]["time_consistent"])

    def test_rejected_row_keeps_its_first_rejection(self, pgrid, cgrid, quartic_orbit):
        # the cat state's W is negative on the orbit, so the beta = 0.5 loop
        # rejects at every node and its region power integral is undefined
        pot, region, betas = pure_quartic(), OrbitRegion(quartic_orbit, pgrid), (0.5, 2.0)
        prop = propagator(cat(1.5, 0.0), pot, cgrid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            acc = period_accumulation(prop, region, 2, betas, n_nodes=4)
            first = Snapshot(wigner_transform(prop.state(0.0), pgrid), region, pot, 2).block(betas)
        half = acc["renyi_0.5"]
        assert all(np.isnan(half[key]) for key in ("frozen", "time_consistent", "balance"))
        assert half["direct_change"] is None and "rel_dev" not in half
        assert half["rejected"] == first["renyi"]["0.5"]["rejected"]
        start, end = (
            Snapshot(wigner_transform(prop.state(t), pgrid), region).quantity(renyi(2.0))
            for t in (0.0, quartic_orbit.period)
        )
        assert acc["renyi_2"]["direct_change"] == end - start

    def test_sampling_plan_is_built_once_per_orbit(self, monkeypatch, harmonic_orbit):
        # the span, the slope operators, the cells and the Hermite weights
        # depend on the orbit and the grid, not on the number of snapshots
        pgrid, cgrid = PhaseSpaceGrid.centered(8.0, 8.0, 64, 64), CoordinateGrid(16.0, 512)
        counts = Counter()

        class CountingPlan(fluxes.SamplingPlan):
            def __init__(self, *args, **kwargs):
                counts["plans"] += 1
                super().__init__(*args, **kwargs)

        def weights(u, _weights=spline._hermite_weights):
            counts["weights"] += 1
            return _weights(u)

        monkeypatch.setattr(fluxes, "SamplingPlan", CountingPlan)
        monkeypatch.setattr(spline, "_hermite_weights", weights)
        built = {}
        for n_nodes in (8, 16):
            counts.clear()
            spline.slope_operator.cache_clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                period_accumulation(
                    propagator(coherent(2.0, 0.0), harmonic(), cgrid), OrbitRegion(harmonic_orbit, pgrid), 2, (2.0,),
                    n_nodes=n_nodes,
                )
            built[n_nodes] = dict(counts, operators=spline.slope_operator.cache_info().misses)
        # one plan of two point sets, each located on both axes; one
        # operator, since the two axes have the same nodes
        assert built[8] == built[16] == {"plans": 1, "weights": 4, "operators": 1}


class TestSnapshotEvaluation:
    @pytest.mark.parametrize("field", ["offset_gaussian_w", "cat_w"])
    def test_block_equals_standalone_functions(self, field, request, pgrid, quartic_orbit):
        # The block reads every value from one snapshot; each standalone
        # value here comes from a snapshot of its own.  Values and rejections
        # must agree exactly.
        w = request.getfixturevalue(field)
        pot = pure_quartic()
        region = OrbitRegion(quartic_orbit, pgrid)
        blk = instantaneous_block(w, region, pot, 2, BETAS)

        def fresh():
            return Snapshot(w, region, pot, 2)

        sig = fresh().loop(SIGMA)
        assert blk["sigma"] == {"loop": sig, "full": sig}
        for name, q, full in (
            ("svn", SVN, lambda loop, vt: loop + vt),
            ("purity", PURITY, lambda loop, vt: loop - vt),
        ):
            loop = fresh().loop(q)
            value, masked = fresh().volume(q)
            assert blk[name] == {
                "loop": loop, "volume_term": value,
                "masked_nodes": masked, "full": full(loop, value),
            }
        for beta in BETAS:
            try:
                loop = fresh().loop(renyi(beta))
            except RejectionError as exc:
                assert blk["renyi"][f"{beta:g}"] == {"rejected": str(exc)}
                continue
            expected = {"loop": loop}
            try:
                value, masked = fresh().volume(renyi(beta))
                expected.update(volume_term=value, masked_nodes=masked, full=loop - value)
            except RejectionError as exc:
                expected["volume_term_rejected"] = str(exc)
            try:
                power = Snapshot(w, region).quantity(renyi(beta))
                expected["region_power_integral"] = power
                if power > 0:
                    expected["rate"] = loop / power
            except RejectionError as exc:
                expected["rate_rejected"] = str(exc)
            assert blk["renyi"][f"{beta:g}"] == expected

    def test_fractional_beta_rejections_reach_the_block(self, pgrid, quartic_orbit, offset_gaussian_w, cat_w):
        # Transformed fields carry noise-level negative nodes, so the beta = 0.5
        # volume term rejects while the loop stands; the cat is negative on the
        # orbit itself, so its beta = 0.5 loop rejects.
        pot, region = pure_quartic(), OrbitRegion(quartic_orbit, pgrid)
        entry = instantaneous_block(offset_gaussian_w, region, pot, 2, (0.5,))["renyi"]["0.5"]
        assert "loop" in entry and "rate" in entry
        assert entry["volume_term_rejected"].startswith("W**beta undefined for non-integer beta=0.5")
        entry = instantaneous_block(cat_w, region, pot, 2, (0.5,))["renyi"]["0.5"]
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
        for name in ("delta_current", "div_w", "wigner_transform"):
            monkeypatch.setattr(fluxes, name, counted(name, getattr(fluxes, name)))
        return counts

    def test_one_block_is_one_evaluation(self, monkeypatch, pgrid, quartic_orbit, offset_gaussian_w):
        region = OrbitRegion(quartic_orbit, pgrid)
        counts = self._count_work(monkeypatch)
        instantaneous_block(offset_gaussian_w, region, pure_quartic(), 2, BETAS)
        assert counts["fits"] <= 2
        assert counts["delta_current"] == 1
        assert counts["div_w"] == 1

    def test_oracle_rates_sample_each_field_once(self, monkeypatch, pgrid, cgrid, quartic_orbit):
        region = OrbitRegion(quartic_orbit, pgrid)
        prop = propagator(coherent(1.0, 0.5), pure_quartic(), cgrid)
        counts = self._count_work(monkeypatch)
        oracle_rates(prop, 0.0, region, BETAS)
        assert counts["wigner_transform"] == 2
        assert counts["fits"] == 2
        assert counts["delta_current"] == 0
