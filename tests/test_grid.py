"""Quadrature, stencils and the dimensionless map."""

import numpy as np
import pytest

from wignerflow.errors import RejectionError
from wignerflow.grid import (
    MAX_DERIVATIVE_ORDER,
    CoordinateGrid,
    DimensionlessMap,
    PhaseSpaceGrid,
    integrate_volume,
    node_window,
    partial_derivative,
    stencil_weights,
    widen_window,
)

INTERIOR = np.s_[5:-5, 5:-5]


def small_grid(extent=1.0, n=33):
    return PhaseSpaceGrid.centered(extent, extent, n, n)


class TestIntegrateVolume:
    def test_constant_field_is_exact(self):
        g = small_grid()
        assert integrate_volume(g, np.ones(g.shape)) == pytest.approx(4.0, abs=1e-12)

    def test_gaussian_normalization(self, pgrid):
        # closed form: integral of pi^-1 exp(-x^2-k^2) over the plane is 1
        X, K = pgrid.meshes()
        w = np.exp(-X**2 - K**2) / np.pi
        assert integrate_volume(pgrid, w) == pytest.approx(1.0, abs=1e-6)

    def test_zero_field(self, pgrid):
        assert integrate_volume(pgrid, np.zeros(pgrid.shape)) == 0.0

    def test_bilinear_exactness(self):
        # trapezoid integrates a + b x + c k + d x k exactly; odd terms drop
        # on the symmetric domain, leaving 4 a on [-1, 1]^2
        g = small_grid()
        rng = np.random.default_rng(7)
        a, b, c, d = rng.normal(size=4)
        X, K = g.meshes()
        val = integrate_volume(g, a + b * X + c * K + d * X * K)
        assert val == pytest.approx(4.0 * a, rel=1e-13, abs=1e-13)

    def test_mask_selects_nodes(self):
        g = small_grid()
        X, _ = g.meshes()
        mask = X <= 0.0
        full = integrate_volume(g, np.ones(g.shape))
        half = integrate_volume(g, np.ones(g.shape), mask=mask)
        assert 0.0 < half < full

    def test_rejects_non_finite_with_location(self, pgrid):
        field = np.ones(pgrid.shape)
        field[3, 7] = np.nan
        with pytest.raises(RejectionError, match=r"i_x=3, i_k=7"):
            integrate_volume(pgrid, field)

    def test_window_equals_the_masked_whole_grid(self, pgrid):
        f = np.random.default_rng(5).normal(size=pgrid.shape)
        for window in ((slice(0, 40), slice(100, 256)), (slice(17, 18), slice(3, 90)), (slice(0, 0), slice(0, 0))):
            mask = np.zeros(pgrid.shape, dtype=bool)
            mask[window] = True
            whole = integrate_volume(pgrid, f, mask=mask)
            got = integrate_volume(pgrid, f[window], window=window)
            assert abs(got - whole) <= 1e-14 * integrate_volume(pgrid, np.abs(f), mask=mask)

    def test_windowed_non_finite_names_the_grid_node(self, pgrid):
        window = (slice(10, 20), slice(30, 40))
        field = np.ones((10, 10))
        field[3, 7] = np.inf
        with pytest.raises(RejectionError, match=r"i_x=13, i_k=37"):
            integrate_volume(pgrid, field, window=window)

    def test_field_not_covering_the_window_rejected(self, pgrid):
        with pytest.raises(RejectionError, match="does not match the window"):
            integrate_volume(pgrid, np.ones((4, 4)), window=(slice(0, 5), slice(0, 4)))

    def test_linearity(self, pgrid):
        rng = np.random.default_rng(11)
        f = rng.normal(size=pgrid.shape)
        g = rng.normal(size=pgrid.shape)
        a, b = 1.3, -0.7
        lhs = integrate_volume(pgrid, a * f + b * g)
        rhs = a * integrate_volume(pgrid, f) + b * integrate_volume(pgrid, g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestStencils:
    def test_known_weight_tables(self):
        np.testing.assert_allclose(
            stencil_weights(1), [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12], atol=1e-14
        )
        np.testing.assert_allclose(
            stencil_weights(2), [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12], atol=1e-14
        )
        np.testing.assert_allclose(
            stencil_weights(3), [1 / 8, -1, 13 / 8, 0, -13 / 8, 1, -1 / 8], atol=1e-13
        )
        np.testing.assert_allclose(
            stencil_weights(4), [-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6], atol=1e-13
        )

    def test_polynomial_first_derivative_exact(self, pgrid):
        X, _ = pgrid.meshes()
        d = partial_derivative(pgrid, X**2, "x", 1)
        assert np.max(np.abs((d - 2 * X)[INTERIOR])) < 1e-10

    def test_sine_second_derivative_fourth_order(self):
        # classical convergence measurement: halving h cuts the interior
        # error by ~16 (within 25 percent of the ideal ratio)
        errs = []
        for n in (65, 129):
            g = PhaseSpaceGrid.centered(np.pi, np.pi, n, n)
            X, _ = g.meshes()
            d = partial_derivative(g, np.sin(X), "x", 2)
            errs.append(np.max(np.abs((d + np.sin(X))[INTERIOR])))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_constant_derivative_zero_in_interior(self, pgrid):
        # zero up to stencil-weight rounding amplified by h**-order
        for order in (1, 2, 3, 4):
            d = partial_derivative(pgrid, np.full(pgrid.shape, 2.5), "x", order)
            assert np.max(np.abs(d[INTERIOR])) < 1e-9

    def test_k_axis(self, pgrid):
        _, K = pgrid.meshes()
        d = partial_derivative(pgrid, K**3, "k", 2)
        assert np.max(np.abs((d - 6 * K)[INTERIOR])) < 1e-9

    def test_linearity(self, pgrid):
        rng = np.random.default_rng(3)
        f = rng.normal(size=pgrid.shape)
        g = rng.normal(size=pgrid.shape)
        lhs = partial_derivative(pgrid, 2.0 * f - 0.5 * g, "k", 1)
        rhs = 2.0 * partial_derivative(pgrid, f, "k", 1) - 0.5 * partial_derivative(pgrid, g, "k", 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("axis", ["x", "k"])
    @pytest.mark.parametrize("order", range(1, MAX_DERIVATIVE_ORDER + 1))
    def test_matches_a_zero_extended_correlation(self, order, axis, cat_w):
        # the slice sum equals scipy's constant-mode correlation, edges included
        correlate1d = pytest.importorskip("scipy.ndimage").correlate1d

        grid = cat_w.grid
        h = grid.h_x if axis == "x" else grid.h_k
        ref = correlate1d(cat_w.values, stencil_weights(order), axis=0 if axis == "x" else 1, mode="constant") / h**order
        got = partial_derivative(grid, cat_w.values, axis, order)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(got[:, :3] if axis == "k" else got[:3])) > 0.0

    def test_order_beyond_maximum_rejected(self, pgrid):
        with pytest.raises(RejectionError, match="beyond supported maximum"):
            partial_derivative(pgrid, np.ones(pgrid.shape), "x", MAX_DERIVATIVE_ORDER + 1)

    def test_bad_axis_rejected(self, pgrid):
        with pytest.raises(RejectionError):
            partial_derivative(pgrid, np.ones(pgrid.shape), "q", 1)


class TestNodeWindow:
    def test_bounding_box_of_the_true_nodes(self):
        mask = np.zeros((20, 30), dtype=bool)
        mask[3, 7] = mask[9, 4] = mask[5, 12] = True
        assert node_window(mask.shape, mask) == (slice(3, 10), slice(4, 13))

    def test_whole_grid_for_none_and_empty_for_no_nodes(self):
        assert node_window((20, 30)) == (slice(0, 20), slice(0, 30))
        assert node_window((20, 30), np.zeros((20, 30), dtype=bool)) == (slice(0, 0), slice(0, 0))

    def test_nodes_on_the_edges_span_the_grid(self):
        mask = np.zeros((20, 30), dtype=bool)
        mask[0, 5] = mask[19, 6] = mask[7, 0] = mask[8, 29] = True
        assert node_window(mask.shape, mask) == (slice(0, 20), slice(0, 30))

    def test_widening_clips_at_the_grid_edge(self):
        assert widen_window((slice(1, 5), slice(26, 28)), 2, (20, 30)) == (slice(0, 7), slice(24, 30))


#: Node windows of the 256 x 256 test grid: interior, on each edge, one node
#: in from an edge, a single node and an empty one.
WINDOWS = {
    "interior": (slice(100, 131), slice(90, 112)),
    "low_edges": (slice(0, 12), slice(0, 9)),
    "high_edges": (slice(244, 256), slice(240, 256)),
    "one_in": (slice(1, 20), slice(254, 255)),
    "single": (slice(128, 129), slice(7, 8)),
    "empty": (slice(0, 0), slice(0, 0)),
}


class TestWindowedStencil:
    @pytest.mark.parametrize("window", list(WINDOWS))
    @pytest.mark.parametrize("axis", ["x", "k"])
    @pytest.mark.parametrize("order", range(1, MAX_DERIVATIVE_ORDER + 1))
    def test_equals_the_whole_grid_derivative_bit_for_bit(self, order, axis, window, pgrid):
        window = WINDOWS[window]
        f = np.random.default_rng(order).normal(size=pgrid.shape)
        block = widen_window(window, stencil_weights(order).size // 2, pgrid.shape)
        got = partial_derivative(pgrid, f[block], axis, order, window=window)
        assert np.array_equal(got, partial_derivative(pgrid, f, axis, order)[window])

    def test_block_narrower_than_the_stencil_reach_rejected(self, pgrid):
        window = WINDOWS["interior"]
        block = widen_window(window, 1, pgrid.shape)
        with pytest.raises(RejectionError, match="does not match the window"):
            partial_derivative(pgrid, np.ones(pgrid.shape)[block], "x", 1, window=window)


class TestGridTypes:
    def test_spacing(self):
        g = PhaseSpaceGrid.centered(8.0, 4.0, 17, 33)
        assert g.h_x == pytest.approx(1.0)
        assert g.h_k == pytest.approx(0.25)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(RejectionError, match="at least 16"):
            PhaseSpaceGrid.centered(1.0, 1.0, 8, 32)

    def test_asymmetric_grid_rejected(self):
        with pytest.raises(RejectionError, match="symmetric"):
            PhaseSpaceGrid(-1.0, 2.0, -1.0, 1.0, 32, 32)

    def test_coordinate_grid_power_of_two(self):
        CoordinateGrid(8.0, 1024)
        with pytest.raises(RejectionError, match="power of two"):
            CoordinateGrid(8.0, 1000)

    def test_coordinate_grid_symmetric(self):
        g = CoordinateGrid(8.0, 64)
        assert g.x[0] == -g.x[-1] == -8.0


class TestDimensionlessMap:
    def test_identity_at_unit_scales(self):
        m = DimensionlessMap(1.0, 1.0, 1.0)
        assert m.x_from_q(1.7) == pytest.approx(1.7)
        assert m.k_from_p(-0.3) == pytest.approx(-0.3)
        assert m.tau_from_t(2.0) == pytest.approx(2.0)

    def test_round_trips(self):
        m = DimensionlessMap(m=2.0, omega=3.0, hbar=0.5)
        assert m.q_from_x(m.x_from_q(0.8)) == pytest.approx(0.8, rel=1e-14)
        assert m.p_from_k(m.k_from_p(-1.1)) == pytest.approx(-1.1, rel=1e-14)
        assert m.t_from_tau(m.tau_from_t(4.2)) == pytest.approx(4.2, rel=1e-14)

    def test_positive_scales_required(self):
        with pytest.raises(RejectionError):
            DimensionlessMap(-1.0, 1.0, 1.0)
