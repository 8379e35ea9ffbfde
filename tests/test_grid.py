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
    partial_derivative,
    stencil_weights,
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
    """A window's derivative, taken on the band of lines that holds it and spans the axis.

    The band is the window's x-rows for a k-derivative and its k-columns
    for an x-derivative: at both x edges, one row in, one row and none.
    """

    @pytest.mark.parametrize("window", list(WINDOWS))
    @pytest.mark.parametrize("axis", ["x", "k"])
    @pytest.mark.parametrize("order", range(1, MAX_DERIVATIVE_ORDER + 1))
    def test_equals_the_whole_grid_derivative_bit_for_bit(self, order, axis, window, pgrid):
        band = WINDOWS[window][1 if axis == "x" else 0]
        lines = (slice(None), band) if axis == "x" else (band, slice(None))
        f = np.random.default_rng(order).normal(size=pgrid.shape)
        got = partial_derivative(pgrid, f[lines], axis, order)
        assert np.array_equal(got, partial_derivative(pgrid, f, axis, order)[lines])

    def test_band_not_spanning_the_axis_rejected(self, pgrid):
        with pytest.raises(RejectionError, match="does not span the grid's 256 nodes along k"):
            partial_derivative(pgrid, np.ones((10, 255)), "k", 1)
        with pytest.raises(RejectionError, match="does not span the grid's 256 nodes along x"):
            partial_derivative(pgrid, np.ones((255, 10)), "x", 1)
        with pytest.raises(RejectionError, match="does not span"):
            partial_derivative(pgrid, np.ones(256), "k", 1)


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


class TestGridCut:
    def test_cut_keeps_the_nodes_and_spacings(self, pgrid):
        cut = pgrid.cut(slice(83, 173), slice(88, 168))
        assert cut.shape == (90, 80) and cut.origin == (83, 88) and cut.configured == pgrid
        assert np.array_equal(cut.x, pgrid.x[83:173]) and np.array_equal(cut.k, pgrid.k[88:168])
        assert (cut.h_x, cut.h_k) == (pgrid.h_x, pgrid.h_k)
        assert cut.window == (slice(83, 173), slice(88, 168))
        assert cut != pgrid and hash(cut) == hash(pgrid.cut(slice(83, 173), slice(88, 168)))

    def test_whole_window_is_the_grid_itself(self, pgrid):
        assert pgrid.cut(slice(0, 256), slice(0, 256)) is pgrid
        assert pgrid.window == (slice(0, 256), slice(0, 256))

    @pytest.mark.parametrize(
        "rows, cols", [(slice(0, 0), slice(0, 16)), (slice(250, 260), slice(0, 16)), (slice(-1, 20), slice(0, 16))]
    )
    def test_window_outside_the_grid_rejected(self, rows, cols, pgrid):
        with pytest.raises(RejectionError, match="not a rectangle"):
            pgrid.cut(rows, cols)

    def test_only_a_configured_grid_is_cut(self, pgrid):
        cut = pgrid.cut(slice(0, 32), slice(0, 32))
        with pytest.raises(RejectionError, match="configured"):
            cut.cut(slice(0, 16), slice(0, 16))

    def test_local_maps_configured_windows_onto_the_cut(self, pgrid):
        cut = pgrid.cut(slice(83, 173), slice(88, 168))
        assert cut.local((slice(100, 120), slice(90, 95))) == (slice(17, 37), slice(2, 7))
        assert cut.local((slice(0, 0), slice(0, 0))) == (slice(0, 0), slice(0, 0))
        assert pgrid.local((slice(3, 9), slice(4, 5))) == (slice(3, 9), slice(4, 5))

    def test_quadrature_on_a_cut_keeps_the_grid_weights(self, pgrid):
        # a cut that holds the grid's first row keeps its half weight; the
        # cut's other edges are inner nodes of the grid, with full weights
        rng = np.random.default_rng(3)
        values = rng.normal(size=pgrid.shape)
        cut = pgrid.cut(slice(0, 40), slice(100, 156))
        mask = np.zeros(pgrid.shape, dtype=bool)
        mask[0:40, 100:156] = True
        whole = integrate_volume(pgrid, values, mask=mask)
        assert integrate_volume(cut, values[cut.window]) == pytest.approx(whole, rel=1e-13)


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
