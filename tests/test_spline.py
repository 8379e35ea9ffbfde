"""Uniform-axis not-a-knot splines against scipy's CubicSpline and RectBivariateSpline."""

import numpy as np
import pytest

from wignerflow.errors import RejectionError
from wignerflow.grid import PhaseSpaceGrid
from wignerflow.spline import GridSpline, SamplingPlan, pieces, slope_operator, slopes

#: A binary spacing, so that every interval of the reference's node array
#: is exactly h and the reference solves the same system as the module.
H = 1.0 / 16.0


def random_values(n: int, complex_values: bool) -> np.ndarray:
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n)
    if complex_values:
        values = values + 1j * rng.standard_normal(n)
    return values


def not_a_knot_system(n: int) -> np.ndarray:
    """The dense slope matrix: rows [1, 2], [1, 4, 1] and [2, 1]."""
    a = np.zeros((n, n))
    a[0, :2] = [1.0, 2.0]
    a[-1, -2:] = [2.0, 1.0]
    for i in range(1, n - 1):
        a[i, i - 1 : i + 2] = [1.0, 4.0, 1.0]
    return a


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [4, 5, 16, 17, 256, 257, 2048])
class TestUniformAxis:
    def test_slopes_and_pieces_match_cubic_spline(self, n, complex_values):
        interpolate = pytest.importorskip("scipy.interpolate")
        y = random_values(n, complex_values)
        reference = interpolate.CubicSpline(np.arange(n) * H, y)
        s = slopes(y, H)
        scale = np.max(np.abs(s))
        assert np.max(np.abs(s - reference(np.arange(n) * H, 1))) <= 1e-12 * scale
        c = pieces(y, H)
        assert c.shape == reference.c.shape
        assert np.max(np.abs(c - reference.c) * H ** np.arange(3, -1, -1)[:, None]) <= 1e-12 * scale * H

    def test_evaluation_matches_cubic_spline(self, n, complex_values):
        interpolate = pytest.importorskip("scipy.interpolate")
        y = random_values(n, complex_values)
        x0 = -0.5
        reference = interpolate.CubicSpline(x0 + np.arange(n) * H, y)
        points = x0 + np.random.default_rng(1).uniform(0.0, (n - 1) * H, 500)
        c = pieces(y, H)
        i = np.clip(np.floor((points - x0) / H).astype(np.intp), 0, n - 2)
        dx = points - (x0 + i * H)
        got = ((c[0, i] * dx + c[1, i]) * dx + c[2, i]) * dx + c[3, i]
        assert np.max(np.abs(got - reference(points))) <= 1e-12 * np.max(np.abs(slopes(y, H))) * H


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [4, 5, 16, 17, 256, 257])
def test_slopes_solve_the_dense_system(n, complex_values):
    y = random_values(n, complex_values)
    d = np.diff(y) / H
    rhs = np.concatenate([[(5 * d[0] + d[1]) / 2], 3 * (d[:-1] + d[1:]), [(d[-2] + 5 * d[-1]) / 2]])
    dense = np.linalg.solve(not_a_knot_system(n), rhs)
    assert np.max(np.abs(slopes(y, H) - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_columns_are_solved_independently():
    # several right-hand sides at once give each column's own solve, bit for bit
    block = np.random.default_rng(2).standard_normal((300, 5))
    together = slopes(block, H)
    for j in range(block.shape[1]):
        assert np.array_equal(together[:, j], slopes(block[:, j].copy(), H))


@pytest.mark.parametrize("h", [1.0, H])
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [16, 17, 256])
def test_slope_operator_applies_slopes(n, complex_values, h):
    # a slope scales as 1/h, so the bound is 1e-14 max|y| per unit spacing
    y = random_values(n, complex_values)
    assert np.max(np.abs(slope_operator(n, h) @ y - slopes(y, h))) <= 1e-14 * np.max(np.abs(y)) / h


def test_slope_operator_is_cached_and_read_only():
    s = slope_operator(17, H)
    assert slope_operator(17, H) is s
    with pytest.raises(ValueError):
        s[0, 0] = 0.0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fewer_than_four_nodes_rejected(n):
    with pytest.raises(RejectionError, match="at least 4 nodes"):
        slopes(np.ones(n), H)
    with pytest.raises(RejectionError, match="at least 4 nodes"):
        pieces(np.ones(n), H)


def orbit_plan(grid, orbit) -> SamplingPlan:
    return SamplingPlan(grid, orbit=(orbit.x, orbit.k))


@pytest.mark.parametrize("field", ["offset_gaussian_w", "cat_w"])
class TestGridSpline:
    def test_orbit_samples_match_rect_bivariate_spline(self, field, request, quartic_orbit):
        interpolate = pytest.importorskip("scipy.interpolate")
        w = request.getfixturevalue(field)
        reference = interpolate.RectBivariateSpline(w.grid.x, w.grid.k, w.values).ev(quartic_orbit.x, quartic_orbit.k)
        got = GridSpline(w.values, orbit_plan(w.grid, quartic_orbit)).at("orbit")
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(w.values))

    def test_fit_near_the_orbit_equals_the_full_fit(self, field, request, quartic_orbit):
        w = request.getfixturevalue(field)
        plan = orbit_plan(w.grid, quartic_orbit)
        rows, cols = plan.rows, plan.cols
        near = GridSpline(w.values, plan).cells.reshape(rows.stop - rows.start - 1, cols.stop - cols.start - 1, 16)
        full = GridSpline(w.values, SamplingPlan(w.grid)).cells.reshape(w.grid.n_x - 1, w.grid.n_k - 1, 16)
        assert np.array_equal(near, full[rows.start : rows.stop - 1, cols.start : cols.stop - 1])

    def test_sample_outside_the_fitted_cells_rejected(self, field, request, quartic_orbit):
        w = request.getfixturevalue(field)
        with pytest.raises(RejectionError, match="outside the fitted cells"):
            orbit_plan(w.grid, quartic_orbit).locate(np.array([3.0]), np.array([0.0]))


@pytest.mark.parametrize(
    "first, width",
    # spans that start on and off the fit's blocks, from the narrowest to
    # nearly the whole axis; plain products over some of these widths
    # (2-4, 9-12, >= 193) differ from the full product in their last bits
    [(0, 2), (5, 3), (120, 4), (7, 9), (32, 12), (61, 40), (0, 193), (3, 200), (1, 255), (0, 256)],
)
def test_any_span_equals_the_full_fit(first, width):
    grid = PhaseSpaceGrid.centered(8.0, 8.0, 256, 256)
    values = np.random.default_rng(width).standard_normal(grid.shape)
    corners = (grid.x[[first, first + width - 2]] + 0.5 * grid.h_x, grid.k[[first, first + width - 2]] + 0.5 * grid.h_k)
    near = GridSpline(values, SamplingPlan(grid, corners=corners)).cells.reshape(width - 1, width - 1, 16)
    full = GridSpline(values, SamplingPlan(grid)).cells.reshape(255, 255, 16)
    assert np.array_equal(near, full[first : first + width - 1, first : first + width - 1])


def test_plan_samples_equal_located_samples(gaussian_w, quartic_orbit):
    # a point set's samples do not depend on the other sets of its plan
    points = (quartic_orbit.x, quartic_orbit.k)
    shifted = (points[0] * 0.5, points[1])
    plan = SamplingPlan(gaussian_w.grid, orbit=points, shifted=shifted)
    spline = GridSpline(gaussian_w.values, plan)
    assert spline.plan is plan
    alone = {name: GridSpline(gaussian_w.values, SamplingPlan(gaussian_w.grid, **{name: p})).at(name)
             for name, p in (("orbit", points), ("shifted", shifted))}
    assert np.array_equal(spline.at("orbit"), alone["orbit"])
    assert np.array_equal(spline.at("shifted"), alone["shifted"])


def test_field_of_another_shape_rejected(gaussian_w):
    other = PhaseSpaceGrid.centered(8.0, 8.0, 128, 128)
    with pytest.raises(RejectionError, match="does not match grid"):
        GridSpline(gaussian_w.values, SamplingPlan(other))
