"""Uniform-axis not-a-knot splines against scipy's CubicSpline and RectBivariateSpline."""

import numpy as np
import pytest

from wignerflow.errors import RejectionError
from wignerflow.spline import GridSpline, UniformSpline, pieces, slopes

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
        got = UniformSpline(x0, H, y)(points)
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


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fewer_than_four_nodes_rejected(n):
    with pytest.raises(RejectionError, match="at least 4 nodes"):
        slopes(np.ones(n), H)
    with pytest.raises(RejectionError, match="at least 4 nodes"):
        UniformSpline(0.0, H, np.ones(n))


@pytest.mark.parametrize("field", ["offset_gaussian_w", "cat_w"])
class TestGridSpline:
    def test_orbit_samples_match_rect_bivariate_spline(self, field, request, quartic_orbit):
        interpolate = pytest.importorskip("scipy.interpolate")
        w = request.getfixturevalue(field)
        reference = interpolate.RectBivariateSpline(w.grid.x, w.grid.k, w.values).ev(quartic_orbit.x, quartic_orbit.k)
        got = GridSpline(w.grid, w.values).ev(quartic_orbit.x, quartic_orbit.k)
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(w.values))

    def test_fit_near_the_orbit_equals_the_full_fit(self, field, request, quartic_orbit):
        w = request.getfixturevalue(field)
        near = (quartic_orbit.x, quartic_orbit.k)
        assert np.array_equal(GridSpline(w.grid, w.values, near).ev(*near), GridSpline(w.grid, w.values).ev(*near))

    def test_sample_outside_the_fitted_cells_rejected(self, field, request, quartic_orbit):
        w = request.getfixturevalue(field)
        spline = GridSpline(w.grid, w.values, (quartic_orbit.x, quartic_orbit.k))
        with pytest.raises(RejectionError, match="outside the fitted cells"):
            spline.ev(np.array([3.0]), np.array([0.0]))
