import math

import numpy as np
import pytest

from parkde.estimators import SubsetSample, data_window
from parkde.quadrature import (
    ConvergenceError,
    Grid,
    argmin_scalar,
    gradient_fd,
    integrate,
    integrate_values,
    simpson_weights,
)


class TestGrid:
    def test_points_and_spacing(self):
        g = Grid(0.0, 1.0, 5)
        assert g.spacing == 0.25
        np.testing.assert_allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_holds_no_array(self):
        g = Grid(0.0, 1.0, 5)
        first = g.points
        assert vars(g) == {"lo": 0.0, "hi": 1.0, "n_points": 5}
        first[:] = -1.0
        np.testing.assert_array_equal(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)
        # an infinite bound, or a width hi - lo that overflows
        for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="finite width"):
                Grid(lo, hi, 10)
        assert Grid(-1e308, 5e307, 10).spacing > 0

    @pytest.mark.parametrize("n_points", [201.5, 2001.0])
    def test_rejects_a_non_integer_point_count(self, n_points):
        # 2001.0 would equal and hash as Grid(0, 1, 2001), a cache key
        with pytest.raises(ValueError, match="n_points must be an integer"):
            Grid(0.0, 1.0, n_points)

    def test_numpy_integer_point_count(self):
        g = Grid(0.0, 1.0, np.int64(5))
        assert g == Grid(0.0, 1.0, 5) and g.points.size == 5


def test_simpson_exact_on_cubics():
    # composite simpson integrates cubics exactly on odd point counts
    g = Grid(-2.0, 3.0, 101)
    got = integrate(lambda x: x**3 - 2 * x**2 + x - 5, g)
    exact = (3**4 - (-2) ** 4) / 4 - 2 * (3**3 - (-2) ** 3) / 3 + (3**2 - (-2) ** 2) / 2 - 5 * 5
    assert got == pytest.approx(exact, abs=1e-10)


def test_simpson_sine():
    g = Grid(0.0, math.pi, 1001)
    assert integrate(np.sin, g) == pytest.approx(2.0, abs=1e-10)


def test_simpson_even_count_uses_trapezoid_tail():
    # still consistent, just lower order on the final panel
    g = Grid(0.0, 1.0, 100)
    assert integrate(lambda x: x * x, g) == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_simpson_two_points_is_trapezoid():
    assert integrate_values(np.array([1.0, 3.0]), 0.5) == pytest.approx(1.0)


def test_simpson_refinement_order():
    # quartic convergence: error ratio ~ 16 when the spacing halves
    f = lambda x: np.exp(np.sin(x))
    ref = integrate(f, Grid(0.0, 2.0, 40001))
    e1 = abs(integrate(f, Grid(0.0, 2.0, 51)) - ref)
    e2 = abs(integrate(f, Grid(0.0, 2.0, 101)) - ref)
    assert e1 / e2 > 8.0


@pytest.mark.parametrize("n", [2, 3, 4, 401])
def test_simpson_integrates_rows_of_a_table(n):
    y = np.random.default_rng(n).uniform(-1.0, 2.0, (5, n))
    rows = [integrate_values(row, 0.1) for row in y]
    np.testing.assert_allclose(integrate_values(y, 0.1), rows, rtol=1e-13)


def test_simpson_weights_sum_to_the_interval_length():
    for n in (2, 3, 4, 5, 100, 101):
        w = simpson_weights(n, 0.25)
        assert w.shape == (n,) and np.all(w > 0)
        assert w.sum() == pytest.approx(0.25 * (n - 1), rel=1e-14)


def test_simpson_rejects_bad_input():
    with pytest.raises(ValueError):
        integrate_values(np.array([1.0]), 0.1)
    with pytest.raises(ValueError):
        integrate_values(np.array([1.0, np.nan, 2.0]), 0.1)
    with pytest.raises(ValueError):
        integrate_values(np.array([1.0, np.inf, 2.0]), 0.1)


def test_golden_section_quadratic():
    x, fx = argmin_scalar(lambda x: (x - 1.3) ** 2 + 0.5, 0.0, 4.0, tol=1e-8)
    assert x == pytest.approx(1.3, abs=1e-7)
    assert fx == pytest.approx(0.5, abs=1e-12)


def test_golden_section_asymmetric_function():
    x, _ = argmin_scalar(lambda x: x**4 + 1.0 / x, 0.05, 3.0, tol=1e-9)
    # stationary point of x^4 + 1/x: x = (1/4)^(1/5)
    assert x == pytest.approx(0.25**0.2, abs=1e-7)


def test_golden_section_failure_modes():
    with pytest.raises(ConvergenceError):
        argmin_scalar(lambda x: x * x, 0.0, 1.0, tol=1e-12, max_iters=3)
    with pytest.raises(ValueError):
        argmin_scalar(lambda x: x, 1.0, 0.0, tol=1e-6)
    with pytest.raises(ValueError):
        argmin_scalar(lambda x: x, 0.0, 1.0, tol=-1.0)


def test_gradient_fd_quadratic_form():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = lambda x: float(x @ A @ x)
    x0 = np.array([0.7, -1.2])
    got = gradient_fd(f, x0, 1e-6)
    np.testing.assert_allclose(got, 2 * A @ x0, atol=1e-8)


def test_gradient_fd_rejects_bad_eps():
    with pytest.raises(ValueError):
        gradient_fd(lambda x: 0.0, np.array([1.0]), 0.0)


def test_default_grid_covers_samples():
    rng = np.random.default_rng(3)
    x = rng.normal(2.0, 1.5, 400)
    g = Grid.from_bounds(None, None, 101, data_window([SubsetSample(x)], [0.3]))
    assert g.lo < x.min() and g.hi > x.max()
    assert g.n_points == 101
