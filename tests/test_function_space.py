"""Quadrature, distances and derivative estimation against analytic oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmshift import (
    Curve,
    DerivativeMethod,
    DistanceSpec,
    FunctionalSample,
    Grid,
    GridMismatchError,
    distance,
    estimate_derivative,
    inner_product,
    linear_combination,
    norm,
)


def make_grid(n=101, a=0.0, b=1.0):
    return Grid(np.linspace(a, b, n))


class TestGrid:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.3]))

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.5, 0.4, 1.0]))

    def test_quad_weights_sum_to_length(self):
        g = Grid(np.array([0.0, 0.1, 0.35, 0.7, 1.0]))
        assert np.isclose(g.quad_weights.sum(), 1.0)

    def test_trapezoid_exact_for_linear(self):
        # the trapezoid rule integrates piecewise-linear functions exactly,
        # uniform grid or not
        pts = np.array([0.0, 0.13, 0.4, 0.77, 1.0])
        g = Grid(pts)
        f = 3.0 * pts - 1.2
        assert np.isclose(g.quad_weights @ f, 3.0 / 2.0 - 1.2)

    def test_quadrature_vs_simpson_oracle(self):
        # oracle: Simpson's rule on a fine grid is far more accurate than
        # trapezoid, so it serves as reference for a smooth integrand
        from scipy.integrate import simpson

        pts = np.linspace(0.0, 1.0, 201)
        g = Grid(pts)
        f = np.exp(pts) * np.sin(3.0 * pts)
        ref = simpson(f, x=pts)
        assert abs(g.quad_weights @ f - ref) < 1e-4


class TestCurve:
    def test_length_mismatch(self):
        g = make_grid(11)
        with pytest.raises(ValueError,
                           match="curve has 10 values for a grid of length 11"):
            Curve(g, np.zeros(10))

    def test_rejects_2d_values(self):
        g = make_grid(11)
        with pytest.raises(ValueError,
                           match="curve has 11 values for a grid of length 11"):
            Curve(g, np.zeros((1, 11)))

    def test_rejects_nan(self):
        g = make_grid(11)
        vals = np.zeros(11)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="curve values must be finite"):
            Curve(g, vals)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_inf(self, bad):
        g = make_grid(11)
        vals = np.zeros(11)
        vals[3] = bad
        with pytest.raises(ValueError, match="curve values must be finite"):
            Curve(g, vals)

    def test_arithmetic(self):
        g = make_grid(11)
        a = Curve(g, np.arange(11.0))
        b = Curve(g, np.ones(11))
        assert np.allclose((a + b).values, np.arange(11.0) + 1.0)
        assert np.allclose((a - b).values, np.arange(11.0) - 1.0)
        assert np.allclose((2.0 * a).values, 2.0 * np.arange(11.0))

    def test_cross_grid_arithmetic_raises(self):
        a = Curve(make_grid(11), np.zeros(11))
        b = Curve(make_grid(12), np.zeros(12))
        with pytest.raises(GridMismatchError):
            a + b


class TestInnerProductAndDistance:
    def test_sin_cos_orthogonal(self):
        g = make_grid(2001)
        t = g.points
        s = Curve(g, np.sin(2.0 * np.pi * t))
        c = Curve(g, np.cos(2.0 * np.pi * t))
        assert abs(inner_product(s, c)) < 1e-8
        assert np.isclose(inner_product(s, s), 0.5, atol=1e-6)

    def test_l2_distance_analytic(self):
        # ||t - t^2||_L2^2 = int (t - t^2)^2 = 1/30
        g = make_grid(4001)
        t = g.points
        a = Curve(g, t)
        b = Curve(g, t**2)
        assert np.isclose(distance(a, b), np.sqrt(1.0 / 30.0), atol=1e-6)

    def test_h1_inner_product_analytic(self):
        # <t, t>_H1 = int t^2 + int 1 = 1/3 + 1 = 4/3
        g = make_grid(2001)
        a = Curve(g, g.points)
        spec = DistanceSpec("sobolev_h1")
        assert np.isclose(inner_product(a, a, spec), 4.0 / 3.0, atol=1e-4)

    def test_sobolev_distance_is_induced_by_the_h1_inner_product(self):
        g = make_grid(501)
        t = g.points
        a = Curve(g, np.sin(2 * np.pi * t))
        b = Curve(g, t**2)
        spec = DistanceSpec("sobolev_h1")
        d2 = distance(a, b, spec) ** 2
        diff = a - b
        assert d2 == pytest.approx(inner_product(diff, diff, spec), rel=1e-12)
        l2 = distance(a, b, DistanceSpec("l2"))
        d1 = distance(a, b, DistanceSpec("derivative_l2", order=1))
        assert d2 == pytest.approx(l2**2 + d1**2, rel=1e-12)

    @pytest.mark.parametrize("kind, order", [("sobolev_h1", 2), ("l2", 7),
                                             ("l2", 0), ("sobolev_h1", 0)])
    def test_order_is_rejected_where_it_does_nothing(self, kind, order):
        with pytest.raises(ValueError, match=f"order {order} does not apply to {kind}"):
            DistanceSpec(kind, order=order)

    @pytest.mark.parametrize("method", [
        DerivativeMethod("local_poly", 3, 0.1), DerivativeMethod("finite_difference", 3)],
        ids=["local_poly", "finite_difference_degree_3"])
    def test_derivative_method_is_rejected_on_l2(self, method):
        with pytest.raises(ValueError, match=r"derivative method DerivativeMethod\(kind="
                                             f"'{method.kind}'.* does not apply to l2"):
            DistanceSpec("l2", derivative_method=method)

    @pytest.mark.parametrize("kind, order", [("l2", 1), ("derivative_l2", 2),
                                             ("sobolev_h1", 1)])
    def test_the_default_derivative_method_is_accepted_on_every_kind(self, kind, order):
        assert DistanceSpec(kind, order, DerivativeMethod()).derivative_method \
            == DerivativeMethod("finite_difference", 2, None)

    def test_derivative_l2_is_semidistance(self):
        # vertical shifts are invisible to the first-derivative distance
        g = make_grid(201)
        a = Curve(g, np.sin(2 * np.pi * g.points))
        b = Curve(g, np.sin(2 * np.pi * g.points) + 5.0)
        assert distance(a, b, DistanceSpec("derivative_l2")) < 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality_l2(self, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(31)
        a, b, c = (Curve(g, rng.standard_normal(31)) for _ in range(3))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_triangle_inequality_sobolev(self, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(31)
        spec = DistanceSpec("sobolev_h1")
        a, b, c = (Curve(g, rng.standard_normal(31)) for _ in range(3))
        assert distance(a, c, spec) <= distance(a, b, spec) + distance(b, c, spec) + 1e-12

    def test_norm_is_distance_to_zero(self):
        g = make_grid(51)
        a = Curve(g, np.cos(g.points))
        zero = Curve(g, np.zeros(51))
        assert norm(a) == distance(a, zero)


class TestDerivatives:
    def test_finite_difference_polynomial(self):
        # central differences are exact for quadratics on a uniform grid
        g = make_grid(101)
        t = g.points
        c = Curve(g, 3.0 * t**2 - t + 2.0)
        d = estimate_derivative(c, 1)
        assert np.allclose(d.values[1:-1], 6.0 * t[1:-1] - 1.0, atol=1e-10)

    def test_finite_difference_sine_oracle(self):
        g = make_grid(1001)
        t = g.points
        c = Curve(g, np.sin(2 * np.pi * t))
        d = estimate_derivative(c, 1)
        assert np.max(np.abs(d.values - 2 * np.pi * np.cos(2 * np.pi * t))) < 1e-3

    def test_second_derivative(self):
        g = make_grid(2001)
        t = g.points
        c = Curve(g, np.sin(2 * np.pi * t))
        d2 = estimate_derivative(c, 2)
        inner = slice(5, -5)
        err = np.abs(d2.values[inner] + (2 * np.pi) ** 2 * np.sin(2 * np.pi * t[inner]))
        assert err.max() < 1e-2

    def test_local_poly_exact_on_polynomial(self):
        # a degree-2 fit reproduces a quadratic exactly, noise or not in the
        # weighting
        g = make_grid(61)
        t = g.points
        c = Curve(g, 2.0 * t**2 + t)
        m = DerivativeMethod("local_poly", degree=2, bandwidth=0.1)
        d = estimate_derivative(c, 1, m)
        assert np.allclose(d.values, 4.0 * t + 1.0, atol=1e-8)
        d2 = estimate_derivative(c, 2, m)
        assert np.allclose(d2.values, 4.0, atol=1e-7)

    def test_local_poly_smooths_noise(self):
        rng = np.random.default_rng(7)
        g = make_grid(201)
        t = g.points
        noisy = np.sin(2 * np.pi * t) + 0.01 * rng.standard_normal(t.size)
        c = Curve(g, noisy)
        m = DerivativeMethod("local_poly", degree=3, bandwidth=0.05)
        d = estimate_derivative(c, 1, m)
        fd = estimate_derivative(c, 1)
        truth = 2 * np.pi * np.cos(2 * np.pi * t)
        assert np.mean((d.values - truth) ** 2) < np.mean((fd.values - truth) ** 2)

    def test_order_validation(self):
        g = make_grid(11)
        c = Curve(g, np.zeros(11))
        with pytest.raises(ValueError):
            estimate_derivative(c, 3)
        with pytest.raises(ValueError):
            estimate_derivative(c, 2, DerivativeMethod("local_poly", degree=1,
                                                       bandwidth=0.1))

    @pytest.mark.parametrize("bandwidth", [0.1, 0.0, np.nan])
    def test_finite_difference_rejects_a_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match=f"smoothing bandwidth {bandwidth!r} "
                                             "does not apply to finite_difference"):
            DerivativeMethod("finite_difference", bandwidth=bandwidth)

    def test_local_poly_requires_bandwidth(self):
        with pytest.raises(ValueError):
            DerivativeMethod("local_poly", degree=2, bandwidth=None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_local_poly_rejects_a_non_finite_bandwidth(self, bad):
        # nan weights would silently fall back to the nearest-points fit
        with pytest.raises(ValueError, match="finite"):
            DerivativeMethod("local_poly", degree=2, bandwidth=bad)


class TestSample:
    def test_matrix_roundtrip(self):
        g = make_grid(11)
        M = np.arange(33.0).reshape(3, 11)
        s = FunctionalSample.from_matrix(g, M, labels=("a", "b", "c"))
        assert np.array_equal(s.matrix, M)
        sub = s.subset([2, 0])
        assert sub.labels == ("c", "a")
        assert np.array_equal(sub.matrix, M[[2, 0]])

    def test_grid_mismatch(self):
        g1, g2 = make_grid(11), make_grid(12)
        c = Curve(g2, np.zeros(12))
        with pytest.raises(GridMismatchError):
            FunctionalSample(g1, (c,))

    def test_from_matrix_and_subset_build_no_curve(self, monkeypatch):
        g = make_grid(11)
        M = np.random.default_rng(0).standard_normal((1000, 11))
        labels = tuple(range(1000))
        built, compared = [], []
        post_init, grid_eq = Curve.__post_init__, Grid.__eq__
        monkeypatch.setattr(Curve, "__post_init__",
                            lambda self: (built.append(1), post_init(self))[1])
        monkeypatch.setattr(Grid, "__eq__",
                            lambda self, other: (compared.append(1),
                                                 grid_eq(self, other))[1])
        s = FunctionalSample.from_matrix(g, M, labels)
        idx = np.random.default_rng(1).integers(0, 1000, size=1000)
        sub = s.subset(idx)
        assert built == [] and compared == []
        assert np.array_equal(sub.matrix, M[idx])
        assert sub.labels == tuple(int(i) for i in idx)
        assert not sub.matrix.flags.writeable

    def test_from_matrix_copies_its_input(self):
        g = make_grid(5)
        M = np.arange(10.0).reshape(2, 5)
        s = FunctionalSample.from_matrix(g, M)
        assert M.flags.writeable and not np.shares_memory(s.matrix, M)
        M[0, 0] = 99.0
        assert s.matrix[0, 0] == 0.0
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.matrix = M

    @pytest.mark.parametrize("shape, message", [
        ((5,), r"shape \(n, 5\) for the grid, got \(5,\)"),
        ((2, 5, 1), r"shape \(n, 5\) for the grid, got \(2, 5, 1\)"),
        ((2, 4), r"shape \(n, 5\) for the grid, got \(2, 4\)"),
        ((0, 5), "at least one curve")], ids=["1-D", "3-D", "length", "no-rows"])
    def test_from_matrix_rejects_a_wrong_shape(self, shape, message):
        with pytest.raises(ValueError, match=message):
            FunctionalSample.from_matrix(make_grid(5), np.zeros(shape))

    def test_from_matrix_rejects_non_finite_values(self):
        M = np.zeros((3, 5))
        M[2, 1] = np.nan
        with pytest.raises(ValueError, match="curve values must be finite"):
            FunctionalSample.from_matrix(make_grid(5), M)

    def test_curves_are_cached_row_views(self):
        g = make_grid(5)
        s = FunctionalSample.from_matrix(g, np.arange(10.0).reshape(2, 5))
        assert s.curves is s.curves
        assert all(c.values.base is s.matrix for c in s.curves)
        given = (Curve(g, np.ones(5)), Curve(g, np.zeros(5)))
        built = FunctionalSample(g, given)
        assert built.curves[0] is given[0]
        assert np.array_equal(built.matrix, [np.ones(5), np.zeros(5)])

    def test_linear_combination(self):
        g = make_grid(11)
        a = Curve(g, np.ones(11))
        b = Curve(g, g.points)
        combo = linear_combination([2.0, -1.0], [a, b])
        assert np.allclose(combo.values, 2.0 - g.points)
