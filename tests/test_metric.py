"""The precomputed linear metric against brute-force per-row oracles.

The references here fit every derivative row by row, the way the package did
before derivatives became a fixed operator, and integrate with explicit
trapezoid sums instead of the grid's quadrature weights.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmshift.function_space as function_space
from fmshift import (
    OUTSIDE_SUPPORT,
    Curve,
    DensityModel,
    DerivativeMethod,
    DistanceSpec,
    FunctionalSample,
    Grid,
    MeanShiftConfig,
    SignatureRecord,
    builtin_pair,
    cluster,
    distance,
    estimate_derivative,
    inner_product,
    tangential_acceleration,
)
from fmshift.function_space import Metric


def local_poly_reference(values, points, order, degree, bandwidth):
    """One weighted least-squares polynomial fit per grid point."""
    n = points.size
    out = np.empty(n)
    for i, t0 in enumerate(points):
        u = points - t0
        w = np.exp(-0.5 * (u / bandwidth) ** 2)
        if np.count_nonzero(w > 1e-12) < degree + 1:
            idx = np.argsort(np.abs(u))[: degree + 1]
            w = np.zeros(n)
            w[idx] = 1.0
        A = np.vander(u, degree + 1, increasing=True)
        sw = np.sqrt(w)
        coef, *_ = np.linalg.lstsq(A * sw[:, None], values * sw, rcond=None)
        out[i] = coef[order] * math.factorial(order)
    return out


def local_poly_operator_reference(points, order, degree, bandwidth):
    """The operator column by column: one pinv per grid point."""
    n = points.size
    D = np.empty((n, n))
    for i, t0 in enumerate(points):
        u = points - t0
        w = np.exp(-0.5 * (u / bandwidth) ** 2)
        if np.count_nonzero(w > 1e-12) < degree + 1:
            idx = np.argsort(np.abs(u))[: degree + 1]
            w = np.zeros(n)
            w[idx] = 1.0
        sw = np.sqrt(w)
        A = np.vander(u, degree + 1, increasing=True) * sw[:, None]
        D[:, i] = np.linalg.pinv(A)[order] * sw * math.factorial(order)
    return D


def derivative_reference(values, points, order, method):
    if method.kind == "finite_difference":
        out = values
        for _ in range(order):
            out = np.gradient(out, points)
        return out
    return local_poly_reference(values, points, order, method.degree,
                                method.bandwidth)


def components_reference(values, points, spec):
    if spec.kind == "l2":
        return [values]
    if spec.kind == "derivative_l2":
        return [derivative_reference(values, points, spec.order,
                                     spec.derivative_method)]
    return [values, derivative_reference(values, points, 1, spec.derivative_method)]


def trapezoid(f, points):
    return float(np.sum((f[1:] + f[:-1]) / 2.0 * np.diff(points)))


def inner_reference(a, b, points, spec):
    return sum(trapezoid(ca * cb, points)
               for ca, cb in zip(components_reference(a, points, spec),
                                 components_reference(b, points, spec)))


def distance_reference(a, b, points, spec):
    return np.sqrt(sum(trapezoid(c * c, points)
                       for c in components_reference(a - b, points, spec)))


LOCAL_POLY = DerivativeMethod("local_poly", 3, 0.08)

# every kind and order with each derivative method it takes; l2 takes none
KIND_ORDER_METHOD = [
    pytest.param(kind, order, method, id=f"{kind}-{order}-{method.kind}")
    for kind, order in [("l2", 1), ("derivative_l2", 1), ("derivative_l2", 2),
                        ("sobolev_h1", 1)]
    for method in [DerivativeMethod(), DerivativeMethod("local_poly", 2, 0.1)]
    if kind != "l2" or method == DerivativeMethod()]


@st.composite
def metric_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["l2", "derivative_l2", "sobolev_h1"]))
    order = draw(st.sampled_from([1, 2])) if kind == "derivative_l2" else 1
    if kind != "l2" and draw(st.booleans()):
        method = DerivativeMethod("local_poly", draw(st.integers(2, 3)),
                                  draw(st.sampled_from([0.02, 0.08, 0.3])))
    else:
        method = DerivativeMethod()
    n_points = draw(st.integers(8, 40))
    return seed, DistanceSpec(kind, order, method), n_points


class TestMetricOracle:
    @given(metric_cases())
    @example((1, DistanceSpec("l2"), 12))
    @example((2, DistanceSpec("derivative_l2", 2), 13))
    @example((3, DistanceSpec("sobolev_h1"), 14))
    @example((4, DistanceSpec("derivative_l2", 1, LOCAL_POLY), 15))
    @example((5, DistanceSpec("sobolev_h1", derivative_method=LOCAL_POLY), 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_derivatives_and_trapezoid_sums(self, case):
        seed, spec, n_points = case
        rng = np.random.default_rng(seed)
        pts = np.sort(rng.uniform(0.0, 1.0, n_points))
        while np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(0.0, 1.0, n_points))
        grid = Grid(pts)
        V = rng.standard_normal((5, n_points))
        a, b, x = (rng.standard_normal(n_points) for _ in range(3))

        ref_d = distance_reference(a, b, pts, spec)
        assert distance(Curve(grid, a), Curve(grid, b), spec) == \
            pytest.approx(ref_d, rel=1e-10)

        # inner products may cancel to near zero: compare on the
        # Cauchy-Schwarz scale
        scale = np.sqrt(inner_reference(a, a, pts, spec)
                        * inner_reference(b, b, pts, spec))
        got = inner_product(Curve(grid, a), Curve(grid, b), spec)
        assert abs(got - inner_reference(a, b, pts, spec)) <= 1e-10 * scale

        model = DensityModel(FunctionalSample.from_matrix(grid, V),
                             builtin_pair("gaussian_gaussian"), spec,
                             bandwidth=1.0, normalized=False)
        ref_pd = np.array([[distance_reference(u, v, pts, spec) for v in V]
                           for u in V])
        off = ~np.eye(len(V), dtype=bool)
        np.testing.assert_allclose(model.pairwise_distances[off], ref_pd[off],
                                   rtol=1e-10)
        np.testing.assert_allclose(
            model.distances_to(Curve(grid, x)),
            [distance_reference(v, x, pts, spec) for v in V], rtol=1e-10)
        assert model.ip_norm(Curve(grid, x)) == \
            pytest.approx(np.sqrt(inner_reference(x, x, pts, spec)), rel=1e-10)

        # a row's distance does not depend on the rows stacked with it
        metric = model.metric
        DF = metric.components(rng.standard_normal((3, 5, n_points))) - \
            metric.components(x)
        alone = np.array([[metric.norms(row) for row in rows] for rows in DF])
        assert np.array_equal(metric.norms(DF), alone)
        assert np.array_equal(metric.norms(DF[1]), alone[1])

    @pytest.mark.parametrize("spec", [
        DistanceSpec("l2"),
        DistanceSpec("derivative_l2", 2),
        DistanceSpec("sobolev_h1", derivative_method=DerivativeMethod(
            "local_poly", 3, 0.1)),
    ])
    def test_second_order_terms_match_reference_inner_products(self, spec):
        # the second differential, written with reference inner products:
        # -C w_G [sum_i k'(t_i)/(h^3 d_i) <X_i-x, y><X_i-x, z> + b' <y, z>]
        grid = Grid(np.sort(np.random.default_rng(9).uniform(0.0, 1.0, 18)))
        pts = grid.points
        rng = np.random.default_rng(2)
        V = np.sin(np.outer(rng.uniform(1.0, 4.0, 6), pts)) + \
            0.1 * rng.standard_normal((6, 18))
        pair = builtin_pair("biweight_triweight")
        sample = FunctionalSample.from_matrix(grid, V)
        dmax = DensityModel(sample, pair, spec, normalized=False).max_pairwise_distance
        h = 0.9 * dmax
        model = DensityModel(sample, pair, spec, bandwidth=h)
        x, y, z = (0.2 * rng.standard_normal(18) + V.mean(axis=0) for _ in range(3))

        D = V - x
        d = np.array([distance_reference(v, x, pts, spec) for v in V])
        kv, dk = pair.k(d / h), pair.k.deriv(d / h)
        cw = pair.C * model.w_G
        coef = dk / (h**3 * d)

        def ip(a, b):
            return inner_reference(a, b, pts, spec)

        ref_form = -cw * (sum(c * ip(Di, y) * ip(Di, z) for c, Di in zip(coef, D))
                          + float((kv / h**2).sum()) * ip(y, z))
        assert model.hessian_form(Curve(grid, x), Curve(grid, y), Curve(grid, z)) \
            == pytest.approx(ref_form, rel=1e-9)

        b = cw * float((kv / h**2).sum())
        sw = np.sqrt(-cw * coef)
        G = np.array([[ip(Di, Dj) for Dj in D] for Di in D])
        ref_eigen = max(np.linalg.eigvalsh(sw[:, None] * G * sw[None, :])[-1], 0.0) - b
        assert model.lambda_eigen(Curve(grid, x)) == pytest.approx(ref_eigen, rel=1e-9)

        # the trace bound: sum_i w_i <X_i-x, X_i-x> - b
        ref_paper = float(sum(-cw * c * ip(Di, Di) for c, Di in zip(coef, D))) - b
        assert model.lambda_paper(Curve(grid, x)) == pytest.approx(ref_paper, rel=1e-9)

    @pytest.mark.parametrize("kind, order, method", KIND_ORDER_METHOD)
    def test_a_curve_is_at_distance_zero_from_itself(self, kind, order, method):
        grid = Grid(np.linspace(0.0, 1.0, 25))
        V = np.random.default_rng(5).standard_normal((10, 25))
        model = DensityModel(FunctionalSample.from_matrix(grid, V),
                             builtin_pair("gaussian_gaussian"),
                             DistanceSpec(kind, order, method), bandwidth=1.0,
                             normalized=False)
        assert np.all(np.diag(model.pairwise_distances) == 0.0)
        for i, row in enumerate(V):
            # a fresh copy of the values, not the sample's own curve
            assert model.distances_to(Curve(grid, row.copy()))[i] == 0.0

    @pytest.mark.parametrize("kind, order, method", KIND_ORDER_METHOD)
    def test_pairwise_of_gathered_rows_is_the_gathered_pairwise(self, kind, order,
                                                                method):
        # an entry depends on its two rows alone, not on the rows stacked
        # with them: what lets a bootstrap replicate gather its distances
        grid = Grid(np.sort(np.random.default_rng(8).uniform(0.0, 1.0, 30)))
        V = np.random.default_rng(9).standard_normal((60, 30))
        m = Metric(grid, DistanceSpec(kind, order, method))
        F = m.components(V)
        D = m.pairwise(F)
        rng = np.random.default_rng(10)
        for size in (60, 60, 60, 37, 75):
            idx = rng.integers(0, 60, size=size)  # repeated rows
            assert np.array_equal(m.pairwise(F[idx]), D[np.ix_(idx, idx)])

    def test_l2_components_are_the_values(self):
        # the l2 metric applies no operator, not even an identity matmul
        grid = Grid(np.linspace(0.0, 1.0, 9))
        V = np.arange(18.0).reshape(2, 9)
        assert Metric(grid, DistanceSpec()).components(V) is V

    @pytest.mark.parametrize("spec", [
        DistanceSpec("sobolev_h1", derivative_method=DerivativeMethod(
            "local_poly", 2, 0.1)),
        DistanceSpec("derivative_l2", 2),
    ])
    def test_queries_fit_no_derivatives(self, spec, monkeypatch):
        grid = Grid(np.linspace(0.0, 1.0, 20))
        rng = np.random.default_rng(4)
        sample = FunctionalSample.from_matrix(grid, rng.standard_normal((6, 20)))
        pair = builtin_pair("gaussian_gaussian")
        dmax = DensityModel(sample, pair, spec, normalized=False).max_pairwise_distance
        model = DensityModel(sample, pair, spec, bandwidth=2.0 * dmax)

        def refuse(*args, **kwargs):
            raise AssertionError("derivative estimated after model construction")

        monkeypatch.setattr(function_space, "_derivative_matrix", refuse)
        x, y = (Curve(grid, 0.3 * rng.standard_normal(20)) for _ in range(2))
        model.distances_to(x)
        model.mean_shift_vector(x)
        model.ip_norm(model.gradient(x))
        model.hessian_form(x, y, y)
        model.lambda_eigen(x)
        model.lambda_paper(x)
        cluster(model, MeanShiftConfig(max_iters=20))


class TestPairwise:
    @pytest.mark.parametrize("kind, order, method", KIND_ORDER_METHOD)
    def test_exactly_symmetric_with_a_zero_diagonal(self, kind, order, method):
        grid = Grid(np.sort(np.random.default_rng(2).uniform(0.0, 1.0, 30)))
        V = np.random.default_rng(3).standard_normal((40, 30))
        V[5] = V[4]  # a duplicate and a near-duplicate row
        V[7] = V[6] + 1e-9
        metric = Metric(grid, DistanceSpec(kind, order, method))
        D = metric.pairwise(metric.components(V))
        assert D.shape == (40, 40)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        assert np.all(D >= 0.0)


UNIFORM = np.linspace(0.0, 1.0, 40)
NON_UNIFORM = np.sort(np.random.default_rng(11).uniform(0.0, 1.0, 40))


class TestFiniteDifferenceOperator:
    @pytest.mark.parametrize("points", [UNIFORM, NON_UNIFORM],
                             ids=["uniform", "non_uniform"])
    @pytest.mark.parametrize("kind,order", [("derivative_l2", 1),
                                            ("derivative_l2", 2),
                                            ("sobolev_h1", 1)])
    def test_built_once_per_grid_read_only_and_unchanged(self, points, kind,
                                                         order):
        grid = Grid(points)
        spec = DistanceSpec(kind, order=order)
        D = Metric(grid, spec).operators[-1]
        assert Metric(grid, spec).operators[-1] is D
        with pytest.raises(ValueError, match="read-only"):
            D[0, 0] = 1.0
        want = np.eye(len(points))
        for _ in range(order):
            want = np.gradient(want, points, axis=-1)
        assert np.array_equal(D, want)
        assert list(grid._derivative_operators) == [(order, DerivativeMethod())]

    @pytest.mark.parametrize("through", ["estimate_derivative", "Metric",
                                         "tangential_acceleration"])
    def test_a_two_point_grid_is_too_short_for_order_2(self, through):
        grid = Grid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError,
                           match="grid too short for finite differences"):
            if through == "estimate_derivative":
                estimate_derivative(Curve(grid, np.array([0.0, 1.0])), 2)
            elif through == "Metric":
                Metric(grid, DistanceSpec("derivative_l2", order=2))
            else:
                t = np.linspace(0.0, 1.0, 10)
                tangential_acceleration(
                    SignatureRecord(x=np.cos(t), y=np.sin(t), t=t), grid)


class TestEstimateDerivativeIsTheMetricOperator:
    """A curve's derivative is the derivative block of its metric components,
    bit for bit: both apply the grid's one cached operator."""

    @pytest.mark.parametrize("n", [20, 64, 128])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "non_uniform"])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("method", [
        DerivativeMethod(), DerivativeMethod("local_poly", 3, 0.1)],
        ids=["finite_difference", "local_poly"])
    def test_bit_identical(self, n, uniform, order, method):
        rng = np.random.default_rng(n)
        points = (np.linspace(0.0, 1.0, n) if uniform
                  else np.sort(rng.uniform(0.0, 1.0, n)))
        grid = Grid(points)
        c = Curve(grid, rng.standard_normal(n))
        metric = Metric(grid, DistanceSpec("derivative_l2", order, method))
        assert np.array_equal(estimate_derivative(c, order, method).values,
                              metric.components(c.values))


class TestLocalPolyOperator:
    @pytest.mark.parametrize("points", [UNIFORM, NON_UNIFORM],
                             ids=["uniform", "non_uniform"])
    # at 0.001 a window holds fewer than degree + 1 points, so columns take
    # the nearest-points fallback
    @pytest.mark.parametrize("bandwidth", [0.3, 0.04, 0.001])
    @pytest.mark.parametrize("degree,order",
                             [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_stacked_build_equals_the_per_point_loop(self, points, bandwidth,
                                                     degree, order):
        grid = Grid(points)
        method = DerivativeMethod("local_poly", degree, bandwidth)
        D = function_space._derivative_operator(grid, order, method)
        assert np.array_equal(
            D, local_poly_operator_reference(points, order, degree, bandwidth))

    def test_built_once_per_grid_and_read_only(self):
        grid = Grid(UNIFORM)
        method = DerivativeMethod("local_poly", 2, 0.04)
        D = function_space._derivative_operator(grid, 1, method)
        assert function_space._derivative_operator(grid, 1, method) is D
        assert D.flags.c_contiguous  # the BLAS path of a column-by-column fill
        with pytest.raises(ValueError, match="read-only"):
            D[0, 0] = 1.0

    def test_order_and_method_key_their_own_operators(self):
        grid = Grid(UNIFORM)
        method = DerivativeMethod("local_poly", 2, 0.04)
        D = function_space._derivative_operator(grid, 1, method)
        others = [function_space._derivative_operator(grid, 2, method),
                  function_space._derivative_operator(
                      grid, 1, DerivativeMethod("local_poly", 3, 0.04)),
                  function_space._derivative_operator(
                      grid, 1, DerivativeMethod("local_poly", 2, 0.05))]
        for E in others:
            assert E is not D and not np.array_equal(E, D)
        assert len(grid._derivative_operators) == 4


def first_appearance_ordered(labels):
    seen = []
    for a in labels:
        if a != OUTSIDE_SUPPORT and a not in seen:
            seen.append(a)
    return seen == list(range(len(seen)))


class TestClusterPartition:
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["l2", "derivative_l2", "sobolev_h1"]))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_permutation(self, seed, kind):
        rng = np.random.default_rng(seed)
        grid = Grid(np.linspace(0.0, 1.0, 12))
        t = grid.points
        shapes = [np.zeros(12), 3.0 + 0.0 * t, np.sin(2 * np.pi * t) * 4.0]
        groups = rng.integers(0, 3, size=15)
        rows = [shapes[g] + 0.1 * rng.standard_normal(12) for g in groups]
        rows.append(np.full(12, 40.0))  # an isolated curve, atomic
        V = np.array(rows)
        perm = rng.permutation(len(V))
        pair = builtin_pair("gaussian_gaussian")
        spec = DistanceSpec(kind)
        cfg = MeanShiftConfig(seed=1)

        def partition(M):
            model = DensityModel(FunctionalSample.from_matrix(grid, M), pair,
                                 spec, bandwidth=1.5, normalized=False)
            return cluster(model, cfg).assignments

        base = partition(V)
        permuted = partition(V[perm])
        assert first_appearance_ordered(base)
        assert first_appearance_ordered(permuted)
        # same partition up to relabeling: a bijection between the labels
        mapping = {}
        for k, i in enumerate(perm):
            assert mapping.setdefault(base[i], permuted[k]) == permuted[k]
        assert len(set(mapping.values())) == len(mapping)
