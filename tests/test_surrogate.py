"""Density model differentials against finite-difference and brute-force oracles."""

import warnings

import numpy as np
import pytest
from scipy import optimize

from fmshift import (
    BandwidthRule,
    Curve,
    DensityModel,
    DistanceSpec,
    FunctionalSample,
    Grid,
    NormalizerError,
    OutsideSupportError,
    builtin_pair,
)

GRID = Grid(np.linspace(0.0, 1.0, 15))


def random_instance(seed, n=6, spread=1.0, kernel="gaussian_gaussian",
                    distance=None, normalized=True, h=None):
    rng = np.random.default_rng(seed)
    M = spread * rng.standard_normal((n, len(GRID)))
    sample = FunctionalSample.from_matrix(GRID, M)
    pair = builtin_pair(kernel)
    model = DensityModel(sample, pair, distance,
                         bandwidth=h or 3.0, normalized=normalized)
    x = Curve(GRID, 0.5 * rng.standard_normal(len(GRID)))
    y = Curve(GRID, rng.standard_normal(len(GRID)))
    return model, x, y, rng


def fd_directional(model, x, y, alpha=1e-5):
    """Central difference of the shadow density along y."""
    plus = model.density_g(Curve(GRID, x.values + alpha * y.values))
    minus = model.density_g(Curve(GRID, x.values - alpha * y.values))
    return (plus - minus) / (2.0 * alpha)


def fd_second(model, x, y, alpha=1e-4):
    plus = model.density_g(Curve(GRID, x.values + alpha * y.values))
    minus = model.density_g(Curve(GRID, x.values - alpha * y.values))
    mid = model.density_g(x)
    return (plus - 2.0 * mid + minus) / alpha**2


class TestHandComputedDensities:
    def test_two_constant_curves_uniform(self):
        # two constant curves at heights 0 and 1; L2 distance 1; uniform
        # profile is 1 inside the support, so the bare sum counts the curves
        # in reach
        sample = FunctionalSample.from_matrix(
            GRID, np.vstack([np.zeros(len(GRID)), np.ones(len(GRID))]))
        pair = builtin_pair("uniform_epanechnikov")
        model = DensityModel(sample, pair, bandwidth=2.0, normalized=False)
        x = Curve(GRID, np.full(len(GRID), 0.5))
        assert model.density_k(x) == pytest.approx(2.0)
        far = Curve(GRID, np.full(len(GRID), 10.0))
        assert model.density_k(far) == 0.0

    def test_normalizer_two_points(self):
        # w_K = (n-1) / sum_{i != j} k(d_ij / h_i) = 1 / (2 k(d/h))
        sample = FunctionalSample.from_matrix(
            GRID, np.vstack([np.zeros(len(GRID)), np.ones(len(GRID))]))
        pair = builtin_pair("epanechnikov_biweight")
        h = 2.0
        model = DensityModel(sample, pair, bandwidth=h, normalized=True)
        kd = float(pair.k(1.0 / h))
        assert model.w_K == pytest.approx(1.0 / (2.0 * kd))
        gd = float(pair.g(1.0 / h))
        assert model.w_G == pytest.approx(1.0 / (2.0 * gd))
        # normalized estimate at the first curve
        x = sample.curves[0]
        expected = model.w_K * (float(pair.k(0.0)) + kd)
        assert model.density_k(x) == pytest.approx(expected)

    def test_normalizer_error_when_no_pair_in_reach(self):
        sample = FunctionalSample.from_matrix(
            GRID, np.vstack([np.zeros(len(GRID)), np.full(len(GRID), 50.0)]))
        pair = builtin_pair("uniform_epanechnikov")
        with pytest.raises(NormalizerError):
            DensityModel(sample, pair, bandwidth=1.0, normalized=True)

    def test_single_curve_unit_normalizer(self):
        sample = FunctionalSample.from_matrix(GRID, np.zeros((1, len(GRID))))
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=1.0, normalized=True)
        assert model.w_K == 1.0 and model.w_G == 1.0

    def test_per_datum_bandwidths(self):
        sample = FunctionalSample.from_matrix(
            GRID, np.vstack([np.zeros(len(GRID)), np.ones(len(GRID))]))
        rule = BandwidthRule.per_datum([1.5, 3.0])
        pair = builtin_pair("gaussian_gaussian")
        model = DensityModel(sample, pair, bandwidth=rule, normalized=False)
        x = Curve(GRID, np.full(len(GRID), 2.0))
        d = model.distances_to(x)
        expected = float(pair.k(d[0] / 1.5) + pair.k(d[1] / 3.0))
        assert model.density_k(x) == pytest.approx(expected)

    def test_bandwidth_rule_validation(self):
        with pytest.raises(ValueError):
            BandwidthRule.fixed(0.0)
        with pytest.raises(ValueError):
            BandwidthRule.per_datum([1.0, -2.0])
        with pytest.raises(ValueError):
            BandwidthRule.per_datum([1.0, 2.0]).resolve(3)


class TestGradientOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences_l2(self, seed):
        model, x, y, _ = random_instance(seed)
        grad = model.gradient(x)
        w = GRID.quad_weights
        analytic = float(np.dot(grad.values * w, y.values))
        numeric = fd_directional(model, x, y)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences_derivative_l2(self, seed):
        # smooth curves keep the derivative part of the distance moderate
        rng = np.random.default_rng(seed + 100)
        t = GRID.points
        M = np.array([c[0] * np.sin(2 * np.pi * t) + c[1] * np.cos(2 * np.pi * t)
                      for c in rng.standard_normal((5, 2))])
        sample = FunctionalSample.from_matrix(GRID, M)
        spec = DistanceSpec("derivative_l2", order=1)
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"), spec,
                             bandwidth=25.0, normalized=True)
        x = Curve(GRID, 0.3 * np.sin(2 * np.pi * t))
        y = Curve(GRID, np.cos(2 * np.pi * t) + 0.1 * rng.standard_normal(len(GRID)))
        grad = model.gradient(x)
        from fmshift import inner_product
        analytic = inner_product(grad, y, spec)
        numeric = fd_directional(model, x, y)
        assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-9)

    def test_sobolev_directional_derivative_chain_rule(self):
        # the sum-of-norms metric is not induced by an inner product, so the
        # true directional derivative follows the chain rule through both
        # norm terms; check finite differences against that expression
        rng = np.random.default_rng(42)
        t = GRID.points
        M = np.array([c[0] * np.sin(2 * np.pi * t) + c[1] * np.cos(2 * np.pi * t)
                      for c in rng.standard_normal((5, 2))])
        sample = FunctionalSample.from_matrix(GRID, M)
        spec = DistanceSpec("sobolev_h1")
        pair = builtin_pair("gaussian_gaussian")
        model = DensityModel(sample, pair, spec, bandwidth=25.0)
        x = Curve(GRID, 0.3 * np.sin(2 * np.pi * t))
        y = Curve(GRID, np.cos(2 * np.pi * t))

        from fmshift import DistanceSpec as DS
        from fmshift import distance, estimate_derivative, inner_product
        l2 = DS("l2")
        d1 = DS("derivative_l2", order=1)
        total = 0.0
        for X in sample.curves:
            diff = X - x
            dl2 = distance(X, x, l2)
            dd1 = distance(X, x, d1)
            d = dl2 + dd1
            h = 25.0
            ddir = -(inner_product(diff, y, l2) / dl2
                     + inner_product(diff, y, d1) / dd1)
            total += model.w_G * pair.g.deriv(d / h) / h * ddir
        numeric = fd_directional(model, x, y)
        assert numeric == pytest.approx(total, rel=1e-3, abs=1e-9)

    def test_gradient_is_weighted_sum_of_differences(self):
        model, x, _, _ = random_instance(3)
        d = model.distances_to(x)
        coef = model.pair.C * model.w_G * model.pair.k(d / model._h) / model._h**2
        expected = coef @ (model.sample.matrix - x.values)
        assert np.allclose(model.gradient(x).values, expected)


class TestMeanShiftIdentities:
    @pytest.mark.parametrize("seed", range(6))
    def test_m_equals_s_times_direction(self, seed):
        model, x, _, _ = random_instance(seed)
        m = model.mean_shift_vector(x)
        s = model.step_size(x)
        a = model.ascent_direction(x)
        assert np.allclose(m.values, s * a.values, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_m_proportional_to_gradient(self, seed):
        # m(x) = grad p~(x) / (C w_G p_bar(x))
        model, x, _, _ = random_instance(seed + 50)
        m = model.mean_shift_vector(x)
        grad = model.gradient(x)
        denom = model.pair.C * model.w_G * model.p_bar(x)
        assert np.allclose(m.values, grad.values / denom, atol=1e-12)

    def test_outside_support_raises(self):
        model, _, _, _ = random_instance(0, kernel="uniform_epanechnikov", h=2.0)
        far = Curve(GRID, np.full(len(GRID), 100.0))
        with pytest.raises(OutsideSupportError):
            model.mean_shift_vector(far)
        with pytest.raises(OutsideSupportError):
            model.step_size(far)

    def test_shift_toward_local_mean(self):
        # with the uniform profile, x + m(x) is exactly the mean of the curves
        # in reach
        sample = FunctionalSample.from_matrix(
            GRID, np.vstack([np.zeros(len(GRID)), np.ones(len(GRID)),
                             np.full(len(GRID), 0.4)]))
        pair = builtin_pair("uniform_epanechnikov")
        model = DensityModel(sample, pair, bandwidth=5.0, normalized=False)
        x = Curve(GRID, np.full(len(GRID), 0.2))
        m = model.mean_shift_vector(x)
        target = sample.matrix.mean(axis=0)
        assert np.allclose(x.values + m.values, target, atol=1e-12)


class TestHessianOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_second_difference(self, seed):
        model, x, y, _ = random_instance(seed)
        analytic = model.hessian_form(x, y, y)
        numeric = fd_second(model, x, y)
        assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_symmetry_and_bilinearity(self):
        model, x, y, rng = random_instance(11)
        z = Curve(GRID, rng.standard_normal(len(GRID)))
        hyz = model.hessian_form(x, y, z)
        assert hyz == pytest.approx(model.hessian_form(x, z, y), rel=1e-12)
        two_y = Curve(GRID, 2.0 * y.values)
        assert model.hessian_form(x, two_y, z) == pytest.approx(2.0 * hyz,
                                                               rel=1e-12)


def brute_force_lambda(model, x, n_dirs=10_000, seed=0):
    """Maximize the quadratic form over unit directions without eigensolvers.

    Random search seeds a quasi-Newton polish; both stages only ever call
    hessian_form, so the result is independent of the Gram-matrix code path.
    """
    rng = np.random.default_rng(seed)
    m = len(model.grid)

    def unit(vals):
        c = Curve(model.grid, vals)
        nrm = model.ip_norm(c)
        return Curve(model.grid, vals / nrm)

    best_val, best_dir = -np.inf, None
    # the supremum is attained in span{X_i - x}; sample inside that span
    D = model.sample.matrix - x.values
    for _ in range(n_dirs):
        coef = rng.standard_normal(D.shape[0])
        vals = coef @ D
        if np.linalg.norm(vals) < 1e-12:
            continue
        y = unit(vals)
        v = model.hessian_form(x, y, y)
        if v > best_val:
            best_val, best_dir = v, y.values

    def neg_form(vals):
        nrm = model.ip_norm(Curve(model.grid, vals))
        if nrm < 1e-12:
            return np.inf
        y = unit(vals)
        return -model.hessian_form(x, y, y)

    res = optimize.minimize(neg_form, best_dir, method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14,
                                     "maxiter": 20_000, "maxfev": 20_000})
    return max(best_val, -res.fun)


class TestLambdaOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_eigen_matches_generalized_eigenproblem(self, seed):
        # independent oracle: express the bilinear form in the grid basis and
        # solve the generalized eigenproblem with the quadrature Gram matrix
        from scipy.linalg import eigh

        model, x, _, _ = random_instance(seed, n=5)
        m = len(GRID)
        basis = np.eye(m)
        H = np.empty((m, m))
        for a in range(m):
            ya = Curve(GRID, basis[a])
            for b in range(a, m):
                H[a, b] = H[b, a] = model.hessian_form(x, ya, Curve(GRID, basis[b]))
        M = np.diag(GRID.quad_weights)
        top = eigh(H, M, eigvals_only=True)[-1]
        assert model.lambda_eigen(x) == pytest.approx(top, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_eigen_dominates_random_directions(self, seed):
        model, x, _, rng = random_instance(seed + 7, n=5)
        lam = model.lambda_eigen(x)
        for _ in range(200):
            vals = rng.standard_normal(len(GRID))
            y = Curve(GRID, vals / model.ip_norm(Curve(GRID, vals)))
            assert model.hessian_form(x, y, y) <= lam + 1e-9

    def test_single_far_sample_gives_minus_b(self):
        # with no curve in k'-reach the quadratic form is -b ||y||^2
        sample = FunctionalSample.from_matrix(GRID, np.zeros((1, len(GRID))))
        pair = builtin_pair("uniform_epanechnikov")
        model = DensityModel(sample, pair, bandwidth=2.0)
        x = Curve(GRID, np.full(len(GRID), 0.3))
        b = pair.C * model.w_G * float(pair.k(model.distances_to(x)[0] / 2.0)) / 4.0
        assert model.lambda_eigen(x) == pytest.approx(-b)

    def test_lambda_at_sample_point_is_finite(self):
        # zero distance terms take the continuity-extension limit of k'(t)/t
        model, _, _, _ = random_instance(5)
        x = model.sample.curves[0]
        assert np.isfinite(model.lambda_eigen(x))
        assert np.isfinite(model.lambda_paper(x))

    @pytest.mark.parametrize("seed", range(4))
    def test_sinc_lambda_at_sample_point_is_warning_free(self, seed):
        model, _, _, _ = random_instance(seed, kernel="sinc_cosine")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in model.sample.curves:
                assert np.isfinite(model.lambda_eigen(x))


class TestCompactSupport:
    def test_density_vanishes_beyond_reach(self):
        for kernel in ("uniform_epanechnikov", "biweight_triweight"):
            model, _, _, _ = random_instance(1, kernel=kernel, h=1.5)
            far = Curve(GRID, np.full(len(GRID), 30.0))
            assert model.density_k(far, normalized=False) == 0.0
            assert model.density_g(far, normalized=False) == 0.0
