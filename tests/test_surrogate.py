"""Density model differentials against finite-difference and brute-force oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize

import fmshift.surrogate as surrogate
from fmshift import (
    BUILTIN_PAIR_NAMES,
    Curve,
    DensityModel,
    DerivativeMethod,
    DistanceSpec,
    FunctionalSample,
    Grid,
    KernelPair,
    NormalizerError,
    OutsideSupportError,
    Profile,
    builtin_pair,
    validate_pair,
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
        pair = builtin_pair("gaussian_gaussian")
        model = DensityModel(sample, pair, bandwidth=[1.5, 3.0], normalized=False)
        x = Curve(GRID, np.full(len(GRID), 2.0))
        d = model.distances_to(x)
        expected = float(pair.k(d[0] / 1.5) + pair.k(d[1] / 3.0))
        assert model.density_k(x) == pytest.approx(expected)

    def test_bandwidth_validation(self):
        sample = FunctionalSample.from_matrix(GRID, np.zeros((2, len(GRID))))
        pair = builtin_pair("gaussian_gaussian")
        with pytest.raises(ValueError, match="positive"):
            DensityModel(sample, pair, bandwidth=0.0)
        with pytest.raises(ValueError, match="positive"):
            DensityModel(sample, pair, bandwidth=[1.0, -2.0])
        with pytest.raises(ValueError, match="need 2 per-datum bandwidths"):
            DensityModel(sample, pair, bandwidth=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bandwidth_rejects_non_finite_values(self, bad):
        sample = FunctionalSample.from_matrix(GRID, np.zeros((2, len(GRID))))
        pair = builtin_pair("gaussian_gaussian")
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            DensityModel(sample, pair, bandwidth=bad)
        with pytest.raises(ValueError, match="finite"):
            DensityModel(sample, pair, bandwidth=np.array([1.0, bad]))


def eager_extremes(D):
    """The smallest off-diagonal and the largest entry of a distance matrix,
    as the model computed them at construction: min over i != j, 0 for one
    curve."""
    E = D.copy()
    np.fill_diagonal(E, np.inf)
    return (float(E.min()) if len(D) > 1 else 0.0), float(D.max())


class TestPairwiseExtremes:
    @pytest.mark.parametrize("rows", [
        [0.0], [0.0, 1.5], [0.0, 2.0, 2.0, -1.0]], ids=["n=1", "n=2", "duplicates"])
    def test_equal_their_eager_definitions(self, rows):
        rng = np.random.default_rng(6)
        shape = rng.standard_normal(len(GRID))
        sample = FunctionalSample.from_matrix(
            GRID, np.array(rows)[:, None] + np.outer(np.abs(rows), shape))
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=1.0, normalized=False)
        # computed on first use, not at construction
        assert "min_pairwise_distance" not in vars(model)
        assert "max_pairwise_distance" not in vars(model)
        assert not model.pairwise_distances.flags.writeable
        lo, hi = eager_extremes(model.pairwise_distances)
        assert model.min_pairwise_distance == lo
        assert model.max_pairwise_distance == hi
        if len(rows) == 1:
            assert lo == hi == 0.0
        if len(rows) == 4:
            assert lo == 0.0 < hi

    def test_normalizer_error_names_the_minimum_distance(self):
        sample = FunctionalSample.from_matrix(
            GRID, np.vstack([np.zeros(len(GRID)), np.full(len(GRID), 50.0),
                             np.full(len(GRID), 120.0)]))
        with pytest.raises(NormalizerError,
                           match=r"minimum pairwise distance 50\)"):
            DensityModel(sample, builtin_pair("uniform_epanechnikov"),
                         bandwidth=1.0, normalized=True)

    @pytest.mark.parametrize("kernel", BUILTIN_PAIR_NAMES)
    def test_normalizers_equal_sums_over_every_pair(self, kernel):
        # profiles evaluated on the pairs within reach only, against sums of
        # both profiles over all n(n - 1) ordered pairs
        model, _, _, _ = random_instance(4, n=12, kernel=kernel, h=1.4)
        T = model.pairwise_distances / model._h[:, None]
        off = ~np.eye(12, dtype=bool)
        assert np.any(T[off] > 1.0) and np.any(T[off] <= 1.0)
        for w, profile in ((model.w_K, model.pair.k), (model.w_G, model.pair.g)):
            assert w == pytest.approx(11 / float(profile(T[off]).sum()), rel=1e-13)


class TestGradientOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences_l2(self, seed):
        model, x, y, _ = random_instance(seed)
        grad = model.gradient(x)
        w = GRID.quad_weights
        analytic = float(np.dot(grad.values * w, y.values))
        numeric = fd_directional(model, x, y)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-10)

    @staticmethod
    def check_against_finite_differences(seed, spec):
        # smooth curves keep the derivative part of the distance moderate
        rng = np.random.default_rng(seed + 100)
        t = GRID.points
        M = np.array([c[0] * np.sin(2 * np.pi * t) + c[1] * np.cos(2 * np.pi * t)
                      for c in rng.standard_normal((5, 2))])
        sample = FunctionalSample.from_matrix(GRID, M)
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"), spec,
                             bandwidth=25.0, normalized=True)
        x = Curve(GRID, 0.3 * np.sin(2 * np.pi * t))
        y = Curve(GRID, np.cos(2 * np.pi * t) + 0.1 * rng.standard_normal(len(GRID)))
        grad = model.gradient(x)
        from fmshift import inner_product
        analytic = inner_product(grad, y, spec)
        numeric = fd_directional(model, x, y)
        assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences_derivative_l2(self, seed):
        self.check_against_finite_differences(
            seed, DistanceSpec("derivative_l2", order=1))

    @pytest.mark.parametrize("method", [
        DerivativeMethod(), DerivativeMethod("local_poly", 3, 0.1)],
        ids=lambda m: m.kind)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences_sobolev_h1(self, seed, method):
        # the distance is the norm the H1 inner product induces, so the
        # gradient in that inner product is exact, as for the other kinds
        self.check_against_finite_differences(
            seed, DistanceSpec("sobolev_h1", derivative_method=method))

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
            for normalized in (True, False):
                model, _, _, _ = random_instance(1, kernel=kernel, h=1.5,
                                                 normalized=normalized)
                far = Curve(GRID, np.full(len(GRID), 30.0))
                assert model.density_k(far) == 0.0
                assert model.density_g(far) == 0.0


# -- the per-x statistics, as first written: the oracle of the batch ------------


def per_x_curvature_terms(model, x):
    """DF, d, k, k' and k'/d for the rows X_i - x of one query."""
    DF = model._F - model.metric.components(x.values)
    d = model.metric.norms(DF)
    t = d / model._h
    kv, dk = model.pair.k(t), model.pair.k.deriv(t)
    zero = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        dk_over_d = np.where(zero, 0.0, dk / np.where(zero, 1.0, d))
    return DF, d, kv, dk, dk_over_d


def lambda_eigen_reference(model, x):
    """Top eigenvalue of the Gram-reduced form over the live rows, minus b."""
    DF, _, kv, _, dk_over_d = per_x_curvature_terms(model, x)
    h, cw = model._h, model.pair.C * model.w_G
    b = cw * float((kv / h**2).sum())
    wts = -cw * dk_over_d / h**3
    live = wts > 0.0
    if not np.any(live):
        return -b
    Fl = DF[live]
    G = model.metric.gram(Fl, Fl)
    sw = np.sqrt(wts[live])
    B = sw[:, None] * G * sw[None, :]
    return max(float(np.linalg.eigvalsh(B)[-1]), 0.0) - b


def lambda_paper_reference(model, x):
    """The trace bound sum_i w_i <X_i - x, X_i - x> - b, from the inner
    products of the rows, not from their distances."""
    DF, _, kv, _, dk_over_d = per_x_curvature_terms(model, x)
    h, cw = model._h, model.pair.C * model.w_G
    b = cw * float((kv / h**2).sum())
    wts = -cw * dk_over_d / h**3
    return float(sum(w * model.metric.gram(r, r) for w, r in zip(wts, DF))) - b


def live_rows(model, x):
    """Number of rows with k'(d/h) < 0, the rows lambda_eigen uses."""
    return int(np.count_nonzero(per_x_curvature_terms(model, x)[4] < 0.0))


SMOOTH = DerivativeMethod("local_poly", 2, 0.15)
SPECS = {
    "l2": DistanceSpec("l2"),
    "derivative_l2_fd": DistanceSpec("derivative_l2", order=1),
    "derivative_l2_local_poly": DistanceSpec("derivative_l2", order=1,
                                             derivative_method=SMOOTH),
    "sobolev_h1_fd": DistanceSpec("sobolev_h1"),
    "sobolev_h1_local_poly": DistanceSpec("sobolev_h1",
                                          derivative_method=SMOOTH),
}


def smooth_model(seed, spec, kernel, n, reach=0.6, per_datum=False):
    """n smooth curves, with h at ``reach`` times the largest pairwise
    distance (times a factor in [0.7, 1.3] per curve if ``per_datum``), and
    queries: a random curve, a sample curve and one beyond every support."""
    rng = np.random.default_rng(seed)
    t = GRID.points
    M = (rng.standard_normal((n, 1)) * np.sin(2 * np.pi * t)
         + rng.standard_normal((n, 1)) * np.cos(np.pi * t)
         + 0.05 * rng.standard_normal((n, len(GRID))))
    sample = FunctionalSample.from_matrix(GRID, M)
    pair = builtin_pair(kernel)
    h = reach * DensityModel(sample, pair, spec, normalized=False).max_pairwise_distance
    if per_datum:
        h = h * rng.uniform(0.7, 1.3, n)
    model = DensityModel(sample, pair, spec, bandwidth=h)
    queries = {"random": Curve(GRID, M.mean(axis=0) + 0.1 * rng.standard_normal(len(GRID))),
               "sample": sample.curves[1],
               "beyond": Curve(GRID, M[0] + 1e3 * (1.0 + t))}
    return model, queries


def assert_close(got, want, rel=1e-12):
    assert got == pytest.approx(want, rel=rel, abs=1e-300), (got, want)


class TestCurvatureStatisticsOracle:
    @pytest.mark.parametrize("kernel", BUILTIN_PAIR_NAMES)
    @pytest.mark.parametrize("spec", list(SPECS), ids=list(SPECS))
    # 6 rows: at most 6 live rows against 15 or 30 components; 40 rows: more
    # live rows than components, a rank-deficient live-rows Gram form
    @pytest.mark.parametrize("n", [6, 40])
    def test_matches_the_per_x_statistics(self, kernel, spec, n):
        model, queries = smooth_model(n, SPECS[spec], kernel, n)
        xs = list(queries.values())
        eigen, paper = model.curvature_statistics(xs)
        for i, x in enumerate(xs):
            assert_close(eigen[i], lambda_eigen_reference(model, x))
            assert_close(paper[i], lambda_paper_reference(model, x))
            assert model.lambda_eigen(x) == eigen[i]
            assert model.lambda_paper(x) == paper[i]

    @pytest.mark.parametrize("spec", list(SPECS), ids=list(SPECS))
    def test_oracle_covers_few_and_many_live_rows(self, spec):
        for n, few in [(6, True), (40, False)]:
            model, queries = smooth_model(n, SPECS[spec], "gaussian_gaussian", n)
            r, width = live_rows(model, queries["random"]), model.metric.w.size
            assert (r <= width) == few, (n, r, width)

    @pytest.mark.parametrize("kernel", BUILTIN_PAIR_NAMES)
    def test_beyond_every_support_is_minus_b(self, kernel):
        model, queries = smooth_model(3, SPECS["l2"], kernel, 8)
        far = queries["beyond"]
        assert live_rows(model, far) == 0
        eigen, paper = model.curvature_statistics([far])
        assert eigen[0] == lambda_eigen_reference(model, far) == 0.0
        assert paper[0] == 0.0

    def test_no_live_rows_inside_the_support_is_minus_b(self):
        # the uniform profile has k' = 0: every row is in reach, none is live
        model, queries = smooth_model(4, SPECS["l2"], "uniform_epanechnikov", 8)
        x = queries["random"]
        b = model.pair.C * model.w_G * float(model.pair.k(
            model.distances_to(x) / model._h).sum() / model._h[0] ** 2)
        assert b > 0.0 and live_rows(model, x) == 0
        assert model.lambda_eigen(x) == lambda_eigen_reference(model, x)
        assert model.lambda_eigen(x) == pytest.approx(-b, rel=1e-12)

    @pytest.mark.parametrize("spec", ["l2", "sobolev_h1_fd"])
    def test_zero_distance_with_a_nonzero_slope_at_zero(self, spec):
        # k(t) = 1 - t has k'(0) = -1, so k'(t)/t has no finite limit at 0;
        # its shadow is g(t) = 1 - 3t^2 + 2t^3 with C = 6. At a sample curve
        # the row at d = 0 is 0, so no limit is needed
        k = Profile("linear", fn=lambda t: 1.0 - t,
                    dfn=lambda t: -np.ones_like(t),
                    d2fn=lambda t: np.zeros_like(t))
        g = Profile("cubic", fn=lambda t: 1.0 - 3.0 * t**2 + 2.0 * t**3,
                    dfn=lambda t: -6.0 * t * (1.0 - t),
                    d2fn=lambda t: 12.0 * t - 6.0)
        pair = KernelPair(k=k, g=g, C=6.0)
        assert validate_pair(pair).passed
        model, queries = smooth_model(5, SPECS[spec], "gaussian_gaussian", 6)
        model = DensityModel(model.sample, pair, model.distance,
                             bandwidth=float(model._h[0]))
        x = queries["sample"]
        assert 0.0 in model.distances_to(x) and live_rows(model, x) > 1
        y = Curve(GRID, np.random.default_rng(1).standard_normal(len(GRID)))
        # g(d/h) has a |d|^3 term at that row, so the difference is O(alpha)
        assert model.hessian_form(x, y, y) == pytest.approx(
            fd_second(model, x, y), rel=1e-3)
        # the form's matrix on the grid basis, and its Gram matrix: the
        # supremum over unit y is the top generalized eigenvalue
        basis = [Curve(GRID, e) for e in np.eye(len(GRID))]
        H = np.array([[model.hessian_form(x, a, b) for b in basis] for a in basis])
        E = model.metric.components(np.eye(len(GRID)))
        M = model.metric.gram(E, E)
        assert_close(model.lambda_eigen(x),
                     linalg.eigh(H, M, eigvals_only=True)[-1], rel=1e-9)
        assert_close(model.lambda_paper(x), lambda_paper_reference(model, x))


def failing_dsyevr(a, **kwargs):
    """dsyevr reporting a failed solve: info = 2."""
    return np.zeros(len(a)), np.zeros((0, 0)), 0, np.zeros(0, np.int32), 2


class TestTopEigenvalue:
    @pytest.mark.parametrize("form", ["1x1", "rank_1", "repeated_top", "general"])
    def test_matches_eigvalsh(self, form):
        rng = np.random.default_rng(8)
        if form == "1x1":
            A = rng.standard_normal((1, 30))
        elif form == "rank_1":
            A = np.outer(rng.standard_normal(12), rng.standard_normal(30))
        else:
            # A = U diag(s) Q: the Gram form U diag(s^2) U^T, top value 9 twice
            U = np.linalg.qr(rng.standard_normal((12, 12)))[0]
            Q = np.linalg.qr(rng.standard_normal((30, 12)))[0].T
            s = (np.array([3.0, 3.0] + [1.0] * 10) if form == "repeated_top"
                 else rng.uniform(0.1, 3.0, 12))
            A = U @ (s[:, None] * Q)
        G = A @ A.T
        want = float(np.linalg.eigvalsh(G)[-1])
        assert surrogate._top_eigenvalue(G.copy()) == pytest.approx(want, rel=1e-12)
        if form == "repeated_top":
            assert want == pytest.approx(9.0, rel=1e-12)

    def test_a_failed_solve_raises_a_linalg_error(self, monkeypatch):
        model, queries = smooth_model(2, SPECS["l2"], "gaussian_gaussian", 10)
        x = queries["random"]
        assert live_rows(model, x) > 0
        monkeypatch.setattr("scipy.linalg.lapack.dsyevr", failing_dsyevr)
        with pytest.raises(np.linalg.LinAlgError, match="dsyevr info=2"):
            model.curvature_statistics([x])


class TestBatchIdentity:
    @given(seed=st.integers(0, 2**32 - 1),
           spec=st.sampled_from(list(SPECS)),
           kernel=st.sampled_from(BUILTIN_PAIR_NAMES),
           n=st.integers(2, 40),  # every pair in reach of h
           picks=st.lists(st.integers(-2, 39), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_a_batch_equals_batches_of_one(self, seed, spec, kernel, n, picks):
        # a pick >= 0 is a sample curve, -1 a random curve, -2 one beyond
        # every support
        model, queries = smooth_model(seed, SPECS[spec], kernel, n, reach=1.2)
        xs = [queries["random"] if j == -1 else queries["beyond"] if j == -2
              else model.sample.curves[j % n] for j in picks]
        batch = np.array(model.curvature_statistics(xs))
        ones = np.array([model.curvature_statistics([x]) for x in xs])[:, :, 0].T
        assert np.array_equal(batch, ones)


def trace_scale(model, x):
    """C w_G sum_i [|k'(d_i/h_i)| d_i/h_i^3 + k(d_i/h_i)/h_i^2], the size of
    the terms of the trace bound: the scale of its rounding."""
    _, d, kv, dk, _ = per_x_curvature_terms(model, x)
    h = model._h
    return model.pair.C * model.w_G * float((-dk * d / h**3 + kv / h**2).sum())


class TestTraceBound:
    @given(seed=st.integers(0, 2**32 - 1),
           spec=st.sampled_from(list(SPECS)),
           kernel=st.sampled_from(BUILTIN_PAIR_NAMES),
           per_datum=st.booleans(),
           n=st.integers(2, 40),
           reach=st.floats(0.3, 1.5))
    @settings(max_examples=80, deadline=None)
    def test_lambda_paper_bounds_lambda_eigen(self, seed, spec, kernel,
                                              per_datum, n, reach):
        try:
            model, queries = smooth_model(seed, SPECS[spec], kernel, n, reach,
                                          per_datum)
        except NormalizerError:  # no pair within reach
            assume(False)
        xs = list(queries.values()) + list(model.sample.curves[:3])
        eigen, paper = model.curvature_statistics(xs)
        for x, e, p in zip(xs, eigen, paper):
            assert p - e >= -1e-12 * trace_scale(model, x), (p, e)

    @given(seed=st.integers(0, 2**32 - 1),
           spec=st.sampled_from(list(SPECS)),
           kernel=st.sampled_from(BUILTIN_PAIR_NAMES),
           per_datum=st.booleans(),
           n=st.integers(2, 30),
           j=st.integers(0, 29),
           u=st.floats(0.05, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_equality_with_one_live_row(self, seed, spec, kernel, per_datum,
                                        n, j, u):
        # a query near sample curve j, whose support alone reaches it
        base, _ = smooth_model(seed, SPECS[spec], kernel, n, reach=1.2)
        j %= n
        rng = np.random.default_rng(seed)
        x = Curve(GRID, base._V[j] + 0.01 * rng.standard_normal(len(GRID)))
        d = base.distances_to(x)
        if per_datum:
            h = 0.5 * d  # t = 2 beyond the support
            h[j] = d[j] / u
        else:
            near, second = np.partition(d, 1)[:2]
            assume(np.argmin(d) == j and near < second)
            h = near + u * (second - near)
        model = DensityModel(base.sample, base.pair, base.distance, bandwidth=h,
                             normalized=False)
        # the uniform profile has k' = 0, so none is live and both are -b
        assert live_rows(model, x) == (0 if kernel == "uniform_epanechnikov" else 1)
        eigen, paper = model.curvature_statistics([x])
        assert abs(paper[0] - eigen[0]) <= 1e-12 * trace_scale(model, x)


@pytest.mark.parametrize("s", [1.0 / 16.0, 4.0, 16.0])
@pytest.mark.parametrize("per_datum", [False, True], ids=["scalar_h", "per_datum_h"])
@pytest.mark.parametrize("kernel", BUILTIN_PAIR_NAMES)
@pytest.mark.parametrize("spec", ["l2", "sobolev_h1_local_poly"])
class TestUnits:
    def test_statistics_scale_as_length_to_the_minus_two(self, spec, kernel,
                                                          per_datum, s):
        # curves and h times a power of two s: every value is exactly s^-2
        # times the unscaled one
        model, queries = smooth_model(6, SPECS[spec], kernel, 12,
                                      per_datum=per_datum)
        xs = list(queries.values())
        scaled = DensityModel(FunctionalSample.from_matrix(GRID, s * model._V),
                              model.pair, model.distance, bandwidth=s * model._h)
        got = scaled.curvature_statistics([Curve(GRID, s * x.values) for x in xs])
        want = model.curvature_statistics(xs)
        assert np.array_equal(got[0] * s**2, want[0])
        assert np.array_equal(got[1] * s**2, want[1])


# -- a resample of a model against a fresh model of the resample ---------------


RESAMPLE_SPECS = {"l2": SPECS["l2"],
                  "sobolev_h1_local_poly": SPECS["sobolev_h1_local_poly"]}


def resample_pair(spec, per_datum, seed=21, n=30):
    """A base model queried nowhere yet, a resample of it and a fresh model
    of the same resampled rows (copied out), plus the resample's indices."""
    rng = np.random.default_rng(seed)
    t = GRID.points
    V = (rng.standard_normal((n, 1)) * np.sin(2 * np.pi * t)
         + rng.standard_normal((n, 1)) * np.cos(np.pi * t)
         + 0.05 * rng.standard_normal((n, len(GRID))))
    sample = FunctionalSample.from_matrix(GRID, V)
    pair = builtin_pair("gaussian_gaussian")
    h = 0.6 * DensityModel(sample, pair, spec, normalized=False).max_pairwise_distance
    if per_datum:
        h = h * rng.uniform(0.7, 1.3, n)
    base = DensityModel(sample, pair, spec, bandwidth=h)
    idx = rng.integers(0, n, size=n)
    fresh = DensityModel(FunctionalSample.from_matrix(GRID, V[idx]), pair, spec,
                         bandwidth=h[idx] if per_datum else h)
    return base, base.resample(idx), fresh, idx


def some_queries(model, seed):
    rng = np.random.default_rng(seed)
    mean = model._V.mean(axis=0)
    return [Curve(GRID, mean + 0.1 * rng.standard_normal(len(GRID))),
            model.sample.curves[0],
            Curve(GRID, mean + 0.3 * rng.standard_normal(len(GRID)))]


def fresh_model(base, idx, per_datum):
    """A model built from scratch on copies of the base's rows ``idx``."""
    h = base._h[idx] if per_datum else float(base._h[0])
    return DensityModel(FunctionalSample.from_matrix(GRID, base._V[idx]),
                        base.pair, base.distance, bandwidth=h)


def assert_same_model(rs, fresh, xs, got):
    """The resample ``rs``, whose statistics at ``xs`` are ``got``, equals
    ``fresh`` to the last bit, its kept terms included."""
    assert np.array_equal(rs.pairwise_distances, fresh.pairwise_distances)
    assert rs.w_K == fresh.w_K and rs.w_G == fresh.w_G
    assert np.array_equal(rs._h, fresh._h) and np.array_equal(rs._F, fresh._F)
    want = fresh.curvature_statistics(xs)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for a, b in zip(rs._memo[1], fresh._memo[1], strict=True):
        assert np.array_equal(a, b)
        assert not a.flags.writeable and a.flags.c_contiguous


def counting(monkeypatch, cls, name):
    """Count the calls of cls.name from here on."""
    real, calls = getattr(cls, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


@pytest.mark.parametrize("per_datum", [False, True], ids=["scalar_h", "per_datum_h"])
@pytest.mark.parametrize("spec", list(RESAMPLE_SPECS))
class TestResample:
    def test_gathered_state_equals_a_fresh_model(self, spec, per_datum):
        _, rs, fresh, idx = resample_pair(RESAMPLE_SPECS[spec], per_datum)
        assert len(set(idx.tolist())) < len(idx)  # repeated rows
        assert np.array_equal(rs.pairwise_distances, fresh.pairwise_distances)
        assert not rs.pairwise_distances.flags.writeable
        assert rs.w_K == fresh.w_K and rs.w_G == fresh.w_G
        assert rs.min_pairwise_distance == fresh.min_pairwise_distance
        assert rs.max_pairwise_distance == fresh.max_pairwise_distance
        assert np.array_equal(rs._h, fresh._h)
        assert np.array_equal(rs._F, fresh._F)

    def test_curvature_statistics_gathered_from_the_base(self, spec, per_datum,
                                                         monkeypatch):
        base, _, fresh, idx = resample_pair(RESAMPLE_SPECS[spec], per_datum)
        xs = some_queries(base, 3)
        base.curvature_statistics(xs)
        rs = base.resample(idx)
        diffs = counting(monkeypatch, DensityModel, "_diff")
        got = rs.curvature_statistics(xs)
        assert diffs == []  # a memo hit: no distance computed
        want = fresh.curvature_statistics(xs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_curvature_statistics_on_another_stack(self, spec, per_datum,
                                                   monkeypatch):
        base, rs, fresh, _ = resample_pair(RESAMPLE_SPECS[spec], per_datum)
        base.curvature_statistics(some_queries(base, 3))
        ys = some_queries(base, 4)
        diffs = counting(monkeypatch, DensityModel, "_diff")
        got = rs.curvature_statistics(ys)
        assert len(diffs) == 1  # a memo miss, computed on the resample
        want = fresh.curvature_statistics(ys)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_mean_shift_vector_and_hessian_form(self, spec, per_datum):
        base, rs, fresh, _ = resample_pair(RESAMPLE_SPECS[spec], per_datum)
        x, y, z = some_queries(base, 5)
        assert np.array_equal(rs.mean_shift_vector(x).values,
                              fresh.mean_shift_vector(x).values)
        base.hessian_form(x, y, z)
        first = rs.hessian_form(x, y, z)
        assert first == fresh.hessian_form(x, y, z)
        # the second call at the same x reads the kept terms
        assert rs.hessian_form(x, y, z) == first == fresh.hessian_form(x, y, z)
        assert rs.hessian_form(x, z, y) == fresh.hessian_form(x, z, y)

    def test_runs_no_init_and_one_subset(self, spec, per_datum, monkeypatch):
        base, _, _, idx = resample_pair(RESAMPLE_SPECS[spec], per_datum)
        inits = counting(monkeypatch, DensityModel, "__init__")
        subsets = counting(monkeypatch, FunctionalSample, "subset")
        rs = base.resample(idx)
        assert inits == [] and len(subsets) == 1
        assert rs.metric is base.metric

    def test_a_chained_resample_carries_the_kept_terms(self, spec, per_datum,
                                                       monkeypatch):
        base, _, _, i1 = resample_pair(RESAMPLE_SPECS[spec], per_datum)
        xs = some_queries(base, 3)
        base.curvature_statistics(xs)
        i2 = np.random.default_rng(6).integers(0, i1.size, size=i1.size - 4)
        rs = base.resample(i1).resample(i2)
        diffs = counting(monkeypatch, DensityModel, "_diff")
        got = rs.curvature_statistics(xs)
        assert diffs == []  # gathered twice, computed never
        assert_same_model(rs, fresh_model(base, i1[i2], per_datum), xs, got)

    def test_a_resample_made_before_the_base_query_computes_once(
            self, spec, per_datum, monkeypatch):
        base, rs, fresh, _ = resample_pair(RESAMPLE_SPECS[spec], per_datum)
        xs = some_queries(base, 3)
        base.curvature_statistics(xs)
        diffs = counting(monkeypatch, DensityModel, "_diff")
        got = rs.curvature_statistics(xs)
        assert len(diffs) == 1  # made with no kept terms to carry
        rs.curvature_statistics(xs)
        assert len(diffs) == 1  # the repeat reads its own kept terms
        assert_same_model(rs, fresh, xs, got)

    @given(idx=st.lists(st.integers(0, 29), min_size=2, max_size=45)
           .filter(lambda v: len(set(v)) < len(v)))  # a repeat: a pair in reach
    @settings(max_examples=25, deadline=None)
    def test_any_gather_with_repeats_equals_a_fresh_model(self, spec, per_datum,
                                                          idx):
        base, _, _, _ = resample_pair(RESAMPLE_SPECS[spec], per_datum)
        xs = some_queries(base, 3)
        base.curvature_statistics(xs)
        rs = base.resample(idx)
        assert_same_model(rs, fresh_model(base, np.array(idx), per_datum), xs,
                          rs.curvature_statistics(xs))

    def test_kept_terms_are_read_only(self, spec, per_datum):
        base, rs, _, _ = resample_pair(RESAMPLE_SPECS[spec], per_datum)
        xs = some_queries(base, 3)
        base.curvature_statistics(xs)
        rs.curvature_statistics(xs)
        for model in (base, rs):
            for a in model._memo[1]:
                assert not a.flags.writeable
                assert a.flags.c_contiguous


class TestResampleNormalizer:
    def test_no_pair_in_reach_raises_the_same_text(self):
        # the base has one close pair (0, 0.01); the resample drops it
        levels = np.array([0.0, 0.01, 5.0, 100.0])
        V = levels[:, None] * np.ones(len(GRID))
        pair = builtin_pair("uniform_epanechnikov")
        base = DensityModel(FunctionalSample.from_matrix(GRID, V), pair,
                            bandwidth=1.0)
        # a repeated row is a pair at distance 0, within reach
        assert base.resample([0, 2, 3, 2]).w_K > 0.0
        with pytest.raises(NormalizerError) as gathered:
            base.resample([0, 2, 3])
        with pytest.raises(NormalizerError) as rebuilt:
            DensityModel(FunctionalSample.from_matrix(GRID, V[[0, 2, 3]]), pair,
                         bandwidth=1.0)
        assert str(gathered.value) == str(rebuilt.value)
        assert "minimum pairwise distance 5)" in str(gathered.value)


# -- a model at other bandwidths against a fresh model at them ------------------


AT_BANDWIDTH_SPECS = {"l2": SPECS["l2"],
                      "derivative_l2_fd": SPECS["derivative_l2_fd"],
                      "sobolev_h1_local_poly": SPECS["sobolev_h1_local_poly"]}


def at_bandwidth_pair(spec, per_datum, normalized, seed=23, n=30):
    """A base model at one bandwidth, queried at three curves, its copy at
    another bandwidth, a fresh model at that bandwidth and the queries."""
    rng = np.random.default_rng(seed)
    t = GRID.points
    V = (rng.standard_normal((n, 1)) * np.sin(2 * np.pi * t)
         + rng.standard_normal((n, 1)) * np.cos(np.pi * t)
         + 0.05 * rng.standard_normal((n, len(GRID))))
    sample = FunctionalSample.from_matrix(GRID, V)
    pair = builtin_pair("gaussian_gaussian")
    base = DensityModel(sample, pair, spec, normalized=normalized)
    h = 0.4 * base.max_pairwise_distance
    if per_datum:
        h = h * rng.uniform(0.7, 1.3, n)
    xs = some_queries(base, 7)
    base.curvature_statistics(xs)
    fresh = DensityModel(sample, pair, spec, bandwidth=h, normalized=normalized)
    return base, base.at_bandwidth(h), fresh, xs


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "bare"])
@pytest.mark.parametrize("per_datum", [False, True], ids=["scalar_h", "per_datum_h"])
@pytest.mark.parametrize("spec", list(AT_BANDWIDTH_SPECS))
class TestAtBandwidth:
    def test_state_equals_a_fresh_model(self, spec, per_datum, normalized):
        _, new, fresh, _ = at_bandwidth_pair(AT_BANDWIDTH_SPECS[spec], per_datum,
                                             normalized)
        assert np.array_equal(new.pairwise_distances, fresh.pairwise_distances)
        assert new.w_K == fresh.w_K and new.w_G == fresh.w_G
        assert (new.w_K != 1.0) == normalized
        assert new.min_pairwise_distance == fresh.min_pairwise_distance
        assert new.max_pairwise_distance == fresh.max_pairwise_distance
        assert np.array_equal(new._h, fresh._h) and np.array_equal(new._F, fresh._F)
        assert np.array_equal(new._h3, fresh._h3)

    def test_queries_equal_a_fresh_model(self, spec, per_datum, normalized):
        _, new, fresh, xs = at_bandwidth_pair(AT_BANDWIDTH_SPECS[spec], per_datum,
                                              normalized)
        for x in xs:
            assert np.array_equal(new.mean_shift_vector(x).values,
                                  fresh.mean_shift_vector(x).values)
        got, want = new.curvature_statistics(xs), fresh.curvature_statistics(xs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_shares_the_geometry_and_keeps_no_terms(self, spec, per_datum,
                                                    normalized, monkeypatch):
        base, _, _, xs = at_bandwidth_pair(AT_BANDWIDTH_SPECS[spec], per_datum,
                                           normalized)
        inits = counting(monkeypatch, DensityModel, "__init__")
        pairwise = counting(monkeypatch, surrogate.Metric, "pairwise")
        new = base.at_bandwidth(base._h * 1.5)
        assert inits == [] and pairwise == []
        assert new.sample is base.sample and new.metric is base.metric
        assert new._F is base._F
        assert new.pairwise_distances is base.pairwise_distances
        assert not new.pairwise_distances.flags.writeable
        assert base._memo is not None and new._memo is None
        diffs = counting(monkeypatch, DensityModel, "_diff")
        new.curvature_statistics(xs)
        assert len(diffs) == 1  # computed at the new bandwidth, not carried over


class TestAtBandwidthErrors:
    def test_no_pair_in_reach_raises_the_same_text(self):
        levels = np.array([0.0, 0.5, 5.0, 100.0])
        sample = FunctionalSample.from_matrix(GRID, levels[:, None] * np.ones(len(GRID)))
        pair = builtin_pair("uniform_epanechnikov")
        base = DensityModel(sample, pair, bandwidth=1.0)
        assert base.w_K > 0.0
        with pytest.raises(NormalizerError) as copied:
            base.at_bandwidth(0.4)
        with pytest.raises(NormalizerError) as rebuilt:
            DensityModel(sample, pair, bandwidth=0.4)
        assert str(copied.value) == str(rebuilt.value)
        assert "minimum pairwise distance 0.5)" in str(copied.value)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.inf, [1.0, 2.0]])
    def test_bad_bandwidths_raise_the_same_text(self, bandwidth):
        sample = FunctionalSample.from_matrix(
            GRID, np.random.default_rng(4).standard_normal((3, len(GRID))))
        pair = builtin_pair("gaussian_gaussian")
        base = DensityModel(sample, pair, normalized=False)
        with pytest.raises(ValueError) as copied:
            base.at_bandwidth(bandwidth)
        with pytest.raises(ValueError) as rebuilt:
            DensityModel(sample, pair, bandwidth=bandwidth, normalized=False)
        assert str(copied.value) == str(rebuilt.value)
