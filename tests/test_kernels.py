"""Shadow-relation checks for builtin and constructed kernel pairs."""

import warnings

import numpy as np
import pytest
from scipy import integrate, special

from fmshift import (
    BUILTIN_PAIR_NAMES,
    KernelPair,
    Profile,
    ShadowRelationError,
    builtin_pair,
    shadow_of,
    validate_pair,
)


class TestBuiltinPairs:
    @pytest.mark.parametrize("name", BUILTIN_PAIR_NAMES)
    def test_validate_passes(self, name):
        v = validate_pair(builtin_pair(name), mesh_size=1000)
        assert v.passed, f"{name}: {v}"
        assert v.shadow_residual < 1e-8

    def test_uniform_epanechnikov_exact(self):
        pair = builtin_pair("uniform_epanechnikov")
        assert pair.C == 2.0
        t = np.linspace(0.0, 1.0, 97)
        assert np.all(pair.k(t) == 1.0)
        assert np.allclose(pair.g(t), 1.0 - t**2)

    def test_epanechnikov_biweight_constants(self):
        pair = builtin_pair("epanechnikov_biweight")
        assert pair.C == pytest.approx(8.0 / 3.0)
        assert pair.k(0.0) == pytest.approx(1.5)

    def test_biweight_triweight_constants(self):
        pair = builtin_pair("biweight_triweight")
        assert pair.C == pytest.approx(16.0 / 5.0)
        assert pair.k(0.0) == pytest.approx(1.875)

    def test_gaussian_constant_analytic(self):
        # C = int_0^1 t e^{-t^2/2} / t dt = sqrt(pi/2) erf(1/sqrt(2))
        pair = builtin_pair("gaussian_gaussian")
        ref = float(np.sqrt(np.pi / 2.0) * special.erf(1.0 / np.sqrt(2.0)))
        assert pair.C == pytest.approx(ref, rel=1e-12)
        num, _ = integrate.quad(lambda t: np.exp(-0.5 * t**2), 0.0, 1.0)
        assert pair.C == pytest.approx(num, rel=1e-9)

    def test_sinc_constant_quadrature(self):
        pair = builtin_pair("sinc_cosine")
        num, _ = integrate.quad(
            lambda t: (np.pi / 2.0) * np.sin(np.pi * t / 2.0) / t, 1e-12, 1.0)
        assert pair.C == pytest.approx(num, rel=1e-6)

    def test_sinc_derivative_at_zero_is_warning_free(self):
        pair = builtin_pair("sinc_cosine")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pair.k.deriv(0.0) == 0.0
            d = pair.k.deriv(np.array([0.0, 1e-9, 0.5, 2.0]))
        assert d[0] == 0.0 and d[3] == 0.0
        assert d[1] < 0.0 and d[2] < 0.0

    def test_compact_support(self):
        for name in BUILTIN_PAIR_NAMES:
            pair = builtin_pair(name)
            t = np.array([1.0001, 2.0, 10.0])
            assert np.all(pair.k(t) == 0.0)
            assert np.all(pair.g(t) == 0.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_pair("tricube_whatever")

    @pytest.mark.parametrize("name", BUILTIN_PAIR_NAMES)
    def test_curvature_limit_matches_numeric(self, name):
        pair = builtin_pair(name)
        c0 = pair.k.curvature_limit()
        t = 1e-4
        assert pair.k.deriv(t) / t == pytest.approx(c0, abs=1e-4)


class TestShadowOf:
    def test_reconstructs_epanechnikov_kernel(self):
        g = Profile("epanechnikov", fn=lambda t: 1.0 - t**2,
                    dfn=lambda t: -2.0 * t)
        pair = shadow_of(g)
        assert pair.C == pytest.approx(2.0, rel=1e-6)
        t = np.linspace(0.0, 1.0, 33)
        assert np.allclose(pair.k(t), 1.0, atol=1e-6)

    def test_reconstructs_biweight_kernel(self):
        g = Profile("biweight", fn=lambda t: (1.0 - t**2) ** 2,
                    dfn=lambda t: -4.0 * t * (1.0 - t**2))
        pair = shadow_of(g)
        # -g'(t)/t = 4(1 - t^2), so C = int = 4 - 4/3 = 8/3
        assert pair.C == pytest.approx(8.0 / 3.0, rel=1e-6)
        t = np.linspace(0.01, 0.99, 50)
        assert np.allclose(pair.k(t), 4.0 * (1.0 - t**2) / (8.0 / 3.0), atol=1e-6)

    def test_gaussian_self_shadow(self):
        g = Profile("gauss", fn=lambda t: np.exp(-0.5 * t**2),
                    dfn=lambda t: -t * np.exp(-0.5 * t**2))
        pair = shadow_of(g)
        ref = float(np.sqrt(np.pi / 2.0) * special.erf(1.0 / np.sqrt(2.0)))
        assert pair.C == pytest.approx(ref, rel=1e-6)
        t = np.linspace(0.0, 1.0, 20)
        assert np.allclose(pair.k(t), np.exp(-0.5 * t**2) / ref, atol=1e-6)

    def test_rejects_non_quadratic_origin(self):
        # g(t) = 1 - t has -g'/t = 1/t, divergent at 0
        g = Profile("cone", fn=lambda t: 1.0 - t, dfn=lambda t: -np.ones_like(t))
        with pytest.raises(ShadowRelationError):
            shadow_of(g)

    def test_rejects_increasing_shadow(self):
        g = Profile("bump", fn=lambda t: 1.0 + t**2 - t**4,
                    dfn=lambda t: 2.0 * t - 4.0 * t**3)
        with pytest.raises(ShadowRelationError):
            shadow_of(g)


class TestValidatePair:
    def test_detects_wrong_constant(self):
        good = builtin_pair("epanechnikov_biweight")
        bad = KernelPair(k=good.k, g=good.g, C=2.0 * good.C)
        v = validate_pair(bad)
        assert not v.shadow_identity_ok
        # residual of |C' k t + g'| with C' = 2C is |C k t| = |g'|, whose max
        # over (0,1) for the biweight shadow is max 4t(1-t^2) = 8/(3 sqrt 3)
        assert v.shadow_residual == pytest.approx(8.0 / (3.0 * np.sqrt(3.0)),
                                                  rel=1e-4)

    def test_detects_increasing_profile(self):
        k = Profile("rising", fn=lambda t: t)
        g = builtin_pair("uniform_epanechnikov").g
        v = validate_pair(KernelPair(k=k, g=g, C=2.0))
        assert not v.nonincreasing
        assert not v.passed

    def test_detects_negative_profile(self):
        k = Profile("negative", fn=lambda t: -np.ones_like(t))
        g = builtin_pair("uniform_epanechnikov").g
        v = validate_pair(KernelPair(k=k, g=g, C=2.0))
        assert not v.nonnegative

    def test_mesh_size_floor(self):
        with pytest.raises(ValueError):
            validate_pair(builtin_pair("gaussian_gaussian"), mesh_size=8)

    def test_dk_sign_check_uses_g(self):
        # every builtin shadow satisfies (g' - t g'') <= 0 on (0, 1), which is
        # equivalent to k' <= 0
        for name in BUILTIN_PAIR_NAMES:
            v = validate_pair(builtin_pair(name))
            assert v.dk_nonpositive


class TestProfile:
    def test_numeric_derivative_fallback(self):
        p = Profile("plain", fn=lambda t: (1.0 - t**2) ** 2)
        t = np.linspace(0.05, 0.95, 19)
        assert np.allclose(p.deriv(t), -4.0 * t * (1.0 - t**2), atol=1e-5)

    def test_scalar_call(self):
        p = builtin_pair("gaussian_gaussian").k
        assert isinstance(p(0.5), float)
        assert p(1.5) == 0.0
