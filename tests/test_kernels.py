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
from fmshift import kernels


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

    def test_gaussian_constant_is_the_erf_form_bit_for_bit(self):
        # math.erf gives the constant scipy's erf gave, to the last bit
        ref = float(np.sqrt(np.pi / 2.0) * special.erf(1.0 / np.sqrt(2.0)))
        assert kernels._GAUSS_C == ref
        assert builtin_pair("gaussian_gaussian").C == ref

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
    def test_shadow_second_derivative_is_finite_on_the_support(self, name):
        g = builtin_pair(name).g
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [g.deriv2(t) for t in (0.0, 0.5, 1.0)]
            assert np.array_equal(g.deriv2(np.array([0.0, 0.5, 1.0])), values)
        assert np.all(np.isfinite(values))
        eps = 1e-6
        central = (g.deriv(0.5 + eps) - g.deriv(0.5 - eps)) / (2.0 * eps)
        assert values[1] == pytest.approx(central, rel=1e-6, abs=1e-8)

    def test_epanechnikov_shadow_second_derivative_at_the_edge(self):
        # g(t) = 1 - t^2 has g'' = -2 up to and including t = 1
        assert builtin_pair("uniform_epanechnikov").g.deriv2(1.0) == -2.0


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


class _MaskedReference:
    """Profile's support masking as first written, one copy per method; the
    oracle that the shared masking helpers must reproduce bit for bit."""

    def __init__(self, p):
        self.p = p

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = t <= 1.0
        out = np.zeros(t.shape)
        if np.any(inside):
            out[inside] = self.p.fn(t[inside])
        return out if out.ndim else float(out)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        inside = t <= 1.0
        out = np.zeros(t.shape)
        if np.any(inside):
            ti = t[inside]
            if self.p.dfn is not None:
                out[inside] = self.p.dfn(ti)
            else:
                eps = 1e-6
                lo = np.clip(ti - eps, 0.0, 1.0)
                hi = np.clip(ti + eps, 0.0, 1.0)
                out[inside] = (self.p.fn(hi) - self.p.fn(lo)) / (hi - lo)
        return out if out.ndim else float(out)

    def deriv2(self, t):
        t = np.asarray(t, dtype=float)
        inside = t <= 1.0
        out = np.zeros(t.shape)
        if np.any(inside):
            ti = t[inside]
            if self.p.d2fn is not None:
                out[inside] = self.p.d2fn(ti)
            else:
                eps = 1e-4
                lo = np.clip(ti - eps, 0.0, 1.0)
                hi = np.clip(ti + eps, 0.0, 1.0)
                out[inside] = (self.deriv(hi) - self.deriv(lo)) / (hi - lo)
        return out if out.ndim else float(out)


def _profiles_under_test():
    for name in BUILTIN_PAIR_NAMES:
        pair = builtin_pair(name)
        yield f"{name}.k", pair.k
        yield f"{name}.g", pair.g
    # no analytic derivatives: both derivatives take the central differences
    g = Profile("cosine", fn=lambda t: np.cos(np.pi * t / 2.0))
    yield "shadow_of(cosine).k", shadow_of(g).k
    yield "plain", Profile("plain", fn=lambda t: (1.0 - t**2) ** 2)


class TestProfileMasking:
    POINTS = [0.0, 0.25, 1.0, 1.5,
              np.linspace(0.0, 1.3, 53),  # holds t = 1 and t > 1
              np.array([[0.0, 1e-9, 0.999999], [1.0, 1.0 + 1e-12, 7.0]]),
              np.array([2.0, 3.0]),  # nothing inside the support
              np.inf]  # the diagonal of a model build's normalizer sums

    @pytest.mark.parametrize("label,profile", list(_profiles_under_test()))
    @pytest.mark.parametrize("method", ["__call__", "deriv", "deriv2"])
    def test_bit_identical_to_the_masked_reference(self, label, profile,
                                                   method):
        ref = _MaskedReference(profile)
        for t in self.POINTS:
            # every builtin is finite on its whole support, t = 1 included
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = getattr(profile, method)(t)
                want = getattr(ref, method)(t)
            assert type(got) is type(want), (label, method, t)
            assert np.array_equal(got, want), (label, method, t)

    def test_user_profile_singular_at_one_is_quiet_off_the_boundary(self):
        # k(t) = sqrt(1 - t): both derivatives blow up at t = 1 only, so
        # points off t = 1 must not evaluate them there
        p = Profile("sqrt", fn=lambda t: np.sqrt(1.0 - t),
                    dfn=lambda t: -0.5 / np.sqrt(1.0 - t),
                    d2fn=lambda t: -0.25 / (1.0 - t) ** 1.5)
        ref = _MaskedReference(p)
        points = [0.0, 0.5, 1.5, np.inf,
                  np.linspace(0.0, 0.99, 12), np.linspace(1.01, 3.0, 12),
                  np.array([[0.0, 0.3, np.inf], [2.0, 0.999, 1.0 + 1e-12]])]
        for method in ("__call__", "deriv", "deriv2"):
            for t in points:
                with np.errstate(all="raise"):
                    got = getattr(p, method)(t)
                    want = getattr(ref, method)(t)
                assert type(got) is type(want), (method, t)
                assert np.array_equal(got, want), (method, t)

    def test_methods_stay_in_the_class_body(self):
        # span tracers wrap them through the class dictionary
        assert {"__call__", "deriv", "deriv2"} <= set(vars(Profile))
