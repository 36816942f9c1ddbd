"""Kernel profiles and the shadow relation linking mean-shift and gradient ascent.

A kernel acts on distances through a profile ``k`` supported on [0, 1]. Mean
shift with profile ``k`` performs gradient ascent on the density estimate built
from the shadow profile ``g``, where the two are linked by

    k(t) = -g'(t) / (C t),        C = integral of -g'(t)/t over (0, 1).

The Gaussian profile is the only one that is its own shadow (up to the scale
fixed by C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "Profile",
    "KernelPair",
    "PairValidation",
    "ShadowRelationError",
    "builtin_pair",
    "shadow_of",
    "validate_pair",
    "BUILTIN_PAIR_NAMES",
]


class ShadowRelationError(ValueError):
    """The proposed shadow profile violates the conditions of the relation."""


def _on_support(t, f):
    """f(t) on the support t <= 1 and zero outside; a float for a scalar t.

    f sees every t outside the support as 0.5 and its value there is thrown
    away, so no boolean gather is needed and f is called only on [0, 1]: a
    profile singular at t = 1 is evaluated at 1 only where t is exactly 1. A
    scalar goes through as a 1-element array, since f may assign by mask.
    """
    t = np.asarray(t, dtype=float)
    s = t.reshape(t.shape or (1,))
    inside = s <= 1.0
    out = np.where(inside, f(np.where(inside, s, 0.5)), 0.0)
    return out if t.ndim else float(out[0])


def _central(f, t, eps):
    """Central difference of f at t, with both nodes clipped to [0, 1]."""
    lo = np.clip(t - eps, 0.0, 1.0)
    hi = np.clip(t + eps, 0.0, 1.0)
    return (f(hi) - f(lo)) / (hi - lo)


@dataclass(frozen=True)
class Profile:
    """A nonnegative, nonincreasing profile with compact support [0, 1].

    ``fn`` evaluates the profile on [0, 1]; outside the support the profile is
    zero. ``dfn``/``d2fn`` are analytic derivatives on (0, 1) when available
    (central differences are used as a fallback). The three are called only
    on [0, 1], so they need not be finite beyond the support.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray] | None = None
    d2fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t):
        return _on_support(t, self.fn)

    def deriv(self, t):
        """First derivative on (0, 1); zero outside the support."""
        if self.dfn is not None:
            return _on_support(t, self.dfn)
        return _on_support(t, partial(_central, self.fn, eps=1e-6))

    def deriv2(self, t):
        if self.d2fn is not None:
            return _on_support(t, self.d2fn)
        return _on_support(t, partial(_central, self.deriv, eps=1e-4))


@dataclass(frozen=True)
class KernelPair:
    """A mean-shift profile k, its shadow g and the linking constant C."""

    k: Profile
    g: Profile
    C: float

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("linking constant C must be positive")


# ---------------------------------------------------------------------------
# Built-in profiles

_GAUSS_C = math.sqrt(math.pi / 2.0) * math.erf(1.0 / math.sqrt(2.0))


def _poly_shadow_deriv2(t, p):
    out = -2.0 * p * (1.0 - t**2) ** (p - 1)
    if p > 1:  # for p = 1 the second term is 0 * (1 - t^2)^(-1), nan at t = 1
        out = out + 4.0 * p * (p - 1) * t**2 * (1.0 - t**2) ** (p - 2)
    return out


def _poly_shadow(name, power):
    # g(t) = (1 - t^2)^power
    return Profile(
        name,
        fn=lambda t, p=power: (1.0 - t**2) ** p,
        dfn=lambda t, p=power: -2.0 * p * t * (1.0 - t**2) ** (p - 1),
        d2fn=partial(_poly_shadow_deriv2, p=power),
    )


def _gaussian_profile(name, scale=1.0):
    return Profile(
        name,
        fn=lambda t, s=scale: s * np.exp(-0.5 * t**2),
        dfn=lambda t, s=scale: -s * t * np.exp(-0.5 * t**2),
        d2fn=lambda t, s=scale: s * (t**2 - 1.0) * np.exp(-0.5 * t**2),
    )


def _sinc_C() -> float:
    from scipy import integrate

    val, _ = integrate.quad(
        lambda t: (np.pi / 2.0) ** 2 * np.sinc(t / 2.0), 0.0, 1.0
    )
    return val


def _sinc_deriv(t: np.ndarray, c: float) -> np.ndarray:
    # the quotient form cancels catastrophically near 0 and is 0/0 at 0, so
    # small t takes the linear term of the series, each form on its own mask
    out = -(np.pi / 2.0) ** 4 / (3.0 * c) * t
    big = t > 1e-8
    tb = t[big]
    out[big] = (np.pi / 2.0) * ((np.pi / 2.0) * tb * np.cos(np.pi * tb / 2.0)
                                - np.sin(np.pi * tb / 2.0)) / (c * tb**2)
    return out


def _make_builtin(name: str) -> KernelPair:
    if name == "uniform_epanechnikov":
        g = _poly_shadow("epanechnikov", 1)
        C = 2.0
        k = Profile("uniform", fn=lambda t: np.ones_like(t),
                    dfn=lambda t: np.zeros_like(t),
                    d2fn=lambda t: np.zeros_like(t))
    elif name == "epanechnikov_biweight":
        g = _poly_shadow("biweight", 2)
        C = 8.0 / 3.0
        k = Profile("epanechnikov", fn=lambda t: 1.5 * (1.0 - t**2),
                    dfn=lambda t: -3.0 * t,
                    d2fn=lambda t: np.full_like(t, -3.0))
    elif name == "biweight_triweight":
        g = _poly_shadow("triweight", 3)
        C = 16.0 / 5.0
        k = Profile("biweight", fn=lambda t: 1.875 * (1.0 - t**2) ** 2,
                    dfn=lambda t: -7.5 * t * (1.0 - t**2),
                    d2fn=lambda t: -7.5 * (1.0 - 3.0 * t**2))
    elif name == "sinc_cosine":
        g = Profile("cosine",
                    fn=lambda t: np.cos(np.pi * t / 2.0),
                    dfn=lambda t: -np.pi / 2.0 * np.sin(np.pi * t / 2.0),
                    d2fn=lambda t: -(np.pi / 2.0) ** 2 * np.cos(np.pi * t / 2.0))
        C = _sinc_C()
        # k(t) = (pi/2) sin(pi t / 2) / (C t), continuously extended at 0
        k = Profile(
            "sinc",
            fn=lambda t, c=C: (np.pi / 2.0) ** 2 * np.sinc(t / 2.0) / c,
            dfn=lambda t, c=C: _sinc_deriv(t, c),
        )
    else:  # "gaussian_gaussian"; builtin_pair rejects every other name
        g = _gaussian_profile("gaussian_shadow")
        C = _GAUSS_C
        k = _gaussian_profile("truncated_gaussian", scale=1.0 / C)
    return KernelPair(k=k, g=g, C=C)


BUILTIN_PAIR_NAMES = (
    "uniform_epanechnikov",
    "epanechnikov_biweight",
    "biweight_triweight",
    "sinc_cosine",
    "gaussian_gaussian",
)


def builtin_pair(name: str) -> KernelPair:
    """Return one of the built-in (k, g, C) triples by name."""
    if name not in BUILTIN_PAIR_NAMES:
        raise ValueError(
            f"unknown builtin kernel pair {name!r}; choose from {BUILTIN_PAIR_NAMES}"
        )
    return _make_builtin(name)


# ---------------------------------------------------------------------------
# Numeric shadow construction


def shadow_of(g: Profile) -> KernelPair:
    """Construct the mean-shift profile whose shadow is ``g``.

    Requires -g'(t)/t to have a finite positive limit at 0 (g locally
    quadratic near the origin) and the resulting profile to be nonincreasing.
    """
    from scipy import integrate

    ts = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    vals = -g.deriv(ts) / ts
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        raise ShadowRelationError(
            f"-g'(t)/t must have a finite positive limit at 0 (got {vals})"
        )
    if vals.max() / vals.min() > 2.0:
        raise ShadowRelationError(
            "-g'(t)/t does not converge as t -> 0+; "
            "g must be locally quadratic near the origin"
        )
    c0 = float(vals[-1])

    def ratio(t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, c0)
        big = t > 1e-7
        if np.any(big):
            out[big] = -g.deriv(t[big]) / t[big]
        return out if out.ndim else float(out)

    C, _ = integrate.quad(lambda t: float(ratio(t)), 0.0, 1.0, limit=200)
    if C <= 0:
        raise ShadowRelationError("the linking constant C must be positive")

    k = Profile(
        name=f"shadow_inverse({g.name})",
        fn=lambda t: ratio(t) / C,
    )
    mesh = np.linspace(1e-4, 1.0, 512)
    kv = k(mesh)
    if np.any(np.diff(kv) > 1e-6 * max(abs(kv).max(), 1.0)):
        raise ShadowRelationError("resulting profile is increasing somewhere on (0, 1)")
    return KernelPair(k=k, g=g, C=C)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class PairValidation:
    """Mesh-based checks of a kernel pair; failures are recorded, not raised."""

    min_k: float
    max_monotonicity_violation: float
    shadow_residual: float
    max_dk_violation: float
    nonnegative: bool
    nonincreasing: bool
    shadow_identity_ok: bool
    dk_nonpositive: bool

    @property
    def passed(self) -> bool:
        return (self.nonnegative and self.nonincreasing
                and self.shadow_identity_ok and self.dk_nonpositive)


def validate_pair(pair: KernelPair, mesh_size: int = 1000,
                  residual_tol: float = 1e-8) -> PairValidation:
    """Check k >= 0, k nonincreasing, the shadow identity and k' <= 0 on a mesh."""
    if mesh_size < 16:
        raise ValueError("mesh_size must be at least 16")
    t = np.linspace(0.0, 1.0, mesh_size + 2)[1:-1]
    kv = pair.k(t)
    gd = pair.g.deriv(t)
    gd2 = pair.g.deriv2(t)

    min_k = float(kv.min())
    mono = float(max(np.diff(kv).max(), 0.0))
    residual = float(np.abs(kv * pair.C * t + gd).max())
    dk = (t * gd2 - gd) / t**2  # k'(t) up to the factor -1/C
    dk_violation = float(max((-dk / pair.C).max(), 0.0))

    gd_scale = max(float(np.abs(gd).max()), 1.0)
    return PairValidation(
        min_k=min_k,
        max_monotonicity_violation=mono,
        shadow_residual=residual,
        max_dk_violation=dk_violation,
        nonnegative=min_k >= -1e-12,
        nonincreasing=mono <= 1e-8 * max(abs(kv).max(), 1.0),
        shadow_identity_ok=residual <= residual_tol * gd_scale,
        dk_nonpositive=dk_violation <= 1e-8,
    )
