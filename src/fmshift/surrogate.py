"""Surrogate-density estimation on curve samples and its differentials.

The estimated surrogate density built from the shadow profile g is

    p~(x) = w_G(S) * sum_X g(d(X, x) / h(X)),

and mean shift with the linked profile k performs adaptive gradient ascent on
p~. This module evaluates the K-based estimate, the functional gradient of p~,
the mean-shift vector, the second Gateaux differential (a bilinear form) and
two versions of the curvature statistic lambda = sup_{||y||=1} p~^(2)(y, y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .function_space import (
    Curve,
    DistanceSpec,
    FunctionalSample,
    GridMismatchError,
    Metric,
)
# re-exported only so that perfbench/tracing.py can wrap it under this name too
from .function_space import _derivative_matrix  # noqa: F401
from .kernels import KernelPair

__all__ = [
    "BandwidthRule",
    "DensityModel",
    "NormalizerError",
    "OutsideSupportError",
    "SingularEvaluationError",
]


class NormalizerError(ValueError):
    """The pairwise normalizer of the density estimate is zero."""


class OutsideSupportError(ValueError):
    """The query point is outside the support ball of every sample curve."""


class SingularEvaluationError(ValueError):
    """A curvature evaluation hit zero distance with no usable profile limit."""


@dataclass(frozen=True)
class BandwidthRule:
    """Fixed bandwidth, or one positive bandwidth per sample curve.

    Per-datum bandwidths may depend on the sample but never on the query
    point.
    """

    kind: str
    h: float | np.ndarray

    @classmethod
    def fixed(cls, h: float) -> "BandwidthRule":
        if h <= 0:
            raise ValueError("bandwidth must be positive")
        return cls("fixed", float(h))

    @classmethod
    def per_datum(cls, hs) -> "BandwidthRule":
        hs = np.asarray(hs, dtype=float)
        if np.any(hs <= 0):
            raise ValueError("all bandwidths must be positive")
        return cls("per_datum", hs)

    def resolve(self, n: int) -> np.ndarray:
        if self.kind == "fixed":
            return np.full(n, float(self.h))
        hs = np.asarray(self.h, dtype=float)
        if hs.size != n:
            raise ValueError(f"need {n} per-datum bandwidths, got {hs.size}")
        return hs


class DensityModel:
    """Bundles a sample, a kernel pair, a distance and a bandwidth rule.

    Immutable after construction; the pairwise-distance structure of the
    sample is computed once. With ``normalized=True`` the leave-one-out
    pairwise normalizers w_K and w_G of the estimator are applied (this
    requires at least one sample pair within bandwidth reach); with
    ``normalized=False`` the numerator-only estimates are used, which is what
    clustering relies on since the normalizers cancel in the update. A
    single-curve sample has no pairs and always uses unit normalizers.
    """

    def __init__(self, sample: FunctionalSample, pair: KernelPair,
                 distance: DistanceSpec | None = None,
                 bandwidth: BandwidthRule | float = 1.0,
                 normalized: bool = True):
        self.sample = sample
        self.pair = pair
        self.distance = distance or DistanceSpec()
        if not isinstance(bandwidth, BandwidthRule):
            bandwidth = BandwidthRule.fixed(bandwidth)
        self.bandwidth = bandwidth
        self.normalized = bool(normalized)

        self.grid = sample.grid
        self.metric = Metric(self.grid, self.distance)
        self._V = sample.matrix
        self._n = self._V.shape[0]
        self._h = bandwidth.resolve(self._n)
        self._F = self.metric.components(self._V)

        self.pairwise_distances = self.metric.pairwise(self._F, self._F)
        off = ~np.eye(self._n, dtype=bool)
        if self._n > 1:
            self.min_pairwise_distance = float(self.pairwise_distances[off].min())
            self.max_pairwise_distance = float(self.pairwise_distances[off].max())
        else:
            self.min_pairwise_distance = 0.0
            self.max_pairwise_distance = 0.0

        if self.normalized and self._n > 1:
            T = self.pairwise_distances / self._h[:, None]  # datum i uses h(X_i)
            sum_k = float(self.pair.k(T)[off].sum())
            sum_g = float(self.pair.g(T)[off].sum())
            if sum_k <= 0.0 or sum_g <= 0.0:
                raise NormalizerError(
                    "pairwise normalizer is zero: no sample pair within "
                    f"bandwidth reach (minimum pairwise distance "
                    f"{self.min_pairwise_distance:.6g})"
                )
            self.w_K = (self._n - 1) / sum_k
            self.w_G = (self._n - 1) / sum_g
        else:
            self.w_K = 1.0
            self.w_G = 1.0

    # -- geometry helpers ---------------------------------------------------

    def _components(self, x: Curve) -> tuple:
        """Metric components of a query curve, as single-row matrices."""
        if x.grid != self.grid:
            raise GridMismatchError("query curve is not on the sample grid")
        return self.metric.components(x.values[None, :])

    def _norm(self, F: tuple) -> float:
        return float(np.sqrt(max(self.metric.gram(F, F)[0, 0], 0.0)))

    def distances_to(self, x: Curve) -> np.ndarray:
        """d(X_i, x) for every sample curve, under the model's distance."""
        return self.metric.pairwise(self._F, self._components(x))[:, 0]

    def ip_norm(self, v: Curve) -> float:
        """Norm induced by the inner product of the distance spec."""
        return self._norm(self._components(v))

    def _diff(self, x: Curve):
        """Components of the rows X_i - x, and the distances d(X_i, x).

        By linearity the components of X_i - x are F(X_i) - F(x), so a query
        applies the metric operators to x alone.
        """
        xF = self._components(x)
        DF = tuple(f - xf for f, xf in zip(self._F, xF))
        return DF, self.metric.pairwise(self._F, xF)[:, 0]

    # -- density estimates --------------------------------------------------

    def density_k(self, x: Curve, normalized: bool | None = None) -> float:
        """K-based estimate w_K * sum k(d(X, x)/h(X)) (or the bare numerator)."""
        d = self.distances_to(x)
        s = float(self.pair.k(d / self._h).sum())
        use_norm = self.normalized if normalized is None else normalized
        return (self.w_K * s) if use_norm else s

    def density_g(self, x: Curve, normalized: bool | None = None) -> float:
        """Shadow-based estimate p~(x), the functional mean shift ascends."""
        d = self.distances_to(x)
        s = float(self.pair.g(d / self._h).sum())
        use_norm = self.normalized if normalized is None else normalized
        return (self.w_G if use_norm else 1.0) * s

    def p_bar(self, x: Curve) -> float:
        """Unnormalized bandwidth-weighted K estimate sum k(d/h)/h^2."""
        d = self.distances_to(x)
        return float((self.pair.k(d / self._h) / self._h**2).sum())

    # -- first order --------------------------------------------------------

    def gradient(self, x: Curve) -> Curve:
        """Functional gradient of p~ at x, as a curve on the sample grid.

        Exact (Riesz representation of the Gateaux differential) when the
        distance is induced by the model's inner product, i.e. for "l2" and
        "derivative_l2". The "sobolev_h1" sum of norms is not induced by an
        inner product; there this is the same formal expression, and the
        mean-shift update, which touches the metric only through the distances,
        is unaffected.
        """
        d = self.distances_to(x)
        coef = self.pair.C * self.w_G * self.pair.k(d / self._h) / self._h**2
        return Curve(self.grid, coef @ (self._V - x.values))

    def mean_shift_vector(self, x: Curve) -> Curve:
        """m(x): the shift from x to the local K-weighted sample mean."""
        d = self.distances_to(x)
        u = self.pair.k(d / self._h) / self._h**2
        tot = u.sum()
        if tot <= 0.0:
            raise OutsideSupportError(
                "query point is outside every support ball; the trivial root "
                "condition holds there"
            )
        return Curve(self.grid, (u @ self._V) / tot - x.values)

    def step_size(self, x: Curve) -> float:
        """Adaptive step size s(x) with x + m(x) = x + s(x) a*(x)."""
        pb = self.p_bar(x)
        if pb <= 0.0:
            raise OutsideSupportError("step size undefined outside the support")
        return self.ip_norm(self.gradient(x)) / (self.pair.C * self.w_G * pb)

    def ascent_direction(self, x: Curve) -> Curve:
        """Unit-norm steepest ascent direction a*(x)."""
        grad = self.gradient(x)
        nrm = self.ip_norm(grad)
        if nrm <= 0.0:
            raise OutsideSupportError("gradient vanishes; no ascent direction")
        return Curve(self.grid, grad.values / nrm)

    # -- second order -------------------------------------------------------

    def _curvature_limit(self) -> float:
        c0 = self.pair.k.curvature_limit()
        if not np.isfinite(c0):
            raise SingularEvaluationError(
                "zero distance hit and lim k'(t)/t is unavailable for this profile"
            )
        return c0

    def hessian_form(self, x: Curve, y: Curve, z: Curve) -> float:
        """Second Gateaux differential of p~ at x evaluated at (y, z)."""
        DF, d = self._diff(x)
        yF, zF = self._components(y), self._components(z)
        h = self._h
        t = d / h
        kv = self.pair.k(t)
        dk = self.pair.k.deriv(t)
        ip_y = self.metric.gram(DF, yF)[:, 0]
        ip_z = self.metric.gram(DF, zF)[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            pair_coef = np.where(d > 0.0, dk / (h**3 * np.where(d > 0.0, d, 1.0)), 0.0)
        if np.any((d == 0.0) & (dk != 0.0)):
            self._curvature_limit()  # raises if the limit is unavailable
        pair_term = float((pair_coef * ip_y * ip_z).sum())
        ip_yz = float(self.metric.gram(yF, zF)[0, 0])
        dens_term = float((kv / h**2).sum()) * ip_yz
        return -self.pair.C * self.w_G * (pair_term + dens_term)

    def _lambda_terms(self, x: Curve):
        DF, d = self._diff(x)
        h = self._h
        t = d / h
        kv = self.pair.k(t)
        dk = self.pair.k.deriv(t)
        zero = d == 0.0
        if np.any(zero & (dk != 0.0)):
            self._curvature_limit()
        with np.errstate(divide="ignore", invalid="ignore"):
            dk_over_d = np.where(zero, 0.0, dk / np.where(zero, 1.0, d))
        # limit of k'(d/h)/d as d -> 0 is curvature0/h; used only where the
        # accompanying factor does not already vanish
        c0 = None
        if np.any(zero):
            c0 = self._curvature_limit()
        return DF, d, h, kv, dk, dk_over_d, zero, c0

    def lambda_eigen(self, x: Curve) -> float:
        """sup over unit y of the second differential, by eigendecomposition.

        The quadratic form is sum_i w_i <X_i - x, y>^2 - b ||y||^2 with
        w_i >= 0, so the supremum is the largest eigenvalue of the Gram-reduced
        rank-n operator minus b.
        """
        DF, d, h, kv, dk, dk_over_d, zero, _ = self._lambda_terms(x)
        cw = self.pair.C * self.w_G
        b = cw * float((kv / h**2).sum())
        wts = -cw * dk_over_d / h**3  # >= 0 since k' <= 0
        live = wts > 0.0
        if not np.any(live):
            return -b
        Fl = tuple(c[live] for c in DF)
        G = self.metric.gram(Fl, Fl)
        sw = np.sqrt(wts[live])
        B = sw[:, None] * G * sw[None, :]
        lam_max = float(np.linalg.eigvalsh(B)[-1])
        return max(lam_max, 0.0) - b

    def lambda_paper(self, x: Curve) -> float:
        """Closed-form curvature statistic, transcribed from its derivation.

        Kept alongside ``lambda_eigen`` for comparison; the two need not agree
        (see README) and reports carry both.
        """
        DF, d, h, kv, dk, dk_over_d, zero, c0 = self._lambda_terms(x)
        cw = self.pair.C * self.w_G
        vec_coef = dk_over_d / h**3
        vnorm = self._norm(tuple((vec_coef @ c)[None, :] for c in DF))
        # scalar sum: (1/h^2) [ (1/h) k'(d/h) (d + 1/d) + k(d/h) ]; at d = 0
        # the k'd term vanishes and k'/d takes its continuity-extension limit
        with np.errstate(divide="ignore", invalid="ignore"):
            kprime_over_d = np.where(zero,
                                     (c0 / h if c0 is not None else 0.0),
                                     dk / np.where(zero, 1.0, d))
        scalar = float(((dk * d + kprime_over_d) / h**3 + kv / h**2).sum())
        return cw * (2.0 * vnorm - scalar)
