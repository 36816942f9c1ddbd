"""Surrogate-density estimation on curve samples and its differentials.

The estimated surrogate density built from the shadow profile g is

    p~(x) = w_G(S) * sum_X g(d(X, x) / h(X)),

and mean shift with the linked profile k performs adaptive gradient ascent on
p~. This module evaluates the K-based estimate, the functional gradient of p~,
the mean-shift vector, the second Gateaux differential (a bilinear form), the
curvature statistic lambda = sup_{||y||=1} p~^(2)(y, y) (``lambda_eigen``) and
its closed-form upper bound, the trace of the same form (``lambda_paper``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

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
    "DensityModel",
    "NormalizerError",
    "OutsideSupportError",
]


class NormalizerError(ValueError):
    """The pairwise normalizer of the density estimate is zero."""


class OutsideSupportError(ValueError):
    """The query point is outside the support ball of every sample curve."""


def _bandwidths(bandwidth, n: int) -> np.ndarray:
    """The n per-datum bandwidths of one number or of a sequence of n."""
    h = np.array(bandwidth, dtype=float)
    if h.ndim and h.shape != (n,):
        raise ValueError(f"need {n} per-datum bandwidths, got shape {h.shape}")
    if not np.all(np.isfinite(h)) or np.any(h <= 0):
        raise ValueError("bandwidth must be positive and finite")
    return h if h.ndim else np.full(n, float(h))


def _top_eigenvalue(G: np.ndarray) -> float:
    """The largest eigenvalue alone of the exactly symmetric matrix G, which
    is overwritten (G^T is G in Fortran order), by LAPACK ``dsyevr``.

    Scipy is imported here, on first use, so that only the curvature
    statistics load it."""
    from scipy.linalg.lapack import dsyevr

    m = G.shape[0]
    w, *_, info = dsyevr(G.T, compute_v=0, range="I", il=m, iu=m, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"top eigenvalue of a {m} x {m} curvature form: dsyevr info={info}")
    return float(w[0])


class DensityModel:
    """Bundles a sample, a kernel pair, a distance and a bandwidth: one
    number, or one per sample curve (never depending on the query point).

    Immutable after construction; the pairwise-distance matrix of the sample
    is computed once, its extremes on first use. With ``normalized=True`` the
    leave-one-out pairwise normalizers w_K and w_G of the estimator are
    applied (this requires at least one sample pair within bandwidth reach);
    with ``normalized=False`` the numerator-only estimates are used, which is
    what clustering relies on since the normalizers cancel in the update. A
    single-curve sample has no pairs and always uses unit normalizers.

    The curvature terms of the last query stack (``hessian_form``,
    ``curvature_statistics``) are kept, read-only, so a repeat query at the
    same points computes none again. ``resample(idx)`` builds the model of a
    resample of the sample by gathering rows of this one, the kept terms
    included, and ``at_bandwidth(h)`` the model of the same sample at other
    bandwidths, sharing its geometry; each equals a fresh model to the last
    bit.
    """

    def __init__(self, sample: FunctionalSample, pair: KernelPair,
                 distance: DistanceSpec | None = None,
                 bandwidth: float | Sequence[float] = 1.0,
                 normalized: bool = True):
        self.pair = pair
        self.distance = distance or DistanceSpec()
        self.normalized = bool(normalized)
        self.grid = sample.grid
        self.metric = Metric(self.grid, self.distance)
        F = self.metric.components(sample.matrix)
        self._set(sample, F, _bandwidths(bandwidth, len(sample)),
                  self.metric.pairwise(F), None)

    def resample(self, idx) -> "DensityModel":
        """The model of ``self.sample.subset(idx)`` at the same bandwidths
        (one per row, gathered with it) and normalization, equal to a fresh
        model of that sample to the last bit.

        Nothing is recomputed that this model already holds: the component
        rows, the bandwidths, the pairwise distances and the curvature terms
        this model keeps, if any yet (see the class docstring), are gathered
        by row as the resample is built. ``at_bandwidth`` is the same kind of
        copy along the other axis: same sample, other bandwidths.
        """
        idx = np.asarray(idx, dtype=np.intp)
        new = self._sibling()
        sample = self.sample.subset(idx)
        F = sample.matrix if self._F is self._V else self._F[idx]
        memo = None if self._memo is None else (
            self._memo[0], tuple(np.take(a, idx, axis=1) for a in self._memo[1]))
        new._set(sample, F, self._h[idx], self.pairwise_distances[np.ix_(idx, idx)],
                 memo)
        return new

    def at_bandwidth(self, bandwidth: float | Sequence[float]) -> "DensityModel":
        """The model of the same sample at ``bandwidth`` (one number, or one
        per sample curve) and the same normalization, equal to a fresh model
        ``DensityModel(sample, pair, distance, bandwidth, normalized)`` to the
        last bit.

        The sample, the metric, the component rows and the read-only pairwise
        distances do not depend on the bandwidth and are shared, not
        recomputed; the curvature terms do, so none are kept. The normalizers
        are set as ``__init__`` sets them, with the same ``NormalizerError``.
        """
        new = self._sibling()
        new._set(self.sample, self._F, _bandwidths(bandwidth, self._n),
                 self.pairwise_distances, None)
        return new

    def _sibling(self) -> "DensityModel":
        """A model without state that shares this one's pair, distance, grid,
        normalization and metric, for ``_set`` to fill."""
        new = object.__new__(DensityModel)
        new.pair, new.distance, new.grid = self.pair, self.distance, self.grid
        new.normalized, new.metric = self.normalized, self.metric
        return new

    def _set(self, sample: FunctionalSample, F: np.ndarray, h: np.ndarray,
             D: np.ndarray, memo):
        """The one state setter of ``__init__``, ``resample`` and
        ``at_bandwidth``: the sample, its component rows F and n bandwidths h,
        its pairwise distances D and kept curvature terms ``memo`` (stack,
        terms) or None, D and the terms read-only from here; then the
        normalizers w_K and w_G from D."""
        self.sample, self._V, self._n, self._F = sample, sample.matrix, len(sample), F
        self._h, self._h2, self._h3 = h, h**2, h**3
        self.pairwise_distances, self._memo = D, memo
        for a in (D, *(() if memo is None else memo[1])):
            a.setflags(write=False)
        self.w_K = self.w_G = 1.0
        if self.normalized and self._n > 1:
            T = D / self._h[:, None]  # datum i uses h(X_i)
            np.fill_diagonal(T, np.inf)  # pairs i != j only
            near = T[T <= 1.0]  # the profiles vanish beyond their support
            sum_k = float(self.pair.k(near).sum())
            sum_g = float(self.pair.g(near).sum())
            if sum_k <= 0.0 or sum_g <= 0.0:
                raise NormalizerError(
                    "pairwise normalizer is zero: no sample pair within "
                    f"bandwidth reach (minimum pairwise distance "
                    f"{self.min_pairwise_distance:.6g})"
                )
            self.w_K, self.w_G = (self._n - 1) / sum_k, (self._n - 1) / sum_g

    @cached_property
    def min_pairwise_distance(self) -> float:
        """The smallest distance between two sample curves i != j; 0 for a
        single curve."""
        off = ~np.eye(self._n, dtype=bool)
        return float(self.pairwise_distances[off].min()) if self._n > 1 else 0.0

    @cached_property
    def max_pairwise_distance(self) -> float:
        """The largest distance between two sample curves."""
        return float(self.pairwise_distances.max())

    # -- geometry helpers ---------------------------------------------------

    def _components(self, x: Curve) -> np.ndarray:
        """Metric component row of a query curve."""
        if x.grid != self.grid:
            raise GridMismatchError("query curve is not on the sample grid")
        return self.metric.components(x.values)

    def distances_to(self, x: Curve) -> np.ndarray:
        """d(X_i, x) for every sample curve, under the model's distance."""
        return self.metric.norms(self._F - self._components(x))

    def ip_norm(self, v: Curve) -> float:
        """Norm induced by the inner product of the distance spec."""
        F = self._components(v)
        return float(np.sqrt(max(self.metric.gram(F, F), 0.0)))

    def _diff(self, XF: np.ndarray):
        """Components of the rows X_i - x, and the distances d(X_i, x) they
        give, for the component row XF of a query x (n x P and n), or for
        each row of a stack of them (r x n x P and r x n).

        By linearity the components of X_i - x are F(X_i) - F(x), so a query
        applies the metric operators to x alone. The distances come from these
        differences, not from the Gram form, so a sample curve is at distance
        exactly 0 from itself.
        """
        DF = self._F - XF[..., None, :]
        return DF, self.metric.norms(DF)

    # -- density estimates --------------------------------------------------

    def _ms_weights(self, d: np.ndarray) -> np.ndarray:
        """Mean-shift weights k(d/h)/h^2 of the distances d = d(X_i, x) to
        one query."""
        return self.pair.k(d / self._h) / self._h2

    def _profile_sum(self, profile, x: Curve, w: float) -> float:
        """w * sum profile(d(X, x)/h(X)); w is 1 when not normalized."""
        return w * float(profile(self.distances_to(x) / self._h).sum())

    def density_k(self, x: Curve) -> float:
        """K-based estimate w_K * sum k(d(X, x)/h(X)) (or the bare numerator)."""
        return self._profile_sum(self.pair.k, x, self.w_K)

    def density_g(self, x: Curve) -> float:
        """Shadow-based estimate p~(x), the functional mean shift ascends."""
        return self._profile_sum(self.pair.g, x, self.w_G)

    def p_bar(self, x: Curve) -> float:
        """Unnormalized bandwidth-weighted K estimate sum k(d/h)/h^2."""
        return float(self._ms_weights(self.distances_to(x)).sum())

    # -- first order --------------------------------------------------------

    def gradient(self, x: Curve) -> Curve:
        """Functional gradient of p~ at x, as a curve on the sample grid.

        The Riesz representation of the Gateaux differential in the model's
        inner product, which induces the distance for every kind.
        """
        coef = self.pair.C * self.w_G * self._ms_weights(self.distances_to(x))
        return Curve(self.grid, coef @ (self._V - x.values))

    def mean_shift_vector(self, x: Curve) -> Curve:
        """m(x): the shift from x to the local K-weighted sample mean."""
        u = self._ms_weights(self.distances_to(x))
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

    def _curvature_terms(self, XF: np.ndarray) -> tuple:
        """DF, d, k(d/h), k'(d/h) and k'(d/h)/d for the rows X_i - x of each
        query x, given the r x P stack XF of the queries' component rows: DF
        is r x n x P, the others r x n; all read-only.

        k'(d/h)/d is set to 0 where d = 0: there the row X_i - x is 0, so it
        adds nothing to the second differential through that term.

        The terms of the last stack are kept, and a repeat of it returns them.
        A resample starts with its base's, gathered by ``np.take`` into C
        order, the layout of fresh terms, so products of them round the same.
        """
        memo = self._memo
        if memo is not None and np.array_equal(memo[0], XF):
            return memo[1]
        DF, d = self._diff(XF)
        t = d / self._h
        kv = self.pair.k(t)
        dk = self.pair.k.deriv(t)
        dk_over_d = np.divide(dk, d, out=np.zeros_like(d), where=d != 0.0)
        terms = DF, d, kv, dk, dk_over_d
        for a in terms:
            a.setflags(write=False)
        self._memo = XF, terms
        return terms

    def hessian_form(self, x: Curve, y: Curve, z: Curve) -> float:
        """Second Gateaux differential of p~ at x evaluated at (y, z)."""
        DF, _, kv, _, dk_over_d = (a[0] for a in
                                   self._curvature_terms(self._components(x)[None]))
        yF, zF = self._components(y), self._components(z)
        ip_y = self.metric.gram(DF, yF)
        ip_z = self.metric.gram(DF, zF)
        pair_term = float((dk_over_d / self._h3 * ip_y * ip_z).sum())
        ip_yz = float(self.metric.gram(yF, zF))
        dens_term = float((kv / self._h2).sum()) * ip_yz
        return -self.pair.C * self.w_G * (pair_term + dens_term)

    def curvature_statistics(self, xs) -> tuple:
        """``lambda_eigen`` and ``lambda_paper`` at each query curve of
        ``xs``, as two arrays, from one stacked set of curvature terms.

        The second differential at x is sum_i w_i <X_i - x, y>^2 - b ||y||^2
        with w_i >= 0. Its supremum over unit y, ``lambda_eigen``, is the top
        eigenvalue of the operator sum_i w_i <X_i - x, .> (X_i - x) minus b;
        only the live rows (w_i > 0) enter. With A the live component rows
        scaled by sqrt(w_i) and by the square roots of the metric weights,
        that eigenvalue is the top one of the live-rows Gram form A A^T,
        taken alone by one LAPACK ``dsyevr`` solve per query (a failed solve
        raises ``np.linalg.LinAlgError``): a query's values do not depend on
        the others in the batch.

        ``lambda_paper`` is the trace bound T = sum_i w_i ||X_i - x||^2 - b
        = -C w_G sum_i [k'(d_i/h_i) d_i/h_i^3 + k(d_i/h_i)/h_i^2], the trace
        of the operator minus b: a closed form in d, k and k', of the same
        unit (length^-2) as ``lambda_eigen`` and at least it (the top
        eigenvalue of a positive semidefinite operator is at most its trace),
        with equality when exactly one row is live. A row at d = 0 adds its
        term of b alone, so no profile limit at t = 0 is needed.
        """
        XF = np.array([self._components(x) for x in xs])
        DF, d, kv, dk, dk_over_d = self._curvature_terms(XF)
        cw = self.pair.C * self.w_G
        b = cw * (kv / self._h2).sum(axis=-1)
        wts = -cw * dk_over_d / self._h3  # >= 0 since k' <= 0
        lam_eigen = -b
        for c, live in enumerate(wts > 0.0):
            if not np.any(live):
                continue
            A = DF[c, live]  # a gathered copy, scaled in place
            A *= np.sqrt(wts[c, live])[:, None]
            A *= self.metric.root_w
            lam_eigen[c] = max(_top_eigenvalue(A @ A.T), 0.0) - b[c]
        return lam_eigen, -cw * (dk * d / self._h3).sum(axis=-1) - b

    def lambda_eigen(self, x: Curve) -> float:
        """sup over unit y of the second differential at x; see
        ``curvature_statistics``."""
        return float(self.curvature_statistics([x])[0][0])

    def lambda_paper(self, x: Curve) -> float:
        """The trace bound on ``lambda_eigen`` at x; see
        ``curvature_statistics``."""
        return float(self.curvature_statistics([x])[1][0])
