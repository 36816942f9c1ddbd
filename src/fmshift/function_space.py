"""Discretized curves on a shared grid: inner products, distances, derivatives.

Curves are represented by their values at the points of a shared ``Grid``.
All integrals are approximated with the trapezoid rule on that grid, which is
exact for the piecewise-linear interpolant of the sampled values and requires
no resampling. Grids may be non-uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "Curve",
    "FunctionalSample",
    "DerivativeMethod",
    "DistanceSpec",
    "GridMismatchError",
    "inner_product",
    "distance",
    "norm",
    "Metric",
    "estimate_derivative",
    "linear_combination",
]


class GridMismatchError(ValueError):
    """Raised when two curves do not share the same grid."""


@dataclass(frozen=True)
class Grid:
    """Ordered abscissae shared by a set of curves.

    Points must be strictly increasing and there must be at least two of them.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    def __len__(self):
        return self.points.size

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return self.points.shape == other.points.shape and np.array_equal(
            self.points, other.points
        )

    def __hash__(self):
        return hash((self.points.size, float(self.points[0]), float(self.points[-1])))

    @property
    def quad_weights(self) -> np.ndarray:
        """Trapezoid-rule weights; ``w @ f`` approximates the integral of f."""
        d = np.diff(self.points)
        w = np.zeros(self.points.size)
        w[:-1] += d / 2.0
        w[1:] += d / 2.0
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class Curve:
    """One curve: a finite vector of values on a shared grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != len(self.grid):
            raise ValueError(
                f"curve has {vals.size} values for a grid of length {len(self.grid)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    def __add__(self, other: "Curve") -> "Curve":
        _check_same_grid(self, other)
        return Curve(self.grid, self.values + other.values)

    def __sub__(self, other: "Curve") -> "Curve":
        _check_same_grid(self, other)
        return Curve(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Curve":
        return Curve(self.grid, self.values * float(c))

    __rmul__ = __mul__


@dataclass(frozen=True)
class FunctionalSample:
    """A set of curves observed on one common grid, with optional labels."""

    grid: Grid
    curves: tuple
    labels: tuple | None = None

    def __post_init__(self):
        curves = tuple(self.curves)
        if len(curves) < 1:
            raise ValueError("sample needs at least one curve")
        for c in curves:
            if c.grid != self.grid:
                raise GridMismatchError("all curves must share the sample grid")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != len(curves):
                raise ValueError("one label per curve required")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "curves", curves)

    def __len__(self):
        return len(self.curves)

    @property
    def matrix(self) -> np.ndarray:
        """Stacked values, one row per curve."""
        return np.array([c.values for c in self.curves])

    @classmethod
    def from_matrix(cls, grid: Grid, values: np.ndarray, labels=None) -> "FunctionalSample":
        values = np.asarray(values, dtype=float)
        return cls(grid, tuple(Curve(grid, row) for row in values), labels)

    def subset(self, indices: Sequence[int]) -> "FunctionalSample":
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[i] for i in indices)
        return FunctionalSample(self.grid, tuple(self.curves[i] for i in indices), labels)


@dataclass(frozen=True)
class DerivativeMethod:
    """How to estimate curve derivatives.

    kind "finite_difference": central differences, one-sided at the ends.
    kind "local_poly": moving-window weighted least-squares polynomial fit of
    the given degree with a Gaussian weight of scale ``bandwidth`` (in domain
    units); the derivative is read off the fitted coefficients.
    """

    kind: str = "finite_difference"
    degree: int = 2
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("finite_difference", "local_poly"):
            raise ValueError(f"unknown derivative method {self.kind!r}")
        if self.kind == "local_poly":
            if self.bandwidth is None or self.bandwidth <= 0:
                raise ValueError("local_poly requires a positive smoothing bandwidth")
            if self.degree < 1:
                raise ValueError("local_poly degree must be >= 1")


@dataclass(frozen=True)
class DistanceSpec:
    """Choice of distance (and associated inner product) between curves.

    kind "l2": the usual L2 norm of the difference.
    kind "derivative_l2": L2 norm of the difference of order-m derivatives
    (a semi-distance; insensitive to vertical shifts for m >= 1).
    kind "sobolev_h1": the sum ||x-y||_L2 + ||x'-y'||_L2. Note this sum is
    *not* the norm induced by the H1 inner product; ``inner_product`` with
    this spec returns the H1 inner product and both are exposed deliberately.
    """

    kind: str = "l2"
    order: int = 1
    derivative_method: DerivativeMethod = field(default_factory=DerivativeMethod)

    def __post_init__(self):
        if self.kind not in ("l2", "sobolev_h1", "derivative_l2"):
            raise ValueError(f"unknown distance kind {self.kind!r}")
        if self.kind == "derivative_l2" and self.order not in (1, 2):
            raise ValueError("derivative_l2 supports orders 1 and 2")


def _check_same_grid(a: Curve, b: Curve):
    if a.grid != b.grid:
        raise GridMismatchError("curves are on different grids")


# ---------------------------------------------------------------------------
# Derivative estimation


def estimate_derivative(c: Curve, order: int, method: DerivativeMethod | None = None) -> Curve:
    """Estimate the derivative of a curve on its own grid.

    order must be 1 or 2. With "local_poly", the polynomial degree must be at
    least the requested order.
    """
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    method = method or DerivativeMethod()
    return Curve(c.grid, _derivative_matrix(c.values, c.grid.points, order, method))


def _local_poly_operator(points, order, degree, bandwidth) -> np.ndarray:
    """L x L matrix D such that ``v @ D`` is the local-polynomial derivative of v.

    At each point the weighted least-squares fit of v is ``pinv(A) @ (sw * v)``
    for the weighted design A, a linear smoother, so the order-m coefficient
    row of ``pinv(A)`` scaled by the weights is one column of D.
    """
    if degree < order:
        raise ValueError("local_poly degree must be >= derivative order")
    n = points.size
    if n < degree + 1:
        raise ValueError("grid too short for the requested polynomial degree")
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


def _derivative_matrix(values: np.ndarray, points: np.ndarray, order: int,
                       method: DerivativeMethod) -> np.ndarray:
    """Derivatives of each row of a value matrix (or of one value vector)."""
    if method.kind == "finite_difference":
        if points.size < order + 1:
            raise ValueError("grid too short for finite differences")
        out = values
        for _ in range(order):
            out = np.gradient(out, points, axis=-1)
        return out
    return values @ _local_poly_operator(points, order, method.degree, method.bandwidth)


# ---------------------------------------------------------------------------
# Inner products and distances


def _pairwise_component_l2(A: np.ndarray, B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted L2 distances between rows of A and rows of B."""
    G = (A * w) @ B.T
    na = np.einsum("ij,ij->i", A * w, A)
    nb = np.einsum("ij,ij->i", B * w, B)
    d2 = na[:, None] + nb[None, :] - 2.0 * G
    return np.sqrt(np.clip(d2, 0.0, None))


class Metric:
    """The inner product and distance of one (grid, DistanceSpec), built once.

    Each spec is a sum over linear components of the curve values: "l2" uses
    the values, "derivative_l2" the order-m derivatives, "sobolev_h1" the
    values and the first derivatives. A derivative is a fixed L x L operator
    D applied as ``V @ D`` (both derivative methods are linear), so the
    derivative rows of a difference are the differences of derivative rows.
    The inner product is the sum of the component trapezoid inner products;
    the distance is the sum of the component L2 norms of the difference.
    """

    def __init__(self, grid: Grid, spec: DistanceSpec | None = None):
        spec = spec or DistanceSpec()
        self.w = grid.quad_weights
        if spec.kind == "l2":
            self.operators = (None,)  # None: the identity, applied without a matmul
        else:
            order = 1 if spec.kind == "sobolev_h1" else spec.order
            D = _derivative_matrix(np.eye(len(grid)), grid.points, order,
                                   spec.derivative_method)
            self.operators = (None, D) if spec.kind == "sobolev_h1" else (D,)

    def components(self, V: np.ndarray) -> tuple:
        """The component rows of a value matrix (or of one value vector)."""
        return tuple(V if D is None else V @ D for D in self.operators)

    def gram(self, FA: tuple, FB: tuple) -> np.ndarray:
        """Inner products between the rows of two component tuples (a scalar
        for the components of two value vectors)."""
        return sum((a * self.w) @ b.T for a, b in zip(FA, FB))

    def pairwise(self, FA: tuple, FB: tuple) -> np.ndarray:
        """Distances between the rows of two component tuples, in Gram form.

        The Gram form loses about sqrt(eps) of accuracy near zero distance;
        ``distance`` keeps the difference form for a single pair.
        """
        return sum(_pairwise_component_l2(a, b, self.w) for a, b in zip(FA, FB))

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two value vectors, from their difference."""
        return float(sum(np.sqrt(max(np.dot(c * self.w, c), 0.0))
                         for c in self.components(a - b)))


def inner_product(a: Curve, b: Curve, spec: DistanceSpec | None = None) -> float:
    """Trapezoid-rule inner product of two curves under the given spec.

    For "sobolev_h1" this is <a,b>_L2 + <a',b'>_L2; for "derivative_l2" it is
    the L2 inner product of the order-m derivatives.
    """
    _check_same_grid(a, b)
    m = Metric(a.grid, spec)
    return float(m.gram(m.components(a.values), m.components(b.values)))


def norm(a: Curve, spec: DistanceSpec | None = None) -> float:
    """Norm associated with ``distance``: ||a|| = distance(a, 0)."""
    zero = Curve(a.grid, np.zeros(len(a.grid)))
    return distance(a, zero, spec)


def distance(a: Curve, b: Curve, spec: DistanceSpec | None = None) -> float:
    """Distance between two curves on the same grid.

    "l2" and "derivative_l2" are the norms induced by ``inner_product``.
    "sobolev_h1" is the sum ||a-b||_L2 + ||a'-b'||_L2 (a sum of norms, not the
    norm induced by the H1 inner product).
    """
    _check_same_grid(a, b)
    return Metric(a.grid, spec).distance(a.values, b.values)


def linear_combination(coeffs: Sequence[float], curves: Sequence[Curve]) -> Curve:
    """Pointwise weighted sum of curves on a shared grid."""
    if len(coeffs) != len(curves):
        raise ValueError("need one coefficient per curve")
    if not curves:
        raise ValueError("need at least one curve")
    grid = curves[0].grid
    for c in curves[1:]:
        if c.grid != grid:
            raise GridMismatchError("curves are on different grids")
    vals = np.zeros(len(grid))
    for c, curve in zip(coeffs, curves):
        vals += float(c) * curve.values
    return Curve(grid, vals)
