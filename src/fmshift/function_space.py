"""Discretized curves on a shared grid: inner products, distances, derivatives.

Curves are represented by their values at the points of a shared ``Grid``.
All integrals are approximated with the trapezoid rule on that grid, which is
exact for the piecewise-linear interpolant of the sampled values and requires
no resampling. Grids may be non-uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
        if self is other:
            return True
        if not isinstance(other, Grid):
            return NotImplemented
        return self.points.shape == other.points.shape and np.array_equal(
            self.points, other.points
        )

    def __hash__(self):
        return hash((self.points.size, float(self.points[0]), float(self.points[-1])))

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Trapezoid-rule weights; ``w @ f`` approximates the integral of f."""
        d = np.diff(self.points)
        w = np.zeros(self.points.size)
        w[:-1] += d / 2.0
        w[1:] += d / 2.0
        w.setflags(write=False)
        return w

    @cached_property
    def _derivative_operators(self) -> dict:
        """Derivative operators of this grid, keyed by (order, method)."""
        return {}


@dataclass(frozen=True)
class Curve:
    """One curve: a finite vector of values on a shared grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        n = self.grid.points.size
        if vals.ndim != 1 or vals.size != n:
            raise ValueError(f"curve has {vals.size} values for a grid of length {n}")
        if not np.isfinite(vals).all():
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


@dataclass(frozen=True, init=False)
class FunctionalSample:
    """A set of curves observed on one common grid, with optional labels.

    The values are one read-only n x L ``matrix``, validated once when the
    sample is built; ``subset`` gathers its rows without checking them again.
    """

    grid: Grid
    matrix: np.ndarray
    labels: tuple | None

    def __init__(self, grid: Grid, curves: Sequence[Curve], labels=None):
        curves = tuple(curves)
        for c in curves:
            if c.grid != grid:
                raise GridMismatchError("all curves must share the sample grid")
        values = np.array([c.values for c in curves]).reshape(len(curves), len(grid))
        self._set(grid, values, labels)
        self.__dict__["curves"] = curves

    def _set(self, grid: Grid, values: np.ndarray, labels) -> "FunctionalSample":
        """Take over a finite n x L matrix of values."""
        if values.shape[0] < 1:
            raise ValueError("sample needs at least one curve")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != values.shape[0]:
                raise ValueError("one label per curve required")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "matrix", values)
        object.__setattr__(self, "labels", labels)
        return self

    def __len__(self):
        return self.matrix.shape[0]

    @cached_property
    def curves(self) -> tuple:
        """One read-only curve per row of ``matrix``, unless the sample was
        built from curves."""
        return tuple(Curve(self.grid, row) for row in self.matrix)

    @classmethod
    def from_matrix(cls, grid: Grid, values: np.ndarray, labels=None) -> "FunctionalSample":
        """A sample of the rows of a copy of the n x L array ``values``."""
        values = np.array(values, dtype=float, order="C")
        if values.ndim != 2 or values.shape[1] != len(grid):
            raise ValueError(f"sample matrix must have shape (n, {len(grid)}) "
                             f"for the grid, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        return object.__new__(cls)._set(grid, values, labels)

    def subset(self, indices: Sequence[int]) -> "FunctionalSample":
        """The sample of the given rows, in the given order, repeats allowed."""
        idx = np.asarray(indices, dtype=np.intp)
        labels = None if self.labels is None else tuple(self.labels[i] for i in idx)
        return object.__new__(FunctionalSample)._set(self.grid, self.matrix[idx], labels)


@dataclass(frozen=True)
class DerivativeMethod:
    """How to estimate curve derivatives.

    kind "finite_difference": central differences, one-sided at the ends; it
    takes the default ``degree`` 2 and no ``bandwidth``.
    kind "local_poly": moving-window weighted least-squares polynomial fit of
    the given degree with a Gaussian weight of scale ``bandwidth`` (domain
    units, local_poly only); the derivative is read off the fitted coefficients.
    """

    kind: str = "finite_difference"
    degree: int = 2
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("finite_difference", "local_poly"):
            raise ValueError(f"unknown derivative method {self.kind!r}")
        if self.kind == "finite_difference" and self.bandwidth is not None:
            raise ValueError(f"smoothing bandwidth {self.bandwidth!r} does not apply "
                             "to finite_difference; only local_poly takes one")
        if self.kind == "finite_difference" and self.degree != 2:
            raise ValueError(f"degree {self.degree!r} does not apply to "
                             "finite_difference; only local_poly takes one")
        if self.kind == "local_poly":
            h = self.bandwidth
            if h is None or not np.isfinite(h) or h <= 0:
                raise ValueError("local_poly requires a positive finite smoothing bandwidth")
            if self.degree < 1:
                raise ValueError("local_poly degree must be >= 1")


@dataclass(frozen=True)
class DistanceSpec:
    """Choice of distance (and associated inner product) between curves.

    Every kind is the norm of the difference induced by its ``inner_product``.
    kind "l2": the usual L2 norm of the difference.
    kind "derivative_l2": L2 norm of the difference of order-m derivatives
    (a semi-distance; insensitive to vertical shifts for m >= 1).
    kind "sobolev_h1": the H1 norm sqrt(||x-y||_L2^2 + ||x'-y'||_L2^2).
    ``order`` applies to "derivative_l2" only; the other kinds take 1. "l2"
    takes only the default ``derivative_method``, ``DerivativeMethod()``.
    """

    kind: str = "l2"
    order: int = 1
    derivative_method: DerivativeMethod = field(default_factory=DerivativeMethod)

    def __post_init__(self):
        if self.kind not in ("l2", "sobolev_h1", "derivative_l2"):
            raise ValueError(f"unknown distance kind {self.kind!r}")
        if self.kind == "derivative_l2" and self.order not in (1, 2):
            raise ValueError("derivative_l2 supports orders 1 and 2")
        if self.kind != "derivative_l2" and self.order != 1:
            raise ValueError(f"order {self.order} does not apply to {self.kind}; "
                             "only derivative_l2 takes an order")
        if self.kind == "l2" and self.derivative_method != DerivativeMethod():
            raise ValueError(f"derivative method {self.derivative_method} does not "
                             "apply to l2; only derivative_l2 and sobolev_h1 take one")


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
    return Curve(c.grid, _derivative_matrix(c.values, c.grid, order, method))


def _build_local_poly_operator(points, order, degree, bandwidth) -> np.ndarray:
    """L x L matrix D such that ``v @ D`` is the local-polynomial derivative of v.

    At each point the weighted least-squares fit of v is ``pinv(A) @ (sw * v)``
    for the weighted design A, a linear smoother, so the order-m coefficient
    row of ``pinv(A)`` scaled by the weights is one column of D. Row i of the
    stacked arrays belongs to grid point i; all L designs go through one
    stacked ``pinv``.
    """
    if degree < order:
        raise ValueError("local_poly degree must be >= derivative order")
    n = points.size
    if n < degree + 1:
        raise ValueError("grid too short for the requested polynomial degree")
    u = points[None, :] - points[:, None]
    w = np.exp(-0.5 * (u / bandwidth) ** 2)
    # too few points in the window: fit the nearest degree + 1 points instead
    for i in np.flatnonzero(np.count_nonzero(w > 1e-12, axis=1) < degree + 1):
        idx = np.argsort(np.abs(u[i]))[: degree + 1]
        w[i] = 0.0
        w[i, idx] = 1.0
    sw = np.sqrt(w)
    # the powers of u, formed as np.vander forms them
    A = np.empty((n, n, degree + 1))
    A[..., 0] = 1.0
    A[..., 1:] = u[..., None]
    np.multiply.accumulate(A[..., 1:], out=A[..., 1:], axis=-1)
    A *= sw[..., None]
    # row i of the coefficients is column i of D; C order keeps ``v @ D`` on
    # the same BLAS path as a column-by-column fill
    return np.ascontiguousarray((np.linalg.pinv(A)[:, order] * sw
                                 * math.factorial(order)).T)


def _derivative_operator(grid: Grid, order: int, method: DerivativeMethod) -> np.ndarray:
    """The read-only L x L operator D of (grid, order, method), with ``v @ D``
    the derivative of v; built on the first request and kept on the grid.

    A finite-difference operator is ``np.gradient`` of the identity, taken
    ``order`` times.
    """
    ops = grid._derivative_operators
    key = (order, method)
    if key not in ops:
        if method.kind == "finite_difference":
            if len(grid) < order + 1:
                raise ValueError("grid too short for finite differences")
            D = np.eye(len(grid))
            for _ in range(order):
                D = np.gradient(D, grid.points, axis=-1)
        else:
            D = _build_local_poly_operator(grid.points, order, method.degree,
                                           method.bandwidth)
        D.setflags(write=False)
        ops[key] = D
    return ops[key]


def _rowwise(V: np.ndarray, D: np.ndarray) -> np.ndarray:
    """``v @ D`` for a value vector v, or for each row v of a value matrix V.

    Each row is multiplied by D as a single vector is, in a stack of
    vector-matrix products (a matrix-matrix product sums in another order),
    so a row's product does not depend on the rows stacked with it.
    """
    return (V[..., None, :] @ D)[..., 0, :]


def _derivative_matrix(values: np.ndarray, grid: Grid, order: int,
                       method: DerivativeMethod) -> np.ndarray:
    """Derivatives of each row of a value matrix (or of one value vector),
    each row's equal to that of the row alone (``_rowwise``)."""
    return _rowwise(values, _derivative_operator(grid, order, method))


# ---------------------------------------------------------------------------
# Inner products and distances


class Metric:
    """The inner product and distance of one (grid, DistanceSpec), built once.

    Each spec is a sum over linear blocks of the curve values: "l2" uses the
    values, "derivative_l2" the order-m derivatives, "sobolev_h1" the values
    and the first derivatives. A derivative is a fixed L x L operator D
    applied as ``v @ D`` (both derivative methods are linear), so the
    derivative rows of a difference are the differences of derivative rows.
    ``components`` lays the blocks of a curve side by side in one row and
    ``w`` repeats the trapezoid weights once per block: the inner product is
    one weighted product of component rows, and the distance is the norm it
    induces, for every kind.
    """

    def __init__(self, grid: Grid, spec: DistanceSpec | None = None):
        spec = spec or DistanceSpec()
        if spec.kind == "l2":
            self.operators = (None,)  # None: the identity, applied without a matmul
        else:
            D = _derivative_operator(grid, spec.order, spec.derivative_method)
            self.operators = (None, D) if spec.kind == "sobolev_h1" else (D,)
        self.w = np.tile(grid.quad_weights, len(self.operators))
        self.root_w = np.sqrt(self.w)
        self.w.setflags(write=False)
        self.root_w.setflags(write=False)

    def components(self, V: np.ndarray) -> np.ndarray:
        """The component row of a value vector, or one per row of a value
        matrix.

        A derivative block is ``_rowwise(V, D)``, so a curve's components do
        not depend on the rows stacked with it: a query equal to a sample
        curve has exactly its components.
        """
        blocks = [V if D is None else _rowwise(V, D) for D in self.operators]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)

    def gram(self, FA: np.ndarray, FB: np.ndarray) -> np.ndarray:
        """Inner products between the component rows of FA and FB (a scalar
        for two single rows)."""
        return (FA * self.w) @ FB.T

    def norms(self, DF: np.ndarray) -> np.ndarray:
        """The norm of each component row of a difference, the distance it
        stands for (a scalar for a single row).

        The squares are reduced against the weights row by row, not by a
        matrix product, so a row's distance does not depend on the rows
        stacked with it.
        """
        return np.sqrt(np.einsum("...j,j->...", DF * DF, self.w))

    def pairwise(self, F: np.ndarray) -> np.ndarray:
        """Distances between the component rows of F, in Gram form.

        The rows scaled by the square roots of the weights give one symmetric
        product G, and d^2 = G_ii + G_jj - 2 G_ij: the matrix is exactly
        symmetric with an exactly zero diagonal. Off it the Gram form loses
        about sqrt(eps) near zero distance, so the distances of one curve are
        ``norms`` of its differences.

        G is an ``einsum``, not a BLAS product: BLAS tiles ``S @ S.T``, and
        the order in which it sums an entry depends on where the two rows fall
        in the tiles. Here an entry depends on its two rows alone, so the
        distances of a resample are those of the sample gathered by row, to
        the last bit.
        """
        S = F * self.root_w
        G = np.einsum("ik,jk->ij", S, S)
        sq = G.diagonal().copy()
        G *= -2.0
        G += sq[:, None] + sq[None, :]  # one sum per entry: exactly symmetric
        return np.sqrt(np.maximum(G, 0.0, out=G), out=G)

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two value vectors, from their difference."""
        return float(self.norms(self.components(a - b)))


def inner_product(a: Curve, b: Curve, spec: DistanceSpec | None = None) -> float:
    """Trapezoid-rule inner product of two curves under the given spec.

    For "sobolev_h1" this is <a,b>_L2 + <a',b'>_L2; for "derivative_l2" it is
    the L2 inner product of the order-m derivatives.
    """
    _check_same_grid(a, b)
    m = Metric(a.grid, spec)
    return float(m.gram(m.components(a.values), m.components(b.values)))


def norm(a: Curve, spec: DistanceSpec | None = None) -> float:
    """The norm induced by ``inner_product``: ||a|| = distance(a, 0)."""
    zero = Curve(a.grid, np.zeros(len(a.grid)))
    return distance(a, zero, spec)


def distance(a: Curve, b: Curve, spec: DistanceSpec | None = None) -> float:
    """Distance between two curves on the same grid.

    Every kind is the norm of a - b induced by ``inner_product``; for
    "sobolev_h1" that is sqrt(||a-b||_L2^2 + ||a'-b'||_L2^2).
    """
    _check_same_grid(a, b)
    return Metric(a.grid, spec).distance(a.values, b.values)
