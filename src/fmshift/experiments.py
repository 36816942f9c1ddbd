"""Seeded synthetic-curve generators and the fPCA/k-means baseline.

Three generators:

* ``signal_clutter`` -- two cosine signals at different vertical levels plus
  vertically scattered clutter curves, membership uniform over the three
  groups.
* ``elliptical_sincos`` -- curves in span{sin(2 pi t), cos(2 pi t)} whose
  coefficient pairs form two well-separated elliptical clouds.
* ``circular_sincos`` -- same span, coefficient pairs on two concentric rings
  (the configuration that defeats k-means even with known k and good seeds).

The baseline centers the curves, extracts principal components under the L2
quadrature inner product, projects, and runs Lloyd's k-means on the scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
from scipy.optimize import linear_sum_assignment

from .function_space import FunctionalSample, Grid

__all__ = [
    "GeneratorSpec",
    "BaselineResult",
    "generate",
    "fpca_kmeans",
    "clustering_accuracy",
]

GENERATOR_KINDS = ("signal_clutter", "elliptical_sincos", "circular_sincos")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int = 150
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")


def _signal_clutter(spec: GeneratorSpec, t: np.ndarray, rng) -> tuple:
    p = spec.params
    sigma_eta = p.get("sigma_eta", 0.1)
    mu_eta = p.get("mu_eta", 1.0)
    sigma_gamma = p.get("sigma_gamma", 0.8)
    base = np.cos(5.0 * np.pi / 2.0 * t)
    rows, labels = [], []
    groups = rng.integers(0, 3, size=spec.n)
    for g in groups:
        if g == 0:
            eta = rng.normal(mu_eta, sigma_eta)
            rows.append(eta * base)
            labels.append("X")
        elif g == 1:
            eta = rng.normal(mu_eta, sigma_eta)
            rows.append(3.0 + eta * base)
            labels.append("Y")
        else:
            gamma = rng.normal(0.0, sigma_gamma)
            jump = 3.0 if rng.uniform() > 0.5 else 0.0
            rows.append(gamma + jump + base)
            labels.append("C")
    return np.array(rows), labels


def _sincos_rows(coefs: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.outer(coefs[:, 0], np.sin(2.0 * np.pi * t)) + \
        np.outer(coefs[:, 1], np.cos(2.0 * np.pi * t))


def _elliptical(spec: GeneratorSpec, t: np.ndarray, rng) -> tuple:
    p = spec.params
    centers = p.get("centers", ((-2.0, 0.0), (2.0, 0.0)))
    axes = p.get("axes", (0.5, 0.2))
    n = spec.n
    groups = np.arange(n) % len(centers)
    rng.shuffle(groups)
    coefs = np.empty((n, 2))
    for i, g in enumerate(groups):
        cx, cy = centers[g]
        coefs[i] = (cx + axes[0] * rng.standard_normal(),
                    cy + axes[1] * rng.standard_normal())
    return _sincos_rows(coefs, t), [f"c{int(g)}" for g in groups]


def _circular(spec: GeneratorSpec, t: np.ndarray, rng) -> tuple:
    p = spec.params
    radii = p.get("radii", (1.0, 3.0))
    sigma = p.get("sigma", 0.15)
    per_ring = p.get("per_ring")
    n = spec.n
    if per_ring is None:
        per_ring = [n // len(radii)] * len(radii)
        per_ring[0] += n - sum(per_ring)
    rows, labels = [], []
    for g, (radius, cnt) in enumerate(zip(radii, per_ring)):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=cnt)
        r = radius + sigma * rng.standard_normal(cnt)
        coefs = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        rows.append(_sincos_rows(coefs, t))
        labels.extend([f"ring{g}"] * cnt)
    return np.vstack(rows), labels


def generate(spec: GeneratorSpec, grid: Grid) -> FunctionalSample:
    """Draw a labeled sample of synthetic curves on the given grid."""
    rng = np.random.default_rng(spec.seed)
    t = grid.points
    if spec.kind == "signal_clutter":
        rows, labels = _signal_clutter(spec, t, rng)
    elif spec.kind == "elliptical_sincos":
        rows, labels = _elliptical(spec, t, rng)
    else:
        rows, labels = _circular(spec, t, rng)
    return FunctionalSample.from_matrix(grid, rows, tuple(labels))


# ---------------------------------------------------------------------------
# fPCA / k-means baseline


@dataclass(frozen=True)
class BaselineResult:
    pc_scores: np.ndarray  # (n, n_components)
    explained_variance: np.ndarray
    explained_fraction: np.ndarray
    km_assignments: np.ndarray
    km_centers: np.ndarray


def _lloyd_kmeans(scores: np.ndarray, k: int, centers0: np.ndarray,
                  max_iters: int = 300):
    centers = centers0.copy()
    assign = None
    for _ in range(max_iters):
        d2 = ((scores[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)  # argmin breaks ties at lowest index
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = scores[assign == j]
            if members.size:
                centers[j] = members.mean(axis=0)
    return assign, centers


def fpca_kmeans(sample: FunctionalSample, n_components: int, k: int,
                seeds=None) -> BaselineResult:
    """Project onto the leading principal components and k-means the scores.

    ``seeds`` is either an array of initial centers in score space or an
    integer seed; with a seed, k distinct score rows are drawn as the initial
    centers.
    """
    V = sample.matrix
    n, m = V.shape
    if not (1 <= n_components <= min(n, m)):
        raise ValueError("n_components must be between 1 and min(n, grid length)")
    if k > n:
        raise ValueError("cannot ask for more clusters than curves")
    w = sample.grid.quad_weights
    Vc = V - V.mean(axis=0)
    gram = (Vc * w) @ Vc.T / n
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1][:n_components]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    # scores theta_ik = sqrt(n * l_k) * u_ik under the L2 quadrature product
    scores = evecs * np.sqrt(np.clip(n * evals, 0.0, None))
    total = float(np.trace(gram))
    frac = evals / total if total > 0 else np.zeros_like(evals)

    if isinstance(seeds, (int, np.integer)) or seeds is None:
        rng = np.random.default_rng(0 if seeds is None else int(seeds))
        idx = rng.choice(n, size=k, replace=False)
        centers0 = scores[idx]
    else:
        centers0 = np.asarray(seeds, dtype=float)
        if centers0.shape != (k, n_components):
            raise ValueError("initial centers must have shape (k, n_components)")
    assign, centers = _lloyd_kmeans(scores, k, centers0)
    return BaselineResult(scores, evals, frac, assign, centers)


def clustering_accuracy(true_labels, cluster_labels) -> float:
    """Best agreement over injective maps from cluster labels to true labels."""
    true_labels = list(true_labels)
    cluster_labels = list(cluster_labels)
    if len(true_labels) != len(cluster_labels):
        raise ValueError("label lists differ in length")
    tidx = {t: j for j, t in enumerate(set(true_labels))}
    cidx = {c: i for i, c in enumerate(set(cluster_labels))}
    counts = np.zeros((len(cidx), len(tidx)), dtype=int)
    for t, c in zip(true_labels, cluster_labels):
        counts[cidx[c], tidx[t]] += 1
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return int(counts[rows, cols].sum()) / len(true_labels)
