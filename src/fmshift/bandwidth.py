"""Bandwidth selection by stability of the non-atomic cluster count.

Sweep a range of bandwidths expressed as fractions of the largest observed
pairwise distance, cluster at each one, and look for plateaus of the number of
non-atomic clusters. The midpoints of the plateau bandwidth ranges are the
candidate bandwidths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import MeanShiftConfig, cluster
from .function_space import DistanceSpec, FunctionalSample
from .kernels import KernelPair
from .surrogate import DensityModel

__all__ = ["ScanSpec", "ScanResult", "scan"]


@dataclass(frozen=True)
class ScanSpec:
    """Sweep layout. Defaults: 100 values between 5% and 50% of the largest
    pairwise distance, plateaus of at least 5 consecutive equal counts."""

    n_values: int = 100
    lo_frac: float = 0.05
    hi_frac: float = 0.50
    min_plateau_len: int = 5

    def __post_init__(self):
        if not (0.0 < self.lo_frac < self.hi_frac <= 1.0):
            raise ValueError("need 0 < lo_frac < hi_frac <= 1")
        if self.n_values < 2:
            raise ValueError("n_values must be at least 2")
        if self.min_plateau_len < 2:
            raise ValueError("min_plateau_len must be at least 2")


@dataclass(frozen=True)
class ScanResult:
    bandwidths: np.ndarray
    nonatomic_counts: np.ndarray
    clustered_counts: np.ndarray  # curves living in non-atomic clusters
    plateaus: tuple  # (start_index, end_index) inclusive
    candidates: tuple  # plateau midpoint bandwidths
    max_distance: float

    def rows(self):
        """(bandwidth, non-atomic count, clustered count) triples."""
        return list(zip(self.bandwidths.tolist(),
                        self.nonatomic_counts.tolist(),
                        self.clustered_counts.tolist()))


def _find_plateaus(counts: np.ndarray, min_len: int):
    plateaus = []
    start = 0
    for i in range(1, counts.size + 1):
        if i == counts.size or counts[i] != counts[start]:
            if i - start >= min_len:
                plateaus.append((start, i - 1))
            start = i
    return plateaus


def _rounding_level(model: DensityModel) -> float:
    """The largest distance between the model's sample curves, under its
    metric, that is zero up to rounding.

    Two kinds of rounding bound it. The Gram-form distances lose up to about
    5e-8 of the largest component norm (1e-6 leaves a margin). A derivative
    component ``V @ D`` carries rounding noise of about eps times the value
    norm times the operator norm; when the true derivatives vanish (constant
    curves under "local_poly") that noise is the whole component, so its own
    norm cannot expose it. That noise reads about 1e-16 of the largest value
    norm times the operator norms; 1e-12 of it is also above the worst-case
    rounding bound, grid length times eps, for grids of up to 4000 points.
    """
    metric, F, V = model.metric, model._F, model.sample.matrix
    norm = float(np.sqrt(np.einsum("ij,ij->i", F * metric.w, F).max()))
    quad_weights = metric.w[:V.shape[1]]  # the trapezoid weights, w's first block
    value_norm = float(np.sqrt(np.einsum("ij,ij->i", V * quad_weights, V).max()))
    operator_norm = sum(float(np.linalg.norm(D)) for D in metric.operators
                        if D is not None)
    return max(1e-6 * norm, 1e-12 * value_norm * operator_norm)


def _max_distance(model: DensityModel) -> float:
    """The largest pairwise distance of the model's sample, the unit of a
    relative bandwidth.

    Raises ValueError when it is zero up to rounding (``_rounding_level``):
    the curves are then identical under the distance and no relative
    bandwidth exists.
    """
    dmax, level = model.max_pairwise_distance, _rounding_level(model)
    if dmax <= level:
        raise ValueError(
            f"the curves are identical under the {model.distance.kind} distance "
            f"(largest pairwise distance {dmax:.3g}, at most the rounding "
            f"level {level:.3g}); a bandwidth relative to it does not exist"
        )
    return dmax


def _percentile_distance(model: DensityModel, q: float) -> float:
    """The q-th percentile of the model's pairwise distances i != j, a
    bandwidth for the mode test; ValueError when it is zero up to rounding."""
    D = model.pairwise_distances
    h = float(np.percentile(D[~np.eye(len(D), dtype=bool)], q))
    level = _rounding_level(model)
    if h <= level:
        raise ValueError(
            f"percentile {q:g} of the first half's pairwise "
            f"{model.distance.kind} distances is zero up to rounding ({h:.3g}); "
            "a bandwidth cannot be taken from it"
        )
    return h


def scan(sample: FunctionalSample, pair: KernelPair,
         distance: DistanceSpec | None = None,
         spec: ScanSpec | None = None,
         cfg: MeanShiftConfig | None = None) -> ScanResult:
    """Cluster at each bandwidth of the sweep and locate stability plateaus.

    The sample's geometry does not depend on the bandwidth: one model is
    built, and each value clusters its ``at_bandwidth`` copy."""
    if len(sample) < 2:
        raise ValueError("the bandwidth scan needs at least 2 curves")
    spec = spec or ScanSpec()
    cfg = cfg or MeanShiftConfig()
    distance = distance or DistanceSpec()

    base = DensityModel(sample, pair, distance, normalized=False)
    dmax = _max_distance(base)
    hs = np.linspace(spec.lo_frac, spec.hi_frac, spec.n_values) * dmax

    nonatomic = np.empty(spec.n_values, dtype=int)
    clustered = np.empty(spec.n_values, dtype=int)
    for i, h in enumerate(hs):
        modes = cluster(base.at_bandwidth(h), cfg)
        sizes = modes.cluster_sizes()
        nonatomic[i] = sum(1 for s in sizes if s > 1)
        clustered[i] = sum(s for s in sizes if s > 1)

    plateaus = _find_plateaus(nonatomic, spec.min_plateau_len)
    candidates = tuple(float((hs[a] + hs[b]) / 2.0) for a, b in plateaus)
    return ScanResult(hs, nonatomic, clustered, tuple(plateaus), candidates,
                      dmax)
