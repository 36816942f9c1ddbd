"""Mean-shift iteration, mode merging and cluster assignment.

A trajectory repeatedly applies x <- x + m(x) until the shift is smaller than
the step tolerance. Terminal points are merged by single linkage at a radius
proportional to the smallest bandwidth; each start is assigned to its merged
mode. Clusters of size one are flagged as atomic (potential outliers), and
every merged mode is probed for stability by re-ascending from a perturbed
copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .function_space import Curve
from .surrogate import DensityModel, OutsideSupportError

__all__ = [
    "MeanShiftConfig",
    "Trajectory",
    "ModeSet",
    "OUTSIDE_SUPPORT",
    "ascend",
    "cluster",
]

#: Destination marker for starts beyond every support ball.
OUTSIDE_SUPPORT = -1


@dataclass(frozen=True)
class MeanShiftConfig:
    """Iteration and merging controls.

    ``step_tolerance`` and ``perturbation_scale`` default to scale-free values
    derived from the model (1e-6 times the largest pairwise distance and 0.1
    times the smallest bandwidth, respectively) when left as None.
    """

    max_iters: int = 500
    step_tolerance: float | None = None
    merge_radius_factor: float = 0.05
    perturbation_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        tol, delta = self.step_tolerance, self.perturbation_scale
        if tol is not None and (not np.isfinite(tol) or tol <= 0):
            raise ValueError("step_tolerance must be positive and finite")
        if not np.isfinite(self.merge_radius_factor) or self.merge_radius_factor <= 0:
            raise ValueError("merge_radius_factor must be positive and finite")
        if delta is not None and (not np.isfinite(delta) or delta < 0):
            raise ValueError("perturbation_scale must be nonnegative and finite")

    def resolved(self, model: DensityModel) -> "MeanShiftConfig":
        """This config with its None defaults filled in from the model; the
        config itself once both are set."""
        if self.step_tolerance is not None and self.perturbation_scale is not None:
            return self
        h_ref = float(model._h.min())
        eps = self.step_tolerance
        if eps is None:
            scale = model.max_pairwise_distance or h_ref
            eps = 1e-6 * scale
        delta = self.perturbation_scale
        if delta is None:
            delta = 0.1 * h_ref
        return replace(self, step_tolerance=eps, perturbation_scale=delta)


@dataclass(frozen=True)
class Trajectory:
    """The iterates of one mean-shift ascent."""

    start: Curve
    iterates: tuple
    converged: bool
    destination: int  # mode index after merging, or OUTSIDE_SUPPORT

    @property
    def terminal(self) -> Curve:
        return self.iterates[-1]


@dataclass(frozen=True)
class ModeSet:
    """Merged fixed points with per-start assignments and per-mode flags."""

    modes: tuple
    assignments: tuple  # mode index per start, OUTSIDE_SUPPORT if unclustered
    atomic_flags: tuple
    stability_flags: tuple
    trajectories: tuple

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def cluster_sizes(self) -> list[int]:
        sizes = [0] * len(self.modes)
        for a in self.assignments:
            if a != OUTSIDE_SUPPORT:
                sizes[a] += 1
        return sizes

    def nonatomic_mode_indices(self) -> list[int]:
        return [j for j, flag in enumerate(self.atomic_flags) if not flag]


def ascend(model: DensityModel, x0: Curve, cfg: MeanShiftConfig) -> Trajectory:
    """Iterate the mean-shift update from x0 until the shift is tiny.

    Starts outside every support ball do not move and are reported with
    destination OUTSIDE_SUPPORT.
    """
    cfg = cfg.resolved(model)
    x = x0
    iterates = [x0]
    converged = False
    for _ in range(cfg.max_iters):
        try:
            m = model.mean_shift_vector(x)
        except OutsideSupportError:
            return Trajectory(x0, tuple(iterates), False, OUTSIDE_SUPPORT)
        shift = model.ip_norm(m)
        x = x + m
        iterates.append(x)
        if shift <= cfg.step_tolerance:
            converged = True
            break
    return Trajectory(x0, tuple(iterates), converged, destination=0)


def _components(A: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, labels) of the connected components of the graph with the
    symmetric boolean adjacency matrix A, found breadth first and numbered in
    order of each component's lowest node."""
    labels = np.full(len(A), -1)
    count = 0
    for i in range(len(A)):
        if labels[i] >= 0:
            continue
        labels[i] = count
        reached = A[i] & (labels < 0)
        while reached.any():
            labels[reached] = count
            reached = A[reached].any(axis=0) & (labels < 0)
        count += 1
    return count, labels


def cluster(model: DensityModel, cfg: MeanShiftConfig | None = None,
            starts: list[Curve] | None = None) -> ModeSet:
    """Run mean-shift from every start and merge the terminal points.

    Starts default to the sample curves. Modes are the averages of the merged
    terminal points; each mode is probed for stability by re-ascending from a
    randomly perturbed copy (seeded through the config).
    """
    cfg = (cfg or MeanShiftConfig()).resolved(model)
    if starts is None:
        starts = list(model.sample.curves)
    trajectories = [ascend(model, x0, cfg) for x0 in starts]

    in_support = [i for i, tr in enumerate(trajectories)
                  if tr.destination != OUTSIDE_SUPPORT]
    h_ref = float(model._h.min())
    radius = cfg.merge_radius_factor * h_ref

    assignments = [OUTSIDE_SUPPORT] * len(starts)
    modes: list[Curve] = []
    atomic: list[bool] = []
    if in_support:
        terminals = np.array([trajectories[i].terminal.values for i in in_support])
        # centred: the Gram form loses about sqrt(eps) of the rows' norms, so
        # terminals far from the origin would otherwise merge by rounding
        F = model.metric.components(terminals - terminals.mean(axis=0))
        # single linkage: the connected components, found breadth first, of
        # the graph linking terminals within the radius, labelled in order of
        # first appearance
        n_modes, labels = _components(model.metric.pairwise(F) <= radius)
        for j in range(n_modes):
            modes.append(Curve(model.grid, terminals[labels == j].mean(axis=0)))
        for pos, i in enumerate(in_support):
            assignments[i] = int(labels[pos])
        trajectories = [
            replace(tr, destination=assignments[i])
            if tr.destination != OUTSIDE_SUPPORT else tr
            for i, tr in enumerate(trajectories)
        ]
        atomic = (np.bincount(labels, minlength=n_modes) == 1).tolist()

    rng = np.random.default_rng(cfg.seed)
    stability = []
    for mode in modes:
        direction = rng.standard_normal(len(model.grid))
        dcurve = Curve(model.grid, direction)
        nrm = model.ip_norm(dcurve)
        if nrm > 0:
            dcurve = Curve(model.grid, direction / nrm)
        perturbed = mode + cfg.perturbation_scale * dcurve
        tr = ascend(model, perturbed, cfg)
        if tr.destination == OUTSIDE_SUPPORT:
            stability.append(False)
            continue
        dback = model.metric.distance(tr.terminal.values, mode.values)
        stability.append(bool(dback <= radius))

    return ModeSet(tuple(modes), tuple(assignments), tuple(atomic),
                   tuple(stability), tuple(trajectories))
