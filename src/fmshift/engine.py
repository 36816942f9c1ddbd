"""Mean-shift iteration, mode merging, cluster assignment and blurring.

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
from scipy.sparse.csgraph import connected_components

from .function_space import Curve, FunctionalSample
from .surrogate import DensityModel, OutsideSupportError

__all__ = [
    "MeanShiftConfig",
    "Trajectory",
    "ModeSet",
    "OUTSIDE_SUPPORT",
    "ascend",
    "cluster",
    "blurring_pass",
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
        if self.step_tolerance is not None and self.step_tolerance <= 0:
            raise ValueError("step_tolerance must be positive")
        if self.merge_radius_factor <= 0:
            raise ValueError("merge_radius_factor must be positive")
        if self.perturbation_scale is not None and self.perturbation_scale < 0:
            raise ValueError("perturbation_scale must be nonnegative")

    def resolved(self, model: DensityModel) -> "MeanShiftConfig":
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
    if in_support:
        terminals = np.array([trajectories[i].terminal.values for i in in_support])
        F = model.metric.components(terminals)
        # single linkage: connected components of the graph with edges below
        # the radius, labelled in order of first appearance
        n_modes, labels = connected_components(
            model.metric.pairwise(F, F) <= radius, directed=False)
        for j in range(n_modes):
            modes.append(Curve(model.grid, terminals[labels == j].mean(axis=0)))
        for pos, i in enumerate(in_support):
            assignments[i] = int(labels[pos])
        trajectories = [
            replace(tr, destination=assignments[i])
            if tr.destination != OUTSIDE_SUPPORT else tr
            for i, tr in enumerate(trajectories)
        ]

    sizes = [0] * len(modes)
    for a in assignments:
        if a != OUTSIDE_SUPPORT:
            sizes[a] += 1
    atomic = [s == 1 for s in sizes]

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
        dback = _distance_between(model, tr.terminal, mode)
        stability.append(bool(dback <= radius))

    return ModeSet(tuple(modes), tuple(assignments), tuple(atomic),
                   tuple(stability), tuple(trajectories))


def _distance_between(model: DensityModel, a: Curve, b: Curve) -> float:
    return model.metric.distance(a.values, b.values)


def blurring_pass(model: DensityModel) -> FunctionalSample:
    """One synchronous mean-shift update of every sample curve.

    The model's stored sample is left untouched; repeated passes require
    building a new model from the returned sample.
    """
    new_curves = []
    for c in model.sample.curves:
        try:
            m = model.mean_shift_vector(c)
        except OutsideSupportError:
            new_curves.append(c)
            continue
        new_curves.append(c + m)
    return FunctionalSample(model.grid, tuple(new_curves), model.sample.labels)
