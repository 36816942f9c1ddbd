"""Bootstrap significance test for estimated local modes.

The sample is split in two halves. The first half locates the candidate modes
with mean shift; the second half, and only the second half, feeds the
bootstrap: B resamples with replacement, one curvature statistic per resample
per candidate, percentile confidence intervals at simultaneous level
1 - alpha/r (Bonferroni over the r candidates). A candidate is significant
when its whole interval lies below zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import MeanShiftConfig, ModeSet, cluster
from .function_space import Curve, DistanceSpec, FunctionalSample
from .kernels import KernelPair
from .surrogate import DensityModel, NormalizerError

__all__ = [
    "TestConfig",
    "ModeRecord",
    "ModeTestReport",
    "bootstrap_ci",
    "test_modes",
]

STATISTICS = ("lambda_eigen", "lambda_paper")


@dataclass(frozen=True)
class TestConfig:
    """Bootstrap test controls.

    ``statistic`` selects which curvature statistic drives significance; both
    are always computed and reported. ``split_rule`` is "first_half" or
    "random" (shuffled with the run seed). With an odd sample size the first
    subsample receives the extra curve.
    """

    alpha: float = 0.05
    n_boot: int = 1000
    statistic: str = "lambda_eigen"
    split_rule: str = "first_half"
    include_atomic: bool = False

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.n_boot < 100:
            raise ValueError("need at least 100 bootstrap replicates")
        if self.statistic not in STATISTICS:
            raise ValueError(f"statistic must be one of {STATISTICS}")
        if self.split_rule not in ("first_half", "random"):
            raise ValueError("split_rule must be 'first_half' or 'random'")


@dataclass(frozen=True)
class ModeRecord:
    """Per-candidate-mode bootstrap summary.

    ``n_retries`` is always 0: a replicate is never redrawn (a non-finite
    statistic is an error). The field stays because report format v1 has an
    ``n_retries`` column and readers of the record use it.
    """

    mode: Curve
    observed: dict  # statistic name -> value on the full second subsample
    ci: tuple  # (lo, hi) for the selected statistic
    ci_level: float
    significant: bool
    replicates: dict  # statistic name -> np.ndarray of bootstrap values
    n_retries: int


@dataclass(frozen=True)
class ModeTestReport:
    candidates: ModeSet
    records: tuple  # one ModeRecord per tested candidate
    tested_mode_indices: tuple
    statistic: str
    alpha: float
    n_boot: int
    bandwidth: float

    @property
    def significant_mode_indices(self) -> tuple:
        return tuple(j for j, rec in zip(self.tested_mode_indices, self.records)
                     if rec.significant)

    @property
    def n_significant(self) -> int:
        return sum(1 for rec in self.records if rec.significant)


def bootstrap_ci(replicates, level: float) -> tuple:
    """Percentile interval from empirical quantiles (linear interpolation)."""
    replicates = np.asarray(replicates, dtype=float)
    if replicates.size == 0:
        raise ValueError("need at least one replicate")
    if not np.all(np.isfinite(replicates)):
        raise ValueError("replicates must be finite")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    tail = (1.0 - level) / 2.0
    lo = float(np.quantile(replicates, tail))
    hi = float(np.quantile(replicates, 1.0 - tail))
    return lo, hi


def _split(sample: FunctionalSample, cfg: TestConfig, rng: np.random.Generator):
    n = len(sample)
    idx = np.arange(n)
    if cfg.split_rule == "random":
        rng.shuffle(idx)
    cut = (n + 1) // 2  # odd n: the mode-hunting half gets the extra curve
    return sample.subset(idx[:cut].tolist()), sample.subset(idx[cut:].tolist())


def _resolve_bandwidth(bandwidth, subsample1: FunctionalSample):
    """Bandwidth may be a number or a callable evaluated on the mode-hunting
    subsample (e.g. a percentile of its pairwise distances)."""
    if bandwidth is None:
        raise ValueError("the mode test needs a bandwidth: a number or a "
                         "callable of the mode-hunting subsample")
    if callable(bandwidth):
        return float(bandwidth(subsample1))
    return float(bandwidth)


def _statistics(model: DensityModel, modes: dict, where: str) -> dict:
    """{statistic name: [value at each mode]} for ``modes``, a dict from
    candidate index to mode. A non-finite value raises; it is never redrawn,
    since a redraw would condition the bootstrap distribution on finiteness."""
    values = model.curvature_statistics(list(modes.values()))
    out = {}
    for name, row in zip(STATISTICS, values):
        if not np.isfinite(row).all():
            j, v = next((j, v) for j, v in zip(modes, row) if not np.isfinite(v))
            raise FloatingPointError(f"{name} is {v} at candidate mode {j} {where}")
        out[name] = row.tolist()
    return out


def test_modes(sample: FunctionalSample, pair: KernelPair,
               distance: DistanceSpec | None = None,
               bandwidth=None,
               ms_cfg: MeanShiftConfig | None = None,
               t_cfg: TestConfig | None = None,
               seed: int = 0) -> ModeTestReport:
    """Run the two-stage mode significance test on a sample of curves.

    Stage 1 clusters the first subsample and takes its modes as candidates
    (atomic modes are skipped unless the config includes them). Stage 2
    bootstraps the second subsample to build simultaneous percentile intervals
    for the curvature statistic at each candidate. No curve from the second
    subsample influences candidate locations and no curve from the first
    enters any interval.
    """
    if len(sample) < 4:
        raise ValueError("the mode test needs at least 4 curves")
    distance = distance or DistanceSpec()
    ms_cfg = ms_cfg or MeanShiftConfig()
    t_cfg = t_cfg or TestConfig()

    rng = np.random.default_rng(seed)
    sub1, sub2 = _split(sample, t_cfg, rng)
    h = _resolve_bandwidth(bandwidth, sub1)

    stage1 = DensityModel(sub1, pair, distance, bandwidth=h, normalized=False)
    candidates = cluster(stage1, ms_cfg)
    if t_cfg.include_atomic:
        tested = list(range(candidates.n_modes))
    else:
        tested = candidates.nonatomic_mode_indices()

    if not tested:
        return ModeTestReport(candidates, (), (), t_cfg.statistic, t_cfg.alpha,
                              t_cfg.n_boot, h)

    r = len(tested)
    level = 1.0 - t_cfg.alpha / r
    n2 = len(sub2)
    try:
        full2 = DensityModel(sub2, pair, distance, bandwidth=h, normalized=True)
    except NormalizerError as exc:
        raise NormalizerError(
            f"mode test second half ({n2} curves) at bandwidth h={h:.6g}: {exc}"
        ) from exc

    modes = {j: candidates.modes[j] for j in tested}
    observed = _statistics(full2, modes, "on the second half")
    reps = {name: np.empty((r, t_cfg.n_boot)) for name in STATISTICS}
    # one independent substream per replicate so parallel evaluation could
    # never change the result
    seeds = rng.integers(0, 2**63 - 1, size=t_cfg.n_boot)
    for b in range(t_cfg.n_boot):
        idx = np.random.default_rng(seeds[b]).integers(0, n2, size=n2)
        model = full2.resample(idx)
        for name, row in _statistics(model, modes, f"in replicate {b}").items():
            reps[name][:, b] = row

    records = []
    for i, mode in enumerate(modes.values()):
        ci = bootstrap_ci(reps[t_cfg.statistic][i], level)
        records.append(ModeRecord(
            mode=mode,
            observed={name: observed[name][i] for name in STATISTICS},
            ci=ci,
            ci_level=level,
            significant=ci[1] < 0.0,
            replicates={name: reps[name][i].copy() for name in STATISTICS},
            n_retries=0,
        ))
    return ModeTestReport(candidates, tuple(records), tuple(tested),
                          t_cfg.statistic, t_cfg.alpha, t_cfg.n_boot, h)
