"""Bootstrap intervals, sample splitting and the mode significance test."""

import numpy as np
import pytest

from fmshift import (
    DensityModel,
    DerivativeMethod,
    DistanceSpec,
    FunctionalSample,
    Grid,
    MeanShiftConfig,
    NormalizerError,
    bootstrap_ci,
    builtin_pair,
)
from fmshift import TestConfig as ModeTestConfig
from fmshift import test_modes as run_mode_test
from fmshift.inference import STATISTICS, _split

GRID = Grid(np.linspace(0.0, 1.0, 21))


class TestBootstrapCI:
    def test_known_quantiles(self):
        # {1..100} at level 0.90: tails at 0.05 and 0.95; numpy's linear
        # interpolation gives 5.95 and 95.05
        reps = np.arange(1.0, 101.0)
        lo, hi = bootstrap_ci(reps, 0.90)
        assert lo == pytest.approx(5.95)
        assert hi == pytest.approx(95.05)

    def test_degenerate_replicates(self):
        lo, hi = bootstrap_ci(np.full(50, -2.5), 0.95)
        assert lo == hi == -2.5

    def test_level_monotonicity(self):
        rng = np.random.default_rng(0)
        reps = rng.standard_normal(500)
        lo1, hi1 = bootstrap_ci(reps, 0.80)
        lo2, hi2 = bootstrap_ci(reps, 0.99)
        assert lo2 <= lo1 and hi1 <= hi2

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], 0.9)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_replicates_raise(self, bad):
        # a (nan, nan) interval would read as "not significant"
        with pytest.raises(ValueError, match="finite"):
            bootstrap_ci([1.0, bad, 2.0], 0.9)


class TestSplit:
    def test_even_first_half(self):
        sample = FunctionalSample.from_matrix(GRID, np.arange(6.0)[:, None]
                                              * np.ones(len(GRID)))
        s1, s2 = _split(sample, ModeTestConfig(), np.random.default_rng(0))
        assert len(s1) == 3 and len(s2) == 3
        assert np.allclose(s1.matrix[:, 0], [0, 1, 2])

    def test_odd_extra_goes_to_first(self):
        sample = FunctionalSample.from_matrix(GRID, np.arange(7.0)[:, None]
                                              * np.ones(len(GRID)))
        s1, s2 = _split(sample, ModeTestConfig(), np.random.default_rng(0))
        assert len(s1) == 4 and len(s2) == 3

    def test_random_split_is_a_partition(self):
        sample = FunctionalSample.from_matrix(GRID, np.arange(9.0)[:, None]
                                              * np.ones(len(GRID)))
        cfg = ModeTestConfig(split_rule="random")
        s1, s2 = _split(sample, cfg, np.random.default_rng(5))
        got = sorted(np.concatenate([s1.matrix[:, 0], s2.matrix[:, 0]]))
        assert got == list(range(9))
        assert len(s1) == 5


class TestModeTestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ModeTestConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ModeTestConfig(n_boot=50)
        with pytest.raises(ValueError):
            ModeTestConfig(statistic="lambda_other")
        with pytest.raises(ValueError):
            ModeTestConfig(split_rule="odd_even")


def two_blob_sample(n=40, seed=0, gap=6.0):
    rng = np.random.default_rng(seed)
    rows = [(gap if i % 2 else 0.0) + 0.3 * rng.standard_normal(len(GRID))
            for i in range(n)]
    return FunctionalSample.from_matrix(GRID, np.array(rows))


class TestModeSignificance:
    def test_two_sharp_modes_significant(self):
        sample = two_blob_sample()
        report = run_mode_test(sample, builtin_pair("gaussian_gaussian"),
                            bandwidth=2.0,
                            t_cfg=ModeTestConfig(n_boot=200), seed=1)
        assert len(report.tested_mode_indices) == 2
        assert report.n_significant == 2
        for rec in report.records:
            assert rec.ci[1] < 0.0
            assert rec.ci_level == pytest.approx(1.0 - 0.05 / 2)
            assert set(rec.replicates) == {"lambda_eigen", "lambda_paper"}
            assert rec.replicates["lambda_eigen"].size == 200
            assert rec.n_retries == 0  # replicates are never redrawn

    def test_reproducible(self):
        sample = two_blob_sample(seed=3)
        kw = dict(bandwidth=2.0, t_cfg=ModeTestConfig(n_boot=150), seed=7)
        pair = builtin_pair("gaussian_gaussian")
        r1 = run_mode_test(sample, pair, **kw)
        r2 = run_mode_test(sample, pair, **kw)
        for a, b in zip(r1.records, r2.records):
            assert a.ci == b.ci
            assert np.array_equal(a.replicates["lambda_eigen"],
                                  b.replicates["lambda_eigen"])

    def test_callable_bandwidth_receives_first_subsample(self):
        sample = two_blob_sample()
        seen = {}

        def bw(sub1):
            seen["n"] = len(sub1)
            return 2.0

        report = run_mode_test(sample, builtin_pair("gaussian_gaussian"),
                            bandwidth=bw, t_cfg=ModeTestConfig(n_boot=100))
        assert seen["n"] == 20
        assert report.bandwidth == 2.0

    def test_alpha_widens_intervals(self):
        sample = two_blob_sample(seed=9)
        pair = builtin_pair("gaussian_gaussian")
        strict = run_mode_test(sample, pair, bandwidth=2.0,
                            t_cfg=ModeTestConfig(alpha=0.001, n_boot=300), seed=2)
        lax = run_mode_test(sample, pair, bandwidth=2.0,
                         t_cfg=ModeTestConfig(alpha=0.20, n_boot=300), seed=2)
        for s, l in zip(strict.records, lax.records):
            assert s.ci[0] <= l.ci[0] and l.ci[1] <= s.ci[1]

    def test_needs_four_curves(self):
        sample = FunctionalSample.from_matrix(GRID, np.zeros((3, len(GRID))))
        with pytest.raises(ValueError):
            run_mode_test(sample, builtin_pair("gaussian_gaussian"), bandwidth=1.0)

    def test_no_candidates_empty_report(self):
        # an all-atomic stage 1 yields nothing to test
        rng = np.random.default_rng(0)
        M = 100.0 * np.arange(8.0)[:, None] + 0.0 * rng.standard_normal((8, len(GRID)))
        sample = FunctionalSample.from_matrix(GRID, M * np.ones(len(GRID)))
        report = run_mode_test(sample, builtin_pair("gaussian_gaussian"),
                            bandwidth=1.0, t_cfg=ModeTestConfig(n_boot=100))
        assert report.records == ()
        assert report.n_significant == 0

    def test_observed_statistics_negative_at_true_modes(self):
        sample = two_blob_sample(seed=12)
        report = run_mode_test(sample, builtin_pair("gaussian_gaussian"),
                            bandwidth=2.0, t_cfg=ModeTestConfig(n_boot=100),
                            seed=3)
        for rec in report.records:
            assert rec.observed["lambda_eigen"] < 0.0


def rebuild_per_replicate(sample, pair, distance, h, modes, n_boot, seed):
    """Reference bootstrap: every replicate copies its rows out of the second
    half and rebuilds a sample and a model from them (same seed stream)."""
    rng = np.random.default_rng(seed)
    _, sub2 = _split(sample, ModeTestConfig(n_boot=n_boot), rng)
    seeds = rng.integers(0, 2**63 - 1, size=n_boot)
    n2 = len(sub2)
    reps = {name: np.empty((len(modes), n_boot)) for name in STATISTICS}
    for b in range(n_boot):
        idx = np.random.default_rng(seeds[b]).integers(0, n2, size=n2)
        boot = FunctionalSample.from_matrix(sample.grid, sub2.matrix[idx])
        model = DensityModel(boot, pair, distance, bandwidth=h, normalized=True)
        for name in STATISTICS:
            reps[name][:, b] = [getattr(model, name)(m) for m in modes]
    return reps


def median_distance(distance):
    def bw(sub1):
        model = DensityModel(sub1, builtin_pair("gaussian_gaussian"), distance,
                             normalized=False)
        off = ~np.eye(len(sub1), dtype=bool)
        return float(np.median(model.pairwise_distances[off]))
    return bw


@pytest.mark.thread_invariant
class TestReplicatesAsIndexViews:
    @pytest.mark.parametrize("distance", [
        DistanceSpec("l2"),
        DistanceSpec("sobolev_h1",
                     derivative_method=DerivativeMethod("local_poly", 2, 0.1)),
    ], ids=["l2", "sobolev_h1_local_poly"])
    def test_matches_rebuild_per_replicate(self, distance):
        sample = two_blob_sample(seed=5)
        pair = builtin_pair("gaussian_gaussian")
        report = run_mode_test(sample, pair, distance,
                               bandwidth=median_distance(distance),
                               t_cfg=ModeTestConfig(n_boot=100), seed=11)
        assert report.records
        modes = [rec.mode for rec in report.records]
        want = rebuild_per_replicate(sample, pair, distance, report.bandwidth,
                                     modes, 100, 11)
        for i, rec in enumerate(report.records):
            for name in STATISTICS:
                assert np.array_equal(rec.replicates[name], want[name][i])


# a gap of 6 gives two sharp modes, a gap of 0.5 some candidates that are
# not significant
@pytest.mark.parametrize("gap", [6.0, 0.5])
@pytest.mark.parametrize("kernel", ["gaussian_gaussian", "biweight_triweight"])
@pytest.mark.parametrize("distance", [
    DistanceSpec("l2"),
    DistanceSpec("sobolev_h1",
                 derivative_method=DerivativeMethod("local_poly", 2, 0.1)),
], ids=["l2", "sobolev_h1_local_poly"])
class TestIntervalOrdering:
    def test_lambda_paper_interval_ends_at_or_above_lambda_eigen(self, distance,
                                                                 kernel, gap):
        # lambda_paper, the trace bound, is at least lambda_eigen in every
        # replicate, so each percentile of its replicates is too
        sample, pair = two_blob_sample(seed=5, gap=gap), builtin_pair(kernel)
        reports = {name: run_mode_test(sample, pair, distance,
                                       bandwidth=median_distance(distance),
                                       t_cfg=ModeTestConfig(n_boot=200,
                                                            statistic=name),
                                       seed=11)
                   for name in STATISTICS}
        eigen, paper = reports["lambda_eigen"], reports["lambda_paper"]
        assert eigen.records
        for e, p in zip(eigen.records, paper.records, strict=True):
            for name in STATISTICS:  # the same replicates
                assert np.array_equal(e.replicates[name], p.replicates[name])
            scale = max(np.abs(r).max() for r in e.replicates.values())
            assert np.all(e.replicates["lambda_paper"]
                          >= e.replicates["lambda_eigen"] - 1e-12 * scale)
            assert p.ci[0] >= e.ci[0] - 1e-12 * scale
            assert p.ci[1] >= e.ci[1] - 1e-12 * scale
            assert e.significant or not p.significant


def separated_levels():
    # the first half (0, 0.01, 5) has a close pair and so a non-atomic mode;
    # the second half (5.01, 100, 200) has no pair within reach of h = 1
    levels = [0.0, 0.01, 5.0, 5.01, 100.0, 200.0]
    return FunctionalSample.from_matrix(
        GRID, np.array(levels)[:, None] * np.ones(len(GRID)))


class TestModeTestFailures:
    def test_a_missing_bandwidth_is_named(self):
        with pytest.raises(ValueError, match="needs a bandwidth: a number or a callable"):
            run_mode_test(two_blob_sample(), builtin_pair("gaussian_gaussian"))

    def test_second_half_normalizer_error_names_the_second_half(self):
        with pytest.raises(NormalizerError,
                           match=r"second half \(3 curves\) at bandwidth h=1:"):
            run_mode_test(separated_levels(), builtin_pair("uniform_epanechnikov"),
                          bandwidth=1.0, t_cfg=ModeTestConfig(n_boot=100))

    def test_non_finite_statistic_is_an_error_not_a_redraw(self, monkeypatch):
        sample, pair = two_blob_sample(), builtin_pair("gaussian_gaussian")
        cfg = ModeTestConfig(n_boot=100)
        r = len(run_mode_test(sample, pair, bandwidth=2.0, t_cfg=cfg).records)
        assert r > 0
        real, calls = DensityModel.curvature_statistics, []

        def statistics(self, xs):
            # one call per model, for every candidate: finite on the second
            # half, lambda_paper non-finite from the first replicate on
            calls.append(xs)
            eigen, paper = real(self, xs)
            return eigen, paper * np.nan if len(calls) > 1 else paper

        monkeypatch.setattr(DensityModel, "curvature_statistics", statistics)
        with pytest.raises(FloatingPointError,
                           match=r"lambda_paper is nan at candidate mode \d+ "
                                 r"in replicate 0"):
            run_mode_test(sample, pair, bandwidth=2.0, t_cfg=cfg)
        # the second half, then replicate 0, which was not redrawn
        assert [len(xs) for xs in calls] == [r, r]
