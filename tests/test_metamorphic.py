"""Metamorphic relations: what the method reports does not depend on the
unit of the curves or on the order of the sample, and what the mode test's
first stage reports does not depend on the curves it bootstraps.

The paper's objects are functions, not arrays. Multiplying every curve and
every bandwidth by a power of two s changes no rounding, so the relations
below hold to the last bit; relabelling the sample changes which curve is
which and nothing else. They come from the mathematics, not from an
algorithm of the package: each side is a fresh run through the public API,
and they hold whatever path computes the results.

Stability flags are left out of the order relation: each mode's probe
direction is drawn from one generator in mode order, which follows sample
order.

The mode test is split-sample: one half finds the candidate modes, and only
the other half is bootstrapped for their curvature. Replacing or rescaling
curves of the second half must leave the bandwidth, whatever rule picks it,
and all of stage 1 as they are, to the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmshift import (
    BUILTIN_PAIR_NAMES,
    DensityModel,
    DerivativeMethod,
    DistanceSpec,
    FunctionalSample,
    Grid,
    ScanSpec,
    builtin_pair,
    cluster,
    parse_report,
    scan,
    write_curves_csv,
)
from fmshift import TestConfig as ModeTestConfig
from fmshift import test_modes as run_mode_test
from fmshift.cli import main

GRID = Grid(np.linspace(0.0, 1.0, 21))
SPECS = {
    "l2": DistanceSpec("l2"),
    "derivative_l2": DistanceSpec("derivative_l2", order=1),
    "sobolev_h1_local_poly": DistanceSpec(
        "sobolev_h1", derivative_method=DerivativeMethod("local_poly", 2, 0.15)),
}
SCALES = (1.0 / 16.0, 4.0, 16.0)
SWEEP = ScanSpec(n_values=8, lo_frac=0.05, hi_frac=0.5, min_plateau_len=2)
SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)

seeds = st.integers(0, 2**16)
kinds = st.sampled_from(sorted(SPECS))
kernels = st.sampled_from(BUILTIN_PAIR_NAMES)
scales = st.sampled_from(SCALES)


def curves(seed, n=24):
    """Two smooth groups at different levels and slopes plus clutter."""
    rng = np.random.default_rng(seed)
    t = GRID.points
    group = rng.integers(0, 3, n)
    level = np.select([group == 0, group == 1], [0.0, 3.0],
                      rng.normal(1.5, 1.5, n))
    slope = np.where(group == 1, 2.0, -1.0)
    V = (level[:, None] + rng.normal(1.0, 0.1, (n, 1)) * np.cos(2.5 * np.pi * t)
         + slope[:, None] * t + 0.05 * rng.standard_normal((n, len(GRID))))
    return FunctionalSample.from_matrix(GRID, V)


def bandwidths(sample, pair, spec, seed, per_datum):
    """A fifth of the largest pairwise distance, times a factor in
    [0.8, 1.2] per curve if ``per_datum``."""
    h = 0.2 * DensityModel(sample, pair, spec, normalized=False).max_pairwise_distance
    if per_datum:
        h = h * np.random.default_rng(seed + 1).uniform(0.8, 1.2, len(sample))
    return h


def modes_of(sample, pair, spec, h):
    return cluster(DensityModel(sample, pair, spec, bandwidth=h, normalized=False))


def groups(assignments):
    """The partition of indices that ``assignments`` gives, as a set."""
    out = {}
    for i, a in enumerate(assignments):
        out.setdefault(a, set()).add(i)
    return {frozenset(g) for g in out.values()}


@pytest.mark.thread_invariant
class TestUnitScaling:
    @given(seed=seeds, kind=kinds, kernel=kernels, s=scales)
    @SETTINGS
    def test_scan_counts_and_plateaus_do_not_change(self, seed, kind, kernel, s):
        sample, pair = curves(seed), builtin_pair(kernel)
        base = scan(sample, pair, SPECS[kind], SWEEP)
        scaled = scan(FunctionalSample.from_matrix(GRID, s * sample.matrix), pair,
                      SPECS[kind], SWEEP)
        assert np.array_equal(scaled.nonatomic_counts, base.nonatomic_counts)
        assert np.array_equal(scaled.clustered_counts, base.clustered_counts)
        assert scaled.plateaus == base.plateaus
        assert scaled.max_distance == s * base.max_distance
        assert scaled.candidates == tuple(s * c for c in base.candidates)
        assert np.array_equal(scaled.bandwidths, s * base.bandwidths)

    @given(seed=seeds, kind=kinds, kernel=kernels, s=scales,
           per_datum=st.booleans())
    @SETTINGS
    def test_cluster_partition_does_not_change(self, seed, kind, kernel, s,
                                               per_datum):
        sample, pair, spec = curves(seed), builtin_pair(kernel), SPECS[kind]
        h = bandwidths(sample, pair, spec, seed, per_datum)
        base = modes_of(sample, pair, spec, h)
        scaled = modes_of(FunctionalSample.from_matrix(GRID, s * sample.matrix),
                          pair, spec, s * h)
        assert scaled.assignments == base.assignments
        assert len(scaled.modes) == len(base.modes)
        for a, b in zip(base.modes, scaled.modes):
            assert np.array_equal(b.values, s * a.values)


class TestSampleOrder:
    @given(seed=seeds, kind=kinds, kernel=kernels)
    @SETTINGS
    def test_scan_counts_do_not_change(self, seed, kind, kernel):
        sample, pair = curves(seed), builtin_pair(kernel)
        perm = np.random.default_rng(seed + 2).permutation(len(sample))
        base = scan(sample, pair, SPECS[kind], SWEEP)
        shuffled = scan(sample.subset(perm), pair, SPECS[kind], SWEEP)
        assert np.array_equal(shuffled.nonatomic_counts, base.nonatomic_counts)
        assert np.array_equal(shuffled.clustered_counts, base.clustered_counts)
        assert shuffled.max_distance == base.max_distance

    @given(seed=seeds, kind=kinds, kernel=kernels, per_datum=st.booleans())
    @SETTINGS
    def test_cluster_partition_maps_through_the_permutation(self, seed, kind,
                                                            kernel, per_datum):
        sample, pair, spec = curves(seed), builtin_pair(kernel), SPECS[kind]
        h = bandwidths(sample, pair, spec, seed, per_datum)
        perm = np.random.default_rng(seed + 2).permutation(len(sample))
        base = modes_of(sample, pair, spec, h)
        shuffled = modes_of(sample.subset(perm), pair, spec, h[perm] if per_datum else h)
        # position i of the shuffled sample is curve perm[i] of the original
        assert {frozenset(perm[list(g)]) for g in groups(shuffled.assignments)} \
            == groups(base.assignments)


class _SplitSeen(Exception):
    """Stops a mode test at its bandwidth rule, which carries the first half."""


def second_half(n, split, seed):
    """The positions of the curves that the mode test on n curves with this
    split rule and seed bootstraps: those its bandwidth rule does not see."""
    def rule(sub1):
        raise _SplitSeen(sub1.labels)

    blank = FunctionalSample.from_matrix(GRID, np.zeros((n, len(GRID))),
                                         labels=range(n))
    with pytest.raises(_SplitSeen) as seen:
        run_mode_test(blank, builtin_pair("gaussian_gaussian"), bandwidth=rule,
                      t_cfg=ModeTestConfig(n_boot=100, split_rule=split),
                      seed=seed)
    return sorted(set(range(n)) - set(seen.value.args[0]))


def changed_second_half(sample, split, seed, change):
    """The sample with its second-half curves scaled by 1.5 or replaced by
    other curves. (The second half must keep a pair within reach of h for the
    bootstrap to run, which larger factors break for derivative_l2.)"""
    rows = second_half(len(sample), split, seed)
    V = sample.matrix.copy()
    V[rows] = 1.5 * V[rows] if change == "scale" else curves(seed + 1).matrix[rows]
    return FunctionalSample.from_matrix(GRID, V)


def frac_of_largest_distance(spec):
    def rule(sub1):
        model = DensityModel(sub1, builtin_pair("gaussian_gaussian"), spec,
                             normalized=False)
        return 0.4 * model.max_pairwise_distance
    return rule


def stage_one(bandwidth, tested, modes, flags):
    """What of a mode test the first half alone determines: h, the tested
    candidates, the mode values, and stage 1's assignments and flags, which
    ``flags`` (a ModeSet or a RunReport) carries."""
    return (bandwidth, tuple(tested), [[float(v) for v in m] for m in modes],
            flags.assignments, flags.atomic_flags, flags.stability_flags)


@pytest.mark.thread_invariant
class TestSecondHalfIsBootstrapOnly:
    @given(seed=seeds, kind=kinds, split=st.sampled_from(["first_half", "random"]),
           change=st.sampled_from(["scale", "replace"]))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_library_rule_and_stage_one_do_not_change(self, seed, kind, split,
                                                      change):
        sample, spec = curves(seed), SPECS[kind]

        def run(s):
            rep = run_mode_test(s, builtin_pair("gaussian_gaussian"), spec,
                                bandwidth=frac_of_largest_distance(spec),
                                t_cfg=ModeTestConfig(n_boot=100,
                                                     split_rule=split),
                                seed=seed)
            return stage_one(rep.bandwidth, rep.tested_mode_indices,
                             [m.values for m in rep.candidates.modes],
                             rep.candidates)

        base = run(sample)
        assert base[1]  # a candidate is tested
        assert run(changed_second_half(sample, split, seed, change)) == base

    @pytest.mark.parametrize("change", ["scale", "replace"])
    @pytest.mark.parametrize("split", ["first_half", "random"])
    @pytest.mark.parametrize("flag, value", [("--bandwidth", 0.6),
                                             ("--bandwidth-frac", 0.25),
                                             ("--bandwidth-percentile", 41)])
    def test_cli_bandwidth_and_stage_one_do_not_change(self, flag, value, split,
                                                       change, tmp_path):
        seed = 5

        def run(s, name):
            write_curves_csv(tmp_path / f"{name}.csv", s)
            out = tmp_path / f"{name}.txt"
            assert main(["test-modes", "--input", str(tmp_path / f"{name}.csv"),
                         flag, str(value), "--boot", "100", "--split", split,
                         "--seed", str(seed), "--out", str(out)]) == 0
            rep = parse_report(out.read_text())
            return stage_one(rep.mode_test.bandwidth,
                             [row[0] for row in rep.mode_test.rows], rep.modes, rep)

        sample = curves(seed)
        base = run(sample, "base")
        assert base[1]  # a candidate is tested
        assert run(changed_second_half(sample, split, seed, change),
                   "changed") == base
