"""Mean-shift iteration, merging and outlier flagging."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from fmshift import (
    BUILTIN_PAIR_NAMES,
    OUTSIDE_SUPPORT,
    Curve,
    DensityModel,
    DerivativeMethod,
    DistanceSpec,
    FunctionalSample,
    Grid,
    MeanShiftConfig,
    ascend,
    builtin_pair,
    cluster,
)
from fmshift.engine import _components

GRID = Grid(np.linspace(0.0, 1.0, 21))


def constant_sample(levels):
    M = np.array([np.full(len(GRID), lv) for lv in levels])
    return FunctionalSample.from_matrix(GRID, M)


def gaussian_blob_sample(seed=0, n=20, centers=(0.0, 5.0), sd=0.2):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for i in range(n):
        c = centers[i % len(centers)]
        rows.append(c + sd * rng.standard_normal(len(GRID)))
        labels.append(i % len(centers))
    return FunctionalSample.from_matrix(GRID, np.array(rows),
                                        tuple(str(l) for l in labels))


class TestAscend:
    def test_uniform_kernel_one_step_to_mean(self):
        # with the uniform profile every in-reach curve has equal weight, so
        # one update lands exactly on the local mean and stays there
        sample = constant_sample([0.0, 1.0])
        model = DensityModel(sample, builtin_pair("uniform_epanechnikov"),
                             bandwidth=3.0, normalized=False)
        tr = ascend(model, sample.curves[0], MeanShiftConfig())
        assert tr.converged
        assert np.allclose(tr.terminal.values, 0.5, atol=1e-9)

    def test_outside_support_marker(self):
        sample = constant_sample([0.0, 1.0])
        model = DensityModel(sample, builtin_pair("uniform_epanechnikov"),
                             bandwidth=1.0, normalized=False)
        far = Curve(GRID, np.full(len(GRID), 40.0))
        tr = ascend(model, far, MeanShiftConfig())
        assert tr.destination == OUTSIDE_SUPPORT
        assert not tr.converged
        assert tr.terminal is far

    def test_trajectory_records_iterates(self):
        sample = gaussian_blob_sample()
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=2.0, normalized=False)
        tr = ascend(model, sample.curves[0], MeanShiftConfig())
        assert tr.converged
        assert len(tr.iterates) >= 2
        assert tr.iterates[0] is tr.start

    def test_max_iters_respected(self):
        sample = gaussian_blob_sample()
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=2.0, normalized=False)
        cfg = MeanShiftConfig(max_iters=1, step_tolerance=1e-15)
        tr = ascend(model, sample.curves[0], cfg)
        assert len(tr.iterates) == 2

    def test_density_nondecreasing_along_trajectory(self):
        # ascent property of mean shift: the shadow density never decreases
        sample = gaussian_blob_sample(seed=3)
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=2.5, normalized=False)
        tr = ascend(model, sample.curves[1], MeanShiftConfig())
        dens = [model.density_g(it) for it in tr.iterates]
        assert all(b >= a - 1e-10 for a, b in zip(dens, dens[1:]))


class TestCluster:
    def test_two_blobs_two_clusters(self):
        sample = gaussian_blob_sample()
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=2.0, normalized=False)
        ms = cluster(model)
        assert ms.n_modes == 2
        assert sorted(ms.cluster_sizes()) == [10, 10]
        # assignment matches the generating blob
        a0 = {ms.assignments[i] for i in range(0, 20, 2)}
        a1 = {ms.assignments[i] for i in range(1, 20, 2)}
        assert len(a0) == 1 and len(a1) == 1 and a0 != a1

    @pytest.mark.parametrize("kernel", ["uniform_epanechnikov",
                                        "gaussian_gaussian"])
    def test_outlier_forms_atomic_cluster(self, kernel):
        # one curve beyond every other support ball converges to itself and
        # comes out as a single atomic cluster
        sample = constant_sample([0.0, 0.1, 0.05, -0.1, 20.0])
        model = DensityModel(sample, builtin_pair(kernel), bandwidth=1.0,
                             normalized=False)
        ms = cluster(model)
        atomic = [j for j, f in enumerate(ms.atomic_flags) if f]
        assert len(atomic) == 1
        assert ms.assignments[4] == atomic[0]
        assert np.allclose(ms.modes[atomic[0]].values, 20.0)

    def test_determinism(self):
        sample = gaussian_blob_sample(seed=5)
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=2.0, normalized=False)
        a = cluster(model, MeanShiftConfig(seed=9))
        b = cluster(model, MeanShiftConfig(seed=9))
        assert a.assignments == b.assignments
        assert a.stability_flags == b.stability_flags
        for ma, mb in zip(a.modes, b.modes):
            assert np.array_equal(ma.values, mb.values)

    def test_permutation_invariance_of_partition(self):
        sample = gaussian_blob_sample(seed=11)
        perm = np.random.default_rng(1).permutation(len(sample))
        shuffled = sample.subset(perm.tolist())
        pair = builtin_pair("gaussian_gaussian")
        ms1 = cluster(DensityModel(sample, pair, bandwidth=2.0,
                                   normalized=False))
        ms2 = cluster(DensityModel(shuffled, pair, bandwidth=2.0,
                                   normalized=False))
        # the partition must be identical after undoing the permutation
        def groups(assignments):
            g = {}
            for i, a in enumerate(assignments):
                g.setdefault(a, set()).add(i)
            return sorted((frozenset(v) for v in g.values()), key=min)

        undone = [None] * len(sample)
        for pos, orig in enumerate(perm):
            undone[orig] = ms2.assignments[pos]
        assert groups(ms1.assignments) == groups(undone)

    def test_custom_starts_and_outside_assignment(self):
        sample = constant_sample([0.0, 0.2])
        model = DensityModel(sample, builtin_pair("uniform_epanechnikov"),
                             bandwidth=1.0, normalized=False)
        far = Curve(GRID, np.full(len(GRID), 99.0))
        ms = cluster(model, starts=[sample.curves[0], far])
        assert ms.assignments[0] == 0
        assert ms.assignments[1] == OUTSIDE_SUPPORT
        assert ms.cluster_sizes() == [1]

    def test_stability_flags_true_for_clean_modes(self):
        sample = gaussian_blob_sample(seed=2)
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=2.0, normalized=False)
        ms = cluster(model)
        assert all(ms.stability_flags)

    def test_starts_are_the_cached_sample_curves(self):
        sample = gaussian_blob_sample(seed=2)
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=2.0, normalized=False)
        assert model._V is sample.matrix
        ms = cluster(model)
        for i, tr in enumerate(ms.trajectories):
            assert sample.curves[i] is sample.curves[i]
            assert tr.start is sample.curves[i] and tr.iterates[0] is tr.start

    def test_merge_radius_controls_mode_count(self):
        # two nearby terminal points: a generous merge radius fuses them
        sample = constant_sample([0.0, 0.6])
        pair = builtin_pair("uniform_epanechnikov")
        model = DensityModel(sample, pair, bandwidth=0.5, normalized=False)
        tight = cluster(model, MeanShiftConfig(merge_radius_factor=0.05))
        loose = cluster(model, MeanShiftConfig(merge_radius_factor=2.0))
        assert tight.n_modes == 2
        assert loose.n_modes == 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["l2", "derivative_l2", "sobolev_h1"]))
def test_samples_built_three_ways_cluster_identically(seed, kind):
    rng = np.random.default_rng(seed)
    n = 12
    M = rng.standard_normal((n, len(GRID))) + np.repeat([0.0, 4.0], n // 2)[:, None]
    perm = rng.permutation(n)
    samples = [FunctionalSample(GRID, [Curve(GRID, row) for row in M]),
               FunctionalSample.from_matrix(GRID, M),
               FunctionalSample.from_matrix(GRID, M[perm]).subset(np.argsort(perm))]
    pair, spec = builtin_pair("gaussian_gaussian"), DistanceSpec(kind)
    h = 0.3 * DensityModel(samples[1], pair, spec,
                           normalized=False).max_pairwise_distance
    models = [DensityModel(s, pair, spec, bandwidth=h, normalized=False)
              for s in samples]
    runs = [cluster(m) for m in models]
    for m, ms in zip(models[1:], runs[1:]):
        assert np.array_equal(m.pairwise_distances, models[0].pairwise_distances)
        assert ms.assignments == runs[0].assignments
        assert ms.stability_flags == runs[0].stability_flags
        for tr, tr0 in zip(ms.trajectories, runs[0].trajectories):
            assert np.array_equal(tr.terminal.values, tr0.terminal.values)


@st.composite
def symmetric_graphs(draw):
    """Symmetric boolean adjacency matrices of 1 to 120 nodes, any diagonal."""
    n = draw(st.integers(1, 120))
    density = draw(st.sampled_from([0.0, 0.3 / n, 1.0 / n, 3.0 / n, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density)
    return upper | upper.T


def chain(order):
    """The path graph visiting the nodes in the given order."""
    A = np.eye(len(order), dtype=bool)
    A[order[:-1], order[1:]] = A[order[1:], order[:-1]] = True
    return A


def two_blocks(side):
    """Two complete blocks of nodes, interleaved by the 0/1 pattern side."""
    side = np.array(side)
    return side[:, None] == side[None, :]


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(A=symmetric_graphs())
    @example(A=np.zeros((7, 7), dtype=bool))
    @example(A=np.eye(120, dtype=bool))
    @example(A=np.ones((1, 1), dtype=bool))
    @example(A=np.ones((40, 40), dtype=bool))
    @example(A=chain(np.random.default_rng(3).permutation(60)))
    @example(A=two_blocks([1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1]))
    def test_matches_csgraph(self, A):
        # single-linkage merging labels as scipy's connected components do
        count, labels = _components(A)
        want_count, want = connected_components(A, directed=False)
        assert count == want_count
        assert np.array_equal(labels, want)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeanShiftConfig(max_iters=0)
        with pytest.raises(ValueError):
            MeanShiftConfig(step_tolerance=-1.0)
        with pytest.raises(ValueError):
            MeanShiftConfig(merge_radius_factor=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["step_tolerance", "merge_radius_factor",
                                       "perturbation_scale"])
    def test_non_finite_settings_are_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be .* finite"):
            MeanShiftConfig(**{field: bad})

    def test_resolved_defaults_scale_with_model(self):
        sample = constant_sample([0.0, 4.0])
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=2.0, normalized=False)
        cfg = MeanShiftConfig().resolved(model)
        assert cfg.step_tolerance == pytest.approx(1e-6 * 4.0)
        assert cfg.perturbation_scale == pytest.approx(0.2)


def reference_norms(metric, DF):
    """Distances of difference component rows as the square roots of the sums
    of DF * DF * w, the form ``Metric.norms`` had before its per-step savings."""
    return np.sqrt((DF * DF * metric.w).sum(axis=-1))


def reference_ascend(model, x0, cfg):
    """Oracle: one start's ascent written step by step in the engine's former
    form: ``reference_norms``, h**2 on every query and a validated curve per
    iterate. Returns the iterates, or None for a start outside every support
    ball."""
    metric, V = model.metric, model.sample.matrix
    F = metric.components(V)
    x, iterates = x0, [x0]
    for _ in range(cfg.max_iters):
        d = reference_norms(metric, F - metric.components(x.values))
        u = model.pair.k(d / model._h) / model._h**2
        if u.sum() <= 0.0:
            return None
        m = Curve(model.grid, (u @ V) / u.sum() - x.values)
        Fm = metric.components(m.values)
        shift = np.sqrt(max(float((Fm * metric.w) @ Fm), 0.0))
        x = Curve(model.grid, x.values + m.values)
        iterates.append(x)
        if shift <= cfg.step_tolerance:
            break
    return iterates


def reference_partition(metric, terminals, radius):
    """Single linkage of the terminals at the radius, from difference-form
    distances, labelled in order of first appearance."""
    F = metric.components(terminals)
    linked = reference_norms(metric, F[:, None] - F[None]) <= radius
    labels = [-1] * len(terminals)
    n_modes = 0
    for i in range(len(terminals)):
        if labels[i] >= 0:
            continue
        labels[i], todo = n_modes, [i]
        while todo:
            for b in np.flatnonzero(linked[todo.pop()]):
                if labels[b] < 0:
                    labels[b] = n_modes
                    todo.append(b)
        n_modes += 1
    return labels


def wave_sample(seed=5):
    """24 noisy curves around three waves: flat, cos(2 pi t), cos(4 pi t)."""
    rng = np.random.default_rng(seed)
    t = GRID.points
    M = np.array([c * np.cos(2 * np.pi * f * t) for c, f in
                  [(0.0, 1.0), (2.0, 1.0), (1.0, 2.0)] * 8])
    M += 0.3 * rng.standard_normal(M.shape)
    return FunctionalSample.from_matrix(GRID, M)


LOCAL_POLY = DerivativeMethod("local_poly", 3, 0.1)


@pytest.mark.thread_invariant
class TestAscendOracle:
    SPECS = [DistanceSpec("l2"), DistanceSpec("derivative_l2", 1),
             DistanceSpec("sobolev_h1", derivative_method=LOCAL_POLY)]

    @pytest.mark.parametrize("name", ["gaussian_gaussian", "biweight_triweight"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("frac", [0.25, 0.4])
    def test_cluster_matches_the_reference_ascent(self, name, spec, frac):
        sample = wave_sample()
        pair = builtin_pair(name)
        dmax = DensityModel(sample, pair, spec, normalized=False).max_pairwise_distance
        model = DensityModel(sample, pair, spec, bandwidth=frac * dmax,
                             normalized=False)
        cfg = MeanShiftConfig().resolved(model)
        got = cluster(model, cfg)

        runs = [reference_ascend(model, x0, cfg) for x0 in sample.curves]
        assert all(r is not None for r in runs)
        assert [len(tr.iterates) for tr in got.trajectories] == \
            [len(r) for r in runs]
        want = np.array([r[-1].values for r in runs])
        terminals = np.array([tr.terminal.values for tr in got.trajectories])
        assert np.allclose(terminals, want, rtol=1e-12,
                           atol=1e-12 * np.abs(want).max())
        radius = cfg.merge_radius_factor * frac * dmax
        assert list(got.assignments) == reference_partition(model.metric, want, radius)

    def test_resolved_returns_a_resolved_config_unchanged(self):
        sample = constant_sample([0.0, 4.0])
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=2.0, normalized=False)
        cfg = MeanShiftConfig().resolved(model)
        assert cfg.resolved(model) is cfg
        other = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=0.5, normalized=False)
        assert cfg.resolved(other) is cfg
        half = MeanShiftConfig(step_tolerance=1e-3).resolved(model)
        assert half.step_tolerance == 1e-3
        assert half.perturbation_scale == pytest.approx(0.2)
        half = MeanShiftConfig(perturbation_scale=0.7).resolved(model)
        assert half.step_tolerance == pytest.approx(1e-6 * 4.0)
        assert half.perturbation_scale == 0.7


HILBERT_SPECS = [DistanceSpec("l2"), DistanceSpec("derivative_l2", 1),
                 DistanceSpec("sobolev_h1"),
                 DistanceSpec("sobolev_h1", derivative_method=LOCAL_POLY)]


def spec_id(spec):
    return f"{spec.kind}-{spec.derivative_method.kind}"


def clustered_wave_sample(name, spec, frac):
    """The wave sample clustered at a fraction of its largest distance:
    (model, largest distance, clustering)."""
    sample = wave_sample()
    pair = builtin_pair(name)
    dmax = DensityModel(sample, pair, spec, normalized=False).max_pairwise_distance
    model = DensityModel(sample, pair, spec, bandwidth=frac * dmax, normalized=False)
    return model, dmax, cluster(model)


# Mean shift ascends the shadow density p~ when the distance is the norm
# induced by the inner product the gradient is taken in, and the shadow, as a
# function of t^2, is convex and nonincreasing (Comaniciu & Meer, PAMI 2002,
# Thm. 1). "gaussian_gaussian" is left out: its truncated shadow is
# discontinuous at the support edge, so p~ can drop there.
ASCENT_PAIRS = ["epanechnikov_biweight", "biweight_triweight"]


@pytest.mark.thread_invariant
class TestAscentProperty:
    @pytest.mark.parametrize("name", ASCENT_PAIRS)
    @pytest.mark.parametrize("spec", HILBERT_SPECS, ids=spec_id)
    @pytest.mark.parametrize("frac", [0.25, 0.4, 0.6])
    def test_density_g_never_falls_along_a_trajectory(self, name, spec, frac):
        model, _, ms = clustered_wave_sample(name, spec, frac)
        for tr in ms.trajectories:
            if tr.destination == OUTSIDE_SUPPORT:
                continue
            dens = np.array([model.density_g(it) for it in tr.iterates])
            assert np.all(np.diff(dens) >= -1e-12 * dens.max())


@pytest.mark.thread_invariant
class TestModeStationarity:
    @pytest.mark.parametrize("name", ASCENT_PAIRS)
    @pytest.mark.parametrize("spec", HILBERT_SPECS, ids=spec_id)
    @pytest.mark.parametrize("frac", [0.25, 0.4, 0.6])
    def test_non_atomic_modes_are_stationary_points_of_density_g(self, name,
                                                                 spec, frac):
        # central differences of p~ along unit directions, relative to p~ and
        # to the unit of length dmax, vanish at a mode up to the step tolerance
        model, dmax, ms = clustered_wave_sample(name, spec, frac)
        rng = np.random.default_rng(0)
        alpha = 1e-5 * dmax
        for mode, atomic in zip(ms.modes, ms.atomic_flags):
            if atomic:
                continue
            p = model.density_g(mode)
            for _ in range(8):
                y = Curve(GRID, rng.standard_normal(len(GRID)))
                y = y * (alpha / model.ip_norm(y))
                slope = (model.density_g(mode + y) - model.density_g(mode - y)) / (2 * alpha)
                assert abs(slope) * dmax / p <= 1e-4



class TestFirstStepOracle:
    """One update from every sample curve, the first step of each start of
    ``cluster``, against ``reference_ascend`` cut to a single step."""

    SPECS = [DistanceSpec(), DistanceSpec("sobolev_h1"),
             DistanceSpec("derivative_l2", 2)]

    @pytest.mark.parametrize("name", BUILTIN_PAIR_NAMES)
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("rule", ["fixed", "per_datum", "tiny"])
    def test_matches_the_per_curve_update(self, name, spec, rule):
        sample = gaussian_blob_sample(seed=3, centers=(0.0, 2.0), sd=0.3)
        pair = builtin_pair(name)
        dmax = DensityModel(sample, pair, spec, bandwidth=1.0,
                            normalized=False).max_pairwise_distance
        rng = np.random.default_rng(4)
        bandwidth = {"fixed": 0.3 * dmax,
                     "per_datum": dmax * rng.uniform(0.1, 0.5, len(sample)),
                     "tiny": 1e-12}[rule]
        model = DensityModel(sample, pair, spec, bandwidth=bandwidth,
                             normalized=False)
        cfg = MeanShiftConfig(max_iters=1).resolved(model)
        runs = [reference_ascend(model, x0, cfg) for x0 in sample.curves]
        assert all(r is not None for r in runs)
        want = np.array([r[-1].values for r in runs])
        trajectories = [ascend(model, x0, cfg) for x0 in sample.curves]
        assert all(tr.destination != OUTSIDE_SUPPORT for tr in trajectories)
        assert all(len(tr.iterates) == 2 for tr in trajectories)
        got = np.array([tr.terminal.values for tr in trajectories])
        scale = np.abs(want).max()
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * scale)
        if rule == "tiny":
            # every curve is at distance exactly 0 from itself and beyond
            # reach of all others, so it sees only its own weight and stays
            V = sample.matrix
            assert np.allclose(got, V, rtol=1e-13, atol=1e-13 * np.abs(V).max())


@pytest.mark.thread_invariant
class TestMergeOrigin:
    """Shifting every curve by one constant leaves the partition as it is.
    The merge centres the terminals first, so the Gram form's loss of about
    sqrt(eps) of the rows' norms does not merge modes far from the origin."""

    @staticmethod
    def partition(kind, c):
        grid = Grid(np.linspace(0.0, 1.0, 50))
        rng = np.random.default_rng(0)
        level = np.repeat([0.0, 3.0], 30)
        a = rng.normal(1.0, 0.1, 60)
        V = level[:, None] + a[:, None] * np.cos(2.5 * np.pi * grid.points)
        model = DensityModel(FunctionalSample.from_matrix(grid, V + c),
                             builtin_pair("gaussian_gaussian"),
                             DistanceSpec(kind), bandwidth=1.0)
        return cluster(model).assignments

    @pytest.mark.parametrize("kind", ["l2", "sobolev_h1"])
    @pytest.mark.parametrize("c", [0.0, 1e8, 1e9])
    def test_partition_ignores_a_constant_shift(self, kind, c):
        at_origin = self.partition(kind, 0.0)
        assert sorted(set(at_origin)) == [0, 1]
        assert self.partition(kind, c) == at_origin
