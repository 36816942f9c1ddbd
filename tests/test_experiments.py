"""Synthetic generators and the fPCA/k-means baseline."""

import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmshift import (
    FunctionalSample,
    GeneratorSpec,
    Grid,
    clustering_accuracy,
    fpca_kmeans,
    generate,
)

GRID = Grid(np.linspace(0.0, 1.0, 64))


class TestGeneratorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("mystery", n=10)
        with pytest.raises(ValueError):
            GeneratorSpec("signal_clutter", n=0)


class TestSignalClutter:
    def test_reproducible(self):
        a = generate(GeneratorSpec("signal_clutter", n=60, seed=5), GRID)
        b = generate(GeneratorSpec("signal_clutter", n=60, seed=5), GRID)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.labels == b.labels

    def test_group_structure(self):
        s = generate(GeneratorSpec("signal_clutter", n=300, seed=1), GRID)
        labels = set(s.labels)
        assert labels == {"X", "Y", "C"}
        # membership is uniform over the three groups
        counts = {l: s.labels.count(l) for l in labels}
        for c in counts.values():
            assert 60 < c < 140

    def test_signal_shapes(self):
        s = generate(GeneratorSpec("signal_clutter", n=200, seed=2), GRID)
        base = np.cos(5.0 * np.pi / 2.0 * GRID.points)
        for lab, curve in zip(s.labels, s.curves):
            if lab == "X":
                # X curves are eta * base with eta ~ N(1, 0.1): the curve is
                # an exact scalar multiple of the base shape
                eta = curve.values[0] / base[0]
                assert np.allclose(curve.values, eta * base, atol=1e-12)
                assert 0.5 < eta < 1.5
            elif lab == "Y":
                eta = (curve.values[0] - 3.0) / base[0]
                assert np.allclose(curve.values, 3.0 + eta * base, atol=1e-12)

    def test_clutter_spread(self):
        s = generate(GeneratorSpec("signal_clutter", n=400, seed=3), GRID)
        base = np.cos(5.0 * np.pi / 2.0 * GRID.points)
        offsets = [c.values[0] - base[0] for lab, c in zip(s.labels, s.curves)
                   if lab == "C"]
        # clutter offsets are gamma + 3 * Bernoulli(1/2): both branches occur
        assert min(offsets) < 1.0 and max(offsets) > 2.0


class TestSinCosGenerators:
    @pytest.mark.parametrize("kind", ["elliptical_sincos", "circular_sincos"])
    def test_span_residual(self, kind):
        # every generated curve lies in span{sin(2 pi t), cos(2 pi t)}
        s = generate(GeneratorSpec(kind, n=40, seed=0), GRID)
        t = GRID.points
        B = np.vstack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)]).T
        coef, *_ = np.linalg.lstsq(B, s.matrix.T, rcond=None)
        resid = s.matrix.T - B @ coef
        assert np.abs(resid).max() < 1e-10

    def test_elliptical_centers(self):
        s = generate(GeneratorSpec("elliptical_sincos", n=200, seed=4), GRID)
        t = GRID.points
        B = np.vstack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)]).T
        coef, *_ = np.linalg.lstsq(B, s.matrix.T, rcond=None)
        for lab, want in (("c0", -2.0), ("c1", 2.0)):
            a = [coef[0, i] for i, l in enumerate(s.labels) if l == lab]
            assert np.mean(a) == pytest.approx(want, abs=0.3)

    def test_circular_radii(self):
        s = generate(GeneratorSpec("circular_sincos", n=100, seed=4), GRID)
        t = GRID.points
        B = np.vstack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)]).T
        coef, *_ = np.linalg.lstsq(B, s.matrix.T, rcond=None)
        r = np.hypot(coef[0], coef[1])
        r0 = [r[i] for i, l in enumerate(s.labels) if l == "ring0"]
        r1 = [r[i] for i, l in enumerate(s.labels) if l == "ring1"]
        assert np.mean(r0) == pytest.approx(1.0, abs=0.1)
        assert np.mean(r1) == pytest.approx(3.0, abs=0.1)


class TestFpcaKmeans:
    def test_two_dim_data_fully_explained(self):
        s = generate(GeneratorSpec("elliptical_sincos", n=60, seed=7), GRID)
        res = fpca_kmeans(s, n_components=2, k=2, seeds=0)
        assert res.explained_fraction.sum() == pytest.approx(1.0, abs=1e-10)
        assert res.pc_scores.shape == (60, 2)

    def test_scores_reproduce_centered_data(self):
        # with all components kept, scores times eigenbasis rebuild the
        # centered sample (fPCA is a change of basis)
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, len(GRID)))
        s = FunctionalSample.from_matrix(GRID, M)
        res = fpca_kmeans(s, n_components=6, k=2, seeds=0)
        # variances under the quadrature inner product: total matches trace
        w = GRID.quad_weights
        Mc = M - M.mean(axis=0)
        total = np.einsum("ij,j,ij->", Mc, w, Mc) / 6.0
        assert res.explained_variance.sum() == pytest.approx(total, rel=1e-8)

    def test_separated_blobs_perfect_kmeans(self):
        s = generate(GeneratorSpec("elliptical_sincos", n=80, seed=9), GRID)
        res = fpca_kmeans(s, n_components=2, k=2, seeds=0)
        acc = clustering_accuracy(s.labels, res.km_assignments.tolist())
        assert acc == 1.0

    def test_explicit_centers(self):
        s = generate(GeneratorSpec("elliptical_sincos", n=40, seed=2), GRID)
        res = fpca_kmeans(s, n_components=2, k=2,
                          seeds=np.array([[-1.5, 0.0], [1.5, 0.0]]))
        assert len(set(res.km_assignments.tolist())) == 2

    def test_validation(self):
        s = generate(GeneratorSpec("elliptical_sincos", n=10, seed=2), GRID)
        with pytest.raises(ValueError):
            fpca_kmeans(s, n_components=0, k=2)
        with pytest.raises(ValueError):
            fpca_kmeans(s, n_components=2, k=11)
        with pytest.raises(ValueError):
            fpca_kmeans(s, n_components=2, k=2, seeds=np.zeros((3, 3)))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_refused(self, k):
        s = generate(GeneratorSpec("elliptical_sincos", n=10, seed=2), GRID)
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            fpca_kmeans(s, n_components=2, k=k, seeds=0)


def accuracy_by_permutations(true_labels, cluster_labels):
    """Exhaustive search over injective label maps; factorial time."""
    tvals = sorted(set(true_labels), key=str)
    cvals = sorted(set(cluster_labels), key=str)
    counts = {(c, t): 0 for c in cvals for t in tvals}
    for t, c in zip(true_labels, cluster_labels):
        counts[(c, t)] += 1
    best = 0
    if len(cvals) <= len(tvals):
        for perm in permutations(tvals, len(cvals)):
            best = max(best, sum(counts[(c, t)] for c, t in zip(cvals, perm)))
    else:
        for perm in permutations(cvals, len(tvals)):
            best = max(best, sum(counts[(c, t)] for c, t in zip(perm, tvals)))
    return best / len(true_labels)


class TestClusteringAccuracy:
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from("abcde")),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_permutation_search(self, pairs):
        truth = [t for t, _ in pairs]
        clus = [c for _, c in pairs]
        assert clustering_accuracy(truth, clus) == \
            pytest.approx(accuracy_by_permutations(truth, clus), abs=1e-12)

    def test_many_labels_finish_fast(self):
        # 12 against 12 labels: 12! injective maps for an exhaustive search
        rng = np.random.default_rng(0)
        truth = np.arange(300) % 12
        relabel = rng.permutation(12)
        clus = relabel[truth]
        moved = rng.choice(300, size=20, replace=False)
        clus[moved] = (clus[moved] + 1 + rng.integers(0, 11, size=20)) % 12
        t0 = time.perf_counter()
        acc = clustering_accuracy(truth.tolist(), clus.tolist())
        assert time.perf_counter() - t0 < 1.0
        # every true class keeps at least 20 of its 25 curves, so the
        # relabeling is the best map and only the moved curves disagree
        assert acc == pytest.approx(280 / 300)

    def test_perfect(self):
        assert clustering_accuracy(["a", "a", "b"], [1, 1, 0]) == 1.0

    def test_best_injective_map(self):
        # three clusters against two labels: only two clusters can map
        truth = ["a", "a", "a", "b", "b", "b"]
        clus = [0, 0, 1, 2, 2, 2]
        assert clustering_accuracy(truth, clus) == pytest.approx(5.0 / 6.0)

    def test_fewer_clusters_than_labels(self):
        truth = ["a", "b", "c"]
        clus = [0, 0, 0]
        assert clustering_accuracy(truth, clus) == pytest.approx(1.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            clustering_accuracy([1, 2], [1])

    def test_empty_label_lists(self):
        with pytest.raises(ValueError, match="label lists are empty"):
            clustering_accuracy([], [])

    def test_label_names_do_not_matter(self):
        a = clustering_accuracy(["x", "y", "y"], [5, 9, 9])
        b = clustering_accuracy([0, 1, 1], ["p", "q", "q"])
        assert a == b == 1.0
