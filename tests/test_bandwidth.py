"""Plateau detection and the bandwidth stability sweep."""

import numpy as np
import pytest

import fmshift.bandwidth
from fmshift import (DensityModel, DerivativeMethod, DistanceSpec,
                     FunctionalSample, Grid, ScanSpec, builtin_pair, scan)
from fmshift.bandwidth import (_find_plateaus, _max_distance, _percentile_distance,
                               _rounding_level)
from fmshift.function_space import Metric

GRID = Grid(np.linspace(0.0, 1.0, 21))


class TestFindPlateaus:
    def test_basic(self):
        counts = np.array([5, 4, 4, 3, 3, 3, 3, 2, 2])
        assert _find_plateaus(counts, 3) == [(3, 6)]
        assert _find_plateaus(counts, 2) == [(1, 2), (3, 6), (7, 8)]

    def test_whole_array_one_plateau(self):
        counts = np.full(10, 7)
        assert _find_plateaus(counts, 5) == [(0, 9)]

    def test_no_plateau(self):
        counts = np.arange(10)
        assert _find_plateaus(counts, 2) == []

    def test_plateau_at_tail(self):
        counts = np.array([3, 2, 1, 1, 1])
        assert _find_plateaus(counts, 3) == [(2, 4)]


class TestScanSpec:
    def test_defaults_match_convention(self):
        spec = ScanSpec()
        assert spec.n_values == 100
        assert spec.lo_frac == 0.05
        assert spec.hi_frac == 0.50
        assert spec.min_plateau_len == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanSpec(lo_frac=0.5, hi_frac=0.2)
        with pytest.raises(ValueError):
            ScanSpec(n_values=1)
        with pytest.raises(ValueError):
            ScanSpec(min_plateau_len=1)


def blob_sample(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for c in (0.0, 6.0, 12.0):
        rows.append(c + 0.3 * rng.standard_normal((8, len(GRID))))
    return FunctionalSample.from_matrix(GRID, np.vstack(rows))


class TestScan:
    def test_grid_of_bandwidths(self):
        sample = blob_sample()
        spec = ScanSpec(n_values=12, lo_frac=0.1, hi_frac=0.6,
                        min_plateau_len=3)
        res = scan(sample, builtin_pair("gaussian_gaussian"), spec=spec)
        assert res.bandwidths.size == 12
        assert np.isclose(res.bandwidths[0], 0.1 * res.max_distance)
        assert np.isclose(res.bandwidths[-1], 0.6 * res.max_distance)

    def test_three_blob_plateau(self):
        sample = blob_sample()
        spec = ScanSpec(n_values=25, lo_frac=0.05, hi_frac=0.45,
                        min_plateau_len=4)
        res = scan(sample, builtin_pair("gaussian_gaussian"), spec=spec)
        assert 3 in res.nonatomic_counts
        # at least one plateau sits at the true cluster count
        plateau_counts = {int(res.nonatomic_counts[a]) for a, b in res.plateaus}
        assert 3 in plateau_counts
        assert len(res.candidates) == len(res.plateaus)
        for (a, b), c in zip(res.plateaus, res.candidates):
            assert c == pytest.approx((res.bandwidths[a] + res.bandwidths[b]) / 2)

    def test_large_bandwidth_fuses_everything(self):
        sample = blob_sample()
        spec = ScanSpec(n_values=4, lo_frac=0.9, hi_frac=1.0,
                        min_plateau_len=2)
        res = scan(sample, builtin_pair("gaussian_gaussian"), spec=spec)
        assert res.nonatomic_counts[-1] == 1
        assert res.clustered_counts[-1] == len(sample)

    def test_rows_shape(self):
        sample = blob_sample()
        spec = ScanSpec(n_values=5, min_plateau_len=2)
        res = scan(sample, builtin_pair("gaussian_gaussian"), spec=spec)
        rows = res.rows()
        assert len(rows) == 5
        assert all(len(r) == 3 for r in rows)

    def test_needs_two_curves(self):
        sample = FunctionalSample.from_matrix(GRID, np.zeros((1, len(GRID))))
        with pytest.raises(ValueError):
            scan(sample, builtin_pair("gaussian_gaussian"))


class TestOneModelPerScan:
    @pytest.mark.parametrize("spec", [DistanceSpec(), DistanceSpec("sobolev_h1")],
                             ids=["l2", "sobolev_h1"])
    def test_one_geometry_for_the_whole_sweep(self, spec, monkeypatch):
        calls = {"init": 0, "pairwise": 0}
        models = []
        init, pairwise = DensityModel.__init__, Metric.pairwise
        cluster = fmshift.bandwidth.cluster

        def counted_init(self, *args, **kwargs):
            calls["init"] += 1
            init(self, *args, **kwargs)

        def counted_pairwise(self, F):
            calls["pairwise"] += 1
            return pairwise(self, F)

        def recorded_cluster(model, cfg=None):
            models.append(model)
            return cluster(model, cfg)

        monkeypatch.setattr(DensityModel, "__init__", counted_init)
        monkeypatch.setattr(Metric, "pairwise", counted_pairwise)
        monkeypatch.setattr(fmshift.bandwidth, "cluster", recorded_cluster)
        res = scan(blob_sample(), builtin_pair("gaussian_gaussian"), spec)
        assert len(models) == res.bandwidths.size == 100
        assert calls["init"] == 1
        # one pairwise matrix of the sample, then one per terminal merge
        assert calls["pairwise"] == 1 + 100
        D = models[0].pairwise_distances
        assert all(m.pairwise_distances is D for m in models)
        assert [float(m._h[0]) for m in models] == res.bandwidths.tolist()
        assert all(not m.normalized for m in models)


class TestZeroDistanceScale:
    @pytest.mark.parametrize("spec", [
        DistanceSpec(), DistanceSpec("sobolev_h1"),
        DistanceSpec("derivative_l2", 1),
        DistanceSpec("derivative_l2", 2, DerivativeMethod("local_poly", 2, 0.2))],
        ids=["l2", "sobolev_h1", "derivative_l2", "derivative_l2_local_poly"])
    def test_identical_curves_raise(self, spec):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(len(GRID))
        same = FunctionalSample.from_matrix(GRID, np.tile(base, (5, 1)))
        with pytest.raises(ValueError, match="curves are identical under the "
                                             f"{spec.kind} distance"):
            scan(same, builtin_pair("gaussian_gaussian"), spec)

    @pytest.mark.parametrize("method", [DerivativeMethod(),
                                        DerivativeMethod("local_poly", 2, 0.2)],
                             ids=["finite_difference", "local_poly"])
    def test_constant_offsets_under_derivative_l2_raise(self, method):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(len(GRID))
        shifted = FunctionalSample.from_matrix(
            GRID, base + np.array([0.0, 1.5, -3.7, 10.1, 0.3])[:, None])
        spec = DistanceSpec("derivative_l2", 1, method)
        with pytest.raises(ValueError, match="identical under the derivative_l2"):
            scan(shifted, builtin_pair("gaussian_gaussian"), spec)
        # the same curves are far apart in l2
        scan(shifted, builtin_pair("gaussian_gaussian"),
             spec=ScanSpec(n_values=3, min_plateau_len=2))

    @pytest.mark.parametrize("order", [1, 2])
    def test_constant_curves_under_local_poly_derivatives_raise(self, order):
        # their derivative components are rounding noise of about 1e-14,
        # as large as their own norm
        constants = FunctionalSample.from_matrix(
            GRID, np.array([0.0, 1.5, -3.7, 10.1, 0.3])[:, None]
            * np.ones(len(GRID)))
        spec = DistanceSpec("derivative_l2", order,
                            DerivativeMethod("local_poly", 2, 0.2))
        with pytest.raises(ValueError, match="identical under the derivative_l2"):
            scan(constants, builtin_pair("gaussian_gaussian"), spec,
                 ScanSpec(n_values=4, min_plateau_len=2))

    def test_derivative_differences_far_below_the_offsets_are_kept(self):
        # slopes 1e-6 on offsets near 1e3: tiny against the values, far
        # above the rounding of the derivative operator
        t = GRID.points
        rows = np.array([1e3 + 1e-6 * k * t for k in range(5)])
        spec = DistanceSpec("derivative_l2", 1,
                            DerivativeMethod("local_poly", 2, 0.2))
        res = scan(FunctionalSample.from_matrix(GRID, rows),
                   builtin_pair("gaussian_gaussian"), spec,
                   ScanSpec(n_values=3, min_plateau_len=2))
        assert res.max_distance == pytest.approx(4e-6, rel=1e-6)


ROUNDING_SPECS = [
    DistanceSpec(), DistanceSpec("sobolev_h1"),
    DistanceSpec("derivative_l2", 2, DerivativeMethod("local_poly", 2, 0.2))]


class TestRoundingLevel:
    @pytest.mark.parametrize("spec", ROUNDING_SPECS,
                             ids=["l2", "sobolev_h1", "derivative_l2_local_poly"])
    def test_row_norms_equal_the_gram_diagonal(self, spec):
        # the largest component norm from one row reduction, against the
        # diagonal of the full n x n Gram matrix
        V = np.random.default_rng(7).standard_normal((40, len(GRID)))
        model = DensityModel(FunctionalSample.from_matrix(GRID, V),
                             builtin_pair("gaussian_gaussian"), spec,
                             normalized=False)
        m, F = model.metric, model._F
        norm = float(np.sqrt(np.diag(m.gram(F, F)).max()))
        value_norm = float(np.sqrt(np.diag((V * GRID.quad_weights) @ V.T).max()))
        operator_norm = sum(float(np.linalg.norm(D)) for D in m.operators
                            if D is not None)
        want = max(1e-6 * norm, 1e-12 * value_norm * operator_norm)
        assert _rounding_level(model) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("spec", ROUNDING_SPECS,
                             ids=["l2", "sobolev_h1", "derivative_l2_local_poly"])
    def test_identical_curves_still_raise(self, spec):
        base = np.random.default_rng(8).standard_normal(len(GRID))
        same = FunctionalSample.from_matrix(GRID, np.tile(base, (4, 1)))
        with pytest.raises(ValueError, match=f"identical under the {spec.kind} "
                                             "distance"):
            _max_distance(DensityModel(same, builtin_pair("gaussian_gaussian"),
                                       spec, normalized=False))


class TestPercentileDistance:
    @pytest.mark.parametrize("spec", ROUNDING_SPECS,
                             ids=["l2", "sobolev_h1", "derivative_l2_local_poly"])
    def test_is_the_percentile_of_the_off_diagonal_distances(self, spec):
        V = np.random.default_rng(9).standard_normal((12, len(GRID)))
        sample = FunctionalSample.from_matrix(GRID, V)
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"), spec,
                             normalized=False)
        # each pair once
        D = model.pairwise_distances
        pairs = [D[i, j] for i in range(12) for j in range(i + 1, 12)]
        for q in (0.0, 41.0, 100.0):
            assert _percentile_distance(model, q) == float(np.percentile(pairs, q))

    @pytest.mark.parametrize("n", range(4, 40))
    def test_lies_strictly_between_two_pair_distances(self, n):
        # counted twice, every distance fills two adjacent order statistics,
        # and an interpolated percentile often lands on one of them: that
        # pair then sits at t = 1, the edge of a compact support
        grid = Grid(np.linspace(0.0, 1.0, 30))
        V = np.random.default_rng(n).standard_normal((n, len(grid)))
        model = DensityModel(FunctionalSample.from_matrix(grid, V),
                             builtin_pair("gaussian_gaussian"), normalized=False)
        h = _percentile_distance(model, 41.0)
        d = model.pairwise_distances[np.triu_indices(n, 1)]
        assert np.any(d < h) and np.any(d > h) and not np.any(d == h)

    @pytest.mark.parametrize("spec", ROUNDING_SPECS,
                             ids=["l2", "sobolev_h1", "derivative_l2_local_poly"])
    def test_zero_up_to_rounding_raises(self, spec):
        # two distinct curves among copies: most pairs are at distance zero
        rows = np.tile(np.random.default_rng(10).standard_normal(len(GRID)), (6, 1))
        rows[0] += np.linspace(0.0, 1.0, len(GRID)) ** 2
        model = DensityModel(FunctionalSample.from_matrix(GRID, rows),
                             builtin_pair("gaussian_gaussian"), spec,
                             normalized=False)
        with pytest.raises(ValueError, match="percentile 41 of the first half's "
                                             f"pairwise {spec.kind} distances is "
                                             "zero up to rounding"):
            _percentile_distance(model, 41)
