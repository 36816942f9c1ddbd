"""Acceptance gate: one test per criterion, one printed verdict line each.

Every numeric claim is checked against an independent oracle (finite
differences, brute-force maximization, quadrature or hand algebra) rather than
against the code path under test. Stochastic criteria use documented seeds.
"""

import time

import numpy as np
import pytest
from scipy import optimize

from fmshift import (
    BUILTIN_PAIR_NAMES,
    Curve,
    DensityModel,
    DerivativeMethod,
    FunctionalSample,
    GeneratorSpec,
    Grid,
    MeanShiftConfig,
    ScanSpec,
    SignatureRecord,
    builtin_pair,
    cluster,
    clustering_accuracy,
    fpca_kmeans,
    generate,
    read_signature,
    scan,
    tangential_acceleration,
    validate_pair,
    write_signature,
)
from fmshift import TestConfig as ModeTestConfig
from fmshift import test_modes as run_mode_test

SMOOTH_KERNELS = ("gaussian_gaussian", "epanechnikov_biweight",
                  "biweight_triweight")


def verdict(num, ok, detail):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_model(seed, n=6, m=15, kernel="gaussian_gaussian", h=3.0):
    rng = np.random.default_rng(seed)
    grid = Grid(np.linspace(0.0, 1.0, m))
    sample = FunctionalSample.from_matrix(grid, rng.standard_normal((n, m)))
    model = DensityModel(sample, builtin_pair(kernel), bandwidth=h,
                         normalized=True)
    x = Curve(grid, 0.5 * rng.standard_normal(m))
    y = Curve(grid, rng.standard_normal(m))
    return model, x, y


def test_criterion_01_gradient_oracle():
    """<y, grad p~(x)> matches central finite differences on 50 instances."""
    t0 = time.time()
    alpha = 1e-5
    worst = 0.0
    for i in range(50):
        kernel = SMOOTH_KERNELS[i % len(SMOOTH_KERNELS)]
        model, x, y, = random_model(i, kernel=kernel, h=4.0)
        grid = model.grid
        w = grid.quad_weights
        analytic = float(np.dot(model.gradient(x).values * w, y.values))
        plus = model.density_g(Curve(grid, x.values + alpha * y.values))
        minus = model.density_g(Curve(grid, x.values - alpha * y.values))
        numeric = (plus - minus) / (2.0 * alpha)
        rel = abs(analytic - numeric) / max(abs(numeric), 1e-12)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    verdict(1, worst < 1e-4 and elapsed < 10.0,
            f"50 instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_hessian_oracle():
    """Second central differences match hessian_form on 20 instances."""
    t0 = time.time()
    alpha = 1e-4
    worst = 0.0
    for i in range(20):
        kernel = SMOOTH_KERNELS[i % len(SMOOTH_KERNELS)]
        model, x, _ = random_model(100 + i, kernel=kernel, h=4.0)
        grid = model.grid
        rng = np.random.default_rng(1000 + i)
        for _ in range(20):
            y = Curve(grid, rng.standard_normal(len(grid)))
            analytic = model.hessian_form(x, y, y)
            plus = model.density_g(Curve(grid, x.values + alpha * y.values))
            minus = model.density_g(Curve(grid, x.values - alpha * y.values))
            numeric = (plus - 2.0 * model.density_g(x) + minus) / alpha**2
            rel = abs(analytic - numeric) / max(abs(numeric), 1e-8)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    verdict(2, worst < 1e-3 and elapsed < 10.0,
            f"20 instances x 20 directions, worst relative error {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_03_supremum_oracle():
    """lambda_eigen equals brute-force maximization of the quadratic form,
    and lambda_paper, the trace bound, is at least it."""
    t0 = time.time()
    worst = 0.0
    discrepancies = []
    bounded = True
    for i in range(10):
        rng = np.random.default_rng(200 + i)
        n = int(rng.integers(3, 9))
        grid = Grid(np.linspace(0.0, 1.0, 12))
        sample = FunctionalSample.from_matrix(grid,
                                              rng.standard_normal((n, 12)))
        model = DensityModel(sample, builtin_pair("gaussian_gaussian"),
                             bandwidth=4.0)
        x = Curve(grid, 0.4 * rng.standard_normal(12))
        lam = model.lambda_eigen(x)

        # brute force: 1e4 random unit directions inside span{X_i - x} (where
        # the supremum is attained), then a derivative-free polish; only
        # hessian_form is used, never the eigendecomposition path
        D = sample.matrix - x.values
        best_val, best_dir = -np.inf, None
        for _ in range(10_000):
            vals = rng.standard_normal(n) @ D
            nrm = model.ip_norm(Curve(grid, vals))
            if nrm < 1e-12:
                continue
            y = Curve(grid, vals / nrm)
            v = model.hessian_form(x, y, y)
            if v > best_val:
                best_val, best_dir = v, y.values

        def neg_form(vals):
            nrm = model.ip_norm(Curve(grid, vals))
            if nrm < 1e-12:
                return np.inf
            y = Curve(grid, vals / nrm)
            return -model.hessian_form(x, y, y)

        res = optimize.minimize(neg_form, best_dir, method="Nelder-Mead",
                                options={"xatol": 1e-13, "fatol": 1e-15,
                                         "maxiter": 40_000, "maxfev": 40_000})
        brute = max(best_val, -res.fun)
        worst = max(worst, abs(lam - brute))
        paper = model.lambda_paper(x)
        discrepancies.append(paper - lam)
        # the trace bound is at least the supremum, up to rounding
        bounded = bounded and paper - lam >= -1e-12 * max(abs(paper), abs(lam))
    elapsed = time.time() - t0
    disc = ", ".join(f"{d:+.3f}" for d in discrepancies)
    print(f"  lambda_paper - lambda_eigen per instance: [{disc}]")
    verdict(3, worst < 1e-6 and bounded and elapsed < 30.0,
            f"10 instances, worst |eigen - brute| {worst:.2e}, lambda_paper "
            f">= lambda_eigen: {bounded}, {elapsed:.1f}s")


def test_criterion_04_shadow_relation():
    """All builtin pairs validate; the uniform pair is analytic."""
    residuals = {}
    ok = True
    for name in BUILTIN_PAIR_NAMES:
        v = validate_pair(builtin_pair(name), mesh_size=1000)
        residuals[name] = v.shadow_residual
        ok = ok and v.passed and v.shadow_residual < 1e-8
    pair = builtin_pair("uniform_epanechnikov")
    t = np.linspace(0.0, 1.0, 257)
    exact = pair.C == 2.0 and bool(np.all(pair.k(t) == 1.0))
    worst = max(residuals.values())
    verdict(4, ok and exact,
            f"5 pairs validated, worst residual {worst:.2e}, "
            f"uniform pair C=2 and k==1 exact")


def test_criterion_05_fixed_point_identity():
    """Near-zero gradient at every mode; m = s * a_star along trajectories."""
    pair = builtin_pair("gaussian_gaussian")
    grid = Grid(np.linspace(0.0, 1.0, 40))
    tmesh = np.linspace(0.0, 1.0, 2001)[1:]
    kmax = float(pair.k(tmesh).max())
    dkmax = float(np.abs(pair.k.deriv(tmesh)).max())

    worst_ratio = 0.0
    worst_step = 0.0
    runs = 0
    for seed in range(10):
        kind = ("signal_clutter", "elliptical_sincos")[seed % 2]
        sample = generate(GeneratorSpec(kind, n=60, seed=seed), grid)
        ref = DensityModel(sample, pair, bandwidth=1.0, normalized=False)
        h = 0.3 * ref.max_pairwise_distance
        model = DensityModel(sample, pair, bandwidth=h, normalized=False)
        cfg = MeanShiftConfig().resolved(model)
        ms = cluster(model, cfg)
        runs += 1

        # derived tolerance: |grad(mode)| <= C w_G p_bar_max eps + L D where
        # eps is the step tolerance, D the worst mode-to-terminal distance and
        # L a mesh bound on the operator norm of the second differential
        L = pair.C * model.w_G * float(((dkmax + kmax) / model._h**2).sum())
        for j, mode in enumerate(ms.modes):
            terms = [ms.trajectories[i].terminal
                     for i, a in enumerate(ms.assignments)
                     if a == j and ms.trajectories[i].converged]
            if not terms:
                continue
            Dj = max(model.metric.distance(mode.values, tt.values) for tt in terms)
            pb = max(model.p_bar(tt) for tt in terms)
            tol = pair.C * model.w_G * pb * cfg.step_tolerance + L * Dj
            gn = model.ip_norm(model.gradient(mode))
            worst_ratio = max(worst_ratio, gn / tol)

        # the step identity holds at every recorded iterate
        for tr in ms.trajectories[:6]:
            for it in tr.iterates[:-1]:
                m = model.mean_shift_vector(it)
                s = model.step_size(it)
                a = model.ascent_direction(it)
                err = float(np.abs(m.values - s * a.values).max())
                worst_step = max(worst_step, err)
    verdict(5, worst_ratio <= 1.0 and worst_step < 1e-10,
            f"{runs} runs, worst |grad|/tolerance {worst_ratio:.3f}, "
            f"worst |m - s*a| {worst_step:.2e}")


def test_criterion_06_mode_test_reproduction():
    """Three candidates; the two signal modes significant, clutter not."""
    t0 = time.time()
    seeds = (4, 9, 19, 29, 33, 39, 43, 50, 56, 64)
    grid = Grid(np.linspace(0.0, 1.0, 50))
    pair = builtin_pair("gaussian_gaussian")

    def bw41(sub1):
        m = DensityModel(sub1, pair, bandwidth=1.0, normalized=False)
        off = ~np.eye(len(sub1), dtype=bool)
        return float(np.percentile(m.pairwise_distances[off], 41))

    def classify(mean_level):
        if abs(mean_level) < 0.8:
            return "X"
        if abs(mean_level - 3.0) < 0.8:
            return "Y"
        return "C"

    hits = 0
    for seed in seeds:
        sample = generate(GeneratorSpec("signal_clutter", n=150, seed=seed),
                          grid)
        rep = run_mode_test(sample, pair, bandwidth=bw41,
                            t_cfg=ModeTestConfig(alpha=0.05, n_boot=1000),
                            seed=seed)
        kinds = [classify(float(rep.candidates.modes[j].values.mean()))
                 for j in rep.tested_mode_indices]
        sig = set(rep.significant_mode_indices)
        want = {j for j, k in zip(rep.tested_mode_indices, kinds)
                if k in ("X", "Y")}
        if len(kinds) == 3 and sorted(kinds) == ["C", "X", "Y"] and sig == want:
            hits += 1
    elapsed = time.time() - t0
    verdict(6, hits >= 8 and elapsed < 300.0,
            f"{hits}/10 documented seeds give 3 candidates with exactly the "
            f"two signal modes significant, {elapsed:.0f}s")


def test_criterion_07_clustering_comparison():
    """Mean shift beats fPCA/k-means on rings; both clean on blobs."""
    t0 = time.time()
    grid = Grid(np.linspace(0.0, 1.0, 50))
    pair = builtin_pair("gaussian_gaussian")

    # concentric rings in coefficient space defeat k-means but not mean shift
    circ_ms, circ_km = [], []
    for seed in (0, 1, 3):
        s = generate(GeneratorSpec("circular_sincos", n=200, seed=seed,
                                   params={"radii": (1.0, 4.0),
                                           "per_ring": [60, 140]}), grid)
        ref = DensityModel(s, pair, bandwidth=1.0, normalized=False)
        model = DensityModel(s, pair,
                             bandwidth=0.2 * ref.max_pairwise_distance,
                             normalized=False)
        ms = cluster(model, MeanShiftConfig(merge_radius_factor=2.0))
        circ_ms.append(clustering_accuracy(s.labels, ms.assignments))
        km = fpca_kmeans(s, n_components=2, k=2, seeds=seed)
        circ_km.append(clustering_accuracy(s.labels,
                                           km.km_assignments.tolist()))

    ell_ms, ell_km = [], []
    for seed in (0, 1, 2):
        s = generate(GeneratorSpec("elliptical_sincos", n=150, seed=seed), grid)
        ref = DensityModel(s, pair, bandwidth=1.0, normalized=False)
        model = DensityModel(s, pair,
                             bandwidth=0.3 * ref.max_pairwise_distance,
                             normalized=False)
        ms = cluster(model)
        ell_ms.append(clustering_accuracy(s.labels, ms.assignments))
        km = fpca_kmeans(s, n_components=2, k=2, seeds=seed)
        ell_km.append(clustering_accuracy(s.labels,
                                          km.km_assignments.tolist()))
    elapsed = time.time() - t0
    ok = (min(circ_ms) >= 0.90 and max(circ_km) <= 0.65
          and min(ell_ms) >= 0.95 and min(ell_km) >= 0.95
          and elapsed < 60.0)
    verdict(7, ok,
            f"rings: mean-shift {[round(a, 2) for a in circ_ms]} vs k-means "
            f"{[round(a, 2) for a in circ_km]}; blobs: mean-shift "
            f"{[round(a, 2) for a in ell_ms]} vs k-means "
            f"{[round(a, 2) for a in ell_km]}, {elapsed:.0f}s")


def test_criterion_08_outlier_flagging():
    """An out-of-reach curve becomes exactly one atomic cluster."""
    grid = Grid(np.linspace(0.0, 1.0, 21))
    M = np.array([np.full(21, v) for v in (0.0, 0.1, 0.05, -0.1, 20.0)])
    sample = FunctionalSample.from_matrix(grid, M)
    ok = True
    for kernel in ("uniform_epanechnikov", "gaussian_gaussian"):
        model = DensityModel(sample, builtin_pair(kernel), bandwidth=1.0,
                             normalized=False)
        ms = cluster(model)
        atomic = [j for j, f in enumerate(ms.atomic_flags) if f]
        ok = ok and len(atomic) == 1 and ms.assignments[4] == atomic[0] \
            and bool(np.allclose(ms.modes[atomic[0]].values, 20.0))
    verdict(8, ok, "uniform and truncated-Gaussian kernels both flag exactly "
                   "one atomic cluster holding the outlier")


def test_criterion_09_bandwidth_scan():
    """Default sweep layout; the three-cluster plateau exists and recovers 3."""
    t0 = time.time()
    spec = ScanSpec()
    layout_ok = (spec.n_values == 100 and spec.lo_frac == 0.05
                 and spec.hi_frac == 0.50)
    grid = Grid(np.linspace(0.0, 1.0, 50))
    pair = builtin_pair("gaussian_gaussian")
    sample = generate(GeneratorSpec("signal_clutter", n=150, seed=0), grid)
    res = scan(sample, pair)
    sweep_ok = (res.bandwidths.size == 100
                and np.isclose(res.bandwidths[0], 0.05 * res.max_distance)
                and np.isclose(res.bandwidths[-1], 0.50 * res.max_distance))
    three = [(a, b) for a, b in res.plateaus if res.nonatomic_counts[a] == 3]
    recovered = False
    if three:
        a, b = three[0]
        mid = float((res.bandwidths[a] + res.bandwidths[b]) / 2.0)
        model = DensityModel(sample, pair, bandwidth=mid, normalized=False)
        ms = cluster(model)
        recovered = sum(1 for s in ms.cluster_sizes() if s > 1) == 3
    elapsed = time.time() - t0
    verdict(9, layout_ok and sweep_ok and bool(three) and recovered,
            f"100-point sweep over [5%, 50%] max distance; 3-cluster plateau "
            f"found and its midpoint recovers 3 non-atomic clusters, "
            f"{elapsed:.0f}s")


def two_author_signatures(tmp_path):
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 1.0, 300)
    paths = []
    labels = []
    for author, freq in (("A", 3.0), ("B", 5.0)):
        for i in range(10):
            a = 0.05 * (1.0 + 0.1 * rng.standard_normal())
            x = t + a * np.sin(2 * np.pi * freq * t) \
                + 0.001 * rng.standard_normal(t.size)
            y = 0.3 * np.sin(2 * np.pi * 2.0 * t) \
                + 0.001 * rng.standard_normal(t.size)
            p = tmp_path / f"{author}{i:02d}.sig"
            write_signature(p, SignatureRecord(x=x, y=y, t=t * 1000.0))
            paths.append(p)
            labels.append(author)
    return paths, labels


def test_criterion_10_signature_pipeline(tmp_path):
    """Unit-norm feature, SVC round trip, perfect two-author separation."""
    grid = Grid(np.linspace(0.0, 1.0, 64))
    pair = builtin_pair("gaussian_gaussian")
    method = DerivativeMethod("local_poly", degree=2, bandwidth=0.04)
    paths, labels = two_author_signatures(tmp_path)

    # SVC round trip and unit L2 norm of the extracted feature
    w = grid.quad_weights
    norm_err = 0.0
    curves = []
    for p in paths:
        sig = read_signature(p)
        feat = tangential_acceleration(sig, grid, method)
        norm_err = max(norm_err,
                       abs(float(np.dot(feat.values * w, feat.values)) - 1.0))
        curves.append(feat)
    roundtrip = read_signature(paths[0])
    again = tmp_path / "copy.sig"
    write_signature(again, roundtrip)
    rt_ok = again.read_bytes() == paths[0].read_bytes()

    # scan for a candidate bandwidth, then cluster end to end
    sample = FunctionalSample(grid, tuple(curves), tuple(labels))
    res = scan(sample, pair, spec=ScanSpec(n_values=40, min_plateau_len=4))
    best = 0.0
    for cand in res.candidates:
        model = DensityModel(sample, pair, bandwidth=cand, normalized=False)
        ms = cluster(model)
        best = max(best, clustering_accuracy(sample.labels, ms.assignments))
    verdict(10, norm_err < 1e-8 and rt_ok and best == 1.0,
            f"unit-norm error {norm_err:.1e}, byte-stable SVC round trip, "
            f"perfect separation at a scanned candidate bandwidth")
