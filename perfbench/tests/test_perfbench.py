"""Tests of the benchmark's own arithmetic, counters and output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import fmshift.engine
import workloads as wl
from fmshift import Curve, DensityModel, DistanceSpec, FunctionalSample, builtin_pair
from fmshift.inference import TestConfig as ModeTestConfig
from run import tail
from tracing import HOOKS, Tracer, layer_metrics, self_times

PAIR = builtin_pair("gaussian_gaussian")


def small_sample(n=18, seed=3):
    mat = wl.clutter_matrix(np.random.default_rng(seed), n=n)
    return FunctionalSample.from_matrix(wl.GRID, mat)


def traced(fn):
    """Run fn with every layer traced; return (tracer, result)."""
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        tracer.enabled = True
        tracer.current_op = 0
        result = fn()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert not tracer.missing
    return tracer, result


# -- self time -----------------------------------------------------------------


def test_self_times_on_a_synthetic_nested_trace():
    # 0 root [0, 10]
    #   1 a [1, 4]
    #     2 a.x [2, 3]
    #   3 b [5, 9]
    # 4 root2 [20, 30] with overlapping children and one running past its end
    #   5 c [21, 25]
    #   6 d [23, 27]
    #   7 e [29, 32]
    starts = [0, 1, 2, 5, 20, 21, 23, 29]
    ends = [10, 4, 3, 9, 30, 25, 27, 32]
    parents = [-1, 0, 1, 0, -1, 4, 4, 4]
    got = self_times(starts, ends, parents)
    assert got == [10 - 3 - 4, 3 - 1, 1, 4, 10 - 6 - 1, 4, 4, 3]


def test_wrapper_records_parents_and_restores_on_uninstall():
    original = fmshift.engine.ascend
    model = DensityModel(small_sample(), PAIR, bandwidth=1.0, normalized=False)
    tracer, ms = traced(lambda: fmshift.engine.cluster(model))
    assert fmshift.engine.ascend is original
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "engine.cluster" and tracer.parent[0] == -1
    for i, name in enumerate(names):
        if name == "engine.ascend":
            assert names[tracer.parent[i]] == "engine.cluster"
        assert tracer.end[i] >= tracer.start[i]
    totals = tracer.layer_totals()
    root = tracer.end[0] - tracer.start[0]
    assert sum(s for _, s in totals.values()) == pytest.approx(root, rel=1e-9)


# -- counts equal independently derived values -----------------------------------


def test_ascend_and_mean_shift_counts_match_the_trajectories():
    sample = small_sample()
    model = DensityModel(sample, PAIR, bandwidth=0.8, normalized=False)
    far = Curve(wl.GRID, sample.curves[0].values + 100.0)  # beyond every support
    starts = list(sample.curves) + [far]
    tracer, ms = traced(lambda: fmshift.engine.cluster(model, starts=starts))
    totals = tracer.layer_totals()
    c = tracer.counters
    assert totals["engine.cluster"][0] == 1
    assert totals["engine.ascend"][0] == len(starts) + ms.n_modes
    assert ms.assignments[-1] == fmshift.engine.OUTSIDE_SUPPORT
    assert c["engine.outside_support"] == 1
    # steps count every trajectory ascend returned: one per start, then one
    # stability probe per mode
    steps = sum(len(tr.iterates) - 1 for tr in ms.trajectories)
    assert steps <= c["engine.steps"] <= steps + ms.n_modes * 500
    assert (totals["surrogate.mean_shift_vector"][0]
            == c["engine.steps"] + c["engine.outside_support"])
    assert c["engine.unconverged"] == sum(
        1 for tr in ms.trajectories
        if not tr.converged and tr.destination != fmshift.engine.OUTSIDE_SUPPORT)


def test_retries_equal_the_report_and_the_resample_count():
    sample = small_sample(n=24)
    n_boot = 100
    tracer, rep = traced(lambda: fmshift.inference.test_modes(
        sample, PAIR, DistanceSpec("l2"), bandwidth=wl.percentile_bandwidth,
        t_cfg=ModeTestConfig(n_boot=n_boot), seed=2))
    assert rep.records
    metrics = layer_metrics(tracer, 1)
    assert metrics["inference.retries"][0] == rep.records[0].n_retries
    assert metrics["inference.replicates"][0] == n_boot
    # the split builds two subsamples; every bootstrap attempt builds one
    attempts = tracer.layer_totals()["function_space.sample_build"][0] - 2
    assert attempts - n_boot == metrics["inference.retries"][0]


def test_per_layer_counts_repeat_exactly():
    sample = small_sample()

    def counts():
        tracer, _ = traced(lambda: fmshift.bandwidth.scan(
            sample, PAIR, DistanceSpec("l2"), wl._scan_spec(3)))
        return {k: v for k, (v, unit) in layer_metrics(tracer, 1).items()
                if unit == "count"}

    first, second = counts(), counts()
    assert first == second
    assert first["engine.cluster.count"] == 3
    assert first["bandwidth.scan.count"] == 1


# -- metric arithmetic and output checks -------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(24)]
    value, pct, beyond = tail(times[::-1])
    assert (value, beyond) == (13.0, 10)
    assert pct == pytest.approx(100.0 * 14 / 24)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_partitions_compare_up_to_relabeling():
    a, ma = wl.canonical_labels([2, 2, 0, -1, 1, 0])
    b, mb = wl.canonical_labels([5, 5, 3, -1, 4, 3])
    assert a == b == [0, 0, 1, -1, 2, 1]
    assert ma == {2: 0, 0: 1, 1: 2}


def test_plateaus_and_reference_comparison():
    assert wl.plateaus_of([3, 3, 2, 2, 2, 1], 2) == [(0, 1), (2, 4)]
    assert wl.plateaus_of([3, 2, 1], 2) == []
    ref = {"tested": [0, 1], "ci": [[-1.0, -0.5]]}
    assert wl.compare_summary({"tested": [0, 1], "ci": [[-1.0, -0.5 + 1e-12]]},
                              ref) == []
    assert len(wl.compare_summary({"tested": [0], "ci": [[-1.0, -0.4]]}, ref)) == 2


def test_scan_check_catches_a_wrong_plateau():
    sample = small_sample()
    inp = wl.ClutterInput(sample, 0, "sha256:x")
    res = fmshift.bandwidth.scan(sample, PAIR, DistanceSpec("l2"), wl._scan_spec())
    assert wl._check_scan(inp, res) == []
    bad = replace(res, plateaus=((0, 1),), candidates=(1.0,))
    assert wl._check_scan(inp, bad)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    scan = wl.WORKLOADS["scan_clutter"]
    one = [i.digest for i in scan.pool(7, tmp_path / "a")]
    two = [i.digest for i in scan.pool(7, tmp_path / "b")]
    other = [i.digest for i in scan.pool(8, tmp_path / "c")]
    assert one == two and len(set(one)) == len(one)
    assert not set(one) & set(other)
    cli = wl.WORKLOADS["cli_signatures"]
    sig = cli.pool(7, tmp_path / "d")
    assert len(list(sig[0].directory.iterdir())) == sig[0].n_files
    assert sig[0].digest == cli.pool(7, tmp_path / "e")[0].digest


def test_benchmark_json_names_the_metrics_the_runs_print():
    import json
    from pathlib import Path

    import run
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "op_p50_s", "op_tail_s", "items_per_s", "setup_s", "peak_rss_mb"}
    tracer, _ = traced(lambda: None)
    names = set(layer_metrics(tracer, 1)) | {"trace.overhead_frac"}
    assert [m["name"] for m in spec["per_layer"]] and \
        {m["name"] for m in spec["per_layer"]} == names


def test_modetest_check_tests_the_step_where_convergence_was_declared(tmp_path):
    # on this input one start converges and its final tiny shift carries the
    # terminal into another curve's support ball, where the step jumps
    inp = wl.WORKLOADS["modetest_clutter"].pool(1169836267, tmp_path)[21]
    rep, _ = wl._run_modetest(inp)
    assert wl._check_modetest(inp, rep) == []

    cand = rep.candidates
    i, tr = next((i, tr) for i, tr in enumerate(cand.trajectories)
                 if tr.destination != fmshift.engine.OUTSIDE_SUPPORT
                 and len(tr.iterates) > 3)
    early = replace(tr, iterates=tr.iterates[:2], converged=True)
    short = replace(tr, iterates=tr.iterates[:2], converged=False)
    for bad_tr in (early, short):
        trs = cand.trajectories[:i] + (bad_tr,) + cand.trajectories[i + 1:]
        bad = replace(rep, candidates=replace(cand, trajectories=trs))
        assert wl._check_modetest(inp, bad)
