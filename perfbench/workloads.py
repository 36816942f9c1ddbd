"""Inputs, operations and output checks of the three benchmark workloads.

Every input is generated here from the workload seed, so a change to
``fmshift.experiments`` cannot change what is measured. A workload draws a
pool of inputs once during set-up; the closed loop then runs one operation
per pool entry in turn. Each operation is one call a library or CLI user
makes and waits for:

* ``scan_clutter``: ``fmshift.bandwidth.scan`` over a sweep from 5% to 50%
  of the largest pairwise distance;
* ``modetest_clutter``: ``fmshift.inference.test_modes`` with a
  percentile bandwidth rule;
* ``cli_signatures``: ``fmshift.cli.main(["cluster", "--signatures", ...])``
  on a directory of pen traces, with the report written to a file.

The functions look fmshift names up on their modules at call time, so the
spans the tracer installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fmshift.bandwidth
import fmshift.cli
import fmshift.inference
from fmshift.engine import OUTSIDE_SUPPORT, MeanShiftConfig
from fmshift.function_space import DistanceSpec, FunctionalSample, Grid
from fmshift.inference import TestConfig
from fmshift.io import SignatureRecord, write_signature
from fmshift.kernels import builtin_pair
from fmshift.reports import parse_report
from fmshift.surrogate import DensityModel

#: Outputs recorded at seed 0, compared with every run at that seed.
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0

# -- sizes ------------------------------------------------------------------

N_CURVES = 150            # clutter sample size
GRID_POINTS = 50          # clutter grid length L
SCAN_VALUES = 4           # bandwidths per sweep
SCAN_LO, SCAN_HI = 0.05, 0.50
SCAN_MIN_PLATEAU = 2
N_BOOT = 500              # bootstrap replicates per mode test
BW_PERCENTILE = 41.0      # bandwidth rule of the mode test
SIG_WRITERS = (("A", 3.0), ("B", 5.0))  # writer, tremor frequency
SIG_PER_WRITER = 8
SIG_POINTS = 300
SIG_GRID_POINTS = 64
KERNEL = "gaussian_gaussian"

# Pool entries per workload; ops cycle through the pool. Operation cost
# depends on the drawn sample (how many modes the mode test finds, how long
# trajectories run), so the clutter pools hold about as many samples as a run
# has operations and the median does not hinge on a few draws. The traced run
# cycles through the first TRACE_POOL entries only.
POOL_SIZE = {"scan_clutter": 24, "modetest_clutter": 24, "cli_signatures": 4}
TRACE_POOL = 4

SIZES = {
    "scan_clutter": {"n": N_CURVES, "L": GRID_POINTS, "bandwidths": SCAN_VALUES,
                     "distance": "l2", "kernel": KERNEL},
    "modetest_clutter": {"n": N_CURVES, "L": GRID_POINTS, "B": N_BOOT,
                         "bandwidth_percentile": BW_PERCENTILE,
                         "distance": "l2", "kernel": KERNEL},
    "cli_signatures": {"curves": len(SIG_WRITERS) * SIG_PER_WRITER,
                       "points_per_trace": SIG_POINTS,
                       "L": SIG_GRID_POINTS, "distance": "sobolev_h1",
                       "deriv_method": "local_poly", "kernel": KERNEL},
}


def cli_args(directory, out) -> list[str]:
    return ["cluster", "--signatures", str(directory),
            "--sig-grid-points", str(SIG_GRID_POINTS),
            "--distance", "sobolev_h1", "--deriv-method", "local_poly",
            "--deriv-bandwidth", "0.04", "--bandwidth-frac", "0.3",
            "--kernel", KERNEL, "--out", str(out)]


# -- input generation ---------------------------------------------------------


def digest_bytes(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return "sha256:" + h.hexdigest()[:16]


def clutter_matrix(rng: np.random.Generator, n: int = N_CURVES,
                   length: int = GRID_POINTS) -> np.ndarray:
    """Curves shaped like ``signal_clutter``: two cosine signals at levels 0
    and 3 plus vertically scattered clutter.

    Each half of the sample holds the three groups in equal shares, so the
    mode test's split halves, and with them the cost of an operation, do not
    swing with the draw of group sizes.
    """
    t = np.linspace(0.0, 1.0, length)
    base = np.cos(2.5 * np.pi * t)
    rows = []
    for half in (n - n // 2, n // 2):
        groups = np.arange(half) % 3
        rng.shuffle(groups)
        for g in groups:
            if g == 0:
                rows.append(rng.normal(1.0, 0.1) * base)
            elif g == 1:
                rows.append(3.0 + rng.normal(1.0, 0.1) * base)
            else:
                rows.append(rng.normal(0.0, 0.8) + 3.0 * rng.integers(0, 2)
                            + base)
    return np.array(rows)


def write_signatures(rng: np.random.Generator, directory: Path,
                     per_writer: int = SIG_PER_WRITER) -> None:
    """Two writers whose pen traces differ in the frequency of a horizontal
    tremor, one file per trace, written with ``fmshift.io.write_signature``."""
    directory.mkdir(parents=True, exist_ok=True)
    t = np.linspace(0.0, 1.0, SIG_POINTS)
    for writer, freq in SIG_WRITERS:
        for i in range(per_writer):
            a = 0.05 * (1.0 + 0.1 * rng.standard_normal())
            x = (t + a * np.sin(2 * np.pi * freq * t)
                 + 0.001 * rng.standard_normal(t.size))
            y = (0.3 * np.sin(2 * np.pi * 2.0 * t)
                 + 0.001 * rng.standard_normal(t.size))
            write_signature(directory / f"{writer}{i:02d}.sig",
                            SignatureRecord(x=x, y=y, t=t * 1000.0))


def dir_digest(directory: Path) -> str:
    paths = sorted(p for p in directory.iterdir() if p.is_file())
    return digest_bytes(*(p.name.encode() + b"\0" + p.read_bytes()
                          for p in paths))


# -- output summaries ---------------------------------------------------------


def canonical_labels(assignments) -> tuple[list[int], dict[int, int]]:
    """Relabel a partition by order of first appearance; OUTSIDE_SUPPORT stays.

    Returns the relabeled assignments and the old -> new label map, so
    partitions compare exactly up to relabeling.
    """
    mapping: dict[int, int] = {}
    out = []
    for a in assignments:
        a = int(a)
        if a == OUTSIDE_SUPPORT:
            out.append(a)
            continue
        if a not in mapping:
            mapping[a] = len(mapping)
        out.append(mapping[a])
    return out, mapping


def plateaus_of(counts, min_len: int) -> list[tuple[int, int]]:
    """Maximal runs of equal counts at least min_len long, as index pairs."""
    runs, start = [], 0
    for i in range(1, len(counts) + 1):
        if i == len(counts) or counts[i] != counts[start]:
            if i - start >= min_len:
                runs.append((start, i - 1))
            start = i
    return runs


def _close(a, b, rtol=1e-7, atol=1e-12) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


# -- workloads ----------------------------------------------------------------


@dataclass
class Workload:
    """One workload: its pool of inputs, its operation and its checks.

    ``run`` returns the operation's output and how many work items it
    completed (bandwidths, bootstrap replicates or curves). ``check`` returns
    the invariant violations of an output for any seed; ``summary`` reduces an
    output to the plain data compared against the recorded reference.
    """

    name: str
    make_inputs: Callable
    run: Callable
    check: Callable
    summary: Callable
    warm_up: Callable

    def pool(self, seed: int, workdir: Path):
        seqs = np.random.SeedSequence(seed).spawn(POOL_SIZE[self.name])
        return [self.make_inputs(s, workdir / f"in{i}")
                for i, s in enumerate(seqs)]


PAIR = builtin_pair(KERNEL)
GRID = Grid(np.linspace(0.0, 1.0, GRID_POINTS))


@dataclass(frozen=True)
class ClutterInput:
    sample: FunctionalSample
    test_seed: int
    digest: str


def _make_clutter(seq: np.random.SeedSequence, _workdir) -> ClutterInput:
    rng = np.random.default_rng(seq)
    mat = clutter_matrix(rng)
    test_seed = int(rng.integers(0, 2**31 - 1))
    return ClutterInput(FunctionalSample.from_matrix(GRID, mat), test_seed,
                        digest_bytes(mat.tobytes()))


def l2_pairwise(mat: np.ndarray) -> np.ndarray:
    """Off-diagonal trapezoid-rule L2 distances between the rows of a matrix
    on the uniform grid, computed without fmshift."""
    length = mat.shape[1]
    w = np.full(length, 1.0 / (length - 1))
    w[0] = w[-1] = 0.5 / (length - 1)
    # one row at a time, so the check adds little to the peak memory measured
    d = np.array([np.sqrt(((mat - row) ** 2) @ w) for row in mat])
    return d[~np.eye(len(mat), dtype=bool)]


# scan_clutter ------------------------------------------------------------------


def _scan_spec(values=SCAN_VALUES):
    return fmshift.bandwidth.ScanSpec(n_values=values, lo_frac=SCAN_LO,
                                      hi_frac=SCAN_HI,
                                      min_plateau_len=SCAN_MIN_PLATEAU)


def _run_scan(inp: ClutterInput):
    res = fmshift.bandwidth.scan(inp.sample, PAIR, DistanceSpec("l2"),
                                 _scan_spec())
    return res, SCAN_VALUES


def _check_scan(inp: ClutterInput, res) -> list[str]:
    problems = []
    n = len(inp.sample)
    dmax = float(l2_pairwise(inp.sample.matrix).max())
    if not _close(res.max_distance, dmax, rtol=1e-9):
        problems.append(f"max distance {res.max_distance!r} is not {dmax!r}")
    hs = np.linspace(SCAN_LO, SCAN_HI, SCAN_VALUES) * res.max_distance
    if not _close(res.bandwidths, hs, rtol=1e-12):
        problems.append("sweep bandwidths are not the requested layout")
    na = np.asarray(res.nonatomic_counts)
    cc = np.asarray(res.clustered_counts)
    if na.size != SCAN_VALUES or cc.size != SCAN_VALUES:
        problems.append("one count per bandwidth expected")
        return problems
    if np.any(na < 0) or np.any(cc < 2 * na) or np.any(cc > n):
        problems.append("non-atomic/clustered counts are inconsistent")
    runs = plateaus_of(na.tolist(), SCAN_MIN_PLATEAU)
    if [tuple(p) for p in res.plateaus] != runs:
        problems.append(f"plateaus {res.plateaus} differ from runs {runs}")
    mids = [(hs[a] + hs[b]) / 2.0 for a, b in runs]
    if not _close(res.candidates, mids, rtol=1e-12):
        problems.append("candidates are not the plateau midpoints")
    return problems


def _summary_scan(res, inp) -> dict:
    return {"nonatomic": [int(v) for v in res.nonatomic_counts],
            "clustered": [int(v) for v in res.clustered_counts],
            "candidates": [float(c) for c in res.candidates]}


def _warm_scan(workdir):
    rng = np.random.default_rng(12345)
    s = FunctionalSample.from_matrix(GRID, clutter_matrix(rng, n=12))
    fmshift.bandwidth.scan(s, PAIR, DistanceSpec("l2"), _scan_spec(2))


# modetest_clutter ----------------------------------------------------------------


def percentile_bandwidth(sub1: FunctionalSample) -> float:
    """The 41st percentile of the pairwise distances of the first half."""
    ref = DensityModel(sub1, PAIR, bandwidth=1.0, normalized=False)
    off = ~np.eye(len(sub1), dtype=bool)
    return float(np.percentile(ref.pairwise_distances[off], BW_PERCENTILE))


def _test_config(n_boot=N_BOOT):
    return TestConfig(alpha=0.05, n_boot=n_boot)


def _run_modetest(inp: ClutterInput):
    rep = fmshift.inference.test_modes(
        inp.sample, PAIR, DistanceSpec("l2"), bandwidth=percentile_bandwidth,
        t_cfg=_test_config(), seed=inp.test_seed)
    return rep, (rep.n_boot if rep.records else 0)


def _check_modetest(inp: ClutterInput, rep) -> list[str]:
    problems = []
    cut = (N_CURVES + 1) // 2
    mat1 = inp.sample.matrix[:cut]
    h_ref = float(np.percentile(l2_pairwise(mat1), BW_PERCENTILE))
    if not _close(rep.bandwidth, h_ref, rtol=1e-9):
        problems.append(f"bandwidth {rep.bandwidth!r} is not the "
                        f"{BW_PERCENTILE}th percentile {h_ref!r}")
    cand = rep.candidates
    if len(cand.assignments) != cut:
        problems.append("one stage-1 assignment per first-half curve expected")
    if len(rep.records) != len(rep.tested_mode_indices):
        problems.append("one record per tested mode expected")
    nonatomic = set(cand.nonatomic_mode_indices())
    if not set(rep.tested_mode_indices) <= nonatomic:
        problems.append("an atomic mode was tested")
    for j, rec in zip(rep.tested_mode_indices, rep.records):
        lo, hi = rec.ci
        if not lo <= hi:
            problems.append(f"mode {j}: CI lo {lo!r} > hi {hi!r}")
        if rec.significant != (hi < 0.0):
            problems.append(f"mode {j}: significance disagrees with its CI")
        for name, vals in rec.replicates.items():
            if len(vals) != rep.n_boot or not np.all(np.isfinite(vals)):
                problems.append(f"mode {j}: {name} replicates incomplete")
    # every in-support trajectory stopped where an independently built model
    # puts the mean-shift step within the default step tolerance, or ran out
    # of iterations. The step is taken at the last iterate but one, where the
    # engine tests it: the profile has compact support, so the step can jump
    # when the final tiny shift carries the terminal into another curve's
    # support ball.
    model = DensityModel(FunctionalSample.from_matrix(GRID, mat1), PAIR,
                         bandwidth=rep.bandwidth, normalized=False)
    tol = 1e-6 * model.max_pairwise_distance
    max_iters = MeanShiftConfig().max_iters
    for i, tr in enumerate(cand.trajectories):
        if tr.destination == OUTSIDE_SUPPORT:
            continue
        if not tr.converged:
            if len(tr.iterates) - 1 != max_iters:
                problems.append(f"start {i}: unconverged after "
                                f"{len(tr.iterates) - 1} < {max_iters} steps")
                break
            continue
        step = model.ip_norm(model.mean_shift_vector(tr.iterates[-2]))
        if step > tol:
            problems.append(f"start {i}: final step {step:.3g} > {tol:.3g}")
            break
    return problems


def _summary_modetest(rep, inp) -> dict:
    labels, mapping = canonical_labels(rep.candidates.assignments)
    tested = [mapping[j] for j in rep.tested_mode_indices]
    order = sorted(range(len(tested)), key=lambda k: tested[k])
    return {"partition": labels,
            "tested": sorted(tested),
            "significant": sorted(mapping[j]
                                  for j in rep.significant_mode_indices),
            "ci": [[float(v) for v in rep.records[k].ci] for k in order]}


def _warm_modetest(workdir):
    rng = np.random.default_rng(12345)
    s = FunctionalSample.from_matrix(GRID, clutter_matrix(rng, n=24))
    fmshift.inference.test_modes(s, PAIR, DistanceSpec("l2"),
                                 bandwidth=percentile_bandwidth,
                                 t_cfg=_test_config(100), seed=1)


# cli_signatures ------------------------------------------------------------------


@dataclass(frozen=True)
class SignatureInput:
    directory: Path
    out: Path
    n_files: int
    digest: str


def _make_signatures(seq: np.random.SeedSequence, workdir: Path,
                     per_writer: int = SIG_PER_WRITER) -> SignatureInput:
    directory = workdir / "sig"
    write_signatures(np.random.default_rng(seq), directory, per_writer)
    return SignatureInput(directory, workdir / "report.txt",
                          len(SIG_WRITERS) * per_writer, dir_digest(directory))


def _run_cli(inp: SignatureInput):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = fmshift.cli.main(cli_args(inp.directory, inp.out))
    return (rc, err.getvalue()), inp.n_files


def _check_cli(inp: SignatureInput, out) -> list[str]:
    rc, err = out
    if rc != 0:
        return [f"exit code {rc}: {err.strip()}"]
    text = inp.out.read_text(encoding="utf-8")
    try:
        report = parse_report(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    if report.to_text() != text:
        problems.append("report does not round-trip through parse_report")
    if len(report.assignments) != inp.n_files:
        problems.append("one assignment per signature file expected")
    if len(report.grid) != SIG_GRID_POINTS:
        problems.append("report grid has the wrong length")
    return problems


def _summary_cli(out, inp) -> dict:
    report = parse_report(inp.out.read_text(encoding="utf-8"))
    return {"partition": canonical_labels(report.assignments)[0]}


def _warm_cli(workdir):
    inp = _make_signatures(np.random.SeedSequence(12345), workdir / "warm",
                           per_writer=2)
    _run_cli(inp)


WORKLOADS = {
    "scan_clutter": Workload("scan_clutter", _make_clutter, _run_scan,
                             _check_scan, _summary_scan, _warm_scan),
    "modetest_clutter": Workload("modetest_clutter", _make_clutter,
                                 _run_modetest, _check_modetest,
                                 _summary_modetest, _warm_modetest),
    "cli_signatures": Workload("cli_signatures", _make_signatures, _run_cli,
                               _check_cli, _summary_cli, _warm_cli),
}


def compare_summary(got: dict, want: dict) -> list[str]:
    """Differences between an output summary and its recorded reference:
    integers and partitions exactly, floats to a relative 1e-7."""
    problems = []
    for key, ref in want.items():
        val = got.get(key)
        if key in ("candidates", "ci"):
            if not _close(val, ref):
                problems.append(f"{key}: {val} != reference {ref}")
        elif val != ref:
            problems.append(f"{key}: {val} != reference {ref}")
    return problems
