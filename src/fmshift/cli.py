"""Command-line interface.

Subcommands: ``cluster``, ``scan``, ``test-modes``, ``simulate``,
``baseline``. Inputs are curves CSV files or directories of SVC-style
signature files; outputs are CSV tables or plain-text run reports. Exit codes:
0 success, 2 input error, 3 numerical failure. Outputs are written atomically,
so a failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .bandwidth import ScanSpec, _max_distance, _percentile_distance, scan
from .engine import OUTSIDE_SUPPORT, MeanShiftConfig, cluster
from .experiments import GENERATOR_KINDS, GeneratorSpec, fpca_kmeans, generate
from .function_space import DerivativeMethod, DistanceSpec, FunctionalSample, Grid
from .inference import STATISTICS, TestConfig, test_modes
from .io import (
    DegenerateFeatureError,
    InputFormatError,
    _curves_csv_text,
    file_digest,
    read_curves_csv,
    read_signature_dir,
    tangential_acceleration,
)
from .kernels import BUILTIN_PAIR_NAMES, builtin_pair
from .reports import ModeTestTable, RunReport, _fmt
from .surrogate import DensityModel, NormalizerError, OutsideSupportError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

#: The options of ``_add_input_args`` that only ``--signatures`` reads.
_SIGNATURE_FLAGS = ("sig_grid_points", "smooth_method", "smooth_degree",
                    "smooth_bandwidth")


def _write_atomic(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent or Path(".")),
                               prefix=target.name + ".")
    umask = os.umask(0)
    os.umask(umask)
    try:
        # mkstemp creates 0600; give the mode a plain open(path, "w") gives
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _add_input_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="curves CSV file")
    src.add_argument("--signatures", help="directory of SVC-style signature files")
    p.add_argument("--sig-grid-points", type=int, default=None,
                   help="target grid size for signature resampling")
    p.add_argument("--smooth-method", choices=["finite_difference", "local_poly"],
                   default=None)
    p.add_argument("--smooth-degree", type=int, default=None)
    p.add_argument("--smooth-bandwidth", type=float, default=None,
                   help="local polynomial smoothing bandwidth in normalized time "
                        "(default 0.05 for local_poly)")


def _add_model_args(p):
    p.add_argument("--kernel", choices=list(BUILTIN_PAIR_NAMES),
                   default="gaussian_gaussian")
    p.add_argument("--distance", choices=["l2", "sobolev_h1", "derivative_l2"],
                   default="l2")
    p.add_argument("--order", type=int, default=1,
                   help="derivative order for derivative_l2")
    p.add_argument("--deriv-method", choices=["finite_difference", "local_poly"],
                   default="finite_difference")
    p.add_argument("--deriv-degree", type=int, default=2)
    p.add_argument("--deriv-bandwidth", type=float, default=None)


def _add_engine_args(p):
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--step-tol", type=float, default=None)
    p.add_argument("--merge-factor", type=float, default=0.05)


def _add_probe_args(p):
    p.add_argument("--perturb", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_bandwidth_args(p, mode_test=False):
    half = " of the mode-hunting first half" if mode_test else ""
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--bandwidth", type=float,
                     help="absolute bandwidth in distance units")
    grp.add_argument("--bandwidth-frac", type=float,
                     help="bandwidth as a fraction of the largest pairwise "
                          "distance" + half)
    if mode_test:
        grp.add_argument("--bandwidth-percentile", type=float,
                         help=f"percentile of the pairwise distances{half}, "
                              "each pair counted once")


def _bandwidth(args, model: DensityModel) -> float:
    """h by --bandwidth-frac or --bandwidth-percentile off ``model``'s sample."""
    if getattr(args, "bandwidth_percentile", None) is None:
        return args.bandwidth_frac * _max_distance(model)
    return _percentile_distance(model, args.bandwidth_percentile)


def _distance_spec(args) -> DistanceSpec:
    method = DerivativeMethod(args.deriv_method, args.deriv_degree,
                              args.deriv_bandwidth)
    return DistanceSpec(args.distance, args.order, method)


def _load_sample(args):
    """Returns (sample, input digests dict).

    The signature flags apply to ``--signatures`` only; given with
    ``--input`` they are an input error.
    """
    if args.input:
        given = [f"--{name.replace('_', '-')}" for name in _SIGNATURE_FLAGS
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"only --signatures takes {', '.join(given)}, "
                             "not --input")
        return read_curves_csv(args.input), {"input": file_digest(args.input)}
    points = 128 if args.sig_grid_points is None else args.sig_grid_points
    kind = "local_poly" if args.smooth_method is None else args.smooth_method
    degree = 2 if args.smooth_degree is None else args.smooth_degree
    grid = Grid(np.linspace(0.0, 1.0, points))
    bandwidth = args.smooth_bandwidth
    if bandwidth is None and kind == "local_poly":
        bandwidth = 0.05
    method = DerivativeMethod(kind, degree, bandwidth)
    entries = read_signature_dir(args.signatures)
    curves, labels, digests = [], [], {}
    for name, record in entries:
        path = Path(args.signatures) / name
        if name.splitlines() != [name]:
            # the name becomes a report key, and a report line holds one key
            raise InputFormatError(f"{str(path)!r}: file name contains a line break")
        try:
            curves.append(tangential_acceleration(record, grid, method))
        except (InputFormatError, DegenerateFeatureError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        labels.append(name)
        digests[f"input:{name}"] = file_digest(path)
    return FunctionalSample(grid, tuple(curves), tuple(labels)), digests


def _engine_cfg(args) -> MeanShiftConfig:
    probe = ({"perturbation_scale": args.perturb, "seed": args.seed}
             if "perturb" in args else {})
    return MeanShiftConfig(max_iters=args.max_iters,
                           step_tolerance=args.step_tol,
                           merge_radius_factor=args.merge_factor, **probe)


def _provenance(args, digests) -> dict:
    prov = {"version": __version__, "seed": str(getattr(args, "seed", 0))}
    prov.update(digests)
    return prov


def _mode_report(args, sample, modes, digests, test_table=None,
                 extra_config=None) -> RunReport:
    config = {
        "kernel": args.kernel,
        "distance": args.distance,
        "command": args.command,
    }
    if extra_config:
        config.update(extra_config)
    return RunReport(
        config=config,
        provenance=_provenance(args, digests),
        grid=tuple(float(p) for p in sample.grid.points),
        modes=tuple(tuple(float(v) for v in m.values) for m in modes.modes),
        assignments=tuple(modes.assignments),
        atomic_flags=tuple(modes.atomic_flags),
        stability_flags=tuple(modes.stability_flags),
        mode_test=test_table,
    )


def _start_counts(modes) -> str:
    """The starts of a clustering that did not converge or began outside
    every support ball, counted from their trajectories."""
    outside = sum(1 for tr in modes.trajectories
                  if tr.destination == OUTSIDE_SUPPORT)
    unconverged = sum(1 for tr in modes.trajectories if not tr.converged) - outside
    return (f"starts: {len(modes.trajectories)} (unconverged {unconverged}, "
            f"outside support {outside})")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_cluster(args) -> int:
    sample, digests = _load_sample(args)
    model = DensityModel(sample, builtin_pair(args.kernel), _distance_spec(args),
                         normalized=False)
    h = args.bandwidth
    if h is None:
        h = _bandwidth(args, model)
    modes = cluster(model.at_bandwidth(h), _engine_cfg(args))
    report = _mode_report(args, sample, modes, digests,
                          extra_config={"bandwidth": _fmt(h)})
    _write_atomic(args.out, report.to_text())
    sizes = modes.cluster_sizes()
    print(f"clusters: {len(sizes)} "
          f"(non-atomic {sum(1 for s in sizes if s > 1)}), "
          f"sizes {sizes}", file=sys.stderr)
    print(_start_counts(modes), file=sys.stderr)
    return EXIT_OK


def _cmd_scan(args) -> int:
    sample, digests = _load_sample(args)
    spec = _distance_spec(args)
    pair = builtin_pair(args.kernel)
    sc = ScanSpec(args.values, args.lo, args.hi, args.min_plateau)
    result = scan(sample, pair, spec, sc, _engine_cfg(args))
    lines = [f"# fmshift scan (kernel={args.kernel}, distance={args.distance})",
             f"# max_distance = {_fmt(result.max_distance)}",
             "# candidates = " + ";".join(_fmt(c) for c in result.candidates),
             "bandwidth,nonatomic,clustered"]
    for h, na, cc in result.rows():
        lines.append(f"{_fmt(h)},{na},{cc}")
    _write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"candidate bandwidths: {list(result.candidates)}", file=sys.stderr)
    return EXIT_OK


def _cmd_test_modes(args) -> int:
    sample, digests = _load_sample(args)
    spec = _distance_spec(args)
    pair = builtin_pair(args.kernel)

    bandwidth = args.bandwidth
    if bandwidth is None:  # a rule of the mode-hunting half, which test_modes hands it
        def bandwidth(sub1):
            return _bandwidth(args, DensityModel(sub1, pair, spec, normalized=False))

    t_cfg = TestConfig(alpha=args.alpha, n_boot=args.boot,
                       statistic=args.statistic, split_rule=args.split)
    report = test_modes(sample, pair, spec, bandwidth, _engine_cfg(args),
                        t_cfg, seed=args.seed)

    rows = tuple(
        (j, rec.observed["lambda_eigen"], rec.observed["lambda_paper"],
         rec.ci[0], rec.ci[1], rec.ci_level, rec.significant, rec.n_retries)
        for j, rec in zip(report.tested_mode_indices, report.records)
    )
    table = ModeTestTable(alpha=args.alpha, n_boot=args.boot,
                          statistic=args.statistic,
                          bandwidth=report.bandwidth, rows=rows)
    run = _mode_report(args, sample, report.candidates, digests,
                       test_table=table,
                       extra_config={"alpha": _fmt(args.alpha),
                                     "boot": str(args.boot)})
    _write_atomic(args.out, run.to_text())
    print(f"candidates: {len(report.tested_mode_indices)}, "
          f"significant: {report.n_significant}", file=sys.stderr)
    print(f"first half {_start_counts(report.candidates)}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = GeneratorSpec(args.kind, args.n, args.seed)
    grid = Grid(np.linspace(0.0, 1.0, args.grid_points))
    sample = generate(spec, grid)
    _write_atomic(args.out, _curves_csv_text(sample))
    print(f"wrote {len(sample)} curves ({args.kind}, seed {args.seed})",
          file=sys.stderr)
    return EXIT_OK


def _cmd_baseline(args) -> int:
    sample, digests = _load_sample(args)
    result = fpca_kmeans(sample, args.components, args.k, args.seed)
    lines = ["# fmshift fpca/k-means baseline",
             "# explained_fraction = "
             + ";".join(_fmt(f) for f in result.explained_fraction)]
    header = ["curve"] + [f"score_{j}" for j in range(args.components)] + ["cluster"]
    lines.append(",".join(header))
    for i in range(len(sample)):
        cells = [str(i)] + [_fmt(s) for s in result.pc_scores[i]] \
            + [str(int(result.km_assignments[i]))]
        lines.append(",".join(cells))
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fmshift",
                                 description="Mean-shift mode hunting and "
                                             "clustering for discretized curves")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster curves by mean-shift mode seeking")
    _add_input_args(p)
    _add_model_args(p)
    _add_bandwidth_args(p)
    _add_engine_args(p)
    _add_probe_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("scan", help="bandwidth stability scan")
    _add_input_args(p)
    _add_model_args(p)
    _add_engine_args(p)
    p.add_argument("--values", type=int, default=100)
    p.add_argument("--lo", type=float, default=0.05)
    p.add_argument("--hi", type=float, default=0.50)
    p.add_argument("--min-plateau", type=int, default=5)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("test-modes", help="bootstrap mode significance test")
    _add_input_args(p)
    _add_model_args(p)
    _add_bandwidth_args(p, mode_test=True)
    _add_engine_args(p)
    _add_probe_args(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--statistic", choices=STATISTICS, default="lambda_eigen")
    p.add_argument("--split", choices=["first_half", "random"],
                   default="first_half")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_test_modes)

    p = sub.add_parser("simulate", help="generate a synthetic labeled sample")
    p.add_argument("kind", choices=GENERATOR_KINDS)
    p.add_argument("--n", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=64)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("baseline", help="fPCA + k-means baseline clustering")
    _add_input_args(p)
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_baseline)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NormalizerError, OutsideSupportError, DegenerateFeatureError,
            FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"error: category=numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # InputFormatError is a ValueError; the numeric ValueErrors are caught above
    except (ValueError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: category=input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
