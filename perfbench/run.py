"""Run one fmshift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan_clutter --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. Each workload runs as a closed loop, one client in one process,
the next operation starting only after the previous one returned.

With ``--trace 0`` the end-to-end metrics are measured untraced. Set-up runs
in several fresh processes (the measuring process among them) and the median
is reported. With ``--trace 1`` a separate process alternates untraced and
traced operations and reports the per-layer metrics.

Human-readable lines go first; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans of a
traced run are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("scan_clutter", "modetest_clutter", "cli_signatures")
ITEM = {"scan_clutter": "bandwidths", "modetest_clutter": "bootstrap replicates",
        "cli_signatures": "curves"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROCESSES = 3   # fresh processes timed for set-up, the measuring one included
TIME_LIMIT_S = 170.0  # the whole run, every child process included


class BenchError(RuntimeError):
    pass


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) of the highest percentile that still
    has at least ten operations beyond it; with ten or fewer operations, the
    slowest one and the count of operations beyond it, zero."""
    xs = sorted(times)
    j = len(xs) - 11
    if j < 0:
        return xs[-1], 100.0, 0
    return xs[j], 100.0 * (j + 1) / len(xs), len(xs) - 1 - j


def child(mode: str, args, started: float) -> dict:
    remaining = TIME_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("time limit reached before the run finished")
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def describe(res: dict, args) -> None:
    env = res["env"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env threads " + " ".join(f"{k}={v}" for k, v in env["threads"].items())
          + f" nproc {env['nproc']} python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} blas {env['blas']}")
    print("sizes " + " ".join(f"{k}={v}" for k, v in res["sizes"].items())
          + f" pool {res['pool_size']} (pool seeds spawned from seed {args.seed})")
    print("inputs " + " ".join(res["digests"]))
    if res.get("reference_checked"):
        print("outputs compared with the recorded reference for this seed")
    for msg in res.get("failures", []):
        print(f"FAILED {msg}")


def run(args) -> dict:
    started = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        res = child("trace", args, started)
        describe(res, args)
        attempted = res["traced_ops"] + res["untraced_ops"]
        print(f"traced ops {res['traced_ops']}, untraced ops "
              f"{res['untraced_ops']}, spans {res['spans']} "
              f"written to {res['spans_file']}")
        for target in res["missing_targets"]:
            print(f"WARNING trace target not found: {target}")
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in res["per_layer"].items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']} "
                  f"(per traced op, n={res['traced_ops']})")
    else:
        setups = [child("setup", args, started)["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        res = child("measure", args, started)
        setups.append(res["setup_s"])
        describe(res, args)
        times = res["times"]
        if not times:
            raise BenchError("no operation completed")
        attempted = len(times)
        p50 = statistics.median(times)
        t_val, t_pct, t_beyond = tail(times)
        busy = sum(times)
        metrics = {
            "op_p50_s": {"value": p50, "unit": "s"},
            "op_tail_s": {"value": t_val, "unit": "s"},
            "items_per_s": {"value": res["items"] / busy, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"op_p50_s {p50!r} s (median of n={attempted} ops)")
        print(f"op_tail_s {t_val!r} s (p{t_pct:.1f} of n={attempted} ops, "
              f"{t_beyond} ops beyond it)")
        print(f"items_per_s {metrics['items_per_s']['value']!r} 1/s "
              f"({ITEM[args.workload]} per second: {res['items']} in "
              f"{busy:.3f} s of n={attempted} ops)")
        print(f"setup_s {metrics['setup_s']['value']!r} s (median of "
              f"n={len(setups)} fresh processes: "
              + ", ".join(f"{s:.4f}" for s in setups) + ")")
        print(f"peak_rss_mb {res['peak_rss_mb']!r} MB (measuring process, n=1)")
    failed = len(res["failures"])
    print(f"failed_ops_frac {failed / attempted!r} ({failed} of {attempted} ops)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fmshift" / "__init__.py").is_file():
        print(f"error: no fmshift sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
