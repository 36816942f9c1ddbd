"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py`` in a fresh interpreter per run, with the BLAS thread
variables already pinned to 1. Prints one JSON object on its last stdout line.

Modes:
  setup    import, draw the inputs, write the files, warm up; report set-up time
  measure  set up, then run the closed loop untraced for --seconds
  trace    set up, then alternate untraced and traced operations over whole
           passes of the first pool entries until --seconds have passed
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fmshift  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import HOOKS, Tracer, layer_metrics  # noqa: E402

def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def load_reference(workload: str, seed: int):
    if seed != wl.REFERENCE_SEED:
        return None
    return json.loads(wl.REFERENCE.read_text(encoding="utf-8"))[workload]


class Loop:
    """Runs operations on pool entries, timing and checking each one."""

    def __init__(self, workload, pool, reference):
        self.workload = workload
        self.pool = pool
        self.reference = reference
        self.times: list[float] = []
        self.items = 0
        self.failures: list[str] = []

    def check(self, k: int, out) -> list[str]:
        inp = self.pool[k]
        problems = self.workload.check(inp, out)
        if self.reference is not None:
            ref = self.reference[k]
            if inp.digest != ref["digest"]:
                problems.append(f"input digest {inp.digest} differs from the "
                                f"reference input {ref['digest']}")
            else:
                problems += wl.compare_summary(self.workload.summary(out, inp),
                                               ref["summary"])
        return problems

    def op(self, k: int, tracer: Tracer | None = None) -> float:
        """One operation on pool entry k; returns its wall time.

        With a tracer, tracing is on for the operation only: the output check
        runs untraced.
        """
        if tracer is not None:
            tracer.enabled = True
        t = time.perf_counter()
        try:
            out, items = self.workload.run(self.pool[k])
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"op on input {k}: {type(exc).__name__}: {exc}")
            return dt
        finally:
            if tracer is not None:
                tracer.enabled = False
        dt = time.perf_counter() - t
        try:
            problems = self.check(k, out)
        except Exception as exc:  # a check that cannot run fails the op
            traceback.print_exc(file=sys.stderr)
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"op on input {k}: " + "; ".join(problems))
        else:
            self.items += items
        return dt


def setup(name: str, seed: int, workdir: Path):
    workload = wl.WORKLOADS[name]
    pool = workload.pool(seed, workdir)
    workload.warm_up(workdir)
    return workload, pool


def measure(loop: Loop, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    while not loop.times or time.perf_counter() < deadline:
        loop.times.append(loop.op(len(loop.times) % len(loop.pool)))
    return {"times": loop.times, "items": loop.items}


def trace(loop: Loop, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced operations over whole passes of the
    first pool entries, so every per-layer count is the same for a seed."""
    tracer = Tracer()
    tracer.install(HOOKS)
    untraced, traced = [], []
    try:
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            for k in range(min(wl.TRACE_POOL, len(loop.pool))):
                untraced.append(loop.op(k))
                tracer.current_op = len(traced)
                traced.append(loop.op(k, tracer))
    finally:
        tracer.uninstall()
    tracer.save(spans_path)
    metrics = layer_metrics(tracer, len(traced))
    base = statistics.median(untraced)
    metrics["trace.overhead_frac"] = ((statistics.median(traced) - base) / base,
                                      "frac")
    return {"per_layer": metrics, "traced_ops": len(traced),
            "untraced_ops": len(untraced), "spans": len(tracer),
            "missing_targets": tracer.missing}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    if not Path(fmshift.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fmshift was imported from {fmshift.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, pool = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        result = {"setup_s": setup_s,
                  "digests": [inp.digest for inp in pool]}
        if args.mode != "setup":
            loop = Loop(workload, pool, load_reference(args.workload, args.seed))
            if args.mode == "measure":
                result.update(measure(loop, args.seconds))
            else:
                spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
                result.update(trace(loop, args.seconds, spans))
                result["spans_file"] = str(spans.relative_to(ROOT))
            result["failures"] = loop.failures
            result["reference_checked"] = loop.reference is not None
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
        result["sizes"] = wl.SIZES[args.workload]
        result["pool_size"] = len(pool)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
