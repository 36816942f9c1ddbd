"""In-memory span tracing around the public calls of each fmshift module.

Spans are recorded from outside the package: ``Tracer.install`` replaces a
function or method where its caller looks it up (for example
``fmshift.bandwidth.cluster``, the name ``scan`` calls) with a wrapper that
records one span per call. Each span holds a layer name, its start and end on
the ``time.perf_counter`` clock, the index of its parent span and the index
of the benchmark operation it belongs to. Spans stay in memory until the run
ends; ``save`` writes them out.

A layer's self time is the duration of its spans minus the part of each span
covered by its child spans. ``layer_metrics`` turns a finished trace into the
per-layer metrics: per-operation counts and self times of every layer, plus
counters taken from the values ``ascend`` and ``test_modes`` return.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import time
from array import array
from collections import Counter

from fmshift.engine import OUTSIDE_SUPPORT

#: Layer name -> "module:attribute path" targets wrapped under that name.
#: A call reached through any of the targets is one span of the layer.
LAYER_TARGETS = {
    "bandwidth.scan": ["fmshift.bandwidth:scan"],
    "engine.cluster": ["fmshift.engine:cluster", "fmshift.bandwidth:cluster",
                       "fmshift.inference:cluster", "fmshift.cli:cluster"],
    "engine.ascend": ["fmshift.engine:ascend"],
    "surrogate.model_build": ["fmshift.surrogate:DensityModel.__init__"],
    "surrogate.mean_shift_vector":
        ["fmshift.surrogate:DensityModel.mean_shift_vector"],
    "surrogate.lambda_eigen": ["fmshift.surrogate:DensityModel.lambda_eigen"],
    "surrogate.lambda_paper": ["fmshift.surrogate:DensityModel.lambda_paper"],
    "function_space.distance": ["fmshift.function_space:distance"],
    "function_space.sample_build":
        ["fmshift.function_space:FunctionalSample.from_matrix",
         "fmshift.function_space:FunctionalSample.subset"],
    "function_space.derivative": ["fmshift.function_space:_derivative_matrix",
                                  "fmshift.surrogate:_derivative_matrix"],
    "kernels.profile_eval": ["fmshift.kernels:Profile.__call__",
                             "fmshift.kernels:Profile.deriv",
                             "fmshift.kernels:Profile.deriv2"],
    "inference.test_modes": ["fmshift.inference:test_modes"],
    "io.read_signature_dir": ["fmshift.cli:read_signature_dir"],
    "io.tangential_acceleration": ["fmshift.cli:tangential_acceleration"],
    "reports.to_text": ["fmshift.reports:RunReport.to_text"],
    "cli.main": ["fmshift.cli:main"],
}

LAYERS = tuple(LAYER_TARGETS)


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Spans must be listed in start order, so every parent precedes its
    children; a parent index of -1 marks a root span. Child intervals are
    clipped to the parent's interval before their union is taken.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        run_lo = run_hi = None
        for c in children.get(i, ()):  # already in start order
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


def _resolve(target: str):
    """(owner object, attribute name) for a "module:dotted.path" target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counters while enabled; a no-op pass-through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counters: Counter = Counter()
        self.enabled = False
        self.current_op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """A wrapper of fn that records one span per call while enabled."""
        nid = self._id(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self._stack.pop()
            if on_return is not None:
                on_return(self.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=None) -> None:
        """Wrap every target of LAYER_TARGETS; hooks maps a layer to a
        callback (counters, return value) run after each traced call."""
        hooks = hooks or {}
        for name, targets in LAYER_TARGETS.items():
            for target in targets:
                try:
                    owner, attr = _resolve(target)
                    raw = (owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr))
                except (AttributeError, KeyError, ImportError):
                    self.missing.append(target)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__,
                                                hooks.get(name)))
                else:
                    new = self.wrap(name, raw, hooks.get(name))
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def layer_totals(self) -> dict:
        """Layer name -> (span count, summed self time)."""
        selfs = self_times(self.start, self.end, self.parent)
        counts = Counter()
        totals = Counter()
        for nid, s in zip(self.name_id, selfs):
            counts[nid] += 1
            totals[nid] += s
        return {self.names[nid]: (counts[nid], totals[nid]) for nid in counts}

    def durations(self, name: str, parent_name: str | None = None) -> list[float]:
        """Durations of the spans of one layer, optionally only those whose
        parent span belongs to another given layer."""
        if name not in self._name_ids:
            return []
        nid = self._name_ids[name]
        pid = self._name_ids.get(parent_name, -2) if parent_name else None
        out = []
        for i, n in enumerate(self.name_id):
            if n != nid:
                continue
            if pid is not None:
                p = self.parent[i]
                if p < 0 or self.name_id[p] != pid:
                    continue
            out.append(self.end[i] - self.start[i])
        return out

    def save(self, path) -> None:
        """Write the spans as gzipped tab-separated text: name, start, end,
        parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n")


# -- per-layer metrics ------------------------------------------------------------


def ascend_hook(counters, traj):
    counters["engine.steps"] += len(traj.iterates) - 1
    if traj.destination == OUTSIDE_SUPPORT:
        counters["engine.outside_support"] += 1
    elif not traj.converged:
        counters["engine.unconverged"] += 1


def mode_test_hook(counters, report):
    counters["inference.replicates"] += report.n_boot if report.records else 0
    # every record carries the retries of the shared replicate loop
    counters["inference.retries"] += (report.records[0].n_retries
                                      if report.records else 0)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-operation means of every per-layer count and self time."""
    totals = tracer.layer_totals()
    c = tracer.counters
    out = {}
    for layer in LAYERS:
        count, self_s = totals.get(layer, (0, 0.0))
        out[f"{layer}.count"] = (count / n_ops, "count")
        out[f"{layer}.self_s"] = (self_s / n_ops, "s")
    ascends = totals.get("engine.ascend", (0, 0.0))[0]
    out["engine.steps"] = (c["engine.steps"] / n_ops, "count")
    out["engine.unconverged"] = (c["engine.unconverged"] / n_ops, "count")
    out["engine.outside_support"] = (c["engine.outside_support"] / n_ops, "count")
    out["engine.steps_per_start"] = (c["engine.steps"] / ascends if ascends else 0.0,
                                     "count")
    per_bw = tracer.durations("engine.cluster", parent_name="bandwidth.scan")
    out["bandwidth.per_bw_p50_s"] = (statistics.median(per_bw) if per_bw else 0.0, "s")
    out["bandwidth.per_bw_max_s"] = (max(per_bw) if per_bw else 0.0, "s")
    replicates, retries = c["inference.replicates"], c["inference.retries"]
    out["inference.replicates"] = (replicates / n_ops, "count")
    out["inference.retries"] = (retries / n_ops, "count")
    out["inference.useful_ratio"] = (replicates / (replicates + retries)
                                     if replicates + retries else 0.0, "ratio")
    return out


HOOKS = {"engine.ascend": ascend_hook, "inference.test_modes": mode_test_hook}
