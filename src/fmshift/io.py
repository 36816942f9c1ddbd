"""File ingestion and feature extraction for the command-line pipeline.

Curves travel as CSV: the first row holds the grid abscissae, every later row
one curve, with an optional leading label column. Signatures use the SVC-2004
plain-text layout: a point count on the first line, then one ``x y t ...``
row per point (extra columns are ignored). A planar signature is summarized
by its tangential acceleration curve, normalized to unit L2 norm.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import function_space
from .function_space import Curve, DerivativeMethod, FunctionalSample, Grid
from .reports import _fmt

__all__ = [
    "InputFormatError",
    "DegenerateFeatureError",
    "SignatureRecord",
    "read_curves_csv",
    "write_curves_csv",
    "read_signature",
    "write_signature",
    "read_signature_dir",
    "tangential_acceleration",
    "file_digest",
]


class InputFormatError(ValueError):
    """Malformed input file; the message carries the file location."""


class DegenerateFeatureError(ValueError):
    """The extracted feature curve is zero up to rounding and cannot be normalized."""


def file_digest(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------------------
# Curves CSV


def read_curves_csv(path) -> FunctionalSample:
    """Parse a curves CSV into a validated sample.

    Row 1 is the grid; each later row is one curve, optionally prefixed by a
    label cell. Errors name the offending row and column.
    """
    path = Path(path)
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.strip() != ""]
    if len(lines) < 2:
        raise InputFormatError(f"{path}: need a grid row and at least one curve row")

    def parse_row(line, rownum, allow_label):
        cells = [c.strip() for c in line.split(",")]
        label = None
        start = 0
        if allow_label:
            try:
                float(cells[0])
            except ValueError:
                label = cells[0]
                start = 1
        values = []
        for j, cell in enumerate(cells[start:], start=start):
            try:
                value = float(cell)
            except ValueError:
                raise InputFormatError(
                    f"{path}: non-numeric cell at row {rownum}, column {j + 1}: {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise InputFormatError(
                    f"{path}: non-finite cell at row {rownum}, column {j + 1}: {cell!r}"
                )
            values.append(value)
        return label, values

    _, grid_vals = parse_row(lines[0], 1, allow_label=False)
    if len(grid_vals) < 2:
        raise InputFormatError(
            f"{path}: grid row 1 has a single point; a grid needs at least 2")
    for j, (a, b) in enumerate(zip(grid_vals, grid_vals[1:]), start=2):
        if not b > a:
            raise InputFormatError(
                f"{path}: grid row 1 is not strictly increasing at column {j}: "
                f"{_fmt(b)} follows {_fmt(a)}")
    grid = Grid(np.array(grid_vals))

    labels, rows = [], []
    any_label = False
    for i, line in enumerate(lines[1:], start=2):
        label, values = parse_row(line, i, allow_label=True)
        if len(values) != len(grid):
            raise InputFormatError(
                f"{path}: ragged row {i}: {len(values)} values for a grid of "
                f"length {len(grid)}"
            )
        labels.append(label)
        any_label = any_label or label is not None
        rows.append(values)
    sample_labels = tuple(l if l is not None else "" for l in labels) if any_label else None
    return FunctionalSample.from_matrix(grid, rows, sample_labels)


def _curves_csv_text(sample: FunctionalSample) -> str:
    lines = [",".join(_fmt(p) for p in sample.grid.points)]
    for i, row in enumerate(sample.matrix):
        cells = [_fmt(v) for v in row]
        if sample.labels is not None:
            cells = [str(sample.labels[i])] + cells
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_curves_csv(path, sample: FunctionalSample) -> None:
    Path(path).write_text(_curves_csv_text(sample), encoding="utf-8")


# ---------------------------------------------------------------------------
# SVC-style signatures


@dataclass(frozen=True)
class SignatureRecord:
    """A planar pen trajectory: coordinates and device timestamps."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    has_duplicate_timestamps: bool = False

    def __post_init__(self):
        if not (self.x.size == self.y.size == self.t.size):
            raise ValueError("coordinate and timestamp arrays differ in length")
        if np.any(np.diff(self.t) < 0):
            raise InputFormatError("timestamps must be nondecreasing")

    def __len__(self):
        return self.x.size


def read_signature(path) -> SignatureRecord:
    """Parse one SVC-style signature file."""
    path = Path(path)
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.strip() != ""]
    if not lines:
        raise InputFormatError(f"{path}: empty signature file")
    try:
        count = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise InputFormatError(f"{path}: first line must be the point count") from None
    if len(lines) - 1 != count:
        raise InputFormatError(
            f"{path}: header declares {count} points but file has {len(lines) - 1}"
        )
    xs, ys, ts = [], [], []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) < 3:
            raise InputFormatError(f"{path}: line {i}: need at least x, y, t")
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
            ts.append(float(parts[2]))
        except ValueError:
            raise InputFormatError(f"{path}: line {i}: non-numeric coordinate") from None
    x, y, t = np.array(xs), np.array(ys), np.array(ts)
    finite = np.isfinite(x) & np.isfinite(y) & np.isfinite(t)
    if not finite.all():
        i = int(np.argmin(finite)) + 2  # the first point is on line 2
        raise InputFormatError(f"{path}: line {i}: non-finite coordinate")
    if np.any(np.diff(t) < 0):
        raise InputFormatError(f"{path}: timestamps decrease")
    dup = bool(np.any(np.diff(t) == 0))
    if dup:
        warnings.warn(f"{path}: duplicate consecutive timestamps", stacklevel=2)
    return SignatureRecord(x, y, t, has_duplicate_timestamps=dup)


def write_signature(path, record: SignatureRecord) -> None:
    lines = [str(len(record))]
    for x, y, t in zip(record.x, record.y, record.t):
        lines.append(f"{_fmt(x)} {_fmt(y)} {_fmt(t)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_signature_dir(directory) -> list[tuple[str, SignatureRecord]]:
    """Read every signature file in a directory, sorted by filename."""
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.is_file())
    if not paths:
        raise InputFormatError(f"{directory}: no signature files found")
    return [(p.name, read_signature(p)) for p in paths]


# ---------------------------------------------------------------------------
# Tangential acceleration


def tangential_acceleration(sig: SignatureRecord, grid: Grid,
                            method: DerivativeMethod | None = None) -> Curve:
    """Unit-L2-norm tangential acceleration of a signature on a target grid.

    The timestamps are mapped affinely onto [0, 1], the coordinates resampled
    onto the grid by linear interpolation, smoothed/differentiated with the
    given method, and combined into the acceleration component along the
    motion direction. Grid points where the speed nearly vanishes (pen pauses)
    borrow the tangential direction of the nearest moving point.
    """
    if len(sig) < 5:
        raise InputFormatError("signature needs at least 5 points")
    method = method or DerivativeMethod()
    span = sig.t[-1] - sig.t[0]
    if span <= 0:
        raise InputFormatError("signature has zero time span")
    s = (sig.t - sig.t[0]) / span
    xy = np.stack([np.interp(grid.points, s, sig.x),
                   np.interp(grid.points, s, sig.y)])
    # x and y are differentiated together, each row as it would be alone
    dx, dy = function_space._derivative_matrix(xy, grid, 1, method)
    d2x, d2y = function_space._derivative_matrix(xy, grid, 2, method)

    speed = np.hypot(dx, dy)
    thresh = 1e-9 * max(float(speed.max()), 1e-300)
    good = speed > thresh
    ux = np.zeros_like(dx)
    uy = np.zeros_like(dy)
    if np.any(good):
        ux[good] = dx[good] / speed[good]
        uy[good] = dy[good] / speed[good]
        if not np.all(good):
            warnings.warn(
                "vanishing speed at some grid points; tangential direction "
                "carried over from the nearest moving point", stacklevel=2)
            good_idx = np.flatnonzero(good)
            for i in np.flatnonzero(~good):
                j = good_idx[np.argmin(np.abs(good_idx - i))]
                ux[i], uy[i] = ux[j], uy[j]
    accel = d2x * ux + d2y * uy

    w = grid.quad_weights
    nrm = float(np.sqrt(max(np.dot(accel * w, accel), 0.0)))
    # relative to the stroke's speed: a constant-speed straight stroke leaves
    # rounding noise of about 1e-13 of its speed, real pen traces give ~1
    vmax = float(speed.max())
    if nrm <= 1e-8 * vmax:
        raise DegenerateFeatureError(
            f"tangential acceleration is zero up to rounding (norm {nrm:.3g} "
            f"at maximum speed {vmax:.3g}); cannot normalize"
        )
    return Curve(grid, accel / nrm)
