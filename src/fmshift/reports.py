"""Plain-text run reports: key/value sections plus CSV tables.

A report is a single structured text document. Serializing and re-parsing is
lossless: floats are written in shortest exact round-trip form and the parser
knows the schema of every section written; it skips sections it does not know.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RunReport", "ModeTestTable", "parse_report"]

HEADER = "# fmshift run report v1"


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest exact round-trip form
    return repr(float(x))


@dataclass(frozen=True)
class ModeTestTable:
    alpha: float
    n_boot: int
    statistic: str
    bandwidth: float
    # one row per tested mode:
    # (mode_index, lambda_eigen, lambda_paper, ci_lo, ci_hi, ci_level,
    #  significant, n_retries)
    rows: tuple


@dataclass(frozen=True)
class RunReport:
    """Everything a clustering/testing run produced, in plain data."""

    config: dict
    provenance: dict
    grid: tuple
    modes: tuple  # tuple of value-tuples, one per mode
    assignments: tuple
    atomic_flags: tuple
    stability_flags: tuple
    mode_test: ModeTestTable | None = None

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        out = [HEADER, ""]

        def kv_section(name, mapping):
            out.append(f"[{name}]")
            for key in sorted(mapping):
                out.append(f"{key} = {mapping[key]}")
            out.append("")

        kv_section("config", self.config)
        kv_section("provenance", self.provenance)

        out.append("[grid]")
        out.append(",".join(_fmt(p) for p in self.grid))
        out.append("")

        out.append("[modes]")
        for j, mode in enumerate(self.modes):
            out.append(",".join([f"mode_{j}"] + [_fmt(v) for v in mode]))
        out.append("")

        out.append("[assignments]")
        out.append("start,mode")
        for i, a in enumerate(self.assignments):
            out.append(f"{i},{a}")
        out.append("")

        out.append("[mode_flags]")
        out.append("mode,atomic,stable")
        for j, (a, s) in enumerate(zip(self.atomic_flags, self.stability_flags)):
            out.append(f"{j},{int(a)},{int(s)}")
        out.append("")

        if self.mode_test is not None:
            mt = self.mode_test
            out.append("[mode_test]")
            out.append(f"alpha = {_fmt(mt.alpha)}")
            out.append(f"n_boot = {mt.n_boot}")
            out.append(f"statistic = {mt.statistic}")
            out.append(f"bandwidth = {_fmt(mt.bandwidth)}")
            out.append("mode,lambda_eigen,lambda_paper,ci_lo,ci_hi,ci_level,"
                       "significant,n_retries")
            for row in mt.rows:
                j, le, lp, lo, hi, lev, sig, retries = row
                out.append(",".join([str(j), _fmt(le), _fmt(lp), _fmt(lo),
                                     _fmt(hi), _fmt(lev), str(int(sig)),
                                     str(retries)]))
            out.append("")

        return "\n".join(out)


def _split_sections(text: str) -> dict:
    sections: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.rstrip("\n")
        if line.startswith("#") or line.strip() == "":
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
            continue
        if current is None:
            raise ValueError(f"content before any section: {line!r}")
        sections[current].append(line)
    return sections


def _parse_kv(lines):
    out = {}
    for line in lines:
        # a key may contain " = " (it can hold a file name); values never do
        key, _, value = line.rpartition(" = ")
        out[key] = value
    return out


def parse_report(text: str) -> RunReport:
    """Inverse of ``RunReport.to_text``."""
    if not text.lstrip().startswith(HEADER):
        raise ValueError("not an fmshift run report")
    sec = _split_sections(text)

    grid = tuple(float(v) for v in sec["grid"][0].split(","))
    modes = tuple(tuple(float(v) for v in line.split(",")[1:])
                  for line in sec["modes"])
    assignments = tuple(int(line.split(",")[1]) for line in sec["assignments"][1:])
    flags = [line.split(",") for line in sec["mode_flags"][1:]]
    atomic = tuple(bool(int(f[1])) for f in flags)
    stable = tuple(bool(int(f[2])) for f in flags)

    mode_test = None
    if "mode_test" in sec:
        kv_lines = [ln for ln in sec["mode_test"] if " = " in ln]
        table = [ln for ln in sec["mode_test"] if " = " not in ln][1:]
        kv = _parse_kv(kv_lines)
        rows = tuple(
            (int(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4]),
             float(r[5]), bool(int(r[6])), int(r[7]))
            for r in (ln.split(",") for ln in table)
        )
        mode_test = ModeTestTable(alpha=float(kv["alpha"]),
                                  n_boot=int(kv["n_boot"]),
                                  statistic=kv["statistic"],
                                  bandwidth=float(kv["bandwidth"]),
                                  rows=rows)

    return RunReport(config=_parse_kv(sec.get("config", [])),
                     provenance=_parse_kv(sec.get("provenance", [])),
                     grid=grid, modes=modes, assignments=assignments,
                     atomic_flags=atomic, stability_flags=stable,
                     mode_test=mode_test)
