"""Record the reference outputs the benchmark compares against at seed 0.

    python3 perfbench/record_reference.py

Runs each workload's operation once on every pool entry drawn from seed 0
and writes the input digests and output summaries to
``perfbench/reference.json``. The stored file holds the outputs of the
commit that introduced the benchmark; re-record it only on purpose, since
later runs at seed 0 count any difference from it as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, workload in wl.WORKLOADS.items():
            entries = []
            for k, inp in enumerate(workload.pool(wl.REFERENCE_SEED,
                                                  Path(tmp) / name)):
                out, _ = workload.run(inp)
                problems = workload.check(inp, out)
                if problems:
                    print(f"{name}[{k}]: {problems}", file=sys.stderr)
                    return 1
                entries.append({"digest": inp.digest,
                                "summary": workload.summary(out, inp)})
                print(f"{name}[{k}] {inp.digest} {entries[-1]['summary']}")
            reference[name] = entries
    wl.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
