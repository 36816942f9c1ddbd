"""What the package exports and what its import paths load.

Every exported name resolves to a module's public name. Clustering and the
scan never load scipy, and ``fmshift.cli`` loads nothing beyond the standard
library but numpy. Each load check runs in a fresh interpreter, since the
test process itself has scipy loaded.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import fmshift
from fmshift import ScanSpec, builtin_pair, read_curves_csv, scan
from fmshift.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# a meta-path finder first in line that refuses every scipy module
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked here: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
"""

# the scipy subpackages a run loaded: public children of scipy that are packages
LOADED_SUBPACKAGES = """
print(sorted(m.split(".")[1] for m, mod in list(sys.modules.items())
             if m.count(".") == 1 and m.startswith("scipy.")
             and not m.split(".")[1].startswith("_") and hasattr(mod, "__path__")))
"""


def python(code: str, *args) -> str:
    """Run code in a fresh interpreter importing fmshift from src; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code,
         *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# every module but the command line declares its public names
MODULES = [importlib.import_module(f"fmshift.{info.name}")
           for info in pkgutil.iter_modules(fmshift.__path__)
           if info.name != "cli"]


def test_every_public_name_resolves():
    for module in [fmshift, *MODULES]:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_package_export_is_public_in_its_module():
    public = {name for module in MODULES for name in module.__all__}
    exports = set(fmshift.__all__) - {"__version__"}
    assert exports - public == set()


def test_cli_loads_only_numpy_beyond_the_standard_library():
    # site may load modules of its own before any import: count only the
    # modules that importing the CLI adds
    out = python("""
import sys
before = set(sys.modules)
import fmshift.cli
added = {m.split(".")[0] for m in set(sys.modules) - before}
print(sorted(added - set(sys.stdlib_module_names)))
""")
    assert out.strip() == "['fmshift', 'numpy']"


def test_cli_cluster_and_scan_run_with_scipy_blocked(tmp_path):
    csv = tmp_path / "curves.csv"
    assert main(["simulate", "signal_clutter", "--n", "60", "--seed", "0",
                 "--grid-points", "40", "--out", str(csv)]) == 0
    want = tmp_path / "unblocked.txt"
    assert main(["cluster", "--input", str(csv), "--bandwidth-frac", "0.3",
                 "--out", str(want)]) == 0

    spec = ScanSpec(n_values=6, min_plateau_len=2)
    counts = scan(read_curves_csv(csv), builtin_pair("gaussian_gaussian"),
                  spec=spec).nonatomic_counts.tolist()

    got = tmp_path / "blocked.txt"
    out = python(BLOCK_SCIPY + """
import json
import fmshift.cli
from fmshift import ScanSpec, builtin_pair, read_curves_csv, scan

csv, out = sys.argv[1:]
assert fmshift.cli.main(["cluster", "--input", csv, "--bandwidth-frac", "0.3",
                         "--out", out]) == 0
res = scan(read_curves_csv(csv), builtin_pair("gaussian_gaussian"),
           spec=ScanSpec(n_values=6, min_plateau_len=2))
print(json.dumps([res.nonatomic_counts.tolist(),
                  [m for m in sys.modules if m.split(".")[0] == "scipy"]]))
""", csv, got)
    assert json.loads(out) == [counts, []]
    assert got.read_bytes() == want.read_bytes()


def test_mode_test_loads_scipy_linalg_alone():
    out = python("""
import sys
import numpy as np
from fmshift import (DensityModel, GeneratorSpec, Grid, TestConfig,
                     builtin_pair, generate, test_modes)

sample = generate(GeneratorSpec("signal_clutter", n=40, seed=0),
                  Grid(np.linspace(0.0, 1.0, 30)))
pair = builtin_pair("gaussian_gaussian")
h = 0.3 * DensityModel(sample, pair, normalized=False).max_pairwise_distance
test_modes(sample, pair, bandwidth=h, t_cfg=TestConfig(n_boot=100))
""" + LOADED_SUBPACKAGES)
    assert out.strip() == "['linalg']"
