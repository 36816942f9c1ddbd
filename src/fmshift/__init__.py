"""Mean-shift mode hunting, clustering and inference for discretized curves.

Scipy is imported inside the few functions that use it, never at module
level, so that clustering and the bandwidth scan start without loading it.
"""

__version__ = "0.1.0"

from .bandwidth import ScanResult, ScanSpec, scan
from .engine import (
    OUTSIDE_SUPPORT,
    MeanShiftConfig,
    ModeSet,
    Trajectory,
    ascend,
    cluster,
)
from .experiments import (
    BaselineResult,
    GeneratorSpec,
    clustering_accuracy,
    fpca_kmeans,
    generate,
)
from .function_space import (
    Curve,
    DerivativeMethod,
    DistanceSpec,
    FunctionalSample,
    Grid,
    GridMismatchError,
    distance,
    estimate_derivative,
    inner_product,
    norm,
)
from .inference import (
    ModeRecord,
    ModeTestReport,
    TestConfig,
    bootstrap_ci,
    test_modes,
)
from .io import (
    DegenerateFeatureError,
    InputFormatError,
    SignatureRecord,
    file_digest,
    read_curves_csv,
    read_signature,
    read_signature_dir,
    tangential_acceleration,
    write_curves_csv,
    write_signature,
)
from .kernels import (
    BUILTIN_PAIR_NAMES,
    KernelPair,
    PairValidation,
    Profile,
    ShadowRelationError,
    builtin_pair,
    shadow_of,
    validate_pair,
)
from .reports import ModeTestTable, RunReport, parse_report
from .surrogate import DensityModel, NormalizerError, OutsideSupportError

__all__ = [
    "__version__",
    "Grid", "Curve", "FunctionalSample", "DerivativeMethod", "DistanceSpec",
    "GridMismatchError", "inner_product", "distance", "norm",
    "estimate_derivative",
    "Profile", "KernelPair", "PairValidation", "ShadowRelationError",
    "builtin_pair", "shadow_of", "validate_pair", "BUILTIN_PAIR_NAMES",
    "DensityModel", "NormalizerError", "OutsideSupportError",
    "MeanShiftConfig", "Trajectory", "ModeSet", "OUTSIDE_SUPPORT",
    "ascend", "cluster",
    "ScanSpec", "ScanResult", "scan",
    "TestConfig", "ModeRecord", "ModeTestReport", "bootstrap_ci", "test_modes",
    "GeneratorSpec", "BaselineResult", "generate", "fpca_kmeans",
    "clustering_accuracy",
    "InputFormatError", "DegenerateFeatureError", "SignatureRecord",
    "read_curves_csv", "write_curves_csv", "read_signature", "write_signature",
    "read_signature_dir", "tangential_acceleration", "file_digest",
    "RunReport", "ModeTestTable", "parse_report",
]
