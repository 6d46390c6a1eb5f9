"""Range-based information measures and privacy-preserving quantization.

The package treats tabular variables as uncertain variables known only
through their ranges, measures privacy leakage by how much an observer's
uncertainty about the sensitive column can shrink, and synthesizes
sanitized releases by agglomerative clustering of the public alphabet.
"""

from .core import (
    JointRange,
    Symbol,
    TOLERANCE,
    b0,
    cond_range_cluster,
    cond_range_x,
    h0,
    i0_forward,
    is_k_anonymous,
    l0,
)
from .errors import (
    ConfigurationError,
    ContractViolation,
    InfeasibleError,
    IngestError,
    PrivQuantError,
    SizeLimitError,
)
from .graph import (
    ConfusabilityGraph,
    Decomposition,
    build_graph,
    finest_decomposition,
    maximin_information,
    merge_update,
    overlap_partition_oracle,
)
from .greedy import (
    GreedyResult,
    LagrangianConfig,
    Problem,
    Termination,
    TraceEntry,
    algorithm1_min_l0,
    algorithm2_min_istar,
    algorithm3_l0_zero_istar,
    lagrangian_l0,
    run,
)
from .ingest import DatasetStats, load_csv, stats
from .oracle import MAX_ORACLE_SYMBOLS, OracleResult, enumerate_partitions, oracle_min
from .pareto import (
    Frontier,
    ParetoPoint,
    default_lambda_grid,
    sweep,
    sweeney_baseline,
)
from .quantize import (
    CodewordPolicy,
    Quantization,
    UtilityChoice,
    UtilityKind,
    singleton_quantization,
    utility,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TOLERANCE",
    "Symbol",
    "JointRange",
    "cond_range_x",
    "cond_range_cluster",
    "h0",
    "b0",
    "l0",
    "i0_forward",
    "is_k_anonymous",
    "ConfusabilityGraph",
    "Decomposition",
    "build_graph",
    "finest_decomposition",
    "maximin_information",
    "overlap_partition_oracle",
    "merge_update",
    "CodewordPolicy",
    "UtilityKind",
    "UtilityChoice",
    "Quantization",
    "singleton_quantization",
    "utility",
    "Problem",
    "Termination",
    "LagrangianConfig",
    "TraceEntry",
    "GreedyResult",
    "lagrangian_l0",
    "algorithm1_min_l0",
    "algorithm2_min_istar",
    "algorithm3_l0_zero_istar",
    "run",
    "MAX_ORACLE_SYMBOLS",
    "OracleResult",
    "enumerate_partitions",
    "oracle_min",
    "ParetoPoint",
    "Frontier",
    "default_lambda_grid",
    "sweep",
    "sweeney_baseline",
    "DatasetStats",
    "load_csv",
    "stats",
    "PrivQuantError",
    "ContractViolation",
    "ConfigurationError",
    "SizeLimitError",
    "InfeasibleError",
    "IngestError",
]
