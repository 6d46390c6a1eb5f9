"""Range-based information measures and privacy-preserving quantization.

The package treats tabular variables as uncertain variables known only
through their ranges, measures privacy leakage by how much an observer's
uncertainty about the sensitive column can shrink, and synthesizes
sanitized releases by agglomerative clustering of the public alphabet.

Public names are loaded on first use (PEP 562), so ``import privquant`` and
the CLI import only the modules a caller actually touches.
"""

import importlib

__version__ = "0.1.0"

#: Home module of every public name, in ``__all__`` order.
_EXPORTS = {
    "core": (
        "TOLERANCE", "Symbol", "JointRange", "cond_range_x", "cond_range_cluster", "h0", "b0",
        "l0", "i0_forward", "is_k_anonymous",
    ),
    "graph": (
        "ConfusabilityGraph", "Decomposition", "build_graph", "finest_decomposition",
        "maximin_information", "merge_update",
    ),
    "quantize": (
        "CodewordPolicy", "UtilityKind", "UtilityChoice", "Quantization",
        "singleton_quantization", "utility", "Problem", "LagrangianConfig",
    ),
    "greedy": (
        "Termination", "TraceEntry", "GreedyResult", "lagrangian_l0",
        "algorithm1_min_l0", "algorithm2_min_istar", "algorithm3_l0_zero_istar", "run",
    ),
    "oracle": ("MAX_ORACLE_SYMBOLS", "OracleResult", "enumerate_partitions", "oracle_min"),
    "pareto": ("ParetoPoint", "Frontier", "default_lambda_grid", "sweep", "sweeney_baseline"),
    "ingest": ("DatasetStats", "load_csv", "stats"),
    "errors": (
        "PrivQuantError", "ContractViolation", "ConfigurationError", "SizeLimitError",
        "InfeasibleError", "IngestError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
