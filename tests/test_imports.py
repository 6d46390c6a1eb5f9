"""The package's import surface, each check in a fresh interpreter.

Public names load on first use, so what a process has imported depends on
what it touched; a fresh subprocess per check keeps that observable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import TOY_PAIRS

SRC = str(Path(__file__).resolve().parents[1] / "src")
TOY_PAIRS_ARG = ",".join(f"{s}:{x}" for s, x in TOY_PAIRS)
ALGORITHM_MODULES = ("graph", "greedy", "oracle", "pareto")

#: The public names of ``privquant`` by home module.
PUBLIC = {
    "core": ("TOLERANCE", "Symbol", "JointRange", "cond_range_x", "cond_range_cluster", "h0",
             "b0", "l0", "i0_forward", "is_k_anonymous"),
    "graph": ("ConfusabilityGraph", "Decomposition", "build_graph", "finest_decomposition",
              "maximin_information", "merge_update"),
    "quantize": ("CodewordPolicy", "UtilityKind", "UtilityChoice", "Quantization",
                 "singleton_quantization", "utility", "Problem", "LagrangianConfig"),
    "greedy": ("Termination", "TraceEntry", "GreedyResult",
               "lagrangian_l0", "algorithm1_min_l0", "algorithm2_min_istar",
               "algorithm3_l0_zero_istar", "run"),
    "oracle": ("MAX_ORACLE_SYMBOLS", "OracleResult", "enumerate_partitions", "oracle_min"),
    "pareto": ("ParetoPoint", "Frontier", "default_lambda_grid", "sweep", "sweeney_baseline"),
    "ingest": ("DatasetStats", "load_csv", "stats"),
    "errors": ("PrivQuantError", "ContractViolation", "ConfigurationError", "SizeLimitError",
               "InfeasibleError", "IngestError"),
}


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; return the JSON its last output line holds."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


CLI_MODULES = """
import json, sys
from privquant.cli import main
code = main(sys.argv[1:])
print()
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("privquant."))]))
"""


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["stats"], ALGORITHM_MODULES),
        (["quantize", "--algorithm", "istar", "--lambda", "0.3"], ("oracle", "pareto")),
        (["oracle", "--lambda", "0.3"], ("greedy", "pareto")),
    ],
    ids=["stats", "quantize", "oracle"],
)
def test_subcommand_loads_only_what_it_runs(tmp_path, argv, unloaded):
    path = tmp_path / "toy.csv"
    path.write_text("s,x\n" + "".join(f"{s},{x}\n" for s, x in TOY_PAIRS))
    for source in (["--input", str(path), "--s", "s", "--x", "x"], ["--pairs", TOY_PAIRS_ARG]):
        code, loaded = fresh(CLI_MODULES, *argv, *source)
        assert code == 0
        assert not {f"privquant.{m}" for m in unloaded} & set(loaded)


def test_star_import_binds_every_public_name_to_its_home_object():
    exported, listed, homeless, version = fresh("""
import importlib, json, sys
import privquant
listed = dir(privquant)
namespace = {}
exec("from privquant import *", namespace)
homeless = [
    name for module, names in json.loads(sys.argv[1]).items() for name in names
    if namespace[name] is not getattr(importlib.import_module(f"privquant.{module}"), name)
]
print(json.dumps([privquant.__all__, listed, homeless, namespace["__version__"]]))
""", json.dumps(PUBLIC))
    public = [name for names in PUBLIC.values() for name in names]
    assert sorted(exported) == sorted(["__version__", *public])
    assert set(exported) <= set(listed)
    assert homeless == []
    assert version == "0.1.0"


def test_submodules_load_on_access_and_unknown_names_raise():
    assert fresh("""
import importlib, json, privquant
core = privquant.core
print(json.dumps([
    core is importlib.import_module("privquant.core"),
    "graph" in dir(privquant),
    hasattr(privquant, "no_such_name"),
]))
""") == [True, True, False]


def test_algorithm_and_cli_imports_load_neither_dataclasses_nor_inspect():
    # Every record is a typing.NamedTuple, so no import of privquant pulls in
    # dataclasses, or the inspect module it loads, beyond what the bare
    # interpreter already holds.
    bare, added = fresh("""
import sys
bare = set(sys.modules)
import privquant.cli, privquant.oracle, privquant.pareto
added = set(sys.modules) - bare
import json
print(json.dumps([sorted(bare), sorted(added)]))
""")
    assert {"privquant.cli", "privquant.oracle", "privquant.pareto"} <= set(added)
    assert not {"dataclasses", "inspect"} & set(added)
