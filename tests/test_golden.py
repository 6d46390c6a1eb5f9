"""Golden digests: greedy traces and sweep frontiers pinned bit for bit.

Each greedy result and frontier is reduced to a canonical record (partition
keys, ``float.hex`` of every float, termination, merged pairs, component
counts, decomposition blocks) and the records of one problem are hashed
together; a fourth digest hashes every problem on tables of many small
components, where algorithms 2 and 3 search across many components. So a
change to a merge pick, an acceptance decision, a tie-break, a crediting
rule or any float of any output changes a digest.

To regenerate after an intended change of output, run this file as a script:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from helpers import random_joint_range, sparse_joint_range
from privquant import JointRange, LagrangianConfig, Problem, Symbol, run, sweep
from privquant.quantize import CodewordPolicy, UtilityChoice

GOLDEN = {
    "l0": "f04fdf6d335929a1e8fd0079c76f45ec3156df091e50376f26c296e65b67b772",
    "istar": "f95df2fb650639224673b0fd858fdbba04d9ee56a828613ee6da7bd3cf527428",
    "l0-zero-istar": "64561437492e0767efba1b900d3bac2485ee8001510e51b738c576768f6403ef",
    "sparse-components": "6cd418d4071f4d9e24972bffa3fad842c4a5d69f35a3a0bbca49bf537e094033",
}

LAMBDAS = (0.0, 0.3, 2.5)
GRID = (2.5, 0.0, 0.05, 0.3, 0.3, 1.0, 10.0)
UTILITIES = (UtilityChoice.u1(), UtilityChoice.u2())


def _integer_valued(rng: random.Random) -> JointRange:
    """A random joint range whose X values are small integers (many ties)."""
    jr = random_joint_range(rng, with_values=False)
    xs = [Symbol(f"x{i}", float(rng.randint(0, 4))) for i in range(jr.n_x)]
    pairs = [(s, x) for s in range(jr.n_s) for x in range(jr.n_x) if jr.cond_mask_x(x) >> s & 1]
    return JointRange([Symbol(f"s{i}") for i in range(jr.n_s)], xs, pairs)


def _instances() -> list[JointRange]:
    rng = random.Random(7077)
    instances = [random_joint_range(rng) for _ in range(24)]
    instances += [random_joint_range(rng, max_s=12, max_x=16) for _ in range(6)]
    return instances + [_integer_valued(rng) for _ in range(16)]


def _hex(v):
    return None if v is None else float(v).hex()


def _quantization(q) -> list:
    codewords = None if q.codewords is None else [_hex(c) for c in q.codewords]
    return [[list(c) for c in q.partition_key()], codewords, q.policy.value]


def _result(r) -> list:
    trace = [
        [e.t, _quantization(e.quantization), _hex(e.lagrangian), _hex(e.delta_l),
         [list(p) for p in e.merged], e.component_count, _hex(e.utility_value)]
        for e in r.trace
    ]
    blocks = None if r.decomposition is None else [sorted(b) for b in r.decomposition.blocks]
    return [_quantization(r.quantization), trace, blocks, r.termination.value,
            _hex(r.rejected_delta_l)]


def _frontier(f) -> list:
    points = [
        [_hex(p.lam), _hex(p.leakage_raw), _hex(p.leakage_norm), _hex(p.utility_raw),
         _hex(p.loss_norm), _quantization(p.quantization)]
        for p in f.points
    ]
    return [points, f.problem.value, f.utility_kind.value, f.degenerate, _hex(f.u2_floor)]


def _digest(instances: list[JointRange], problems) -> str:
    """A sha256 over the records of every run and sweep of ``problems`` on ``instances``."""
    h = hashlib.sha256()
    for problem in problems:
        for jr in instances:
            for u in UTILITIES:
                for policy in CodewordPolicy:
                    for lam in LAMBDAS:
                        record = _result(run(jr, problem, LagrangianConfig(lam, u, policy)))
                        h.update(json.dumps(record).encode() + b"\n")
                    for include in (True, False):
                        f = sweep(jr, problem, u, GRID, policy, include_trace_states=include)
                        h.update(json.dumps(_frontier(f)).encode() + b"\n")
    return h.hexdigest()


def digests() -> dict[str, str]:
    """One digest per problem over the random tables, and one over every problem
    on tables of many small components, where algorithms 2 and 3 search
    across many components."""
    instances = _instances()
    out = {problem.value: _digest(instances, [problem]) for problem in Problem}
    rng = random.Random(4848)
    out["sparse-components"] = _digest([sparse_joint_range(rng, 48) for _ in range(4)], Problem)
    return out


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return digests()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_digest(computed, name):
    assert computed[name] == GOLDEN[name]


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
