"""Shared fixtures-in-code: the worked toy instance and random generators."""

from __future__ import annotations

import random

import math
from typing import Iterable, Optional, Sequence

from privquant import (
    JointRange,
    LagrangianConfig,
    Problem,
    Quantization,
    Symbol,
    h0,
    l0,
    maximin_information,
    run,
)
from privquant.core import TOLERANCE
from privquant.errors import ContractViolation
from privquant.pareto import (
    Frontier,
    NormalizationContext,
    ParetoPoint,
    default_lambda_grid,
    normalize,
)
from privquant.quantize import CodewordPolicy, UtilityChoice, UtilityKind, utility

# Joint range shared by the example-based tests: 6 sensitive values, 7 public ones.
TOY_PAIRS = [
    ("s1", "x1"),
    ("s1", "x2"),
    ("s2", "x1"),
    ("s3", "x3"),
    ("s3", "x4"),
    ("s4", "x5"),
    ("s5", "x6"),
    ("s6", "x7"),
]

TOY_VALUES = {"x1": 0.2, "x2": 0.1, "x3": 0.4, "x4": 0.3, "x5": 0.6, "x6": 1.5, "x7": 1.0}
TOY_VALUES_X7_4 = {**TOY_VALUES, "x7": 4.0}


def make_toy(values=None) -> JointRange:
    return JointRange.from_id_pairs(TOY_PAIRS, values)


def id_clusters(jr: JointRange, q: Quantization) -> set[frozenset[str]]:
    """Order-free view of a quantization, by symbol ids."""
    return {frozenset(jr.x_ids(c)) for c in q.clusters}


def clusters_by_id(jr: JointRange, *groups: tuple[str, ...]) -> list[set[int]]:
    """Index clusters from id tuples, e.g. clusters_by_id(jr, ("x1","x2"), ...)."""
    index = {sym.id: i for i, sym in enumerate(jr.x_symbols)}
    return [{index[i] for i in group} for group in groups]


def random_joint_range(
    rng: random.Random, max_s: int = 8, max_x: int = 9, with_values: bool = True
) -> JointRange:
    """Random joint range with both marginals covered, sized for brute force."""
    n_s = rng.randint(1, max_s)
    n_x = rng.randint(1, max_x)
    pairs = set()
    for x in range(n_x):
        pairs.add((rng.randrange(n_s), x))
    covered = {s for s, _ in pairs}
    for s in range(n_s):
        if s not in covered:
            pairs.add((s, rng.randrange(n_x)))
    for _ in range(rng.randint(0, (n_s * n_x) // 3)):
        pairs.add((rng.randrange(n_s), rng.randrange(n_x)))
    values = None
    if with_values:
        values = [round(rng.uniform(0.0, 10.0), 3) for _ in range(n_x)]
    s_syms = [Symbol(f"s{i}") for i in range(n_s)]
    x_syms = [Symbol(f"x{i}", values[i] if values else None) for i in range(n_x)]
    return JointRange(s_syms, x_syms, pairs)


def random_partition(rng: random.Random, n: int) -> list[set[int]]:
    """Uniform-ish random partition of {0..n-1} (random labels, normalized)."""
    labels = [rng.randrange(n) for _ in range(n)]
    blocks: dict[int, set[int]] = {}
    for x, lab in enumerate(labels):
        blocks.setdefault(lab, set()).add(x)
    return list(blocks.values())


def random_quantization(
    rng: random.Random, jr: JointRange, policy: CodewordPolicy = CodewordPolicy.CENTROID
) -> Quantization:
    return Quantization.from_clusters(jr, random_partition(rng, jr.n_x), policy)


def raw_leakage(jr: JointRange, q: Quantization, problem: Problem) -> float:
    if problem is Problem.MIN_ISTAR:
        return maximin_information(jr, q)
    return l0(jr, q)


def reference_sweep(
    jr: JointRange,
    problem: Problem,
    utility_choice: UtilityChoice,
    lambda_grid: Optional[Sequence[float]] = None,
    policy: CodewordPolicy = CodewordPolicy.CENTROID,
    include_trace_states: bool = True,
    dataset_id: Optional[str] = None,
) -> Frontier:
    """``sweep`` as one full greedy run per distinct lambda.

    The reference the merge-path ``sweep`` is checked against: the
    per-lambda loop ``sweep`` had before it walked one shared merge path.
    """
    grid = default_lambda_grid() if lambda_grid is None else tuple(lambda_grid)
    if not grid:
        raise ContractViolation("lambda grid must be non-empty")
    seen_lams = set()
    candidates: dict[tuple, tuple[float, Quantization]] = {}
    for lam in grid:
        if lam in seen_lams:
            continue
        seen_lams.add(lam)
        result = run(jr, problem, LagrangianConfig(lam, utility_choice, policy))
        states: Iterable[Quantization]
        if include_trace_states:
            states = (entry.quantization for entry in result.trace)
        else:
            states = (result.quantization,)
        for q in states:
            candidates.setdefault(q.partition_key(), (lam, q))

    scored = []
    for lam, q in candidates.values():
        leak = raw_leakage(jr, q, problem)
        util = utility(jr, q, utility_choice)
        scored.append((leak, -util, lam, q.partition_key(), q))
    scored.sort(key=lambda row: row[:4])

    survivors: list[tuple[float, float, float, Quantization]] = []
    best_util = -math.inf
    last_coords = None
    for leak, neg_util, lam, _, q in scored:
        util = -neg_util
        if (leak, util) == last_coords:
            continue  # same coordinates, keep the first representative
        last_coords = (leak, util)
        if util > best_util + TOLERANCE:
            best_util = util
            survivors.append((lam, leak, util, q))

    singleton_leak = raw_leakage(
        jr, Quantization.from_clusters(jr, [{x} for x in range(jr.n_x)], policy), problem
    )
    degenerate = singleton_leak <= TOLERANCE
    u2_floor = None
    if utility_choice.kind is UtilityKind.U2_MAX_DISTORTION:
        u2_floor = min(util for _, _, util, _ in survivors)
    ctx = NormalizationContext(singleton_leak, h0(jr.n_x), u2_floor, degenerate)

    points = []
    for lam, leak, util, q in survivors:
        loss, leak_norm = normalize(leak, util, ctx, utility_choice.kind)
        points.append(ParetoPoint(lam, leak, leak_norm, util, loss, q))
    points.sort(key=lambda p: p.loss_norm)
    return Frontier(
        tuple(points), problem, utility_choice.kind, degenerate, u2_floor, dataset_id
    )
