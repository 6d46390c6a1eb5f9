"""Pareto frontiers over the privacy-utility tradeoff, plus a k-anonymity baseline.

Sweeping the multiplier lambda and keeping the non-dominated (leakage,
utility-loss) pairs traces the frontier of what quantization can achieve.
Every intermediate quantization visited by a greedy run is itself a valid
release, so the sweep harvests all trace states, not just terminal ones;
low-lambda runs then contribute their whole merge path and the dominance
filter keeps the useful part.

Axes are normalized as plotted throughout this package's outputs:

* leakage axis: L0(S->released)/L0(S->X), or the same ratio for maximin
  information when that is the objective. A zero denominator makes the
  frontier "degenerate": raw bits are reported instead.
* utility-loss axis: ``1 - U1/h0(X)`` for resolution utility; for max
  distortion, ``U2 / (min U2 over the frontier)``, so the normalizer is
  only known once the frontier is assembled (raw values are stored
  alongside for that reason).

``sweeney_baseline`` is the classic generalization-and-suppression loop:
keep merging under-populated release values into their nearest neighbor
until every release is consistent with at least k sensitive values. It has
no utility term, which is exactly what the frontier comparison is for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import TOLERANCE, JointRange, h0, l0
from .errors import ContractViolation, InfeasibleError
from .graph import maximin_information
from .greedy import (
    LagrangianConfig,
    Problem,
    _follow,
    _l0_zero_istar_path,
    _lambda_path,
    _singleton_decomposition,
)
from .quantize import (
    CodewordPolicy,
    Quantization,
    UtilityChoice,
    UtilityKind,
    absolute_difference,
    compute_codeword,
    utility,
)

__all__ = [
    "ParetoPoint",
    "Frontier",
    "default_lambda_grid",
    "sweep",
    "normalize",
    "NormalizationContext",
    "sweeney_baseline",
    "frontier_csv_rows",
]

@dataclass(frozen=True)
class ParetoPoint:
    """One frontier point; raw bits/distortion are kept next to the
    normalized coordinates so rescaling the axes never loses information."""

    lam: float
    leakage_raw: float
    leakage_norm: float
    utility_raw: float
    loss_norm: float
    quantization: Quantization


@dataclass(frozen=True)
class Frontier:
    points: tuple[ParetoPoint, ...]
    problem: Problem
    utility_kind: UtilityKind
    degenerate: bool
    u2_floor: Optional[float]
    dataset_id: Optional[str] = None


@dataclass(frozen=True)
class NormalizationContext:
    """Denominators for the normalized axes of one frontier."""

    leakage_full: float
    h0_x: float
    u2_floor: Optional[float]
    degenerate: bool


def default_lambda_grid() -> tuple[float, ...]:
    """lambda = 0 plus 64 geometrically spaced points on [1e-3, 1e2]."""
    pts = [0.0]
    lo, hi, n = 1e-3, 1e2, 64
    ratio = (hi / lo) ** (1.0 / (n - 1))
    pts.extend(lo * ratio**i for i in range(n))
    return tuple(pts)


def _raw_leakage(jr: JointRange, q: Quantization, problem: Problem) -> float:
    if problem is Problem.MIN_ISTAR:
        return maximin_information(jr, q)
    return l0(jr, q)


def normalize(
    leakage_raw: float, utility_raw: float, ctx: NormalizationContext, kind: UtilityKind
) -> tuple[float, float]:
    """(loss_norm, leakage_norm) for one point under a frontier's context."""
    if ctx.degenerate:
        leak = leakage_raw
    else:
        leak = leakage_raw / ctx.leakage_full
    if kind is UtilityKind.U1_RESOLUTION:
        loss = 0.0 if ctx.h0_x <= TOLERANCE else 1.0 - utility_raw / ctx.h0_x
    else:
        floor = ctx.u2_floor
        loss = 0.0 if floor is None or abs(floor) <= TOLERANCE else utility_raw / floor
    return loss, leak


def sweep(
    jr: JointRange,
    problem: Problem,
    utility_choice: UtilityChoice,
    lambda_grid: Optional[Sequence[float]] = None,
    policy: CodewordPolicy = CodewordPolicy.CENTROID,
    include_trace_states: bool = True,
    dataset_id: Optional[str] = None,
) -> Frontier:
    """Assemble the Pareto frontier of one problem over a lambda grid.

    For ``l0`` and ``istar`` lambda never picks a merge, only where a run
    stops, so one merge path serves every distinct lambda; ``l0-zero-istar``
    picks its merges by a lambda-dependent delta and runs once per distinct
    lambda. Candidate quantizations are every run's trace states by default
    (terminal states only when ``include_trace_states`` is off), each
    credited to the first lambda of the grid whose run reaches it; identical
    partitions and coordinate ties are deduplicated and dominated points
    dropped.
    """
    grid = default_lambda_grid() if lambda_grid is None else tuple(lambda_grid)
    if not grid:
        raise ContractViolation("lambda grid must be non-empty")
    cfgs = [LagrangianConfig(lam, utility_choice, policy) for lam in dict.fromkeys(grid)]
    candidates: dict[tuple, tuple[float, Quantization]] = {}
    if problem is Problem.MIN_L0_ZERO_ISTAR:
        singletons = _singleton_decomposition(jr)
        for cfg in cfgs:  # lambda steers algorithm 3's merges: one run each
            result = _follow(_l0_zero_istar_path(jr, cfg, singletons), cfg, forced=True)
            trace = [entry.quantization for entry in result.trace]
            for q in trace if include_trace_states else trace[-1:]:
                candidates.setdefault(q.partition_key(), (cfg.lam, q))
    else:
        states, stops = _lambda_path(jr, problem, cfgs)
        reached = 0  # states[:reached] are credited already
        for cfg, stop in zip(cfgs, stops):
            for q in states[reached if include_trace_states else stop : stop + 1]:
                candidates.setdefault(q.partition_key(), (cfg.lam, q))
            reached = max(reached, stop + 1)

    scored = []
    for lam, q in candidates.values():
        leak = _raw_leakage(jr, q, problem)
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

    singleton_leak = _raw_leakage(
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


def sweeney_baseline(
    jr: JointRange,
    k: int,
    distance: Callable[[float, float], float] = absolute_difference,
    policy: CodewordPolicy = CodewordPolicy.CENTROID,
) -> Quantization:
    """Generalize under-populated release values until k-anonymity holds.

    While some cluster's conditional range holds fewer than k sensitive
    values, the worst offender (smallest range, then smallest id) is merged
    into its nearest neighbor: nearest by codeword distance when X is
    numeric, by cluster id distance otherwise. Terminates because merging
    strictly reduces the cluster count and the single-cluster release has
    the full range.
    """
    if k < 1:
        raise ContractViolation("k must be at least 1")
    if k > jr.n_s:
        raise InfeasibleError(
            f"{k}-anonymity is impossible: S has only {jr.n_s} values",
            max_achievable=float(jr.n_s),
        )
    values = jr.x_values()
    numeric = all(v is not None for v in values)
    clusters: dict[int, set[int]] = {x: {x} for x in range(jr.n_x)}

    def range_size(cid: int) -> int:
        return jr.cond_mask_cluster(clusters[cid]).bit_count()

    while True:
        offenders = [cid for cid in clusters if range_size(cid) < k]
        if not offenders:
            break
        cid = min(offenders, key=lambda c: (range_size(c), c))
        others = [c for c in clusters if c != cid]
        if numeric:
            def codeword(c: int) -> float:
                return compute_codeword([values[x] for x in sorted(clusters[c])], policy)

            own = codeword(cid)
            partner = min(others, key=lambda c: (distance(codeword(c), own), c))
        else:
            partner = min(others, key=lambda c: (abs(c - cid), c))
        keep = min(cid, partner)
        drop = max(cid, partner)
        clusters[keep] = clusters[keep] | clusters[drop]
        del clusters[drop]
    return Quantization.from_clusters(jr, clusters.values(), policy)


def frontier_csv_rows(frontier: Frontier) -> list[list[str]]:
    """Frontier as CSV rows: lambda,leakage_raw,leakage_norm,utility_raw,loss_norm."""
    rows = [["lambda", "leakage_raw", "leakage_norm", "utility_raw", "loss_norm"]]
    for p in frontier.points:
        rows.append(
            [
                f"{p.lam:.10g}",
                f"{p.leakage_raw:.10g}",
                f"{p.leakage_norm:.10g}",
                f"{p.utility_raw:.10g}",
                f"{p.loss_norm:.10g}",
            ]
        )
    return rows
