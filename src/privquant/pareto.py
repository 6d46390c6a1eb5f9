"""Pareto frontiers over the privacy-utility tradeoff, plus a k-anonymity baseline.

Sweeping the multiplier lambda and keeping the non-dominated (leakage,
utility-loss) pairs traces the frontier of what quantization can achieve.
Every intermediate quantization visited by a greedy run is itself a valid
release, so the sweep harvests all trace states, not just terminal ones;
low-lambda runs then contribute their whole merge path and the dominance
filter keeps the useful part. Runs at different lambdas share their states
up to the first merge they pick differently, and the sweep visits each
shared state once. A state's raw coordinates are the privacy and utility
the walk computed to steer its merges, and a quantization is built only
for the states that end up on the frontier.

Axes are normalized as plotted throughout this package's outputs:

* leakage axis: L0(S->released)/L0(S->X), or the same ratio for maximin
  information when that is the objective. A zero denominator makes the
  frontier "degenerate": raw bits are reported instead.
* utility-loss axis: ``1 - U1/h0(X)`` for resolution utility; for max
  distortion, ``U2 / (min U2 over the frontier)``, known only once the
  frontier is assembled (raw values are stored alongside for that reason).
  A zero denominator (one X symbol, or a zero floor) gives a loss of 0.

``sweeney_baseline`` is the classic generalization-and-suppression loop,
with no utility term, which is exactly what the frontier comparison is for:
it merges the release value of smallest S-range into its nearest neighbor
(a heap yields the one, a walk over a sorted codeword index the other) until
every release is consistent with at least k sensitive values.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import NamedTuple, Optional, Sequence

from .core import TOLERANCE, JointRange, h0
from .errors import ConfigurationError, ContractViolation, InfeasibleError
from .greedy import _nearest_first, _runs, _State
from .quantize import (CodewordPolicy, LagrangianConfig, Problem, Quantization, UtilityChoice,
                       UtilityKind, quantizer)

__all__ = [
    "ParetoPoint",
    "Frontier",
    "default_lambda_grid",
    "sweep",
    "sweeney_baseline",
    "frontier_csv_rows",
]

class ParetoPoint(NamedTuple):
    """One frontier point; raw bits/distortion are kept next to the
    normalized coordinates so rescaling the axes never loses information."""

    lam: float
    leakage_raw: float
    leakage_norm: float
    utility_raw: float
    loss_norm: float
    quantization: Quantization


class Frontier(NamedTuple):
    points: tuple[ParetoPoint, ...]
    problem: Problem
    utility_kind: UtilityKind
    degenerate: bool
    u2_floor: Optional[float]


#: The most lambdas a grid may hold; the default grid has 65.
MAX_GRID_COUNT = 10_000


def geometric_grid(lo: float, hi: float, count: int) -> list[float]:
    """``count >= 2`` geometrically spaced points from ``lo > 0`` to ``hi``."""
    ratio = (hi / lo) ** (1.0 / (count - 1))
    try:
        grid = [lo * ratio**i for i in range(count)]
    except OverflowError:  # a finite ratio**i past the float range
        grid = [math.inf]
    if math.isinf(grid[-1]):  # the greatest point
        raise ConfigurationError("log spacing overflows the float range: lower max or raise min")
    return grid


def default_lambda_grid() -> tuple[float, ...]:
    """lambda = 0 plus 64 geometrically spaced points on [1e-3, 1e2]."""
    return (0.0, *geometric_grid(1e-3, 1e2, 64))


def sweep(
    jr: JointRange,
    problem: Problem,
    utility_choice: UtilityChoice,
    lambda_grid: Optional[Sequence[float]] = None,
    policy: CodewordPolicy = CodewordPolicy.CENTROID,
    include_trace_states: bool = True,
) -> Frontier:
    """Assemble the Pareto frontier of one problem over a lambda grid.

    The runs of every distinct lambda are walked at once, as the tree they
    form: runs share each state until they part, and the walk visits each
    state once. For ``l0`` and ``istar`` lambda only decides where a run
    stops, so the tree is one merge path; ``l0-zero-istar`` picks its merges
    by lambda, so its tree branches where the runs pick differently.
    Candidates are every run's trace states by default (with
    ``include_trace_states`` off, each run's terminal state, taken from the
    end the walk sets for it), each credited to the first lambda of the
    grid whose run reaches it; identical partitions and coordinate ties are
    deduplicated and dominated points dropped. So an ``l0-zero-istar``
    frontier holds every release its runs passed through, with I* > 0 before
    a run reaches one component; its terminal states all have I* = 0. A
    candidate's raw leakage and utility are the ones the walk computed for
    its state (equal to ``l0`` or ``maximin_information`` and ``utility`` of
    its quantization), and only the frontier's points get a ``Quantization``.
    """
    grid = default_lambda_grid() if lambda_grid is None else tuple(lambda_grid)
    if not grid:
        raise ContractViolation("lambda grid must be non-empty")
    if len(grid) > MAX_GRID_COUNT:
        raise ConfigurationError(f"a lambda grid holds at most {MAX_GRID_COUNT} lambdas")
    cfgs = [LagrangianConfig(lam, utility_choice, policy) for lam in dict.fromkeys(grid)]
    # partition key -> (least config reaching it, raw leakage, utility)
    firsts: dict[tuple, tuple[int, float, float]] = {}

    def credit(i: int, step) -> None:
        first = firsts.get(step.partition)
        if first is None or i < first[0]:
            firsts[step.partition] = (i, step.privacy, step.utility)

    ends = [None] * len(cfgs)  # each run's (termination, rejected_delta_l, last step)
    walk = _runs(jr, problem, cfgs, ends)
    start = next(walk)  # every run's first step: the singleton state
    for runs, step in itertools.chain([start], walk):
        if include_trace_states:
            credit(runs[0], step)
    if not include_trace_states:
        for i, (_, _, last) in enumerate(ends):
            credit(i, last)

    scored = sorted((leak, -util, cfgs[i].lam, key) for key, (i, leak, util) in firsts.items())
    survivors: list[tuple[float, float, float, tuple]] = []
    best_util = -math.inf
    for leak, neg_util, lam, key in scored:
        util = -neg_util
        if util > best_util + TOLERANCE:
            best_util = util
            survivors.append((lam, leak, util, key))

    singleton_leak = start[1].privacy
    degenerate = singleton_leak <= TOLERANCE
    u2_floor, h0_x = None, h0(jr.n_x)
    if utility_choice.kind is UtilityKind.U2_MAX_DISTORTION:
        u2_floor = min(util for _, _, util, _ in survivors)

    quantize = quantizer(jr, policy)
    points = []
    for lam, leak, util, key in survivors:
        if u2_floor is None:
            loss = 0.0 if h0_x <= TOLERANCE else 1.0 - util / h0_x
        else:
            loss = 0.0 if abs(u2_floor) <= TOLERANCE else util / u2_floor
        leak_norm = leak if degenerate else leak / singleton_leak
        points.append(ParetoPoint(lam, leak, leak_norm, util, loss, quantize(key)))
    points.sort(key=lambda p: p.loss_norm)
    return Frontier(tuple(points), problem, utility_choice.kind, degenerate, u2_floor)


def sweeney_baseline(
    jr: JointRange, k: int, policy: CodewordPolicy = CodewordPolicy.CENTROID
) -> Quantization:
    """Generalize under-populated release values until k-anonymity holds.

    While some cluster's conditional range holds fewer than k sensitive
    values, the worst offender (smallest range, then smallest id) merges
    with its nearest neighbor, ties to the smallest id: nearest by absolute
    codeword difference when X is numeric, by id distance otherwise. A heap
    of (range size, id) yields the offender, skipping entries that no longer
    match their cluster; greedy's ``_nearest_first`` walks a sorted (codeword
    or id, id) index out from it, and the least id at the first gap is the
    neighbor. Each merge updates both. The merges run on greedy's cluster
    state (a u2 one for numeric X, which keeps exact codeword value sums).
    """
    if k < 1:
        raise ContractViolation("k must be at least 1")
    if k > jr.n_s:
        raise InfeasibleError(
            f"{k}-anonymity is impossible: S has only {jr.n_s} values",
            max_achievable=float(jr.n_s),
        )
    numeric = all(v is not None for v in jr.x_values())
    state = _State(jr, UtilityChoice.u2() if numeric else UtilityChoice.u1(), policy, False)
    place = state.codeword if numeric else (lambda cid: cid)
    heap = sorted((c.smask.bit_count(), c.cid) for c in state.clusters.values())
    index = sorted((place(cid), cid) for cid in state.clusters) if heap[0][0] < k else []
    while heap[0][0] < k:
        size, cid = heappop(heap)
        if cid in state.clusters and state.clusters[cid].smask.bit_count() == size:
            here = bisect_left(index, (place(cid), cid))
            walk = _nearest_first(index, index.pop(here)[0], here - 1, here)
            partner = min(o for _, (_, o) in next(itertools.groupby(walk, lambda e: e[0]))[1])
            del index[bisect_left(index, (place(partner), partner))]
            merged = state.merge(cid, partner)
            insort(index, (place(merged), merged))
            heappush(heap, (state.clusters[merged].smask.bit_count(), merged))
    return quantizer(jr, policy)(state.partition())


def frontier_csv_rows(frontier: Frontier) -> list[list[str]]:
    """Frontier as CSV rows: lambda,leakage_raw,leakage_norm,utility_raw,loss_norm."""
    rows = [["lambda", "leakage_raw", "leakage_norm", "utility_raw", "loss_norm"]]
    for p in frontier.points:
        fields = (p.lam, p.leakage_raw, p.leakage_norm, p.utility_raw, p.loss_norm)
        rows.append([f"{v:.10g}" for v in fields])
    return rows
