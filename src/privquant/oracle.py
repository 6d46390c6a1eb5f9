"""Exhaustive search over all quantizations of small alphabets.

Ground truth for the greedy procedures: every set partition of the X
alphabet is enumerated as a restricted-growth string (RGS), each one is
scored, and the exact optimum is returned. RGS enumeration is constant
memory per item and lexicographic, which gives a canonical deterministic
representative among ties (the least RGS).

Each possible block's S-mask, l0 term and utility are computed once, in a
table indexed by the block's member bitmask, and the RGS walker keeps every
block's member bitmask as it steps, so scoring a partition is a few table
lookups and a component count.

Hard-capped at 12 symbols (Bell(12) is ~4.2 million partitions); beyond
that this stops being a desk-scale tool and the cap errors out rather than
silently grinding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import TOLERANCE, JointRange, h0
from .errors import ConfigurationError, ContractViolation, InfeasibleError, SizeLimitError
from .graph import components
from .greedy import LagrangianConfig, Problem
from .quantize import Quantization, UtilityKind, cluster_cost, compute_codeword, require_u2

__all__ = ["MAX_ORACLE_SYMBOLS", "OracleResult", "enumerate_partitions", "oracle_min"]

MAX_ORACLE_SYMBOLS = 12


@dataclass(frozen=True)
class OracleResult:
    """One optimal witness, its objective (within ``TOLERANCE`` of the exact
    optimum) as ``value``, and how many partitions tie."""

    value: float
    quantization: Quantization
    optima_count: int


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every set partition of {0..n-1} once, as restricted-growth strings.

    ``rgs[i]`` is the block index of element i, with ``rgs[0] == 0`` and
    each value at most one above the running maximum; successive strings
    come out in lexicographic order.
    """
    for rgs, _ in _walk_partitions(n):
        yield tuple(rgs)


def _walk_partitions(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """The lexicographic RGS enumeration, carrying each block's member bitmask.

    Yields the same two lists every time, updated in place: ``rgs`` and
    ``blocks``, where ``blocks[r]`` has bit x set iff ``rgs[x] == r``.
    """
    if n < 1:
        raise ContractViolation("partition enumeration needs n >= 1")
    if n > MAX_ORACLE_SYMBOLS:
        raise SizeLimitError(
            f"refusing to enumerate partitions of {n} > {MAX_ORACLE_SYMBOLS} symbols"
        )
    rgs = [0] * n
    # prefix_max[i] = max(rgs[0..i-1]); rgs[i] may range over 0..prefix_max[i]+1.
    prefix_max = [0] * n
    blocks = [(1 << n) - 1]
    while True:
        yield rgs, blocks
        i = n - 1
        while i > 0 and rgs[i] == prefix_max[i] + 1:
            i -= 1
        if i == 0:
            return
        r = rgs[i]
        blocks[r] ^= 1 << i
        rgs[i] = r = r + 1
        if r == len(blocks):
            blocks.append(0)
        blocks[r] |= 1 << i
        if i < n - 1:
            # The suffix resets into block 0, which can leave blocks above m empty.
            m = max(prefix_max[i], r)
            for j in range(i + 1, n):
                blocks[rgs[j]] ^= 1 << j
                rgs[j] = 0
                prefix_max[j] = m
            blocks[0] |= (1 << n) - (2 << i)
            del blocks[m + 1 :]


def blocks_from_rgs(rgs: tuple[int, ...]) -> list[list[int]]:
    blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
    for x, block in enumerate(rgs):
        blocks[block].append(x)
    return blocks


def oracle_min(
    jr: JointRange,
    problem: Problem,
    cfg: LagrangianConfig,
    theta: Optional[float] = None,
) -> OracleResult:
    """Exact optimum of a quantization problem by full enumeration.

    With ``theta`` unset, minimizes the Lagrangian of the problem at
    ``cfg.lam`` (the same bit-valued objective the greedy runs report).
    With ``theta`` set, minimizes the bare privacy objective over the
    partitions whose utility is at least ``theta`` (within tolerance);
    infeasible thresholds raise with the best achievable utility attached,
    and a NaN ``theta`` is a ``ConfigurationError``.
    When every feasible objective is NaN (say, a distance returning ``inf``
    at lambda 0) no optimum exists and a ``ConfigurationError`` says so.

    The zero-indistinguishability problem additionally restricts the search
    to partitions whose cluster graph is connected.

    One enumeration pass keeps the optimum, the number of partitions within
    ``TOLERANCE`` of it and the lexicographically first of them (the witness),
    whose own objective is the reported ``value``.
    """
    if theta is not None and math.isnan(theta):
        raise ConfigurationError("theta must be a number, not NaN")
    n = jr.n_x
    if n > MAX_ORACLE_SYMBOLS:
        raise SizeLimitError(
            f"oracle supports at most {MAX_ORACLE_SYMBOLS} X symbols, got {n}"
        )
    u2 = cfg.utility.kind is UtilityKind.U2_MAX_DISTORTION
    values = jr.x_values()
    dist = cfg.utility.distance
    if u2:
        require_u2(values, dist)
    masks = [jr.cond_mask_x(x) for x in range(n)]
    h0_s = h0(jr.n_s)
    h0_x = h0(n)
    lam = cfg.lam

    # Per-block statistics by member bitmask. A partition's l0 is its blocks'
    # greatest term (the smallest S-range) and its utility their least.
    size = 1 << n
    smask = [0] * size
    leak = [0.0] * size
    block_util = [0.0] * size
    for b in range(1, size):
        low = b & -b
        smask[b] = sm = smask[b ^ low] | masks[low.bit_length() - 1]
        leak[b] = h0_s - math.log2(sm.bit_count())
        members = [x for x in range(n) if b >> x & 1]
        if u2:
            vals = [values[x] for x in members]
            block_util[b] = -cluster_cost(vals, compute_codeword(vals, cfg.policy), dist)
        else:
            block_util[b] = h0_x - math.log2(len(members))

    istar = problem is Problem.MIN_ISTAR
    connected_only = problem is Problem.MIN_L0_ZERO_ISTAR
    floor = None if theta is None else theta - TOLERANCE
    best = math.inf
    # Best utility over the structurally valid partitions, theta ignored: the
    # infeasibility diagnostic.
    best_util = -math.inf
    any_feasible = False
    # Objectives within TOLERANCE of the running best -> [partitions, least RGS].
    near: dict[float, list] = {}
    for rgs, blocks in _walk_partitions(n):
        if connected_only and len(components([smask[b] for b in blocks])) != 1:
            continue
        util = min([block_util[b] for b in blocks])
        if util > best_util:
            best_util = util
        if floor is not None and not util >= floor:
            continue
        if istar:
            privacy = math.log2(len(components([smask[b] for b in blocks])))
        else:
            privacy = max([leak[b] for b in blocks])
        obj = privacy if floor is not None else privacy - lam * util
        any_feasible = True
        if obj < best:
            best = obj
            near = {o: tie for o, tie in near.items() if o <= best + TOLERANCE}
        if obj <= best + TOLERANCE:
            tie = near.get(obj)
            if tie is None:
                near[obj] = [1, tuple(rgs)]
            else:
                tie[0] += 1
    if not any_feasible:
        raise InfeasibleError(
            f"no quantization satisfies the constraint; best achievable utility is "
            f"{best_util:.6g}",
            max_achievable=best_util,
        )
    if not near:
        raise ConfigurationError("no partition has a comparable objective; every one is NaN")
    value, (_, witness) = min(near.items(), key=lambda item: item[1][1])
    q = Quantization.from_clusters(jr, blocks_from_rgs(witness), cfg.policy)
    return OracleResult(value, q, sum(count for count, _ in near.values()))
