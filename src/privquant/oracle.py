"""Exhaustive search over all quantizations of small alphabets.

Ground truth for the greedy procedures: every set partition of the X
alphabet is enumerated as a restricted-growth string (RGS), each one is
scored, and the exact optimum is returned. RGS enumeration is constant
memory per item and lexicographic, which gives a canonical deterministic
representative among ties (the least RGS).

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
from .graph import component_count
from .greedy import LagrangianConfig, Problem
from .quantize import Quantization, UtilityKind, compute_codeword

__all__ = ["MAX_ORACLE_SYMBOLS", "OracleResult", "enumerate_partitions", "oracle_min"]

MAX_ORACLE_SYMBOLS = 12


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum: its value, one witness, and how many partitions tie."""

    value: float
    quantization: Quantization
    optima_count: int


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every set partition of {0..n-1} once, as restricted-growth strings.

    ``rgs[i]`` is the block index of element i, with ``rgs[0] == 0`` and
    each value at most one above the running maximum; successive strings
    come out in lexicographic order.
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
    while True:
        yield tuple(rgs)
        i = n - 1
        while i > 0 and rgs[i] == prefix_max[i] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        m = max(prefix_max[i], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            prefix_max[j] = m


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
    infeasible thresholds raise with the best achievable utility attached.

    The zero-indistinguishability problem additionally restricts the search
    to partitions whose cluster graph is connected.

    One enumeration pass keeps the optimum, the number of partitions within
    ``TOLERANCE`` of it and the lexicographically first of them (the witness).
    """
    n = jr.n_x
    if n > MAX_ORACLE_SYMBOLS:
        raise SizeLimitError(
            f"oracle supports at most {MAX_ORACLE_SYMBOLS} X symbols, got {n}"
        )
    u2 = cfg.utility.kind is UtilityKind.U2_MAX_DISTORTION
    values = jr.x_values()
    if u2 and any(v is None for v in values):
        raise ConfigurationError(
            "max-distortion utility needs numeric values on every X symbol"
        )
    masks = [jr.cond_mask_x(x) for x in range(n)]
    h0_s = h0(jr.n_s)
    h0_x = h0(n)
    lam = cfg.lam
    dist = cfg.utility.distance

    def score(rgs: tuple[int, ...]) -> tuple[bool, float, float, bool]:
        """(feasible, objective, utility, structural_ok) for one partition.

        ``structural_ok`` ignores the theta constraint; it is what "could
        ever be feasible" means for the infeasibility diagnostic.
        """
        blocks = blocks_from_rgs(rgs)
        smasks = []
        for block in blocks:
            m = 0
            for x in block:
                m |= masks[x]
            smasks.append(m)
        if u2:
            worst = 0.0
            for block in blocks:
                vals = [values[x] for x in block]
                cw = compute_codeword(vals, cfg.policy)
                d = max(dist(v, cw) for v in vals)
                if d > worst:
                    worst = d
            util = -worst
        else:
            util = h0_x - math.log2(max(len(b) for b in blocks))

        if problem is Problem.MIN_ISTAR:
            privacy = math.log2(component_count(smasks))
        else:
            privacy = h0_s - math.log2(min(m.bit_count() for m in smasks))
            if problem is Problem.MIN_L0_ZERO_ISTAR and component_count(smasks) != 1:
                return False, math.inf, util, False

        if theta is None:
            return True, privacy - lam * util, util, True
        if util >= theta - TOLERANCE:
            return True, privacy, util, True
        return False, math.inf, util, True

    best = math.inf
    best_util = -math.inf
    any_feasible = False
    # Objectives within TOLERANCE of the running best -> [partitions, least RGS].
    near: dict[float, list] = {}
    for rgs in enumerate_partitions(n):
        feasible, obj, util, structural_ok = score(rgs)
        if structural_ok and util > best_util:
            best_util = util
        if feasible:
            any_feasible = True
            if obj < best:
                best = obj
                near = {o: tie for o, tie in near.items() if o <= best + TOLERANCE}
            if obj <= best + TOLERANCE:
                near.setdefault(obj, [0, rgs])[0] += 1
    if not any_feasible:
        raise InfeasibleError(
            f"no quantization satisfies the constraint; best achievable utility is "
            f"{best_util:.6g}",
            max_achievable=best_util,
        )
    witness = min(rgs for _, rgs in near.values())
    q = Quantization.from_clusters(jr, blocks_from_rgs(witness), cfg.policy)
    return OracleResult(best, q, sum(count for count, _ in near.values()))
