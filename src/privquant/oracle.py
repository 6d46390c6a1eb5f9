"""Exhaustive search over all quantizations of small alphabets.

Ground truth for the greedy procedures: the set partitions of the X
alphabet are enumerated as restricted-growth strings (RGS), each one that
can be optimal is scored, and the exact optimum is returned. RGS
enumeration is constant memory per item and lexicographic, which gives a
canonical deterministic representative among ties (the least RGS).

Each possible block's S-mask, l0 term and utility are computed once, in O(1)
from the block without its least member (u2: from its exact value sum and
extremes), in a table indexed by member bitmask. The depth-first RGS walker
steps through the parents, the partitions of all symbols but the last; each
parent's extreme terms and components are computed once, and each leaf (the
last symbol added to a block, or alone) is scored from them in O(1).

A query is one branch-and-bound walk, its witness the first near-optimal
partition scored; a theta query is the lambda objective at lambda 0 with a
utility floor. The walk skips every RGS prefix with a block whose objective
bound exceeds the running optimum + ``TOLERANCE``, or that no completion can
lift to the floor, so the result equals a full enumeration's. A block only
gains members above its greatest, so its l0 term stays above that of its
join with all of them, its utility below the best of its joins (``ext``),
and I* is at least 0. An infeasible theta's utility report walks again,
skipping each prefix that cannot reach the best utility found so far.

Hard-capped at 12 symbols (Bell(12) is ~4.2 million partitions); beyond
that this stops being a desk-scale tool and the cap errors out rather than
silently grinding.
"""

from __future__ import annotations

import math
import sys
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import TOLERANCE, JointRange, _bits, h0
from .errors import ConfigurationError, ContractViolation, InfeasibleError, SizeLimitError
from .graph import components
from .quantize import (CodewordPolicy, LagrangianConfig, Problem, Quantization, UtilityKind,
                       exact_numerators, quantizer, require_u2)

__all__ = ["MAX_ORACLE_SYMBOLS", "OracleResult", "enumerate_partitions", "oracle_min"]

MAX_ORACLE_SYMBOLS = 12


class OracleResult(NamedTuple):
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
    if n < 1:
        raise ContractViolation("partition enumeration needs n >= 1")
    if n > MAX_ORACLE_SYMBOLS:
        raise SizeLimitError(
            f"refusing to enumerate partitions of {n} > {MAX_ORACLE_SYMBOLS} symbols"
        )
    for rgs, _ in _walk_partitions(n, [-math.inf] * (1 << n)):
        yield tuple(rgs)


def _walk_partitions(
    n: int, bound: Sequence[float], cut: Sequence[float] = (math.inf,)
) -> Iterator[tuple[list[int], list[int]]]:
    """The lexicographic RGS enumeration, depth first, carrying each block's
    member bitmask; ``n == 0`` yields the empty partition once.

    Yields the same two lists every time, updated in place: ``rgs`` and
    ``blocks``, where ``blocks[r]`` has bit x set iff ``rgs[x] == r``.

    Element i joins block r, or opens a new block, unless ``bound[blocks[r] |
    1 << i] > cut[0]`` (``bound`` by member bitmask; ``-inf`` never prunes); a
    prefix that fails skips its whole subtree, in which its blocks only gain
    members. ``cut[0]`` is read at every step, so the caller may lower it.
    """
    rgs = [0] * n
    blocks: list[int] = []
    # Element i tries blocks r, r + 1, ..., len(blocks) (a new block).
    i = r = 0
    while i >= 0:
        if i == n:
            yield rgs, blocks
        else:
            bit = 1 << i
            k = len(blocks)
            while r < k and bound[blocks[r] | bit] > cut[0]:
                r += 1
            if r < k or r == k and not bound[bit] > cut[0]:
                if r == k:
                    blocks.append(0)
                blocks[r] |= bit
                rgs[i] = r
                i += 1
                r = 0
                continue
        # Every choice for element i is spent: take element i - 1 out of its
        # block and move it to the next one.
        i -= 1
        if i >= 0:
            r = rgs[i]
            blocks[r] ^= 1 << i
            if not blocks[r]:
                blocks.pop()
            r += 1


def oracle_min(
    jr: JointRange,
    problem: Problem,
    cfg: LagrangianConfig,
    theta: Optional[float] = None,
) -> OracleResult:
    """Exact optimum of a quantization problem by enumeration.

    With ``theta`` unset, minimizes the Lagrangian of the problem at
    ``cfg.lam`` (the same bit-valued objective the greedy runs report).
    With ``theta`` set, minimizes it at lambda 0 (bare privacy) over the
    partitions whose utility is at least ``theta`` (within tolerance);
    infeasible thresholds raise with the best achievable utility attached,
    and a NaN ``theta`` is a ``ConfigurationError``.

    The zero-indistinguishability problem additionally restricts the search
    to partitions whose cluster graph is connected.

    One walk over the parents, each partition scored in O(1) from its parent's
    aggregates, keeps the optimum, the number of partitions within ``TOLERANCE``
    of it and the first of them scored (the least RGS): the witness, whose own
    objective is the reported ``value``. The walk skips every prefix whose
    objective bound exceeds the running optimum + ``TOLERANCE``, or that
    cannot reach ``theta`` (see the module docstring), so the result equals a
    full enumeration's.
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
    if u2:
        require_u2(values)
    masks = [jr.cond_mask_x(x) for x in range(n)]
    h0_s = h0(jr.n_s)
    h0_x = h0(n)
    lam, floor = (cfg.lam, -math.inf) if theta is None else (0.0, theta - TOLERANCE)

    # Block terms by member bitmask: a partition's l0 is its greatest, its utility its least.
    size = 1 << n
    smask = [0] * size
    leak = [0.0] * size
    block_util = [0.0] * size
    if u2:  # greedy._State's rule: exact value sums (exact_numerators), extremes
        nums, scale = exact_numerators(values)
        centroid = cfg.policy is CodewordPolicy.CENTROID
        total, vmin, vmax = [0] * size, [math.inf] * size, [-math.inf] * size
    for b in range(1, size):
        x = (b & -b).bit_length() - 1
        rest = b & b - 1
        smask[b] = sm = smask[rest] | masks[x]
        leak[b] = h0_s - math.log2(sm.bit_count())
        if u2:
            v = values[x]
            total[b] = total[rest] + nums[x]
            vmin[b] = v if v < vmin[rest] else vmin[rest]
            vmax[b] = v if v > vmax[rest] else vmax[rest]
            cw = total[b] / scale / b.bit_count() if centroid else v  # x is the representative
            block_util[b] = -max(0.0, cw - vmin[b], vmax[b] - cw)
        else:
            block_util[b] = h0_x - math.log2(b.bit_count())

    istar = problem is Problem.MIN_ISTAR
    connected_only = problem is Problem.MIN_L0_ZERO_ISTAR
    comp_bits = [0.0, *map(math.log2, range(1, n + 1))]  # istar's privacy, by component count
    # A prefix's block b ends as b joined by some symbols above its greatest member:
    # ext[b] is the best utility of those joins, leak_lb[b] the least l0 term (I* >= 0).
    ext = block_util[:]
    for b in range(size - 1, 0, -1):
        for j in range(b.bit_length(), n):
            if ext[b | 1 << j] > ext[b]:
                ext[b] = ext[b | 1 << j]
    leak_lb = [0.0 if istar else leak[b | size - (1 << b.bit_length())] for b in range(size)]
    # Every completion's objective is at least the bound, in floats too (rounding is
    # monotone, lam finite and >= 0). A theta cutoff starts above every finite bound;
    # a lambda one at inf, as lam * e may overflow to leave only +inf objectives.
    bound = [lb - lam * e if e >= floor else math.inf for lb, e in zip(leak_lb, ext)]
    cut = [math.inf if theta is None else sys.float_info.max]
    best = math.inf
    # Objectives within TOLERANCE of the running best -> [partitions, blocks
    # of the first], in order of first sighting, which is walk (RGS) order.
    near: dict[float, list] = {}
    top, mtop = 1 << n - 1, masks[-1]
    # A leaf adds the last symbol to a block ``old`` (0 opens a new one) and takes its parent's
    # extreme terms, the next where ``old`` holds one; min/max by hand, first wins ties.
    for _, blocks in _walk_partitions(n - 1, bound, cut):
        lo = lo2 = math.inf
        hi = hi2 = -math.inf
        for b in blocks:
            if block_util[b] < lo:
                lo, lo2 = block_util[b], lo
            elif block_util[b] < lo2:
                lo2 = block_util[b]
            if leak[b] > hi:
                hi, hi2 = leak[b], hi
            elif leak[b] > hi2:
                hi2 = leak[b]
        if istar or connected_only:
            # The last symbol's S-range, folded in last, gives a new block's
            # components; joining a block outside its component merges one more.
            comps = components([smask[b] for b in blocks] + [mtop])
            joined, reach = len(comps), comps[-1]
        for r, old in enumerate(blocks + [0]):
            b = old | top
            if istar or connected_only:
                n_comps = joined - 1 if old and not smask[old] & reach else joined
            if connected_only and n_comps != 1:
                continue
            util = lo2 if old and block_util[old] == lo else lo
            if block_util[b] < util:
                util = block_util[b]
            if not util >= floor:
                continue
            if istar:
                privacy = comp_bits[n_comps]
            else:
                privacy = hi2 if old and leak[old] == hi else hi
                if leak[b] > privacy:
                    privacy = leak[b]
            obj = privacy - lam * util  # privacy is never -0.0, so at lam 0 obj is privacy
            if obj < best:
                best = obj
                cut[0] = best + TOLERANCE
                near = {o: tie for o, tie in near.items() if o <= best + TOLERANCE}
            if obj <= best + TOLERANCE:
                if obj not in near:
                    near[obj] = [0, (*blocks[:r], b, *blocks[r + 1:])]
                near[obj][0] += 1
    if not near:  # a lambda query has no floor, so only a theta query can find none
        # The best utility of the structurally valid partitions, theta ignored, skipping
        # each prefix whose reachable utility is below the best so far (ties are walked).
        best_util, cut[0] = -math.inf, math.inf
        for _, blocks in _walk_partitions(n, [-e for e in ext], cut):
            util = min([block_util[b] for b in blocks])
            if util > best_util and (
                    not connected_only or len(components([smask[b] for b in blocks])) == 1):
                best_util, cut[0] = util, -util
        raise InfeasibleError(
            f"no quantization satisfies the constraint; best achievable utility is "
            f"{best_util:.6g}",
            max_achievable=best_util,
        )
    # ``best`` only falls, so no entry re-enters ``near``: its first is the first walked.
    value, (_, witness) = next(iter(near.items()))
    q = quantizer(jr, cfg.policy)(tuple(tuple(_bits(b)) for b in witness))
    return OracleResult(value, q, sum(count for count, _ in near.values()))
