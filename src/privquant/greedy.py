"""Greedy agglomerative quantization for the three privacy objectives.

Three procedures share one mechanic: start from the singleton quantization
and repeatedly fuse two clusters, steering by a Lagrangian that trades the
privacy objective against ``lambda`` times the utility:

* ``algorithm1_min_l0``        -- minimize maximal leakage L0. Each outer
  iteration takes every cluster whose conditional range is smallest and
  merges it with the partner that keeps utility highest, then accepts or
  rejects the whole round on the Lagrangian drop.
* ``algorithm2_min_istar``     -- minimize maximin information. Only pairs
  lying in different confusability components are candidates (merging
  inside a component cannot reduce the component count); each accepted
  merge fuses exactly two components.
* ``algorithm3_l0_zero_istar`` -- minimize L0 subject to zero maximin
  information: same component-driven scaffolding, but the pair minimizing
  the Lagrangian change is taken unconditionally until one component
  remains, so the output is always perfectly indistinguishable.

All reported Lagrangians and deltas are in bits, and runs are fully
deterministic: every argmin/argmax is tie-broken down to cluster ids.

The candidate searches visit only pairs that can win, pick what a scan of
every pair picks, and score a pair by ``_State.pair_cost`` on the two
``_Cluster`` records. Under resolution utility algorithm 1's partner is the
first ``(size, cid)`` entry with another S-mask, and algorithm 2 joins two
components' least ``(size, cid)`` clusters. Otherwise algorithms 2 and 3
read the cross-component pairs through ``_cross``: each cluster reads the
clusters of the components before its own once, so each pair is met once.
Under max distortion a merged distortion is at least half the ``vmin`` gap,
so algorithms 1 and 2 walk a ``(vmin, cid)`` index nearest first and stop
once that bound strictly passes the least cost so far. Algorithm 3 scores in
full only the pairs touching one of its at most two extreme clusters; any
other cluster reads in ascending tie key, keeps only pairs cheaper than
every earlier one and stops at the least cost it can have
(``_generic_pairs``). It offers only the moves no other move beats at every
lambda (``_l0_zero_istar_candidates``).

Merge acceptance in ``algorithm2_min_istar`` weighs the component-count
drop on a decimal-log scale against the lambda-weighted utility loss.
Resolution utility is itself logarithmic, so the scale cancels and the test
is equivalent to a drop in the reported bit-valued Lagrangian; for the
linear max-distortion utility the decimal scale is the calibrated
acceptance threshold (accepted merges still strictly decrease the reported
Lagrangian, because the decimal test is the stricter of the two).
"""

from __future__ import annotations

import copy
import enum
import math
from bisect import bisect_left, insort
from typing import NamedTuple, Optional, Sequence

from .core import JointRange, h0, l0
from .graph import Decomposition, components
from .quantize import (
    CodewordPolicy,
    LagrangianConfig,
    Problem,
    Quantization,
    UtilityChoice,
    UtilityKind,
    exact_numerators,
    quantizer,
    require_u2,
    utility,
)

__all__ = [
    "Termination",
    "LagrangianConfig",
    "TraceEntry",
    "GreedyResult",
    "lagrangian_l0",
    "algorithm1_min_l0",
    "algorithm2_min_istar",
    "algorithm3_l0_zero_istar",
    "run",
]

#: Bits-to-decimal-digits factor used by the component-merge acceptance test.
_DECIMAL_PER_BIT = math.log10(2.0)


class Termination(enum.Enum):
    DELTA_L_NON_NEGATIVE = "delta-l-non-negative"
    FULLY_MERGED = "fully-merged"
    SINGLE_COMPONENT = "single-component"
    NO_ELIGIBLE_MERGE = "no-eligible-merge"


class TraceEntry(NamedTuple):
    """State after outer iteration ``t`` (t = 0 is the singleton start).

    ``delta_l`` is the reported Lagrangian change that accepted this
    iteration (None at t = 0); accepted deltas of algorithms 1 and 2 are
    strictly negative. ``component_count`` is populated by the
    component-driven algorithms only.
    """

    t: int
    quantization: Quantization
    lagrangian: float
    delta_l: Optional[float]
    merged: tuple[tuple[int, int], ...]
    component_count: Optional[int]
    utility_value: float


class GreedyResult(NamedTuple):
    quantization: Quantization
    trace: tuple[TraceEntry, ...]
    decomposition: Optional[Decomposition]
    termination: Termination
    #: The decision value that stopped the run, when it was stopped by the
    #: acceptance test rather than by running out of merges: non-negative, or
    #: NaN when algorithm 1's two Lagrangians both overflow to -inf.
    #: Equals the bit-valued Lagrangian change except for distortion-utility
    #: component merges, whose acceptance runs on the decimal-log scale.
    rejected_delta_l: Optional[float] = None


def lagrangian_l0(jr: JointRange, q, cfg: LagrangianConfig) -> float:
    """Leakage-form Lagrangian L0 - lambda * U, in bits.

    This is the privacy objective of the leakage-minimizing problems; it
    differs from minus the posterior-uncertainty form only by the constant
    h0(S), so it has the same minimizers. ``q`` may be a Quantization or a
    bare cluster list (codewords are then derived under ``cfg.policy``).
    """
    if not isinstance(q, Quantization):
        q = Quantization.from_clusters(jr, q, cfg.policy)
    return l0(jr, q) - cfg.lam * utility(jr, q, cfg.utility)


# ---------------------------------------------------------------------------
# Mutable working state shared by the three algorithms
# ---------------------------------------------------------------------------


class _Cluster:
    __slots__ = ("cid", "members", "smask", "size", "total", "vmin", "vmax", "cost")

    def __init__(self, cid, members, smask, size, total, vmin, vmax, cost):
        self.cid = cid
        self.members = members  # sorted tuple of x indices
        self.smask = smask
        self.size = size
        self.total = total  # exact value sum in units of 1 / scale (exact_numerators)
        self.vmin = vmin
        self.vmax = vmax
        self.cost = cost  # the cluster's own cost, as _State.pair_cost scores a fused one


class _State:
    """Cluster bookkeeping with O(1) merged distortion.

    Utility is decreasing in one per-cluster cost: the size under resolution
    utility, the worst member distortion under max distortion. ``pair_cost``
    (of two ``_Cluster`` records) and ``utility_of`` are the only places the
    two differ. For the component-driven problems (None for algorithm 1)
    ``comps`` lists each component as ``(-x_count, mask, cids)``, ascending:
    minus its X-value count, its S-mask and its clusters' ids. One fold of
    the singleton S-masks seeds it. ``merge`` builds a new list, never
    changing one in place, so copies of the state and the walk's steps share it.
    """

    def __init__(
        self, jr: JointRange, utility: UtilityChoice, policy: CodewordPolicy,
        track_components: bool,
    ):
        self.centroid = policy is CodewordPolicy.CENTROID
        self.needs_values = utility.kind is UtilityKind.U2_MAX_DISTORTION
        self.values = jr.x_values()
        if self.needs_values:
            require_u2(self.values)
        self.h0_x = h0(jr.n_x)
        totals, self.scale = (
            exact_numerators(self.values) if self.needs_values else ([0] * jr.n_x, 1)
        )
        cost = 0.0 if self.needs_values else 1  # a singleton's distortion is 0
        self.clusters: dict[int, _Cluster] = {}
        for x in range(jr.n_x):
            v = self.values[x]
            self.clusters[x] = _Cluster(x, (x,), jr.cond_mask_x(x), 1, totals[x], v, v, cost)
        self.comps = None
        if track_components:  # a singleton's id is its X index
            ms = [c.smask for c in self.clusters.values()]
            cids = {m: tuple(x for x in range(jr.n_x) if ms[x] & m) for m in components(ms)}
            self.comps = sorted((-len(xs), m, xs) for m, xs in cids.items())

    def pair_cost(self, ca: _Cluster, cb: _Cluster):
        """Cost of the cluster that fusing ``ca`` and ``cb`` would give."""
        if not self.needs_values:
            return ca.size + cb.size
        if self.centroid:
            cw = (ca.total + cb.total) / self.scale / (ca.size + cb.size)
        else:
            cw = self.values[min(ca.cid, cb.cid)]
        return max(0.0, cw - min(ca.vmin, cb.vmin), max(ca.vmax, cb.vmax) - cw)

    def codeword(self, cid: int) -> float:
        """``compute_codeword`` of cluster ``cid``'s members (see ``exact_numerators``)."""
        c = self.clusters[cid]
        if self.centroid:
            return c.total / self.scale / c.size
        return self.values[cid]

    def utility_of(self, worst) -> float:
        """Utility of a quantization whose costliest cluster costs ``worst``."""
        if self.needs_values:
            return -worst
        return self.h0_x - math.log2(worst)

    def merge(self, a: int, b: int) -> int:
        if self.comps is not None:
            (na, ma, ia), (nb, mb, ib) = (
                next(e for e in self.comps if e[1] & self.clusters[c].smask) for c in (a, b))
            if ma == mb:
                raise AssertionError("candidate pair was not cross-component")
            comps = [e for e in self.comps if e[1] != ma and e[1] != mb]
            fused = (*(c for c in ia + ib if c != a and c != b), min(a, b))
            insort(comps, (na + nb, ma | mb, fused))
            self.comps = comps
        ca = self.clusters.pop(a)
        cb = self.clusters.pop(b)
        cost = self.pair_cost(ca, cb)
        members = tuple(sorted(ca.members + cb.members))
        vmin = min(ca.vmin, cb.vmin) if self.needs_values else None
        vmax = max(ca.vmax, cb.vmax) if self.needs_values else None
        cid = members[0]
        self.clusters[cid] = _Cluster(
            cid, members, ca.smask | cb.smask, ca.size + cb.size, ca.total + cb.total,
            vmin, vmax, cost,
        )
        return cid

    def copy(self) -> "_State":
        """An independent state; _Cluster objects and ``comps`` are never mutated, so shared."""
        other = copy.copy(self)
        other.clusters = dict(self.clusters)
        return other

    # -- measures of the current state ------------------------------------------

    def utility_value(self) -> float:
        return self.utility_of(max(c.cost for c in self.clusters.values()))

    def partition(self) -> tuple[tuple[int, ...], ...]:
        """The state's ``Quantization.partition_key()``."""
        return tuple(self.clusters[cid].members for cid in sorted(self.clusters))


# Exclusion maxima/minima: merging clusters a and b leaves every other
# cluster untouched, so "the extreme over the rest" only ever needs the three
# most extreme entries (at most two are excluded). Computing the top three
# once per scan (of a negated key, for a minimum) keeps candidate evaluation
# O(1). Which clusters win a tie for the top three does not change any value
# ``_excluding`` returns.


def _top3(state: _State, key) -> list[tuple[float, int]]:
    return sorted(((key(c), c.cid) for c in state.clusters.values()), reverse=True)[:3]


def _excluding(extremes: list[tuple[float, int]], a: int, b: int, default: float) -> float:
    for value, cid in extremes:
        if cid != a and cid != b:
            return value
    return default


# ---------------------------------------------------------------------------
# One walk for every problem
# ---------------------------------------------------------------------------
#
# The algorithms differ only in the moves a state offers (``_moves``):
# algorithm 1 one round of merges, algorithm 2 one component merge, algorithm
# 3 a component merge per group of equal Lagrangian change. ``_runs`` walks
# the runs of a whole lambda grid at once, depth first: each run takes the
# move least in its Lagrangian change, the runs share every state until they
# take different moves, and the state is copied only there. So over the grid
# the runs form a tree, which ``_runs`` visits once per state. A greedy
# ``run`` is the walk of a single lambda. Algorithms 1 and 2 offer a single
# move, so their tree is one path, which runs leave when they reject a step.
# Algorithm 3 never rejects a step; its runs end at a single component.


class _Step(NamedTuple):
    """One state of the walk; the root is the singleton start.

    The state's Lagrangian is ``privacy - lam * utility``, where ``privacy``
    is log2 of the component count for algorithm 2 and L0 otherwise.
    ``dpriv`` is the privacy change of a component merge: log2((P-1)/P) for
    algorithm 2, the change in L0 for algorithm 3; None for algorithm 1.
    ``comps`` is the state's ascending ``(-x_count, mask, cids)`` component
    list (``_State.comps``, shared, None for algorithm 1) and ``partition``
    its ``Quantization.partition_key()``.
    """

    merged: tuple[tuple[int, int], ...]
    privacy: float
    utility: float
    dpriv: Optional[float]
    comps: Optional[list[tuple[int, int, tuple[int, ...]]]]
    partition: tuple[tuple[int, ...], ...]


def _decision(prev: _Step, step: _Step, lam: float, kind: UtilityKind) -> tuple[float, float]:
    """(decision, delta_l) of taking ``step`` after ``prev``; accepted iff the
    decision value is negative.

    Algorithm 1 compares the two Lagrangians. A component merge weighs its
    privacy change against the utility change; algorithm 2 does so for
    distortion utility on the decimal-log scale (see the module docstring).
    """
    if step.dpriv is None:
        delta = (step.privacy - lam * step.utility) - (prev.privacy - lam * prev.utility)
        return delta, delta
    du = step.utility - prev.utility
    delta = step.dpriv - lam * du
    if kind is UtilityKind.U1_RESOLUTION:
        return delta, delta
    return step.dpriv * _DECIMAL_PER_BIT - lam * du, delta


# ---------------------------------------------------------------------------
# Algorithm 1: minimize maximal leakage L0
# ---------------------------------------------------------------------------


#: A merged distortion is at least half the clusters' ``vmin`` gap. The
#: factor is shrunk by 2**-50, more than the rounding of the gap, the product
#: and the cost together, so the computed bound never passes a computed cost
#: it bounds.
_HALF_GAP = 0.5 * (1.0 - 2.0**-50)


def _nearest_first(index: list, v: float, left: int, right: int):
    """``(gap, entry)`` of the entries of the sorted ``(value, cid, ...)`` ``index``
    (a ``vmin``, or a codeword or id) from position ``left`` down and from ``right``
    up, in ascending gap from ``v`` (the lower entry first on a tie)."""
    while left >= 0 or right < len(index):
        if right == len(index) or (left >= 0 and v - index[left][0] <= index[right][0] - v):
            yield v - index[left][0], index[left]
            left -= 1
        else:
            yield index[right][0] - v, index[right]
            right += 1


def _best_partner_min_l0(state: _State, cid: int, index: list) -> int:
    """Partner giving the least-cost merged cluster (the smallest merged size
    under resolution utility, the smallest merged distortion under max
    distortion) among clusters whose conditional range differs from
    ``cid``'s (merging equal ranges cannot raise the smallest range). One
    exists: ``_moves`` offers a round only when two S-masks differ, and each
    merge of a round leaves a range larger than the smallest.

    Ties: smaller merged cluster, then smaller merged minimum index, then
    smaller partner id.

    ``index`` is the sorted ``_min_l0_round`` index of the live clusters.
    Under resolution utility the merged cost is the size sum, and
    ``(min(cid, o), o)`` orders partners ``o`` as ``o`` does; so the partner
    is the first ``(size, cid)`` entry with another S-mask. Under max
    distortion the ``(vmin, cid)`` index is walked outward from ``cid``'s
    entry (``_nearest_first``), scoring each partner it reaches. The
    codeword lies in the merged ``[vmin, vmax]``, so the walk stops once
    ``_HALF_GAP`` times the ``vmin`` gap strictly passes the least cost so
    far: every partner it skips costs more, and every tie is still scored.
    """
    cx = state.clusters[cid]
    if not state.needs_values:
        return next(o for _, o in index if state.clusters[o].smask != cx.smask)
    here = bisect_left(index, (cx.vmin, cid))
    best = (math.inf,)
    for gap, (_, o) in _nearest_first(index, cx.vmin, here - 1, here + 1):
        if gap * _HALF_GAP > best[0]:
            break
        other = state.clusters[o]
        if other.smask != cx.smask:
            best = min(best, (state.pair_cost(cx, other), cx.size + other.size, min(cid, o), o))
    return best[-1]


def _min_l0_round(state: _State) -> tuple[tuple[int, int], ...]:
    """Merge every cluster of smallest conditional range with its best
    partner; returns the merged pairs.

    Partners come from one sorted index of the live clusters, ``(size,
    cid)`` under resolution utility and ``(vmin, cid)`` under max distortion
    (see ``_best_partner_min_l0``). It is built once per round, and each
    merge pops its two clusters' entries and inserts the merged one.
    """
    entry = (lambda c: (c.vmin, c.cid)) if state.needs_values else (lambda c: (c.size, c.cid))
    index = sorted(map(entry, state.clusters.values()))
    smallest = min(c.smask.bit_count() for c in state.clusters.values())
    pi = sorted((c.cid, c) for c in state.clusters.values() if c.smask.bit_count() == smallest)
    merged_pairs: list[tuple[int, int]] = []
    for cid, record in pi:
        if state.clusters.get(cid) is not record:  # merged as an earlier cluster's partner
            continue
        partner = _best_partner_min_l0(state, cid, index)
        for old in (cid, partner):
            del index[bisect_left(index, entry(state.clusters[old]))]
        insort(index, entry(state.clusters[state.merge(cid, partner)]))
        merged_pairs.append((cid, partner))
    return tuple(merged_pairs)


def algorithm1_min_l0(jr: JointRange, cfg: LagrangianConfig) -> GreedyResult:
    """Greedy minimization of L0 - lambda * U by rounds of bulk merges.

    Each outer iteration merges every cluster currently achieving the
    smallest conditional range with its utility-maximizing partner, then
    the full round is accepted only if the Lagrangian strictly dropped;
    otherwise the previous quantization is returned.
    """
    return run(jr, Problem.MIN_L0, cfg)


# ---------------------------------------------------------------------------
# Algorithms 2 and 3: component-driven merging
# ---------------------------------------------------------------------------


def _cross(state: _State, entry, skip=()):
    """``(size, x, seen)`` per cluster ``x`` outside ``skip`` of the state's
    ``comps``, ``size`` its component's ``-x_count`` and ``seen`` (never empty)
    the sorted ``entry(size, c)`` of the clusters ``c`` outside ``skip`` of the
    components before it in ``comps`` (no greater ``-x_count``): each pair is
    met once."""
    seen: list = []
    for size, _, cids in state.comps:
        cs = [state.clusters[c] for c in cids if c not in skip]
        yield from ((size, x, seen) for x in cs if seen)
        seen = sorted(seen + [entry(size, c) for c in cs])


def _min_istar_pair(state: _State) -> tuple:
    """Algorithm 2's pair, as the least ``(cost, big, small, a, b)`` over the
    cross-component pairs ``a < b``, ``(big, small)`` their components'
    ``-x_count``. Under resolution utility the cost is the size sum, so the
    least pair of two components joins their least ``(size, cid)`` clusters.
    Under max distortion each cluster walks its ``_cross`` ``(vmin, cid)``
    index until ``_HALF_GAP`` times the gap strictly passes the least cost so
    far, as ``_best_partner_min_l0`` does: every pair it skips costs more.
    """
    if not state.needs_values:
        heads = [(size, min((state.clusters[c].size, c) for c in cids))
                 for size, _, cids in state.comps]
        return min((na + nb, sa, sb, min(a, b), max(a, b))
                   for i, (sa, (na, a)) in enumerate(heads) for sb, (nb, b) in heads[i + 1:])
    best = (math.inf,)
    for sx, x, index in _cross(state, lambda size, c: (c.vmin, c.cid, size, c)):
        here = bisect_left(index, (x.vmin, x.cid))
        for gap, (_, y, sy, cy) in _nearest_first(index, x.vmin, here - 1, here):
            if gap * _HALF_GAP > best[0]:
                break
            best = min(best, (state.pair_cost(x, cy), sy, sx, min(x.cid, y), max(x.cid, y)))
    return best


def algorithm2_min_istar(jr: JointRange, cfg: LagrangianConfig) -> GreedyResult:
    """Greedy minimization of maximin information log2 |components| - lambda * U.

    Candidates are cluster pairs in different components; the pair with the
    best post-merge utility is tried (for resolution utility that is the
    smallest combined size, ties resolved toward connecting the two largest
    components), and the run stops when the accepted drop would be
    non-negative or one component remains.
    """
    return run(jr, Problem.MIN_ISTAR, cfg)


def _generic_pairs(state: _State, skip, floor):
    """``(cost, rest)`` of the kept cross-component pairs of clusters outside
    ``skip``, ``rest = (range_sum, big, small, a, b)`` and costs clamped from
    below at ``floor``. Each cluster ``x`` reads its ``_cross`` list in
    ``(range, -x_count, cid)`` order, ascending ``rest``, and keeps a pair only
    if it is cheaper than every earlier one, up to the least cost a pair of
    ``x`` can have: each dropped pair has a kept one no costlier and less in
    ``rest``, so the kept pairs have the skyline of all pairs."""
    entry = lambda size, c: (c.smask.bit_count(), size, c.cid, c)
    for sx, x, seen in _cross(state, entry, skip):
        rx, run = x.smask.bit_count(), math.inf
        low = floor if state.needs_values else max(floor, x.size + 1)
        for ry, sy, y, cy in seen:
            cost = state.pair_cost(x, cy)
            cost = floor if floor > cost else cost
            if cost < run:
                run = cost
                yield cost, (rx + ry, sy, sx, *((x.cid, y) if x.cid < y else (y, x.cid)))
                if run <= low:
                    break


def _l0_zero_istar_candidates(state: _State) -> list[tuple]:
    """Algorithm 3's moves: per group of cross-component pairs with equal
    privacy change and post-merge utility (so equal Lagrangian change at any
    lambda), ``(dpriv, u_new, rest)`` with ``rest = (range_sum, *tie)`` of
    its least pair; only the groups no other group dominates. Only the pairs
    touching the first holder of the least S-range, or of the top cost
    ``cmax``, when fewer than three hold it are scored in full: any other
    pair leaves a holder of each outside it, so ``dpriv == 0.0`` and
    ``u_new`` is ``utility_of(max(cost, cmax))``. Float ``-``, ``*`` by
    lambda >= 0 and ``+`` are monotone, so ``_pick`` takes a group with
    ``dpriv' <= dpriv``, ``u_new' >= u_new`` and ``rest' < rest`` first.
    """
    neg_range_tops = _top3(state, lambda c: -c.smask.bit_count())
    min_range_bits = math.log2(-neg_range_tops[0][0])
    cost_tops = _top3(state, lambda c: c.cost)
    extreme = {tops[0][1] for tops in (neg_range_tops, cost_tops)
               if len(tops) < 3 or tops[2][0] != tops[0][0]}
    where = {c: (size, m, state.clusters[c]) for size, m, cids in state.comps for c in cids}
    moves = []
    for x in extreme:
        sx, mx, cx = where[x]
        for y, (sy, my, cy) in where.items():
            if mx != my and (y not in extreme or x < y):
                merged = (cx.smask | cy.smask).bit_count()
                new_min = min(merged, -_excluding(neg_range_tops, x, y, -math.inf))
                worst = max(state.pair_cost(cx, cy), _excluding(cost_tops, x, y, 0.0))
                ranges = cx.smask.bit_count() + cy.smask.bit_count()
                rest = (ranges, *sorted((sx, sy)), *sorted((x, y)))
                moves.append((min_range_bits - math.log2(new_min), state.utility_of(worst), rest))
    least = (math.inf,)
    for cost, rest in sorted(_generic_pairs(state, extreme, cost_tops[0][0])):
        if rest < least:  # u_new falls as cost rises, so the others are dominated
            least = rest
            moves.append((0.0, state.utility_of(cost), rest))
    front: list[tuple] = []  # of moves by dpriv, then u_new descending, then rest
    for m in sorted(moves, key=lambda m: (m[0], -m[1], m[2])):
        if not any(f[1] >= m[1] and f[2] < m[2] for f in front):
            front.append(m)
    return front


def algorithm3_l0_zero_istar(jr: JointRange, cfg: LagrangianConfig) -> GreedyResult:
    """Minimize L0 under the hard constraint of zero maximin information.

    Component-driven like ``algorithm2_min_istar``, but every iteration
    takes the cross-component pair with the smallest Lagrangian change
    (ties: smallest summed conditional-range sizes, then largest components,
    then smallest ids) and keeps merging, accepted or not, until a single
    component remains. The result is always perfectly indistinguishable.
    """
    return run(jr, Problem.MIN_L0_ZERO_ISTAR, cfg)


# ---------------------------------------------------------------------------
# The walk and the single run
# ---------------------------------------------------------------------------


def _moves(problem: Problem, state: _State):
    """The moves ``state`` offers, or the ``Termination`` when it offers none.

    A move is ``(dpriv, u_new, rest)``: the privacy change and post-merge
    utility of a component merge, with the merged pair last in ``rest``.
    Algorithm 3 drops moves another beats at every lambda. Algorithm 1's
    one move is its round, ``(None, None, None)``, scored once merged; with
    two or more clusters it merges nothing iff every S-mask is the same.
    """
    if problem is Problem.MIN_L0:
        if len(state.clusters) == 1:
            return Termination.FULLY_MERGED
        if len({c.smask for c in state.clusters.values()}) == 1:
            return Termination.NO_ELIGIBLE_MERGE
        return [(None, None, None)]
    count = len(state.comps)
    if count == 1:
        return Termination.SINGLE_COMPONENT
    if problem is Problem.MIN_L0_ZERO_ISTAR:
        return _l0_zero_istar_candidates(state)
    cost, _, _, a, b = _min_istar_pair(state)
    worst = max((c.cost for c in state.clusters.values() if c.cid != a and c.cid != b), default=0.0)
    u_new = state.utility_of(max(cost, worst))
    return [(math.log2((count - 1) / count), u_new, (a, b))]


def _pick(moves: list[tuple], lam: float, u_old: float) -> tuple:
    """The move a run at ``lam`` takes: the least in Lagrangian change
    ``dpriv + lam * (u_old - u_new)``, then in ``rest``. Utilities and
    ``lam`` are finite, so no change is NaN."""
    return min(moves, key=lambda m: (m[0] + lam * (u_old - m[1]), m[2]))


def _runs(jr: JointRange, problem: Problem, cfgs: Sequence[LagrangianConfig], ends: list):
    """Walk the runs of several configs (one utility and policy) at once.

    Yields ``(runs, step)`` once per state of the tree the runs form, parent
    before child: the ascending indices of the configs whose runs reach the
    state, and its step. The walk of one config is its run, in order.
    ``ends`` holds a None per config; where run ``i`` stops, ``ends[i]``
    becomes ``(termination, rejected_delta_l, last)``, ``last`` its last step.
    """
    utility, policy = cfgs[0].utility, cfgs[0].policy

    def step(state: _State, merged, u: float, dpriv: Optional[float]) -> _Step:
        if problem is Problem.MIN_ISTAR:
            privacy = math.log2(len(state.comps))
        else:  # L0, from the least S-range
            privacy = h0(jr.n_s) - h0(min(c.smask.bit_count() for c in state.clusters.values()))
        return _Step(merged, privacy, u, dpriv, state.comps, state.partition())

    state = _State(jr, utility, policy, problem is not Problem.MIN_L0)
    runs = list(range(len(cfgs)))
    root = step(state, (), state.utility_value(), None)
    yield runs, root
    pending = [(state, root, runs)]
    while pending:
        state, prev, runs = pending.pop()
        moves = _moves(problem, state)
        if isinstance(moves, Termination):
            for i in runs:
                ends[i] = (moves, None, prev)
            continue
        picks = {moves[0]: runs}  # move -> the configs taking it
        if len(moves) > 1:
            picks, u_old = {}, prev.utility
            for i in runs:
                picks.setdefault(_pick(moves, cfgs[i].lam, u_old), []).append(i)
        for n, ((dpriv, u_new, rest), branch) in enumerate(picks.items()):
            # The runs part here: every branch but the last takes a copy.
            child = state.copy() if n < len(picks) - 1 else state
            if rest is None:
                merged = _min_l0_round(child)
                u_new = child.utility_value()
            else:
                merged = (rest[-2:],)
                child.merge(*rest[-2:])
            taken = step(child, merged, u_new, dpriv)
            if problem is not Problem.MIN_L0_ZERO_ISTAR:
                for i in branch:
                    decision = _decision(prev, taken, cfgs[i].lam, utility.kind)[0]
                    if not decision < 0.0:  # a NaN change (-inf - -inf) stops the run too
                        ends[i] = (Termination.DELTA_L_NON_NEGATIVE, decision, prev)
                branch = [i for i in branch if ends[i] is None]
            if branch:
                yield branch, taken
                pending.append((child, taken, branch))


def run(jr: JointRange, problem: Problem, cfg: LagrangianConfig) -> GreedyResult:
    """One greedy run: a trace entry per step of the walk of ``cfg`` alone, and its end."""
    lam, kind, quantize = cfg.lam, cfg.utility.kind, quantizer(jr, cfg.policy)
    trace: list[TraceEntry] = []
    ends = [None]
    for _, step in _runs(jr, problem, [cfg], ends):
        delta = _decision(prev, step, lam, kind)[1] if trace else None
        q = quantize(step.partition)
        trace.append(TraceEntry(
            len(trace), q, step.privacy - lam * step.utility, delta, step.merged,
            None if step.comps is None else len(step.comps), step.utility,
        ))
        prev = step
    ((termination, rejected, _),) = ends
    decomposition = None
    if prev.comps is not None:  # the final clusters, pooled per component
        members = {c[0]: c for c in prev.partition}  # a cluster's id is its least member
        blocks = (frozenset().union(*map(members.get, cids)) for *_, cids in prev.comps)
        decomposition = Decomposition(tuple(sorted(blocks, key=min)))
    return GreedyResult(q, tuple(trace), decomposition, termination, rejected_delta_l=rejected)
