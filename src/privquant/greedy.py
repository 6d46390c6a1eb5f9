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

Merge acceptance in ``algorithm2_min_istar`` weighs the component-count
drop on a decimal-log scale against the lambda-weighted utility loss.
Resolution utility is itself logarithmic, so the scale cancels and the test
is equivalent to a drop in the reported bit-valued Lagrangian; for the
linear max-distortion utility the decimal scale is the calibrated
acceptance threshold (accepted merges still strictly decrease the reported
Lagrangian, because the decimal test is the stricter of the two).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .core import JointRange, h0
from .errors import ConfigurationError
from .graph import (
    Decomposition,
    UnionFind,
    build_graph,
    finest_decomposition,
    merge_update,
)
from .quantize import (
    CodewordPolicy,
    Quantization,
    UtilityChoice,
    UtilityKind,
    absolute_difference,
)

__all__ = [
    "Problem",
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


class Problem(enum.Enum):
    MIN_L0 = "l0"
    MIN_ISTAR = "istar"
    MIN_L0_ZERO_ISTAR = "l0-zero-istar"


class Termination(enum.Enum):
    DELTA_L_NON_NEGATIVE = "delta-l-non-negative"
    FULLY_MERGED = "fully-merged"
    SINGLE_COMPONENT = "single-component"
    NO_ELIGIBLE_MERGE = "no-eligible-merge"


@dataclass(frozen=True)
class LagrangianConfig:
    """Multiplier, utility choice and codeword policy for one greedy run."""

    lam: float
    utility: UtilityChoice
    policy: CodewordPolicy = CodewordPolicy.CENTROID

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ConfigurationError("lambda must be a finite non-negative real")


@dataclass(frozen=True)
class TraceEntry:
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


@dataclass(frozen=True)
class GreedyResult:
    quantization: Quantization
    trace: tuple[TraceEntry, ...]
    decomposition: Optional[Decomposition]
    termination: Termination
    #: The non-negative decision value that stopped the run, when it was
    #: stopped by the acceptance test rather than by running out of merges.
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
    from .core import l0
    from .quantize import utility as _utility

    if not isinstance(q, Quantization):
        q = Quantization.from_clusters(jr, q, cfg.policy)
    return l0(jr, q) - cfg.lam * _utility(jr, q, cfg.utility)


# ---------------------------------------------------------------------------
# Mutable working state shared by the three algorithms
# ---------------------------------------------------------------------------


class _Cluster:
    __slots__ = ("cid", "members", "smask", "size", "total", "vmin", "vmax", "dbar")

    def __init__(self, cid, members, smask, size, total, vmin, vmax, dbar):
        self.cid = cid
        self.members = members  # sorted tuple of x indices
        self.smask = smask
        self.size = size
        self.total = total
        self.vmin = vmin
        self.vmax = vmax
        self.dbar = dbar


class _State:
    """Cluster bookkeeping with O(1) merged-distortion for the default metric."""

    def __init__(self, jr: JointRange, utility: UtilityChoice, policy: CodewordPolicy):
        self.jr = jr
        self.utility = utility
        self.policy = policy
        self.needs_values = utility.kind is UtilityKind.U2_MAX_DISTORTION
        self.values = jr.x_values()
        if self.needs_values and any(v is None for v in self.values):
            raise ConfigurationError(
                "max-distortion utility needs numeric values on every X symbol"
            )
        self.fast = utility.distance is absolute_difference
        self.clusters: dict[int, _Cluster] = {}
        for x in range(jr.n_x):
            v = self.values[x]
            self.clusters[x] = _Cluster(
                x, (x,), jr.cond_mask_x(x), 1, v if v is not None else 0.0, v, v, 0.0
            )

    # -- distortion ----------------------------------------------------------

    def _dbar_of(self, members, total, vmin, vmax) -> float:
        if self.policy is CodewordPolicy.CENTROID:
            cw = total / len(members)
        else:
            cw = self.values[members[0]]
        if self.fast:
            return max(cw - vmin, vmax - cw)
        dist = self.utility.distance
        return max(dist(self.values[x], cw) for x in members)

    def merged_dbar(self, a: int, b: int) -> float:
        ca, cb = self.clusters[a], self.clusters[b]
        total = ca.total + cb.total
        vmin = min(ca.vmin, cb.vmin)
        vmax = max(ca.vmax, cb.vmax)
        if self.fast:
            n = ca.size + cb.size
            if self.policy is CodewordPolicy.CENTROID:
                cw = total / n
            else:
                cw = self.values[min(ca.members[0], cb.members[0])]
            return max(cw - vmin, vmax - cw)
        members = tuple(sorted(ca.members + cb.members))
        return self._dbar_of(members, total, vmin, vmax)

    # -- mutation --------------------------------------------------------------

    def merge(self, a: int, b: int) -> int:
        ca = self.clusters.pop(a)
        cb = self.clusters.pop(b)
        members = tuple(sorted(ca.members + cb.members))
        total = ca.total + cb.total
        vmin = min(ca.vmin, cb.vmin) if self.needs_values else None
        vmax = max(ca.vmax, cb.vmax) if self.needs_values else None
        dbar = self._dbar_of(members, total, vmin, vmax) if self.needs_values else 0.0
        cid = members[0]
        self.clusters[cid] = _Cluster(
            cid, members, ca.smask | cb.smask, ca.size + cb.size, total, vmin, vmax, dbar
        )
        return cid

    # -- measures of the current state ------------------------------------------

    def utility_value(self) -> float:
        if self.utility.kind is UtilityKind.U1_RESOLUTION:
            largest = max(c.size for c in self.clusters.values())
            return h0(self.jr.n_x) - math.log2(largest)
        return -max(c.dbar for c in self.clusters.values())

    def min_range_bits(self) -> float:
        return math.log2(min(c.smask.bit_count() for c in self.clusters.values()))

    def leakage_l0(self) -> float:
        return h0(self.jr.n_s) - self.min_range_bits()

    def snapshot(self) -> Quantization:
        return Quantization.from_clusters(
            self.jr, [c.members for c in self.clusters.values()], self.policy
        )


# Exclusion maxima/minima: merging clusters a and b leaves every other
# cluster untouched, so "the extreme over the rest" only ever needs the three
# most extreme entries (at most two are excluded). Computing the top/bottom
# three once per scan keeps candidate evaluation O(1).


def _top3(state: _State, key) -> list[tuple[float, int]]:
    best: list[tuple[float, int]] = []
    for c in state.clusters.values():
        v = key(c)
        if len(best) < 3:
            best.append((v, c.cid))
            best.sort(reverse=True)
        elif v > best[-1][0]:
            best[-1] = (v, c.cid)
            best.sort(reverse=True)
    return best


def _bottom3(state: _State, key) -> list[tuple[float, int]]:
    best: list[tuple[float, int]] = []
    for c in state.clusters.values():
        v = key(c)
        if len(best) < 3:
            best.append((v, c.cid))
            best.sort()
        elif v < best[-1][0]:
            best[-1] = (v, c.cid)
            best.sort()
    return best


def _excluding(extremes: list[tuple[float, int]], a: int, b: int, default: float) -> float:
    for value, cid in extremes:
        if cid != a and cid != b:
            return value
    return default


def _size_top3(state: _State) -> list[tuple[float, int]]:
    return _top3(state, lambda c: c.size)


def _dbar_top3(state: _State) -> list[tuple[float, int]]:
    return _top3(state, lambda c: c.dbar)


def _range_bottom3(state: _State) -> list[tuple[float, int]]:
    return _bottom3(state, lambda c: c.smask.bit_count())


def _post_merge_utility(state: _State, a: int, b: int) -> float:
    """Utility of the quantization obtained by fusing clusters a and b."""
    if state.utility.kind is UtilityKind.U1_RESOLUTION:
        merged = state.clusters[a].size + state.clusters[b].size
        largest = max(merged, int(_excluding(_size_top3(state), a, b, 0)))
        return h0(state.jr.n_x) - math.log2(largest)
    worst = max(state.merged_dbar(a, b), _excluding(_dbar_top3(state), a, b, 0.0))
    return -worst


# ---------------------------------------------------------------------------
# Lambda-free merge paths
# ---------------------------------------------------------------------------
#
# Each algorithm is a generator of merge steps that ``_follow`` turns into a
# run. Algorithms 1 and 2 never use lambda to pick a merge, only to decide
# where a run stops, so their paths are lambda-free and a sweep follows one
# path for a whole lambda grid (``_lambda_path``).


class _Step(NamedTuple):
    """One state of a merge path; the first step is the singleton start.

    The state's Lagrangian is ``privacy - lam * utility``, where ``privacy``
    is log2 of the component count on algorithm 2's path and L0 otherwise.
    ``dpriv`` is the privacy change of a component merge: log2((P-1)/P) for
    algorithm 2, the change in L0 for algorithm 3; None for algorithm 1.
    ``snapshot`` builds the state's quantization until the path advances.
    """

    merged: tuple[tuple[int, int], ...]
    privacy: float
    utility: float
    dpriv: Optional[float]
    component_count: Optional[int]
    snapshot: Callable[[], Quantization]


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


def _walk(path: Iterator[_Step], cfgs: Sequence[LagrangianConfig], forced: bool = False):
    """Follow ``path`` for several lambdas at once. It advances while some
    config accepts its steps (all of them, when ``forced``).

    Returns the steps taken and their quantizations; per config, the index
    of its last accepted step and the decision value that rejected the next
    one (None if none did); and the path's termination (None if every config
    stopped before the path ran out).
    """
    kind = cfgs[0].utility.kind
    steps = [next(path)]
    states = [steps[0].snapshot()]
    stops = [0] * len(cfgs)
    rejected: list[Optional[float]] = [None] * len(cfgs)
    active = range(len(cfgs))
    while True:
        try:
            step = next(path)
        except StopIteration as end:
            return steps, states, stops, rejected, end.value
        if not forced:
            for i in active:
                decision = _decision(steps[-1], step, cfgs[i].lam, kind)[0]
                if decision >= 0.0:
                    rejected[i] = decision
            active = [i for i in active if rejected[i] is None]
            if not active:
                return steps, states, stops, rejected, None
        for i in active:
            stops[i] = len(steps)
        steps.append(step)
        states.append(step.snapshot())


def _follow(
    path: Iterator[_Step],
    cfg: LagrangianConfig,
    singletons: Optional[Decomposition] = None,
    forced: bool = False,
) -> GreedyResult:
    """One greedy run: ``path`` followed at ``cfg.lam``. With ``singletons``
    the result carries the finest decomposition of its quantization."""
    steps, states, _, (rejected,), end = _walk(path, [cfg], forced)
    lam, kind = cfg.lam, cfg.utility.kind
    trace = tuple(
        TraceEntry(
            t, q, s.privacy - lam * s.utility,
            _decision(steps[t - 1], s, lam, kind)[1] if t else None,
            s.merged, s.component_count, s.utility,
        )
        for t, (s, q) in enumerate(zip(steps, states))
    )
    q = states[-1]
    termination = end if rejected is None else Termination.DELTA_L_NON_NEGATIVE
    decomposition = None if singletons is None else merge_update(singletons, q)
    return GreedyResult(q, trace, decomposition, termination, rejected_delta_l=rejected)


# ---------------------------------------------------------------------------
# Algorithm 1: minimize maximal leakage L0
# ---------------------------------------------------------------------------


def _best_partner_min_l0(state: _State, cid: int) -> Optional[int]:
    """Partner maximizing post-merge utility among clusters whose conditional
    range differs from ``cid``'s (merging equal ranges cannot raise the
    smallest range).

    Ties: smaller merged cluster, then smaller merged minimum index, then
    smaller partner id.
    """
    cx = state.clusters[cid]
    u1 = state.utility.kind is UtilityKind.U1_RESOLUTION
    size_tops = _size_top3(state) if u1 else None
    best_key = None
    best = None
    for other in state.clusters.values():
        if other.cid == cid or other.smask == cx.smask:
            continue
        merged_size = cx.size + other.size
        if u1:
            # Post-merge utility is decreasing in the largest cluster size.
            primary = max(merged_size, int(_excluding(size_tops, cid, other.cid, 0)))
        else:
            primary = state.merged_dbar(cid, other.cid)
        key = (primary, merged_size, min(cid, other.cid), other.cid)
        if best_key is None or key < best_key:
            best_key = key
            best = other.cid
    return best


def _min_l0_path(jr: JointRange, utility: UtilityChoice, policy: CodewordPolicy):
    """Algorithm 1's merge path, one step per round; returns its termination."""
    state = _State(jr, utility, policy)
    yield _Step((), state.leakage_l0(), state.utility_value(), None, None, state.snapshot)
    while len(state.clusters) > 1:
        smallest = min(c.smask.bit_count() for c in state.clusters.values())
        pi = sorted(
            c.cid for c in state.clusters.values() if c.smask.bit_count() == smallest
        )
        consumed: set[int] = set()
        merged_pairs: list[tuple[int, int]] = []
        for cid in pi:
            if cid in consumed:
                continue
            partner = _best_partner_min_l0(state, cid)
            if partner is None:
                continue
            consumed.add(cid)
            consumed.add(partner)
            state.merge(cid, partner)
            merged_pairs.append((cid, partner))
        if not merged_pairs:
            return Termination.NO_ELIGIBLE_MERGE
        yield _Step(
            tuple(merged_pairs), state.leakage_l0(), state.utility_value(), None, None,
            state.snapshot,
        )
    return Termination.FULLY_MERGED


def algorithm1_min_l0(jr: JointRange, cfg: LagrangianConfig) -> GreedyResult:
    """Greedy minimization of L0 - lambda * U by rounds of bulk merges.

    Each outer iteration merges every cluster currently achieving the
    smallest conditional range with its utility-maximizing partner, then
    the full round is accepted only if the Lagrangian strictly dropped;
    otherwise the previous quantization is returned.
    """
    return _follow(_min_l0_path(jr, cfg.utility, cfg.policy), cfg)


# ---------------------------------------------------------------------------
# Algorithms 2 and 3: component-driven merging
# ---------------------------------------------------------------------------


def _singleton_decomposition(jr: JointRange) -> Decomposition:
    """Finest decomposition of the singleton confusability graph."""
    return finest_decomposition(build_graph(jr, [{x} for x in range(jr.n_x)]))


class _Components:
    """Connected components of the evolving cluster graph.

    Seeded from the singleton confusability graph; fusing the components of
    two merged clusters keeps it equal to the finest decomposition of the
    current cluster graph (coarsening can only connect, never disconnect).
    A cluster's id is one of its members, so the singleton block of that id
    lies in the cluster's component.
    """

    def __init__(self, singletons: Decomposition):
        self.block_of = singletons.block_of()
        self.uf = UnionFind(len(singletons.blocks))
        self.x_count = {pos: len(block) for pos, block in enumerate(singletons.blocks)}
        self.count = len(singletons.blocks)

    def root(self, cid: int) -> int:
        return self.uf.find(self.block_of[cid])

    def fuse(self, a: int, b: int) -> None:
        ra, rb = self.root(a), self.root(b)
        if ra == rb:
            raise AssertionError("candidate pair was not cross-component")
        self.uf.union(ra, rb)
        self.x_count[self.uf.find(ra)] = self.x_count[ra] + self.x_count[rb]
        self.count -= 1


def _cross_component_pairs(state: _State, comps: _Components):
    """Cluster pairs (a < b) in different components, each with its tie key.

    The key prefers pairs connecting the two largest components (larger
    first), then the smallest cluster ids. Component roots and sizes are
    read once per scan.
    """
    cids = sorted(state.clusters)
    roots = [comps.root(cid) for cid in cids]
    sizes = [comps.x_count[r] for r in roots]
    for i, a in enumerate(cids):
        ra, sa = roots[i], sizes[i]
        for j in range(i + 1, len(cids)):
            if roots[j] != ra:
                b, sb = cids[j], sizes[j]
                yield a, b, ((-sa, -sb, a, b) if sa >= sb else (-sb, -sa, a, b))


def _min_istar_path(
    jr: JointRange, utility: UtilityChoice, policy: CodewordPolicy, singletons: Decomposition
):
    """Algorithm 2's merge path, one cross-component merge per step; returns
    its termination."""
    state = _State(jr, utility, policy)
    comps = _Components(singletons)
    u1 = utility.kind is UtilityKind.U1_RESOLUTION
    yield _Step(
        (), math.log2(comps.count), state.utility_value(), None, comps.count, state.snapshot
    )
    while comps.count > 1:
        best_key = None
        best_pair = None
        for a, b, tie in _cross_component_pairs(state, comps):
            if u1:
                primary = state.clusters[a].size + state.clusters[b].size
            else:
                primary = state.merged_dbar(a, b)
            key = (primary, *tie)
            if best_key is None or key < best_key:
                best_key = key
                best_pair = (a, b)
        a, b = best_pair
        u_new = _post_merge_utility(state, a, b)
        dpriv = math.log2((comps.count - 1) / comps.count)
        comps.fuse(a, b)
        state.merge(a, b)
        yield _Step(((a, b),), math.log2(comps.count), u_new, dpriv, comps.count, state.snapshot)
    return Termination.SINGLE_COMPONENT


def algorithm2_min_istar(jr: JointRange, cfg: LagrangianConfig) -> GreedyResult:
    """Greedy minimization of maximin information log2 |components| - lambda * U.

    Candidates are cluster pairs in different components; the pair with the
    best post-merge utility is tried (for resolution utility that is the
    smallest combined size, ties resolved toward connecting the two largest
    components), and the run stops when the accepted drop would be
    non-negative or one component remains.
    """
    singletons = _singleton_decomposition(jr)
    return _follow(_min_istar_path(jr, cfg.utility, cfg.policy, singletons), cfg, singletons)


def _l0_zero_istar_path(jr: JointRange, cfg: LagrangianConfig, singletons: Decomposition):
    """Algorithm 3's merge path at ``cfg.lam``, one cross-component merge per
    step; returns its termination."""
    state = _State(jr, cfg.utility, cfg.policy)
    comps = _Components(singletons)
    u1 = cfg.utility.kind is UtilityKind.U1_RESOLUTION
    h0_x = h0(jr.n_x)
    u_old = state.utility_value()
    yield _Step((), state.leakage_l0(), u_old, None, comps.count, state.snapshot)
    while comps.count > 1:
        min_range_bits = state.min_range_bits()
        range_bottoms = _range_bottom3(state)
        size_tops = _size_top3(state) if u1 else None
        dbar_tops = None if u1 else _dbar_top3(state)
        best_key = None
        best = None
        for a, b, tie in _cross_component_pairs(state, comps):
            ca, cb = state.clusters[a], state.clusters[b]
            merged_range = (ca.smask | cb.smask).bit_count()
            rest = _excluding(range_bottoms, a, b, math.inf)
            new_min = merged_range if rest == math.inf else min(merged_range, int(rest))
            if u1:
                largest = max(ca.size + cb.size, int(_excluding(size_tops, a, b, 0)))
                u_new = h0_x - math.log2(largest)
            else:
                u_new = -max(state.merged_dbar(a, b), _excluding(dbar_tops, a, b, 0.0))
            dpriv = min_range_bits - math.log2(new_min)
            delta = dpriv + cfg.lam * (u_old - u_new)
            range_sum = ca.smask.bit_count() + cb.smask.bit_count()
            key = (delta, range_sum, *tie)
            if best_key is None or key < best_key:
                best_key = key
                best = (a, b, u_new, dpriv)
        a, b, u_old, dpriv = best
        comps.fuse(a, b)
        state.merge(a, b)
        yield _Step(((a, b),), state.leakage_l0(), u_old, dpriv, comps.count, state.snapshot)
    return Termination.SINGLE_COMPONENT


def algorithm3_l0_zero_istar(jr: JointRange, cfg: LagrangianConfig) -> GreedyResult:
    """Minimize L0 under the hard constraint of zero maximin information.

    Component-driven like ``algorithm2_min_istar``, but every iteration
    takes the cross-component pair with the smallest Lagrangian change
    (ties: smallest summed conditional-range sizes, then largest components,
    then smallest ids) and keeps merging, accepted or not, until a single
    component remains. The result is always perfectly indistinguishable.
    """
    singletons = _singleton_decomposition(jr)
    return _follow(_l0_zero_istar_path(jr, cfg, singletons), cfg, singletons, forced=True)


def run(jr: JointRange, problem: Problem, cfg: LagrangianConfig) -> GreedyResult:
    """Dispatch a greedy run for the given problem."""
    if problem is Problem.MIN_L0:
        return algorithm1_min_l0(jr, cfg)
    if problem is Problem.MIN_ISTAR:
        return algorithm2_min_istar(jr, cfg)
    return algorithm3_l0_zero_istar(jr, cfg)


def _lambda_path(
    jr: JointRange, problem: Problem, cfgs: Sequence[LagrangianConfig]
) -> tuple[list[Quantization], list[int]]:
    """Follow the merge path of algorithm 1 or 2 once for many lambdas.

    The configs share one utility and policy. Returns the quantization of
    every state reached and, per config, the index of the last state its run
    accepts: ``run`` at that config traces exactly ``states[:stop + 1]``.
    """
    utility, policy = cfgs[0].utility, cfgs[0].policy
    if problem is Problem.MIN_L0:
        path = _min_l0_path(jr, utility, policy)
    else:
        path = _min_istar_path(jr, utility, policy, _singleton_decomposition(jr))
    _, states, stops, _, _ = _walk(path, cfgs)
    return states, stops
