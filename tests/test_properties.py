"""Property tests over random joint ranges (skipped without hypothesis).

* A sweep's raw coordinates are the walk's own scores, so every frontier
  point must recompute bit for bit from its quantization with the public
  measures.
* Every point of an ``l0-zero-istar`` frontier is a release some run at
  its lambda passes through; with terminal states only, every point has
  I* = 0.
* No greedy run beats the exhaustive optimum of its problem, and no sweep
  point leaks less than the oracle's least leakage at its own utility.
* Under u2 the oracle's value recomputes bit for bit from its witness, and
  every greedy trace utility equals ``utility()`` bit for bit.
* With X values at the edge of ``finite_magnitude`` and lambda up to 1e308,
  no u2 score is NaN: no trace Lagrangian, delta or utility, no Lagrangian
  change of a move, no oracle value and no frontier coordinate.
* The walk of a whole lambda grid, projected on one config, is that
  config's own walk: the same steps in the same order, and the same end.
* The decomposition a component-driven run reports partitions S exactly as
  the overlap relation of its quantization does, and so do
  ``finest_decomposition`` and ``merge_update`` on random quantizations.
* The component count every trace entry and every walk step reports is the
  number of blocks of the overlap partition (union-find, the reference).
* Every partner search of algorithm 1 and every cross-component search of
  algorithms 2 and 3, along the walk of a lambda grid, gives what its
  full-scan reference in ``helpers`` gives: algorithm 2 the same pair, and
  algorithm 3 some of the reference's move groups, from which every lambda
  of the grid and 0.0 picks the same move. Seeded sparse tables of 60 to
  150 X values walk the default grid the same way, and so do u2 tables
  with values near 1e300 or mixing 1e16 with 1.0.
* At every state of every walk, the cost rule ``_State.pair_cost`` gives
  ``reference_pair_cost`` bit for bit on every live pair, in both orders,
  under u1 and u2 and both policies.
* Every trace quantization of a run and every frontier point of a sweep is
  ``reference_from_clusters`` of its clusters, codewords bit for bit, for
  numeric, categorical and partly valued X under both policies.
* The oracle's partition walk, given a bound table and a fixed cutoff,
  yields exactly the partitions, in lexicographic order, no block of which
  has a bound above the cutoff any time it gains an element (a bound equal
  to the cutoff passes); without a table it yields every RGS.
* ``sweeney_baseline`` returns the quantization, codewords included, of
  the set-based reference loop, for numeric and categorical X, both
  codeword policies and every feasible k; also on up to 40 X values with
  many equal codewords and equal gaps, codewords compared down to the sign
  of zero.
* ``load_csv`` agrees with a row-by-row reference loader on fuzzed files,
  errors and their row numbers included, and ``privquant stats`` exits 0
  on exactly the files that load, else 2 or 3.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from helpers import (
    overlap_partition_oracle,
    reference_best_partner_min_l0,
    reference_from_clusters,
    reference_l0_zero_istar_candidates,
    reference_load_csv,
    reference_min_istar_pair,
    reference_pair_cost,
    reference_pick,
    reference_rgs_strings,
    reference_sweeney_baseline,
    sparse_joint_range,
)
from privquant import (
    JointRange,
    LagrangianConfig,
    Problem,
    Symbol,
    l0,
    lagrangian_l0,
    maximin_information,
    PrivQuantError,
    build_graph,
    cond_range_cluster,
    default_lambda_grid,
    finest_decomposition,
    load_csv,
    merge_update,
    oracle_min,
    run,
    sweep,
    sweeney_baseline,
)
from privquant import cli, greedy
from privquant.errors import IngestError
from privquant.greedy import _runs
from privquant.oracle import _walk_partitions
from privquant.quantize import CodewordPolicy, UtilityChoice, utility

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


UTILITIES = (UtilityChoice.u1(), UtilityChoice.u2())
SETTINGS = dict(deadline=None, database=None)


@st.composite
def joint_ranges(draw, max_s: int = 6, max_x: int = 7, value=None) -> JointRange:
    """Every X symbol has an S-range of one or two values (so there are often
    several confusability components), every S value occurs, and X values
    are drawn from ``value``, by default a mix of small integers (many ties)
    and arbitrary floats."""
    n_s = draw(st.integers(1, max_s))
    n_x = draw(st.integers(1, max_x))
    ranges = draw(st.lists(
        st.sets(st.integers(0, n_s - 1), min_size=1, max_size=2), min_size=n_x, max_size=n_x
    ))
    pairs = {(s, x) for x, r in enumerate(ranges) for s in r}
    for s in set(range(n_s)).difference(*ranges):
        pairs.add((s, draw(st.integers(0, n_x - 1))))
    if value is None:
        value = st.one_of(st.integers(0, 4).map(float), st.floats(-10.0, 10.0, allow_nan=False))
    values = draw(st.lists(value, min_size=n_x, max_size=n_x))
    return JointRange(
        [Symbol(f"s{i}") for i in range(n_s)],
        [Symbol(f"x{i}", v) for i, v in enumerate(values)],
        pairs,
    )


lambdas = st.floats(0.0, 20.0, allow_nan=False)


@hypothesis.settings(max_examples=200, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(),
    problem=st.sampled_from(Problem),
    u=st.sampled_from(UTILITIES),
    policy=st.sampled_from(CodewordPolicy),
    include_trace_states=st.booleans(),
    grid=st.one_of(st.none(), st.lists(lambdas, min_size=1, max_size=6)),
)
def test_frontier_points_recompute_from_their_quantizations(
    jr, problem, u, policy, include_trace_states, grid
):
    frontier = sweep(jr, problem, u, grid, policy, include_trace_states)
    measure = maximin_information if problem is Problem.MIN_ISTAR else l0
    for p in frontier.points:
        assert p.leakage_raw == measure(jr, p.quantization)
        assert p.utility_raw == utility(jr, p.quantization, u)


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=st.one_of(joint_ranges(), joint_ranges(max_s=10, max_x=12)),
    u=st.sampled_from(UTILITIES),
    policy=st.sampled_from(CodewordPolicy),
    grid=st.one_of(st.none(), st.lists(lambdas, min_size=1, max_size=6)),
)
def test_l0_zero_istar_frontier_holds_releases_its_runs_pass_through(jr, u, policy, grid):
    # The frontier of l0-zero-istar holds every release the runs passed
    # through, so a point may have I* > 0; its terminal-only frontier holds
    # the runs' ends, each one component.
    problem = Problem.MIN_L0_ZERO_ISTAR
    for p in sweep(jr, problem, u, grid, policy).points:
        trace = run(jr, problem, LagrangianConfig(p.lam, u, policy)).trace
        assert p.quantization in [e.quantization for e in trace]
    for p in sweep(jr, problem, u, grid, policy, include_trace_states=False).points:
        assert maximin_information(jr, p.quantization) == 0.0


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(max_x=6),
    u=st.sampled_from(UTILITIES),
    lam=lambdas,
)
def test_greedy_never_beats_the_oracle(jr, u, lam):
    cfg = LagrangianConfig(lam, u)
    for problem in Problem:
        q = run(jr, problem, cfg).quantization
        if problem is Problem.MIN_ISTAR:
            achieved = maximin_information(jr, q) - lam * utility(jr, q, u)
        else:
            achieved = lagrangian_l0(jr, q, cfg)
        assert achieved >= oracle_min(jr, problem, cfg).value - 1e-9


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(max_s=8, max_x=8),
    u=st.sampled_from(UTILITIES),
    policy=st.sampled_from(CodewordPolicy),
    grid=st.one_of(st.none(), st.lists(lambdas, min_size=1, max_size=6)),
)
def test_no_frontier_point_beats_the_oracle_at_its_utility(jr, u, policy, grid):
    # A theta query is the least leakage over the partitions of at least that
    # utility. For l0-zero-istar the oracle counts only connected partitions,
    # so its sweep keeps only the runs' ends, each one component.
    cfg = LagrangianConfig(0.0, u, policy)
    for problem in Problem:
        trace_states = problem is not Problem.MIN_L0_ZERO_ISTAR
        for p in sweep(jr, problem, u, grid, policy, trace_states).points:
            assert p.leakage_raw >= oracle_min(jr, problem, cfg, theta=p.utility_raw).value


@hypothesis.settings(max_examples=150, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(max_x=6),
    policy=st.sampled_from(CodewordPolicy),
    lam=st.one_of(st.sampled_from((0.0, 1.0)), lambdas),
)
def test_u2_distance_contract_holds_on_every_path(jr, policy, lam):
    # The oracle's block table, the greedy cost rule and utility() each
    # compute the worst absolute difference their own way.
    u = UtilityChoice.u2()
    cfg = LagrangianConfig(lam, u, policy)
    for problem in Problem:
        measure = maximin_information if problem is Problem.MIN_ISTAR else l0
        found = oracle_min(jr, problem, cfg)
        q = found.quantization
        assert found.value == measure(jr, q) - lam * utility(jr, q, u)
        for entry in run(jr, problem, cfg).trace:
            assert repr(entry.utility_value) == repr(utility(jr, entry.quantization, u))


@st.composite
def edge_joint_ranges(draw):
    """A ``joint_ranges`` table whose X values sit at the edge of
    ``finite_magnitude``: +-1.7e308 / n_x (so |x| sums to at most 1.7e308),
    +-5e-324 (the least subnormal) and zeros of both signs."""
    jr = draw(joint_ranges(max_x=6))
    big = 1.7e308 / jr.n_x
    edge = st.sampled_from((big, -big, 5e-324, -5e-324, 0.0, -0.0))
    values = draw(st.lists(edge, min_size=jr.n_x, max_size=jr.n_x))
    x_syms = [Symbol(s.id, v) for s, v in zip(jr.x_symbols, values)]
    return JointRange(jr.s_symbols, x_syms, jr.pairs)


EDGE_LAMBDAS = (0.0, 1.0, 1e308)


@hypothesis.settings(max_examples=60, **SETTINGS)
@hypothesis.given(jr=edge_joint_ranges())
def test_no_u2_score_is_nan_at_the_edge_of_the_value_range(jr):
    # Values are finite with a finite |x| sum, so every distortion is finite
    # and at most max - min; lambda is finite, and a product with it may
    # overflow to an infinity but never meets another one.
    moves, changes = greedy._moves, []

    def checked_moves(problem, state):
        found = moves(problem, state)
        if isinstance(found, list):
            u_old = state.utility_value()
            changes.extend(m[0] + lam * (u_old - m[1])
                           for m in found if m[0] is not None for lam in EDGE_LAMBDAS)
        return found

    u = UtilityChoice.u2()
    scores = []
    with mock.patch.object(greedy, "_moves", checked_moves):
        for problem in Problem:
            for policy in CodewordPolicy:
                for lam in EDGE_LAMBDAS:
                    cfg = LagrangianConfig(lam, u, policy)
                    for e in run(jr, problem, cfg).trace:
                        scores += [e.lagrangian, e.delta_l, e.utility_value]
                    scores.append(oracle_min(jr, problem, cfg).value)
                for p in sweep(jr, problem, u, EDGE_LAMBDAS, policy).points:
                    scores += [p.leakage_raw, p.leakage_norm, p.utility_raw, p.loss_norm]
    assert not any(map(math.isnan, changes))
    assert not any(math.isnan(v) for v in scores if v is not None)  # delta_l is None at t = 0


def _walk(jr, problem, cfgs):
    """Every ``(runs, step)`` the walk of ``cfgs`` yields, and the ends it sets."""
    ends = [None] * len(cfgs)
    return list(_runs(jr, problem, cfgs, ends)), ends


@hypothesis.settings(max_examples=200, **SETTINGS)
@hypothesis.given(
    jr=st.one_of(joint_ranges(), joint_ranges(max_s=10, max_x=12)),
    problem=st.sampled_from(Problem),
    u=st.sampled_from(UTILITIES),
    policy=st.sampled_from(CodewordPolicy),
    grid=st.lists(st.one_of(st.sampled_from((0.0, 0.3, 1.0)), lambdas), min_size=1, max_size=8),
)
def test_the_walk_of_one_config_is_its_run(jr, problem, u, policy, grid):
    cfgs = [LagrangianConfig(lam, u, policy) for lam in grid]
    yields, ends = _walk(jr, problem, cfgs)
    for i, cfg in enumerate(cfgs):
        alone, (end,) = _walk(jr, problem, [cfg])
        steps = [step for runs, step in yields if i in runs]
        assert steps == [step for _, step in alone]
        assert ends[i] == end
        assert ends[i][2] is steps[-1]


def _s_ranges(jr, decomposition) -> set:
    """The S-range of every block of ``decomposition``."""
    return {frozenset(cond_range_cluster(jr, block)) for block in decomposition.blocks}


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(),
    problem=st.sampled_from((Problem.MIN_ISTAR, Problem.MIN_L0_ZERO_ISTAR)),
    u=st.sampled_from(UTILITIES),
    lam=lambdas,
)
def test_decomposition_blocks_are_the_overlap_partition(jr, problem, u, lam):
    result = run(jr, problem, LagrangianConfig(lam, u))
    s_ranges = _s_ranges(jr, result.decomposition)
    assert s_ranges == set(overlap_partition_oracle(jr, result.quantization))
    assert len(s_ranges) == len(result.decomposition.blocks)
    assert math.log2(len(s_ranges)) == maximin_information(jr, result.quantization)


@st.composite
def quantized(draw):
    """A joint range and a random partition of its X alphabet."""
    jr = draw(joint_ranges(max_s=8, max_x=10))
    labels = draw(st.lists(st.integers(0, jr.n_x - 1), min_size=jr.n_x, max_size=jr.n_x))
    clusters: dict[int, set] = {}
    for x, label in enumerate(labels):
        clusters.setdefault(label, set()).add(x)
    return jr, list(clusters.values())


@hypothesis.settings(max_examples=200, **SETTINGS)
@hypothesis.given(case=quantized())
def test_fold_decompositions_are_the_overlap_partition(case):
    jr, q = case
    expected = set(overlap_partition_oracle(jr, q))
    finest = finest_decomposition(build_graph(jr, q))
    singletons = finest_decomposition(build_graph(jr, [{x} for x in range(jr.n_x)]))
    coarsened = merge_update(singletons, q)
    for dec in (finest, coarsened):
        assert _s_ranges(jr, dec) == expected and len(dec) == len(expected)
    assert coarsened == finest


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=st.one_of(joint_ranges(), joint_ranges(max_s=10, max_x=12)),
    problem=st.sampled_from((Problem.MIN_ISTAR, Problem.MIN_L0_ZERO_ISTAR)),
    u=st.sampled_from(UTILITIES),
    grid=st.lists(lambdas, min_size=2, max_size=6),
)
def test_tracked_component_counts_are_the_overlap_partition(jr, problem, u, grid):
    for entry in run(jr, problem, LagrangianConfig(grid[0], u)).trace:
        assert entry.component_count == len(overlap_partition_oracle(jr, entry.quantization))
    yields, _ = _walk(jr, problem, [LagrangianConfig(lam, u) for lam in grid])
    for _, step in yields:
        # The buckets hold each live cluster id once, and each bucket's
        # clusters' S-ranges union to exactly one block of the overlap
        # partition, a block per bucket. The record is ascending, and each
        # bucket's -x_count is minus the summed sizes of its clusters.
        members = {c[0]: c for c in step.partition}
        assert step.comps == sorted(step.comps)
        for neg_count, _, cids in step.comps:
            assert neg_count == -sum(len(members[c]) for c in cids)
        assert sorted(c for *_, cids in step.comps for c in cids) == sorted(members)
        s_ranges = [frozenset().union(*(cond_range_cluster(jr, members[c]) for c in cids))
                    for *_, cids in step.comps]
        blocks = overlap_partition_oracle(jr, step.partition)
        assert len(s_ranges) == len(blocks) and set(s_ranges) == set(blocks)


@contextlib.contextmanager
def _checked_searches(calls, lams):
    """Check every partner search of algorithm 1 and every move list of
    algorithms 2 and 3 against its full-scan reference, counting them in
    ``calls``. Algorithm 3's moves must be some of the reference's groups,
    and every lambda of ``lams`` must pick the same move from both."""
    search, moves = greedy._best_partner_min_l0, greedy._moves

    def checked_search(state, cid, index):
        calls["searches"] += 1
        found = search(state, cid, index)
        # Every cluster a round reaches has a partner with another S-mask.
        expected = reference_best_partner_min_l0(state, cid)
        assert expected is not None and found == expected
        return found

    def checked_moves(problem, state):
        found = moves(problem, state)
        if problem is not Problem.MIN_L0 and isinstance(found, list):
            calls["scans"] += 1
            if problem is Problem.MIN_ISTAR:
                assert found[0][2] == reference_min_istar_pair(state)
            else:
                groups = reference_l0_zero_istar_candidates(state)
                assert set(found) <= set(groups)
                u_old = state.utility_value()
                for lam in lams:
                    assert greedy._pick(found, lam, u_old) == reference_pick(groups, lam, u_old)
        return found

    with mock.patch.object(greedy, "_best_partner_min_l0", checked_search), \
            mock.patch.object(greedy, "_moves", checked_moves):
        yield


def _check_searches(jr, cfgs):
    """Walk ``cfgs`` for each problem with every search checked (``_checked_searches``)."""
    lams = (0.0, *(cfg.lam for cfg in cfgs))
    for problem, kind in ((Problem.MIN_L0, "searches"), (Problem.MIN_ISTAR, "scans"),
                          (Problem.MIN_L0_ZERO_ISTAR, "scans")):
        calls = {"searches": 0, "scans": 0}
        with _checked_searches(calls, lams):
            yields, _ = _walk(jr, problem, cfgs)
        # Every state past the root was reached through a checked search.
        assert len(yields) == 1 or calls[kind] > 0


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=st.one_of(joint_ranges(max_s=12, max_x=40), joint_ranges(max_s=40, max_x=40)),
    u=st.sampled_from(UTILITIES),
    policy=st.sampled_from(CodewordPolicy),
    grid=st.lists(st.one_of(st.sampled_from((0.0, 0.3, 1.0)), lambdas), min_size=1, max_size=4),
)
def test_candidate_searches_match_their_full_scans(jr, u, policy, grid):
    _check_searches(jr, [LagrangianConfig(lam, u, policy) for lam in grid])


@pytest.mark.parametrize("policy", CodewordPolicy)
@pytest.mark.parametrize("u", UTILITIES, ids=("u1", "u2"))
def test_candidate_searches_match_their_full_scans_on_sparse_tables(u, policy):
    # Seeded tables of many small components, walked as the default grid's lambda tree.
    rng = random.Random(f"{UTILITIES.index(u)}-{policy.value}")
    jr = sparse_joint_range(rng, rng.randint(60, 150))
    _check_searches(jr, [LagrangianConfig(lam, u, policy) for lam in default_lambda_grid()])


EXTREME_VALUES = {
    # The 0.1 grid times 1e300: |x| sums to well under the float range, and
    # scaled grid values tie and near-tie under rounding.
    "1e300": lambda rng, v: v * 1e300,
    # 1e16 next to 1.0: the ulp of 1e16 is 2, so sums with 1.0 round.
    "1e16-and-1": lambda rng, v: rng.choice((1.0, 1e16)) * rng.randint(1, 3),
}


@pytest.mark.parametrize("policy", CodewordPolicy)
@pytest.mark.parametrize("magnitude", EXTREME_VALUES)
def test_candidate_searches_match_their_full_scans_at_extreme_magnitudes(magnitude, policy):
    # The distortion walks of algorithms 1 and 2 stop on _HALF_GAP times a
    # rounded vmin gap; at these magnitudes gaps, sums and centroids round.
    rng = random.Random(f"{magnitude}-{policy.value}")
    jr = sparse_joint_range(rng, rng.randint(60, 100))
    x_syms = [Symbol(x.id, EXTREME_VALUES[magnitude](rng, x.value)) for x in jr.x_symbols]
    jr = JointRange(jr.s_symbols, x_syms, jr.pairs)
    u = UtilityChoice.u2()
    _check_searches(jr, [LagrangianConfig(lam, u, policy) for lam in default_lambda_grid()])


def _bits(value):
    """``value`` as its bits: ``float.hex`` of a float, an int (a u1 cost) as it is."""
    return value.hex() if isinstance(value, float) else value


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(max_s=8, max_x=10),
    u=st.sampled_from(UTILITIES),
    policy=st.sampled_from(CodewordPolicy),
    grid=st.lists(st.one_of(st.sampled_from((0.0, 0.3, 1.0)), lambdas), min_size=1, max_size=4),
)
# Values -0.0 and 0.0: a zero cost whose sign must not depend on the argument order.
@hypothesis.example(
    jr=JointRange.from_id_pairs([("s0", "a"), ("s1", "a"), ("s0", "b")], {"a": -0.0, "b": 0.0}),
    u=UtilityChoice.u2(),
    policy=CodewordPolicy.REPRESENTATIVE,
    grid=[0.0],
)
def test_the_cost_rule_is_the_reference_on_every_walked_state(jr, u, policy, grid):
    moves, states = greedy._moves, []

    def checked_moves(problem, state):
        states.append(problem)
        for ca in state.clusters.values():
            for cb in state.clusters.values():
                if ca.cid < cb.cid:
                    expected = _bits(reference_pair_cost(state, ca.cid, cb.cid))
                    assert _bits(state.pair_cost(ca, cb)) == expected
                    assert _bits(state.pair_cost(cb, ca)) == expected
        return moves(problem, state)

    cfgs = [LagrangianConfig(lam, u, policy) for lam in grid]
    with mock.patch.object(greedy, "_moves", checked_moves):
        for problem in Problem:
            _walk(jr, problem, cfgs)
    assert set(states) == set(Problem)


@st.composite
def valued_joint_ranges(draw):
    """A ``joint_ranges`` table whose X values are all kept, all dropped
    (categorical X) or dropped from some symbols (partly valued X)."""
    jr = draw(joint_ranges(max_s=8, max_x=10))
    kept = draw(st.sampled_from(("all", "none", "some")))
    if kept == "all":
        return jr
    drop = [True] * jr.n_x if kept == "none" else draw(
        st.lists(st.booleans(), min_size=jr.n_x, max_size=jr.n_x))
    x_syms = [Symbol(s.id, None if d else s.value) for s, d in zip(jr.x_symbols, drop)]
    return JointRange(jr.s_symbols, x_syms, jr.pairs)


def _assert_is_reference(jr, q, policy):
    expected = reference_from_clusters(jr, q.clusters, policy)
    assert q == expected  # a None against a tuple of codewords differs here too
    if q.codewords is not None:
        assert [c.hex() for c in q.codewords] == [c.hex() for c in expected.codewords]


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=valued_joint_ranges(),
    problem=st.sampled_from(Problem),
    u2=st.booleans(),
    grid=st.lists(st.one_of(st.sampled_from((0.0, 0.3, 1.0)), lambdas), min_size=1, max_size=4),
)
def test_releases_are_the_reference_quantizations(jr, problem, u2, grid):
    numeric = all(v is not None for v in jr.x_values())
    u = UtilityChoice.u2() if u2 and numeric else UtilityChoice.u1()
    # Both policies in one example, so a codeword kept across policies shows.
    for policy in CodewordPolicy:
        for entry in run(jr, problem, LagrangianConfig(grid[0], u, policy)).trace:
            _assert_is_reference(jr, entry.quantization, policy)
        for point in sweep(jr, problem, u, grid, policy).points:
            _assert_is_reference(jr, point.quantization, policy)


rgs_strings = functools.lru_cache(reference_rgs_strings)


# Levels for bounds and cutoffs: any cutoff can tie a bound, and 0.5 has its next float.
BOUND_LEVELS = (-math.inf, 0.0, 0.5, math.nextafter(0.5, math.inf), math.inf)


@st.composite
def bound_tables(draw):
    """A size n, a bound table over its block masks that sets a few masks
    apart from the rest, and a cutoff, all drawn from ``BOUND_LEVELS``."""
    n = draw(st.integers(1, 8))
    rest = draw(st.sampled_from(BOUND_LEVELS))
    apart = draw(st.dictionaries(st.integers(1, (1 << n) - 1), st.sampled_from(BOUND_LEVELS),
                                 max_size=12))
    return n, [apart.get(b, rest) for b in range(1 << n)], draw(st.sampled_from(BOUND_LEVELS))


@hypothesis.settings(max_examples=200, **SETTINGS)
@hypothesis.given(case=bound_tables())
def test_partition_walk_keeps_exactly_the_alive_prefixes(case):
    n, bound, cut = case
    expected = []
    for rgs in rgs_strings(n):
        blocks = [0] * (max(rgs) + 1)
        for x, r in enumerate(rgs):
            blocks[r] |= 1 << x
            if bound[blocks[r]] > cut:
                break
        else:
            expected.append((rgs, blocks))
    walked = [(tuple(rgs), list(blocks)) for rgs, blocks in _walk_partitions(n, bound, [cut])]
    assert walked == expected
    never = [-math.inf] * (1 << n)
    assert [tuple(rgs) for rgs, _ in _walk_partitions(n, never)] == rgs_strings(n)


@hypothesis.settings(max_examples=200, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(max_s=8, max_x=10),
    categorical=st.booleans(),
    policy=st.sampled_from(CodewordPolicy),
)
def test_baseline_matches_the_set_based_reference(jr, categorical, policy):
    if categorical:
        jr = JointRange(jr.s_symbols, [Symbol(sym.id) for sym in jr.x_symbols], jr.pairs)
    for k in range(1, jr.n_s + 1):
        # Quantization equality compares the codewords too.
        assert sweeney_baseline(jr, k, policy) == reference_sweeney_baseline(jr, k, policy)


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=st.integers(3, 4).flatmap(lambda width: joint_ranges(
        max_s=8, max_x=40,
        value=st.one_of(st.integers(-1, width - 2).map(float), st.sampled_from([-0.0, 0.0])),
    )),
    categorical=st.booleans(),
    policy=st.sampled_from(CodewordPolicy),
)
def test_baseline_matches_the_set_based_reference_on_tied_codewords(jr, categorical, policy):
    # X values on a 3- or 4-value integer range and both zeros: many clusters
    # share a codeword, and many offenders lie at equal gaps from partners on
    # both sides, where the partner walk must still take the least id.
    if categorical:
        jr = JointRange(jr.s_symbols, [Symbol(sym.id) for sym in jr.x_symbols], jr.pairs)
    for k in range(1, jr.n_s + 1):
        q, ref = sweeney_baseline(jr, k, policy), reference_sweeney_baseline(jr, k, policy)
        # The codewords' repr tells -0.0 from 0.0; equality does not.
        assert q == ref and repr(q.codewords) == repr(ref.codewords)


# Fuzzed CSV cells: padded and bare ids, numbers, non-finite and overflowing
# numbers, the default sentinels, blanks, a delimiter, a quote and a newline
# inside a quoted field. FIELD_LIMIT stands in for the csv module's field size
# limit while a case runs, so a LONG_FIELD is a CSV syntax error.
CELLS = ("a", " b ", "1", "2.5", " 3 ", "nan", "inf", "1e999", "-9", "?", "", "  ",
         "x,y", "x;y", 'q"t', "two\nlines")
FIELD_LIMIT = 12
LONG_FIELD = "z" * (FIELD_LIMIT + 1)
BAD_BYTES = b"\xff\xfe"
# Past the text decoder's first chunk, so a decoding error comes after rows.
LONG_PAD = 2500


TERMINATORS = ("\n", "\r\n", "\r")


def _encode_rows(rows, delimiter: str, terminators=None) -> list[bytes]:
    """One encoded line per row, each ended by its terminator (default CRLF)."""
    lines = []
    for row, end in zip(rows, terminators or ["\r\n"] * len(rows)):
        buf = io.StringIO()
        csv.writer(buf, delimiter=delimiter, lineterminator=end).writerow(row)
        lines.append(buf.getvalue().encode())
    return lines


@st.composite
def csv_cases(draw):
    """(file bytes, load_csv keyword arguments) covering the loader's branches.

    Besides the fuzzed cells they draw each row's line terminator, a last line
    with or without one, the header's text recurring as a data row and one
    data row repeated many times: the loader parses each distinct line once
    when no line holds a quote.
    """
    delimiter = draw(st.sampled_from((",", ";")))
    has_header = draw(st.booleans())
    header = draw(st.sampled_from((["s", "x"], ["x", " s ", "t"], ["s"])))
    row = st.lists(st.sampled_from(CELLS), max_size=3)
    pad_row = draw(st.sampled_from((["a", "1"], ["b", "2", "c"], ["a"], [" ", ""])))
    pad = draw(st.sampled_from((0, 2, LONG_PAD)))
    rows = draw(st.lists(row, max_size=10))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), header)
    if rows and draw(st.booleans()):
        at = draw(st.integers(0, len(rows) - 1))
        rows[at:at] = [rows[at]] * draw(st.sampled_from((2, 40)))
    table = ([header] if has_header else []) + rows
    ends = draw(st.lists(st.sampled_from(TERMINATORS), min_size=len(table), max_size=len(table)))
    lines = _encode_rows(table, delimiter, ends)
    split = draw(st.integers(int(has_header), len(lines)))
    pad_end = draw(st.sampled_from(TERMINATORS))
    lines[split:split] = _encode_rows([pad_row], delimiter, [pad_end]) * pad
    for bad in draw(st.lists(st.sampled_from((None, None, LONG_FIELD, BAD_BYTES)), max_size=2)):
        if bad is None:
            continue
        at = draw(st.sampled_from(range(len(lines) + 1)))
        lines.insert(at, bad if isinstance(bad, bytes) else _encode_rows([["a", bad]], delimiter)[0])
    if lines and draw(st.booleans()):  # no terminator after the last line
        lines[-1] = lines[-1].rstrip(b"\r\n")
    bom = draw(st.sampled_from((b"", b"\xef\xbb\xbf")))
    by_name = has_header and draw(st.booleans())
    kwargs = dict(
        s_column="s" if by_name else draw(st.sampled_from((0, 1))),
        x_column="x" if by_name else draw(st.sampled_from((1, 0, 2))),
        has_header=has_header,
        delimiter=delimiter,
        missing=draw(st.sampled_from((("-9", "", "?"), ("?", "nan")))),
        require_numeric_x=draw(st.booleans()),
    )
    return bom + b"".join(lines), kwargs


def _outcome(load, path, kwargs):
    try:
        jr, stats = load(path, **kwargs)
    except PrivQuantError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return jr.s_symbols, jr.x_symbols, jr.pairs, stats


def _stats_argv(path, kwargs) -> list[str]:
    argv = ["stats", "--input", str(path), "--s", str(kwargs["s_column"]),
            "--x", str(kwargs["x_column"]), "--delimiter", kwargs["delimiter"]]
    for token in kwargs["missing"]:
        argv += ["--missing", token]
    if not kwargs["has_header"]:
        argv.append("--no-header")
    if kwargs["require_numeric_x"]:
        argv.append("--x-numeric")
    return argv


@hypothesis.settings(max_examples=300, **SETTINGS)
@hypothesis.given(case=csv_cases())
def test_load_csv_matches_the_row_by_row_reference(case):
    data, kwargs = case
    old_limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            path.write_bytes(data)
            expected = _outcome(reference_load_csv, path, kwargs)
            assert _outcome(load_csv, path, kwargs) == expected
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(_stats_argv(path, kwargs))
    finally:
        csv.field_size_limit(old_limit)
    if isinstance(expected[0], type):
        assert code == (2 if expected[0] is IngestError else 3)
        row = "" if expected[2] is None else f" (row {expected[2]})"
        assert err.getvalue() == f"error: {expected[1]}{row}\n"
    else:
        assert code == 0
        assert json.loads(out.getvalue())["stats"] == expected[3].to_dict()
