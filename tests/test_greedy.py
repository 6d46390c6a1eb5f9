import math
import random
from unittest import mock

import pytest

import helpers
from helpers import id_clusters, random_joint_range, reference_best_partner_min_l0
from privquant import (
    ConfigurationError,
    JointRange,
    LagrangianConfig,
    Problem,
    Symbol,
    Termination,
    UtilityChoice,
    algorithm1_min_l0,
    algorithm2_min_istar,
    algorithm3_l0_zero_istar,
    build_graph,
    default_lambda_grid,
    finest_decomposition,
    lagrangian_l0,
    maximin_information,
    run,
    singleton_quantization,
)
from privquant import greedy
from privquant.quantize import CodewordPolicy, utility

CFG_U1 = LagrangianConfig(0.3, UtilityChoice.u1())


def sets(*groups):
    return {frozenset(g) for g in groups}


class TestLagrangian:
    def test_values(self, toy, toy_v):
        q0 = singleton_quantization(toy)
        assert lagrangian_l0(toy, q0, CFG_U1) == pytest.approx(1.7428, abs=1e-3)
        q_all = [set(range(toy.n_x))]
        assert lagrangian_l0(toy, q_all, CFG_U1) == pytest.approx(0.0, abs=1e-12)
        cfg = LagrangianConfig(2.5, UtilityChoice.u2())
        assert lagrangian_l0(toy_v, singleton_quantization(toy_v), cfg) == pytest.approx(
            2.5850, abs=1e-3
        )

    def test_lambda_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            LagrangianConfig(-1.0, UtilityChoice.u1())
        with pytest.raises(ConfigurationError):
            LagrangianConfig(float("nan"), UtilityChoice.u1())


class TestMinLeakage:
    def test_resolution_utility_trace(self, toy):
        r = algorithm1_min_l0(toy, CFG_U1)
        assert [e.lagrangian for e in r.trace] == pytest.approx(
            [1.7428, 1.2183, 0.7578, 0.0], abs=1e-3
        )
        assert r.trace[1].delta_l == pytest.approx(-0.5245, abs=1e-3)
        assert r.trace[2].delta_l == pytest.approx(-0.4605, abs=1e-3)
        assert id_clusters(toy, r.trace[1].quantization) == sets(
            ("x1", "x2", "x7"), ("x3", "x5"), ("x4", "x6")
        )
        assert id_clusters(toy, r.trace[2].quantization) == sets(
            ("x1", "x2", "x7"), ("x3", "x4", "x5", "x6")
        )
        assert len(r.quantization.clusters) == 1
        assert r.termination is Termination.FULLY_MERGED

    def test_distortion_utility_stops_on_rejected_round(self, toy_v):
        cfg = LagrangianConfig(2.5, UtilityChoice.u2())
        r = algorithm1_min_l0(toy_v, cfg)
        assert [e.lagrangian for e in r.trace] == pytest.approx([2.5850, 2.21], abs=1e-3)
        assert r.trace[1].delta_l == pytest.approx(-0.3750, abs=1e-3)
        assert r.rejected_delta_l == pytest.approx(0.0758, abs=1e-3)
        assert r.termination is Termination.DELTA_L_NON_NEGATIVE
        assert id_clusters(toy_v, r.quantization) == sets(
            ("x1", "x2", "x4"), ("x3", "x5"), ("x6", "x7")
        )

    def test_overflowing_lagrangians_stop_the_run(self):
        # At lambda 1e308, lam * u1 overflows for 8 symbols (utility 3 bits, then
        # 2 after the first round), so both Lagrangians are -inf and their change is
        # NaN. The round costs a bit of utility, which this lambda never accepts.
        jr = JointRange.from_id_pairs([(f"s{i}", f"x{i}") for i in range(8)] + [("s0", "x1")])
        r = run(jr, Problem.MIN_L0, LagrangianConfig(1e308, UtilityChoice.u1()))
        assert not any(math.isnan(e.delta_l) for e in r.trace[1:])
        assert [e.lagrangian for e in r.trace] == [-math.inf]
        assert r.termination is Termination.DELTA_L_NON_NEGATIVE
        assert math.isnan(r.rejected_delta_l)

    def test_shared_range_means_no_eligible_merge(self):
        jr = JointRange.from_id_pairs(
            [("s1", "x1"), ("s1", "x2"), ("s1", "x3"), ("s2", "x1"), ("s2", "x2"), ("s2", "x3")]
        )
        r = algorithm1_min_l0(jr, CFG_U1)
        assert r.termination is Termination.NO_ELIGIBLE_MERGE
        assert len(r.quantization.clusters) == 3
        assert len(r.trace) == 1

    def test_single_symbol_alphabet(self):
        jr = JointRange([Symbol("s1")], [Symbol("x1")], [(0, 0)])
        r = algorithm1_min_l0(jr, CFG_U1)
        assert r.termination is Termination.FULLY_MERGED
        assert len(r.quantization.clusters) == 1


class TestMinMaximin:
    def test_resolution_utility(self, toy):
        r = algorithm2_min_istar(toy, CFG_U1)
        assert [e.merged for e in r.trace[1:]] == [
            ((0, 2),),  # x1 with x3
            ((1, 4),),  # x2 with x5
            ((3, 5),),  # x4 with x6
            ((0, 6),),  # {x1,x3} with x7
        ]
        assert [e.component_count for e in r.trace] == [5, 4, 3, 2, 1]
        assert r.trace[1].delta_l == pytest.approx(-0.0219, abs=1e-3)
        assert id_clusters(toy, r.quantization) == sets(
            ("x1", "x3", "x7"), ("x2", "x5"), ("x4", "x6")
        )
        assert r.termination is Termination.SINGLE_COMPONENT
        assert len(r.decomposition) == 1

    def test_distortion_utility_with_outlier(self, toy_v4):
        r = algorithm2_min_istar(toy_v4, LagrangianConfig(0.3, UtilityChoice.u2()))
        assert [e.lagrangian for e in r.trace] == pytest.approx(
            [2.3219, 2.0150, 1.6150, 1.2001], abs=1e-2
        )
        assert id_clusters(toy_v4, r.quantization) == sets(
            ("x1", "x4"), ("x3", "x5", "x6"), ("x2",), ("x7",)
        )
        assert r.termination is Termination.DELTA_L_NON_NEGATIVE
        assert r.rejected_delta_l == pytest.approx(0.0840, abs=1e-3)
        assert r.rejected_delta_l >= 0.0
        assert r.trace[-1].component_count == 2
        assert {frozenset(toy_v4.x_ids(b)) for b in r.decomposition.blocks} == sets(
            ("x1", "x2", "x3", "x4", "x5", "x6"), ("x7",)
        )

    def test_connected_graph_returns_immediately(self):
        jr = JointRange.from_id_pairs([("s1", "x1"), ("s1", "x2"), ("s1", "x3")])
        r = algorithm2_min_istar(jr, CFG_U1)
        assert r.termination is Termination.SINGLE_COMPONENT
        assert len(r.trace) == 1 and len(r.quantization.clusters) == 3

    def test_each_merge_fuses_exactly_two_components(self):
        rng = random.Random(31)
        for _ in range(40):
            jr = random_joint_range(rng)
            r = algorithm2_min_istar(jr, LagrangianConfig(0.05, UtilityChoice.u1()))
            counts = [e.component_count for e in r.trace]
            assert all(a - b == 1 for a, b in zip(counts, counts[1:]))

    def test_a_merge_inside_one_component_is_refused(self, toy):
        # The toy's components are {x1, x2}, {x3, x4}, {x5}, {x6} and {x7}
        # (X indices 0 to 6). After x1 joins x3, neither x2 nor x4 may join
        # the fused cluster, and a refused merge leaves the state as it was.
        state = greedy._State(toy, UtilityChoice.u1(), CodewordPolicy.CENTROID, True)
        fused = state.merge(0, 2)
        comps, clusters = state.comps, dict(state.clusters)
        for other in (1, 3):
            with pytest.raises(AssertionError, match="not cross-component"):
                state.merge(fused, other)
            assert state.comps is comps and state.clusters == clusters
        assert [cids for *_, cids in comps] == [(1, 3, 0), (4,), (5,), (6,)]

    def test_within_component_merges_cannot_shrink_the_decomposition(self):
        # the candidate filter's justification, checked directly
        rng = random.Random(32)
        checked = 0
        while checked < 40:
            jr = random_joint_range(rng, with_values=False)
            dec = finest_decomposition(build_graph(jr, [{x} for x in range(jr.n_x)]))
            block = next((b for b in dec.blocks if len(b) >= 2), None)
            if block is None:
                continue
            a, b = sorted(block)[:2]
            merged = [{x} for x in range(jr.n_x) if x not in (a, b)] + [{a, b}]
            assert len(finest_decomposition(build_graph(jr, merged))) == len(dec)
            checked += 1


class TestZeroMaximin:
    def test_worked_example(self, toy):
        r = algorithm3_l0_zero_istar(toy, CFG_U1)
        assert id_clusters(toy, r.quantization) == sets(
            ("x1", "x6", "x7"), ("x2", "x3"), ("x4", "x5")
        )
        assert r.trace[-1].component_count == 1
        assert maximin_information(toy, r.quantization) == 0.0

    def test_output_always_single_component(self):
        rng = random.Random(33)
        for _ in range(40):
            jr = random_joint_range(rng)
            for u in (UtilityChoice.u1(), UtilityChoice.u2()):
                r = algorithm3_l0_zero_istar(jr, LagrangianConfig(0.3, u))
                assert maximin_information(jr, r.quantization) == 0.0

    def test_connected_input_returns_singletons(self):
        jr = JointRange.from_id_pairs([("s1", "x1"), ("s1", "x2"), ("s2", "x2")])
        r = algorithm3_l0_zero_istar(jr, CFG_U1)
        assert len(r.quantization.clusters) == 2
        assert maximin_information(jr, r.quantization) == 0.0

    @pytest.mark.parametrize("u", [UtilityChoice.u1(), UtilityChoice.u2()], ids=["u1", "u2"])
    def test_lambda_tree_steps_keep_their_buckets(self, u):
        # Merges build a new component record, so the walk's states share
        # it: a step keeps the buckets it was yielded with after the runs
        # through it merge further, on its own state or on a copy.
        rng = random.Random(16)
        pairs, x = set(), 0
        for c in range(12):  # component c holds S values 2c and 2c + 1
            for _ in range(rng.randint(1, 3)):
                pairs |= {(2 * c, x), (2 * c + rng.randrange(2), x)}
                x += 1
            pairs.add((2 * c + 1, x - 1))
        jr = JointRange(
            [Symbol(f"s{s}") for s in range(24)],
            [Symbol(f"x{i}", round(rng.uniform(0.0, 10.0), 2)) for i in range(x)], pairs,
        )
        cfgs = [LagrangianConfig(lam, u) for lam in default_lambda_grid()]
        walk = greedy._runs(jr, Problem.MIN_L0_ZERO_ISTAR, cfgs, [None] * len(cfgs))
        seen = [(runs, step, list(step.comps)) for runs, step in walk]
        assert len(seen[0][2]) == 12
        assert any(len(runs) < len(cfgs) for runs, _, _ in seen)  # the runs part
        for _, step, buckets in seen:
            assert step.comps == buckets


class TestRunContracts:
    def test_determinism(self, toy, toy_v4):
        for problem in Problem:
            a = run(toy, problem, CFG_U1)
            b = run(toy, problem, CFG_U1)
            assert [e.quantization.clusters for e in a.trace] == [
                e.quantization.clusters for e in b.trace
            ]
            assert [e.lagrangian for e in a.trace] == [e.lagrangian for e in b.trace]

    def test_u2_requires_numeric_values(self, toy):
        cfg = LagrangianConfig(0.3, UtilityChoice.u2())
        for fn in (algorithm1_min_l0, algorithm2_min_istar, algorithm3_l0_zero_istar):
            with pytest.raises(ConfigurationError):
                fn(toy, cfg)

    def test_strict_descent_and_trace_consistency(self):
        rng = random.Random(34)
        for _ in range(40):
            jr = random_joint_range(rng)
            for lam in (0.0, 0.3):
                for u in (UtilityChoice.u1(), UtilityChoice.u2()):
                    cfg = LagrangianConfig(lam, u)
                    r1 = algorithm1_min_l0(jr, cfg)
                    lags = [e.lagrangian for e in r1.trace]
                    assert all(b < a for a, b in zip(lags, lags[1:]))
                    # recorded Lagrangians agree with the independent measure path
                    for e in r1.trace:
                        assert e.lagrangian == pytest.approx(
                            lagrangian_l0(jr, e.quantization, cfg), abs=1e-9
                        )
                    r2 = algorithm2_min_istar(jr, cfg)
                    lags2 = [e.lagrangian for e in r2.trace]
                    assert all(b < a for a, b in zip(lags2, lags2[1:]))
                    for e in r2.trace:
                        expected = maximin_information(jr, e.quantization) - lam * utility(
                            jr, e.quantization, u
                        )
                        assert e.lagrangian == pytest.approx(expected, abs=1e-9)


def _trace_mismatches(jr, problem, cfg):
    """Trace states whose utility or Lagrangian differs bit-wise from a
    recompute on the state's quantization."""
    bad = []
    for e in run(jr, problem, cfg).trace:
        util = utility(jr, e.quantization, cfg.utility)
        if problem is Problem.MIN_ISTAR:
            lag = maximin_information(jr, e.quantization) - cfg.lam * util
        else:
            lag = lagrangian_l0(jr, e.quantization, cfg)
        if e.utility_value != util or e.lagrangian != lag:
            bad.append((problem, cfg, e.t, e.utility_value, util, e.lagrangian, lag))
    return bad


class TestTraceBitEquality:
    """Reported trace numbers recompute bit for bit from the quantization."""

    def test_worked_case(self):
        # 0.1 + 1.11 + 1.12 summed left to right is 2.3300000000000005; the
        # correctly rounded sum is 2.33, so a plain running sum reports the
        # last state's utility as -0.6766666666666669, not -0.6766666666666667.
        jr = JointRange.from_id_pairs(
            [("s0", "x0"), ("s1", "x1"), ("s2", "x2")], {"x0": 0.1, "x1": 1.11, "x2": 1.12}
        )
        cfg = LagrangianConfig(0.0, UtilityChoice.u2())
        for problem in Problem:
            assert _trace_mismatches(jr, problem, cfg) == []
        last = run(jr, Problem.MIN_ISTAR, cfg).trace[-1]
        assert (last.t, last.utility_value) == (2, -0.6766666666666667)

    def test_signed_zero_utilities(self):
        # The merged cluster of -0.0 and 0.0 costs a zero. The fast u2 cost
        # took its sign from the order of the two clusters, so the l0 trace
        # under the representative read [-0.0, 0.0] while utility() gives -0.0.
        jr = JointRange.from_id_pairs(
            [("s0", "a"), ("s1", "a"), ("s0", "b")], {"a": -0.0, "b": 0.0}
        )
        for problem in Problem:
            for policy in CodewordPolicy:
                cfg = LagrangianConfig(0.0, UtilityChoice.u2(), policy)
                trace = run(jr, problem, cfg).trace
                assert [math.copysign(1.0, e.utility_value) for e in trace] == [
                    math.copysign(1.0, utility(jr, e.quantization, cfg.utility)) for e in trace
                ], (problem, policy)
        cfg = LagrangianConfig(0.0, UtilityChoice.u2(), CodewordPolicy.REPRESENTATIVE)
        trace = run(jr, Problem.MIN_L0, cfg).trace
        assert [e.utility_value.hex() for e in trace] == ["-0x0.0p+0", "-0x0.0p+0"]

    def test_random_corpus(self):
        rng = random.Random(3141)
        bad = []
        for i in range(120):
            jr = random_joint_range(rng)
            if i % 2:
                # uniform floats carry a full 53-bit mantissa
                x_syms = [Symbol(x.id, rng.uniform(-10.0, 10.0)) for x in jr.x_symbols]
                jr = JointRange(jr.s_symbols, x_syms, jr.pairs)
            for problem in Problem:
                for policy in CodewordPolicy:
                    for lam in (0.0, 0.3, 2.5):
                        cfg = LagrangianConfig(lam, UtilityChoice.u2(), policy)
                        bad += _trace_mismatches(jr, problem, cfg)
        assert bad == []


class TestPartnerSearchWork:
    """Algorithm 1's indexed partner search scores a small share of the pairs
    that a scan of every live cluster scores, and picks the same partners."""

    @staticmethod
    def table() -> JointRange:
        rng = random.Random(150)
        n_s, n_x = 40, 150
        pairs = {(s, x) for x in range(n_x) for s in rng.sample(range(n_s), rng.randint(1, 3))}
        pairs |= {(s, rng.randrange(n_x)) for s in range(n_s)}
        x_syms = [Symbol(f"x{x}", round(rng.uniform(-50.0, 50.0), 1)) for x in range(n_x)]
        return JointRange([Symbol(f"s{s}") for s in range(n_s)], x_syms, pairs)

    @staticmethod
    def scored(jr, u, search):
        """The pair costs one algorithm-1 run scores, through the cost rule
        ``_State.pair_cost`` or through ``reference_pair_cost``, and its trace."""
        calls = 0

        def counting(score):
            def counted(*args):
                nonlocal calls
                calls += 1
                return score(*args)
            return counted

        with mock.patch.object(greedy._State, "pair_cost", counting(greedy._State.pair_cost)), \
                mock.patch.object(helpers, "reference_pair_cost",
                                  counting(helpers.reference_pair_cost)), \
                mock.patch.object(greedy, "_best_partner_min_l0", search):
            trace = run(jr, Problem.MIN_L0, LagrangianConfig(0.0, u)).trace
        return calls, [(e.merged, e.quantization) for e in trace]

    @pytest.mark.parametrize("u", [UtilityChoice.u1(), UtilityChoice.u2()], ids=["u1", "u2"])
    def test_indexed_rounds_score_few_pairs(self, u):
        jr = self.table()
        indexed, trace = self.scored(jr, u, greedy._best_partner_min_l0)
        full, reference_trace = self.scored(
            jr, u, lambda state, cid, index: reference_best_partner_min_l0(state, cid)
        )
        assert trace == reference_trace and len(trace) > 2
        assert indexed < full / 10


class TestComponentSearchWork:
    """Algorithms 2 and 3 score a small share of the cross-component pairs:
    each cluster starts one read of the components before its own, the read
    stops once no pair left in it can win, and algorithm 3 keeps only the
    pairs cheaper than every earlier one of their read."""

    @staticmethod
    def work(jr, problem, u):
        """Over one run at lambda 0: the pairs ``_State.pair_cost`` scores,
        the reads (the clusters ``_cross`` yields, each one read), the costs
        each read keeps in ``_generic_pairs``, and the cross-component pairs
        of the states searched."""
        calls, reads, kept, pairs = 0, 0, [], 0
        pair_cost, cross, generic, moves = (
            greedy._State.pair_cost, greedy._cross, greedy._generic_pairs, greedy._moves)

        def counted_cost(*args):
            nonlocal calls
            calls += 1
            return pair_cost(*args)

        def counted_cross(*args):
            nonlocal reads
            for found in cross(*args):
                reads += 1
                kept.append([])
                yield found

        def recorded(*args):
            for found in generic(*args):
                kept[-1].append(found[0])
                yield found

        def counted_moves(problem, state):
            nonlocal pairs
            ks = [len(cids) for *_, cids in state.comps]
            pairs += (sum(ks) ** 2 - sum(k * k for k in ks)) // 2
            return moves(problem, state)

        with mock.patch.object(greedy._State, "pair_cost", counted_cost), \
                mock.patch.object(greedy, "_cross", counted_cross), \
                mock.patch.object(greedy, "_generic_pairs", recorded), \
                mock.patch.object(greedy, "_moves", counted_moves):
            run(jr, problem, LagrangianConfig(0.0, u))
        return calls, reads, kept, pairs

    @pytest.mark.parametrize(("problem", "u", "expected"), [
        (Problem.MIN_ISTAR, UtilityChoice.u1(), (64, 0, 0, 172691)),
        (Problem.MIN_ISTAR, UtilityChoice.u2(), (1268, 2884, 0, 193535)),
        (Problem.MIN_L0_ZERO_ISTAR, UtilityChoice.u1(), (3091, 2413, 2467, 172691)),
        (Problem.MIN_L0_ZERO_ISTAR, UtilityChoice.u2(), (11348, 2413, 3280, 172691)),
    ], ids=["istar-u1", "istar-u2", "l0-zero-istar-u1", "l0-zero-istar-u2"])
    def test_component_searches_score_few_pairs(self, problem, u, expected):
        # The counts pin the searches' stops: a read that goes on past the
        # least cost its cluster can have scores more pairs, a walk that
        # stops on a tie scores fewer, and reads from the first component,
        # which has no component before it, are more. Under resolution
        # utility algorithm 2 scores only its merges.
        # A search once read each pair of components apart, one read per
        # cluster of the smaller: istar-u2 walked 48,494 times to score
        # 1,302 pairs, and l0-zero-istar scored 48,636 (u1) and 59,160 (u2)
        # pairs in 47,478 reads. Now each cluster reads every component
        # before its own at once, so it starts one read per state, its
        # running least cost spans those components and its stop ends the
        # whole read. istar-u2 meets its pairs in another order, so its
        # least cost so far falls at another pace (1,302 -> 1,268 pairs).
        jr = helpers.sparse_joint_range(random.Random("component-search-work"), 120)
        calls, reads, kept, pairs = self.work(jr, problem, u)
        assert (calls, reads, sum(map(len, kept)), pairs) == expected
        assert calls < pairs / 2
        assert all(a > b for costs in kept for a, b in zip(costs, costs[1:]))


class TestCrossReader:
    """``greedy._cross`` meets each cross-component pair once, from the
    cluster of the later component, and hands out sorted entries."""

    @staticmethod
    def states(jr, problem, u):
        """A snapshot of each state a run at lambda 0 searches."""
        found, moves = [], greedy._moves

        def recorded(problem, state):
            found.append(state.copy())  # clusters and ``comps`` are never changed in place
            return moves(problem, state)

        with mock.patch.object(greedy, "_moves", recorded):
            run(jr, problem, LagrangianConfig(0.0, u))
        return found

    @pytest.mark.parametrize("u", [UtilityChoice.u1(), UtilityChoice.u2()], ids=["u1", "u2"])
    @pytest.mark.parametrize("problem", [Problem.MIN_ISTAR, Problem.MIN_L0_ZERO_ISTAR],
                             ids=["istar", "l0-zero-istar"])
    def test_reader_meets_each_cross_pair_once(self, problem, u):
        rng = random.Random(f"cross-reader-{problem.value}-{u.kind.value}")
        jr = helpers.sparse_joint_range(rng, 40)
        states, tied = self.states(jr, problem, u), False
        assert len(states) > 10
        for state in states:
            sizes = [size for size, _, _ in state.comps]
            tied |= len(set(sizes)) < len(sizes)
            expected = {(a, b): tie for a, b, tie in helpers.reference_cross_component_pairs(state)}
            for skip in (set(), set(rng.sample(sorted(state.clusters), 2))):
                met = []
                for sx, x, seen in greedy._cross(
                        state, lambda size, c: (c.smask.bit_count(), size, c.cid), skip):
                    assert seen == sorted(seen)
                    for _, sy, y in seen:
                        a, b = min(x.cid, y), max(x.cid, y)
                        met.append((a, b, (sy, sx, a, b)))
                assert len(met) == len(set(met))
                assert not any(a in skip or b in skip for a, b, _ in met)
                assert {(a, b): tie for a, b, tie in met} == {
                    pair: tie for pair, tie in expected.items() if not skip & set(pair)}
        assert tied  # some state holds components of equal size
