import math
import random

import pytest

from helpers import (
    blocks_from_rgs,
    random_joint_range,
    random_quantization,
    reference_oracle_min,
    reference_rgs_strings,
)
from privquant import (
    CodewordPolicy,
    ConfigurationError,
    ContractViolation,
    InfeasibleError,
    JointRange,
    LagrangianConfig,
    Problem,
    Quantization,
    SizeLimitError,
    TOLERANCE,
    UtilityChoice,
    algorithm2_min_istar,
    algorithm3_l0_zero_istar,
    enumerate_partitions,
    h0,
    lagrangian_l0,
    maximin_information,
    oracle_min,
)
from privquant import oracle as oracle_module
from privquant.graph import components
from privquant.oracle import _walk_partitions
from privquant.quantize import utility

CFG = LagrangianConfig(0.3, UtilityChoice.u1())


def bell_numbers(up_to: int) -> list[int]:
    """Independent Bell-number oracle via the Bell triangle.

    Row n starts with the previous row's last entry and each entry adds its
    upper-left neighbor; Bell(n) is the last entry of row n.
    """
    row = [1]
    bells = [1]
    for _ in range(up_to - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[-1])
    return bells


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_partitions(1)) == 1
        assert sum(1 for _ in enumerate_partitions(3)) == 5
        assert sum(1 for _ in enumerate_partitions(7)) == 877

    def test_counts_match_bell_triangle(self):
        bells = bell_numbers(8)
        for n in range(1, 9):
            assert sum(1 for _ in enumerate_partitions(n)) == bells[n - 1]

    def test_unique_and_lexicographic(self):
        seen = list(enumerate_partitions(5))
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)
        assert seen[0] == (0, 0, 0, 0, 0)  # all-in-one comes first

    def test_restricted_growth_shape(self):
        for rgs in enumerate_partitions(6):
            assert rgs[0] == 0
            running = 0
            for v in rgs:
                assert v <= running + 1
                running = max(running, v)

    def test_size_guards(self):
        with pytest.raises(SizeLimitError):
            next(enumerate_partitions(13))
        with pytest.raises(ContractViolation):
            next(enumerate_partitions(0))


class TestOracleMin:
    def test_istar_lagrangian_never_beats_greedy(self, toy):
        res = oracle_min(toy, Problem.MIN_ISTAR, CFG)
        greedy = algorithm2_min_istar(toy, CFG)
        last = greedy.trace[-1]
        greedy_value = math.log2(last.component_count) - CFG.lam * last.utility_value
        assert res.value <= greedy_value + 1e-9
        assert res.optima_count >= 1

    def test_full_utility_theta_forces_singletons(self, toy):
        res = oracle_min(toy, Problem.MIN_L0, CFG, theta=math.log2(7))
        assert len(res.quantization.clusters) == 7
        assert res.value == pytest.approx(2.584962500721156, abs=1e-9)

    def test_zero_istar_never_beats_constrained_greedy(self, toy):
        res = oracle_min(toy, Problem.MIN_L0_ZERO_ISTAR, CFG)
        greedy = algorithm3_l0_zero_istar(toy, CFG)
        assert res.value <= lagrangian_l0(toy, greedy.quantization, CFG) + 1e-9

    def test_zero_istar_witness_is_indistinguishable(self, toy):
        res = oracle_min(toy, Problem.MIN_L0_ZERO_ISTAR, CFG)
        assert maximin_information(toy, res.quantization) == 0.0

    def test_infeasible_theta_reports_best_achievable(self, toy):
        with pytest.raises(InfeasibleError) as exc:
            oracle_min(toy, Problem.MIN_L0, CFG, theta=10.0)
        assert exc.value.max_achievable == pytest.approx(math.log2(7), abs=1e-9)

    def test_nan_theta_is_a_configuration_error(self, toy):
        with pytest.raises(ConfigurationError, match="NaN"):
            oracle_min(toy, Problem.MIN_L0, CFG, theta=math.nan)
        # Infinite thresholds keep their meaning: no constraint, or none reachable.
        assert oracle_min(toy, Problem.MIN_L0, CFG, theta=-math.inf).value == 0.0
        with pytest.raises(InfeasibleError):
            oracle_min(toy, Problem.MIN_L0, CFG, theta=math.inf)

    def test_size_cap(self):
        jr = JointRange.from_id_pairs([("s0", f"x{i}") for i in range(13)])
        with pytest.raises(SizeLimitError):
            oracle_min(jr, Problem.MIN_L0, CFG)

    def test_witness_achieves_reported_value(self, toy):
        for problem in Problem:
            res = oracle_min(toy, problem, CFG)
            if problem is Problem.MIN_ISTAR:
                achieved = maximin_information(toy, res.quantization) - CFG.lam * _u1(
                    toy, res.quantization
                )
            else:
                achieved = lagrangian_l0(toy, res.quantization, CFG)
            assert achieved == pytest.approx(res.value, abs=1e-9)

    def test_u2_oracle_respects_codewords(self, toy_v):
        cfg = LagrangianConfig(2.5, UtilityChoice.u2())
        res = oracle_min(toy_v, Problem.MIN_L0, cfg)
        assert res.value <= lagrangian_l0(toy_v, res.quantization, cfg) + 1e-9


def _u1(jr, q):
    from privquant import UtilityChoice, utility

    return utility(jr, q, UtilityChoice.u1())


class TestGreedyNeverBeatsOracle:
    def test_small_random_instances(self):
        rng = random.Random(99)
        for _ in range(15):
            jr = random_joint_range(rng, max_s=5, max_x=6)
            cfg = LagrangianConfig(0.3, UtilityChoice.u1())
            from privquant import algorithm1_min_l0

            g1 = algorithm1_min_l0(jr, cfg)
            o1 = oracle_min(jr, Problem.MIN_L0, cfg)
            assert lagrangian_l0(jr, g1.quantization, cfg) >= o1.value - 1e-9

            g2 = algorithm2_min_istar(jr, cfg)
            o2 = oracle_min(jr, Problem.MIN_ISTAR, cfg)
            last = g2.trace[-1]
            val2 = math.log2(last.component_count) - cfg.lam * last.utility_value
            assert val2 >= o2.value - 1e-9

            g3 = algorithm3_l0_zero_istar(jr, cfg)
            o3 = oracle_min(jr, Problem.MIN_L0_ZERO_ISTAR, cfg)
            assert lagrangian_l0(jr, g3.quantization, cfg) >= o3.value - 1e-9


class TestOnePassOracle:
    """The one-pass oracle equals the two-pass reference, ties included."""

    def test_matches_two_pass_reference(self):
        rng = random.Random(31)
        checked = infeasible = 0
        for _ in range(12):
            jr = random_joint_range(rng, max_s=6, max_x=7)
            for problem in Problem:
                for u in (UtilityChoice.u1(), UtilityChoice.u2()):
                    for policy in CodewordPolicy:
                        cfg = LagrangianConfig(rng.choice([0.0, 0.3, 2.5]), u, policy)
                        theta = rng.choice([None, None, -2.0, 0.5, 3.0])
                        outcomes = []
                        for oracle in (oracle_min, reference_oracle_min):
                            try:
                                outcomes.append(repr(oracle(jr, problem, cfg, theta=theta)))
                            except InfeasibleError as exc:
                                outcomes.append(("infeasible", exc.max_achievable))
                        assert outcomes[0] == outcomes[1], (problem, u.kind, policy, theta)
                        checked += 1
                        infeasible += isinstance(outcomes[0], tuple)
        assert checked == 144 and infeasible > 0

    def test_near_tie_found_before_the_optimum_is_the_witness(self):
        # {a,b},{c,d} (RGS 0,0,1,1) is enumerated before the optimum
        # {a,b},{c},{d} (RGS 0,0,1,2) and is worse by 5e-13, inside TOLERANCE.
        # The value is the witness's own objective, not the optimum's 0.5.
        pairs = [("s0", "a"), ("s1", "b"), ("s0", "c"), ("s1", "c"), ("s0", "d"), ("s1", "d")]
        jr = JointRange.from_id_pairs(pairs, {"a": 0.0, "b": 1.0, "c": 10.0, "d": 11.000000000001})
        cfg = LagrangianConfig(1.0, UtilityChoice.u2())
        res = oracle_min(jr, Problem.MIN_L0, cfg)
        assert res.optima_count == 2
        assert res.quantization.clusters == (frozenset({0, 1}), frozenset({2, 3}))
        assert res.value == lagrangian_l0(jr, res.quantization, cfg)
        assert 0.5 < res.value <= 0.5 + TOLERANCE
        assert repr(res) == repr(reference_oracle_min(jr, Problem.MIN_L0, cfg))

    def test_value_is_the_objective_of_its_witness(self):
        # The singletons score 0.0; the one-cluster witness (RGS 0,0) comes
        # first and scores 1e-10 * 0.5 = 5e-11, inside TOLERANCE of it.
        jr = JointRange.from_id_pairs([("s", "a"), ("s", "b")], {"a": 0.0, "b": 1.0})
        cfg = LagrangianConfig(1e-10, UtilityChoice.u2())
        res = oracle_min(jr, Problem.MIN_L0, cfg)
        assert res.quantization.clusters == (frozenset({0, 1}),)
        assert (res.value, res.optima_count) == (5e-11, 2)
        assert res.value == lagrangian_l0(jr, res.quantization, cfg)
        assert repr(res) == repr(reference_oracle_min(jr, Problem.MIN_L0, cfg))


UTILITIES = (UtilityChoice.u1(), UtilityChoice.u2())


def _outcome(oracle, jr, problem, cfg, theta):
    try:
        return repr(oracle(jr, problem, cfg, theta=theta))
    except InfeasibleError as exc:
        return ("infeasible", str(exc), exc.max_achievable)
    except ConfigurationError as exc:
        return ("configuration", str(exc))


class TestIncrementalOracle:
    """The block-table oracle equals the re-scoring reference, and its walker
    enumerates exactly what ``enumerate_partitions`` always did."""

    def test_enumeration_is_every_rgs_in_lexicographic_order(self):
        for n in range(1, 10):
            assert list(enumerate_partitions(n)) == reference_rgs_strings(n)

    def test_walker_block_masks_match_blocks_from_rgs(self):
        for n in range(1, 10):
            walked = 0
            for rgs, blocks in _walk_partitions(n, [-math.inf] * (1 << n)):
                expected = [sum(1 << x for x in b) for b in blocks_from_rgs(tuple(rgs))]
                assert blocks == expected, rgs
                walked += 1
            assert walked == bell_numbers(n)[-1]

    def test_matches_reference_on_seeded_corpus(self):
        rng = random.Random(2024)
        checked = infeasible = 0
        for _ in range(5):
            jr = random_joint_range(rng, max_s=6, max_x=7)
            for problem in Problem:
                for u in UTILITIES:
                    for policy in CodewordPolicy:
                        cfg = LagrangianConfig(rng.choice([0.0, 0.3, 2.5]), u, policy)
                        for theta in (None, rng.choice([-20.0, -2.0, 0.5, 3.0])):
                            outcomes = [
                                _outcome(oracle, jr, problem, cfg, theta)
                                for oracle in (oracle_min, reference_oracle_min)
                            ]
                            assert outcomes[0] == outcomes[1], (problem, u, policy, theta)
                            checked += 1
                            infeasible += isinstance(outcomes[0], tuple)
        assert checked == 120 and infeasible > 0

    def test_matches_reference_at_nine_symbols(self):
        rng = random.Random(909)
        checked = 0
        for problem, u in zip(Problem, UTILITIES * 2):
            jr = random_joint_range(rng, max_s=7, max_x=9)
            while jr.n_x != 9:
                jr = random_joint_range(rng, max_s=7, max_x=9)
            cfg = LagrangianConfig(0.3, u, rng.choice(list(CodewordPolicy)))
            for theta in (None, rng.choice([0.5, -1.0])):
                assert _outcome(oracle_min, jr, problem, cfg, theta) == _outcome(
                    reference_oracle_min, jr, problem, cfg, theta
                ), (problem, u, theta)
                checked += 1
        assert checked == 6


def _ranges(*s_ranges: str, values=None) -> JointRange:
    """A table whose i-th X symbol ``x<i>`` has the S-range ``s_ranges[i]`` (one
    letter per S value) and the value ``values[i]`` (default ``i``)."""
    values = values or range(len(s_ranges))
    return JointRange.from_id_pairs(
        [(s, f"x{i}") for i, letters in enumerate(s_ranges) for s in letters],
        {f"x{i}": float(v) for i, v in enumerate(values)},
    )


class TestLeafScoring:
    """Each partition is scored from its parent, the partition of all symbols
    but the last: the edge cases of that step, against the re-scoring reference."""

    TABLES = {
        # The parent of every partition of one symbol is empty.
        "one symbol": _ranges("ab"),
        "one symbol on one S value": _ranges("a"),
        "two symbols apart": _ranges("a", "b", values=(0, 5)),
        "two symbols overlapping": _ranges("a", "ab"),
        # The last symbol's S-range covers every other: parents {0},{1},{2},{3}
        # tie on the greatest leak, and the last symbol joins one of the holders.
        "tied leaks": _ranges("a", "b", "c", "d", "abcd"),
        # Symbol 3 alone holds the greatest leak of parent {0,1,2},{3}; the last
        # symbol, joining it, takes the block's leak below the others'.
        "one leak holder": _ranges("ab", "bc", "ca", "d", "abc"),
        # Blocks {0,1} and {2,3} tie on the least utility (u1 sizes, u2 spreads);
        # the last symbol sits between them. Its S-range misses symbol 0's
        # component, so joining {0,1} merges two components.
        "tied utilities": _ranges("a", "a", "b", "b", "c", values=(0, 1, 10, 11, 5)),
        # Blocks {0,1,2} (values 0, 3, 3) and {3,4} (10, 14) tie on the least u2
        # utility, -2 under the centroid; the last symbol (0) joining {0,1,2}
        # raises that block's utility to -1.5, so the tie still binds.
        "tied utilities, one raised": _ranges("a", "b", "c", "d", "e", "f",
                                              values=(0, 3, 3, 10, 14, 0)),
        "chain": _ranges("ab", "bc", "cd", "de", "ea", values=(0, 3, 1, 4, 2)),
        "components the last symbol misses": _ranges("a", "b", "a", "c", "bc"),
        # u2 block utilities, each built from the block without its least member.
        # fsum([0.1] * 3) / 3 is 0.10000000000000002, a centroid above every member.
        "centroid outside its values": _ranges("a", "b", "ab", values=(0.1, 0.1, 0.1)),
        # Zero spreads of either sign, whose costs fold to +0.0.
        "signed zeros": _ranges("a", "ab", "b", "c", values=(-0.0, 0.0, -0.0, 0.0)),
        # The representative (least member) is neither the least nor the greatest value.
        "representative inside its values": _ranges("ab", "b", "c", "ca", values=(3, 0, 5, 1)),
        "large magnitudes": _ranges("a", "b", "ab", values=(1e16, 1.0, 1.0)),
        # One block, the optimum at lambda 0.3: a running float sum from the last
        # member makes its cost 0.6766666666666669, the exact sum 0.6766666666666667.
        "exact value sums": _ranges("a", "b", "c", values=(0.1, 1.11, 1.12)),
    }
    @pytest.mark.parametrize("name", TABLES)
    def test_matches_reference(self, name):
        jr = self.TABLES[name]
        kinds = set()
        for problem in Problem:
            for u in UTILITIES:
                for policy in CodewordPolicy:
                    whole = Quantization.from_clusters(jr, [range(jr.n_x)], policy)
                    one_block = utility(jr, whole, u)
                    for lam, theta in ((0.0, None), (0.3, None), (0.3, one_block),
                                       (0.3, h0(jr.n_x) + 1.0), (0.3, -math.inf)):
                        cfg = LagrangianConfig(lam, u, policy)
                        outcomes = [
                            _outcome(oracle, jr, problem, cfg, theta)
                            for oracle in (oracle_min, reference_oracle_min)
                        ]
                        assert outcomes[0] == outcomes[1], (problem, u, policy, lam, theta)
                        kinds.add(outcomes[0][0] if isinstance(outcomes[0], tuple) else "result")
        assert {"result", "infeasible"} <= kinds


class TestThetaPruning:
    """A theta query walks only prefixes that can still meet theta, and
    answers exactly as the unpruned reference does."""

    def test_boundary_thetas_match_reference(self):
        rng = random.Random(4141)
        checked = infeasible = 0
        for max_x in (5, 7):
            jr = random_joint_range(rng, max_s=6, max_x=max_x)
            while jr.n_x != max_x:
                jr = random_joint_range(rng, max_s=6, max_x=max_x)
            for problem in Problem:
                for u in UTILITIES:
                    for policy in CodewordPolicy:
                        cfg = LagrangianConfig(0.3, u, policy)
                        q = random_quantization(rng, jr, policy)
                        v = utility(jr, q, u)
                        thetas = (v, v - TOLERANCE, v + TOLERANCE,
                                  math.nextafter(v + TOLERANCE, math.inf), -math.inf, math.inf)
                        for theta in thetas:
                            outcomes = [
                                _outcome(oracle, jr, problem, cfg, theta)
                                for oracle in (oracle_min, reference_oracle_min)
                            ]
                            assert outcomes[0] == outcomes[1], (problem, u, policy, theta)
                            checked += 1
                            infeasible += isinstance(outcomes[0], tuple)
        # Some boundary theta is infeasible too, not only the 24 infinite ones.
        assert checked == 144 and infeasible > 24

    @staticmethod
    def _counting_walks(monkeypatch) -> list[list]:
        """Wrap the oracle's walker; each walk appends [n, yields].

        A query walks the partitions of all symbols but the last (its parents,
        at most Bell(7) = 877 at eight symbols) and scores their leaves inline;
        the diagnostic of an infeasible theta walks all eight symbols.
        """
        walks = []
        walk = oracle_module._walk_partitions

        def counting(n, bound, cut=(math.inf,)):
            walks.append([n, 0])
            for item in walk(n, bound, cut):
                walks[-1][1] += 1
                yield item

        monkeypatch.setattr(oracle_module, "_walk_partitions", counting)
        return walks

    # Eight symbols on one S value with values 0..7: under u2, theta -1 keeps
    # the partitions into runs of at most three neighbours, 179 of the 4,140,
    # under 87 of the 877 parents. At lambda 0.3 the singletons (objective 0)
    # come late in RGS order, yet the running optimum cuts the walk to 44 parents.
    EIGHT = JointRange.from_id_pairs(
        [("s", f"x{i}") for i in range(8)], {f"x{i}": float(i) for i in range(8)}
    )

    def test_theta_query_walks_far_fewer_partitions(self, monkeypatch):
        # The references run before the counter goes in: they walk through
        # ``enumerate_partitions``, which uses the same walker.
        cfg = LagrangianConfig(0.3, UtilityChoice.u2())
        expected = [repr(reference_oracle_min(self.EIGHT, Problem.MIN_L0, cfg, theta=theta))
                    for theta in (-1.0, None)]
        walks = self._counting_walks(monkeypatch)
        res = oracle_min(self.EIGHT, Problem.MIN_L0, cfg, theta=-1.0)
        assert walks == [[7, 87]]
        assert res.optima_count == 179
        assert repr(res) == expected[0]
        assert repr(oracle_min(self.EIGHT, Problem.MIN_L0, cfg)) == expected[1]
        assert walks == [[7, 87], [7, 44]]

    def test_infeasible_query_diagnostic_is_a_bounded_walk(self, monkeypatch):
        # The query walks no parent; the diagnostic skips every prefix whose
        # reachable utility is below the best so far: 970 of the 4,140 partitions.
        walks = self._counting_walks(monkeypatch)
        cfg = LagrangianConfig(0.3, UtilityChoice.u1())
        with pytest.raises(InfeasibleError) as exc:
            oracle_min(self.EIGHT, Problem.MIN_L0, cfg, theta=10.0)
        assert exc.value.max_achievable == 3.0
        assert walks == [[7, 0], [8, 970]]

    # Twelve symbols, the cap: five components over six S values, values 1..12.
    TWELVE = JointRange.from_id_pairs(
        [(s, f"x{x}") for s, x in (
            ("s1", 1), ("s1", 2), ("s2", 1), ("s3", 3), ("s3", 4), ("s4", 5), ("s5", 6),
            ("s6", 7), ("s6", 8), ("s1", 9), ("s2", 10), ("s3", 11), ("s4", 12))],
        {f"x{x}": float(x) for x in range(1, 13)},
    )
    # max_achievable of the exhaustive diagnostic, by problem, utility and policy;
    # u1 does not read codewords. u2's -0.0 is compared by repr.
    TWELVE_BEST = {
        (Problem.MIN_L0, "u1"): (3.584962500721156,) * 2,
        (Problem.MIN_ISTAR, "u1"): (3.584962500721156,) * 2,
        (Problem.MIN_L0_ZERO_ISTAR, "u1"): (2.584962500721156,) * 2,
        (Problem.MIN_L0, "u2"): (-0.0, -0.0),
        (Problem.MIN_ISTAR, "u2"): (-0.0, -0.0),
        (Problem.MIN_L0_ZERO_ISTAR, "u2"): (-0.5, -1.0),
    }

    @pytest.mark.parametrize("problem", list(Problem), ids=lambda p: p.value)
    @pytest.mark.parametrize("u_name", ["u1", "u2"])
    def test_infeasible_diagnostic_at_the_symbol_cap(self, monkeypatch, problem, u_name):
        walks = self._counting_walks(monkeypatch)
        u, theta = {"u1": (UtilityChoice.u1(), 10.0), "u2": (UtilityChoice.u2(), 1.0)}[u_name]
        for policy, best in zip(CodewordPolicy, self.TWELVE_BEST[problem, u_name]):
            walks.clear()
            with pytest.raises(InfeasibleError) as exc:
                oracle_min(self.TWELVE, problem, LagrangianConfig(0.3, u, policy), theta=theta)
            assert repr(exc.value.max_achievable) == repr(best), policy
            assert str(exc.value) == (
                f"no quantization satisfies the constraint; best achievable utility is {best:.6g}")
            # Bell(12) is 4,213,597; the diagnostic yields a few percent at most.
            assert walks[0] == [11, 0] and walks[1][0] == 12
            assert walks[1][1] <= 200_000, (policy, walks)

    def test_infeasible_diagnostic_matches_reference_at_nine_symbols(self):
        # Nine symbols in more than one component, so the singletons are not
        # connected and l0-zero-istar's best utility is not l0's.
        rng = random.Random(9009)
        jr = random_joint_range(rng, max_s=7, max_x=9)
        while jr.n_x != 9 or len(components([jr.cond_mask_x(x) for x in range(9)])) == 1:
            jr = random_joint_range(rng, max_s=7, max_x=9)
        best = {}
        for problem in Problem:
            for u, theta in ((UtilityChoice.u1(), 10.0), (UtilityChoice.u2(), 1.0)):
                for policy in CodewordPolicy:
                    cfg = LagrangianConfig(0.3, u, policy)
                    outcomes = [_outcome(oracle, jr, problem, cfg, theta)
                                for oracle in (oracle_min, reference_oracle_min)]
                    assert outcomes[0][0] == "infeasible", (problem, u, policy)
                    assert repr(outcomes[0]) == repr(outcomes[1]), (problem, u, policy)
                    best[problem, u.kind, policy] = outcomes[0][2]
        assert len(best) == 12
        for key, value in best.items():
            if key[0] is Problem.MIN_L0_ZERO_ISTAR:
                assert value < best[(Problem.MIN_L0, *key[1:])], key


class TestBranchAndBound:
    """A lambda query skips every prefix whose objective bound passes the
    running optimum + TOLERANCE, and answers exactly as the reference does."""

    def test_matches_reference_at_zero_and_overflowing_lambdas(self):
        # At lambda 1e308, lam * utility overflows: to -inf under u1 (from 4
        # symbols on), so objectives and bounds are -inf, and to +inf under u2
        # for any positive distortion. Every bound must stay at or below the
        # objective of every completion.
        rng = random.Random(308)
        values = set()
        for n_x in (4, 6, 8):
            jr = random_joint_range(rng, max_s=6, max_x=n_x)
            while jr.n_x != n_x:
                jr = random_joint_range(rng, max_s=6, max_x=n_x)
            for problem in Problem:
                for u in UTILITIES:
                    for policy in CodewordPolicy:
                        for lam in (0.0, 1e308):
                            cfg = LagrangianConfig(lam, u, policy)
                            res = oracle_min(jr, problem, cfg)
                            assert repr(res) == repr(reference_oracle_min(jr, problem, cfg)), (
                                n_x, problem, u, policy, lam)
                            values.add(res.value)
        assert -math.inf in values
