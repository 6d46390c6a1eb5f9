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
    SizeLimitError,
    TOLERANCE,
    UtilityChoice,
    algorithm2_min_istar,
    algorithm3_l0_zero_istar,
    enumerate_partitions,
    lagrangian_l0,
    maximin_information,
    oracle_min,
)
from privquant import oracle as oracle_module
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

    def test_all_nan_objectives_are_a_configuration_error(self):
        # Two X symbols with disjoint S-ranges: the one connected partition
        # merges both, and a distance infinite between unequal values makes
        # its objective privacy - 0.0 * -inf, NaN.
        jr = JointRange.from_id_pairs([("s", "a"), ("t", "b")], {"a": 1.0, "b": 2.0})
        cfg = LagrangianConfig(0.0, UtilityChoice.u2(lambda a, b: 0.0 if a == b else math.inf))
        with pytest.raises(ConfigurationError, match="NaN"):
            oracle_min(jr, Problem.MIN_L0_ZERO_ISTAR, cfg)

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


def _squared(a, b):
    return (a - b) ** 2


UTILITIES = (UtilityChoice.u1(), UtilityChoice.u2(), UtilityChoice.u2(_squared))


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
            for rgs, blocks in _walk_partitions(n):
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
        assert checked == 180 and infeasible > 0

    def test_matches_reference_at_nine_symbols(self):
        rng = random.Random(909)
        checked = 0
        for problem, u in zip(Problem, UTILITIES):
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

    @pytest.mark.parametrize(
        "distance",
        [lambda a, b: 0.0, lambda a, b: -abs(a - b), lambda a, b: math.nan if a > 5 else 1.0],
        ids=["zero", "negative", "nan"],
    )
    def test_degenerate_distances_match_reference(self, distance):
        rng = random.Random(77)
        for _ in range(4):
            jr = random_joint_range(rng, max_s=5, max_x=6)
            for problem in Problem:
                cfg = LagrangianConfig(0.3, UtilityChoice.u2(distance))
                for theta in (None, -0.5):
                    assert _outcome(oracle_min, jr, problem, cfg, theta) == _outcome(
                        reference_oracle_min, jr, problem, cfg, theta
                    )


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
        assert checked == 216 and infeasible > 36

    @staticmethod
    def _counting_walks(monkeypatch) -> list[list]:
        """Wrap the oracle's walker; each walk appends [alive is None, yields]."""
        walks = []
        walk = oracle_module._walk_partitions

        def counting(n, alive=None):
            walks.append([alive is None, 0])
            for item in walk(n, alive):
                walks[-1][1] += 1
                yield item

        monkeypatch.setattr(oracle_module, "_walk_partitions", counting)
        return walks

    # Eight symbols on one S value with values 0..7: under u2 with the
    # absolute distance, theta -1 keeps the partitions into runs of at most
    # three neighbours, a small corner of the 4,140.
    EIGHT = JointRange.from_id_pairs(
        [("s", f"x{i}") for i in range(8)], {f"x{i}": float(i) for i in range(8)}
    )

    def test_theta_query_walks_far_fewer_partitions(self, monkeypatch):
        walks = self._counting_walks(monkeypatch)
        cfg = LagrangianConfig(0.3, UtilityChoice.u2())
        res = oracle_min(self.EIGHT, Problem.MIN_L0, cfg, theta=-1.0)
        assert len(walks) == 1 and not walks[0][0]
        assert walks[0][1] < bell_numbers(8)[-1] // 10
        assert repr(res) == repr(reference_oracle_min(self.EIGHT, Problem.MIN_L0, cfg, theta=-1.0))
        oracle_min(self.EIGHT, Problem.MIN_L0, cfg)
        assert walks[1] == [True, bell_numbers(8)[-1]]

    def test_infeasible_query_walks_everything_once(self, monkeypatch):
        walks = self._counting_walks(monkeypatch)
        cfg = LagrangianConfig(0.3, UtilityChoice.u1())
        with pytest.raises(InfeasibleError) as exc:
            oracle_min(self.EIGHT, Problem.MIN_L0, cfg, theta=10.0)
        assert exc.value.max_achievable == 3.0
        assert walks == [[False, 0], [True, bell_numbers(8)[-1]]]
