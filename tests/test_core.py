import math
import random
import re

import pytest

from helpers import clusters_by_id, make_toy, random_joint_range, random_partition, s_ids
from privquant import (
    ContractViolation,
    JointRange,
    Symbol,
    b0,
    cond_range_cluster,
    cond_range_x,
    h0,
    i0_forward,
    is_k_anonymous,
    l0,
)

LOG2_6 = 2.584962500721156
LOG2_7 = 2.807354922057604


def ids_of(jr, s_indices):
    return set(s_ids(jr, s_indices))


class TestJointRangeConstruction:
    def test_minimal(self):
        jr = JointRange([Symbol("s1")], [Symbol("x1")], [(0, 0)])
        assert jr.n_s == 1 and jr.n_x == 1

    def test_rejects_empty_pairs(self):
        with pytest.raises(ContractViolation):
            JointRange([Symbol("s1")], [Symbol("x1")], [])

    def test_rejects_uncovered_symbols(self):
        with pytest.raises(ContractViolation):
            JointRange([Symbol("s1"), Symbol("s2")], [Symbol("x1")], [(0, 0)])
        with pytest.raises(ContractViolation):
            JointRange([Symbol("s1")], [Symbol("x1"), Symbol("x2")], [(0, 0)])

    def test_rejects_duplicate_or_empty_ids(self):
        with pytest.raises(ContractViolation):
            JointRange([Symbol("a"), Symbol("a")], [Symbol("x")], [(0, 0), (1, 0)])
        with pytest.raises(ContractViolation):
            JointRange([Symbol("")], [Symbol("x")], [(0, 0)])

    @pytest.mark.parametrize(
        "pair", [(0, 5), (0.9, 0), ("1", 0), (True, 0)], ids=["out-of-range", "float", "str", "bool"]
    )
    def test_rejects_out_of_range_pairs(self, pair):
        # Only int indices are indices: 0.9, "1" and True are not truncated or parsed.
        with pytest.raises(ContractViolation, match=re.escape(f"pair {pair!r}")):
            JointRange([Symbol("s1"), Symbol("s2")], [Symbol("x1")], [(0, 0), (1, 0), pair])

    def test_from_id_pairs_first_appearance_order(self):
        jr = JointRange.from_id_pairs([("b", "y"), ("a", "y"), ("a", "z")])
        assert [s.id for s in jr.s_symbols] == ["b", "a"]
        assert [x.id for x in jr.x_symbols] == ["y", "z"]

    def test_from_id_pairs_rejects_unknown_value_ids(self):
        with pytest.raises(ContractViolation):
            JointRange.from_id_pairs([("a", "x")], {"nope": 1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_from_id_pairs_rejects_non_finite_values(self, bad):
        with pytest.raises(ContractViolation):
            JointRange.from_id_pairs([("a", "x"), ("b", "y")], {"x": 1.0, "y": bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_constructor_rejects_non_finite_values(self, bad):
        with pytest.raises(ContractViolation, match="X symbol 'a' has a non-finite value"):
            JointRange(
                [Symbol("s0"), Symbol("s1")], [Symbol("a", bad), Symbol("b", 1.0)], [(0, 0), (1, 1)]
            )

    def test_constructor_rejects_values_whose_magnitudes_overflow(self):
        huge = [Symbol("a", 1.7e308), Symbol("b", -1.7e308)]
        with pytest.raises(ContractViolation, match="too large"):
            JointRange([Symbol("s0")], huge, [(0, 0), (0, 1)])


class TestConditionalRanges:
    def test_single_observation(self, toy):
        assert ids_of(toy, cond_range_x(toy, 0)) == {"s1", "s2"}  # x1
        assert ids_of(toy, cond_range_x(toy, 6)) == {"s6"}  # x7

    def test_minimal_joint_range(self):
        jr = JointRange([Symbol("s1")], [Symbol("x1")], [(0, 0)])
        assert cond_range_x(jr, 0) == frozenset({0})

    def test_out_of_range_observation(self, toy):
        with pytest.raises(IndexError):
            cond_range_x(toy, 99)

    def test_cluster_union(self, toy):
        (cluster,) = clusters_by_id(toy, ("x1", "x2", "x7"))
        assert ids_of(toy, cond_range_cluster(toy, cluster)) == {"s1", "s2", "s6"}
        (cluster,) = clusters_by_id(toy, ("x3", "x5"))
        assert ids_of(toy, cond_range_cluster(toy, cluster)) == {"s3", "s4"}

    def test_full_alphabet_cluster(self, toy):
        assert cond_range_cluster(toy, range(toy.n_x)) == frozenset(range(toy.n_s))

    def test_empty_cluster_rejected(self, toy):
        with pytest.raises(ContractViolation):
            cond_range_cluster(toy, [])

    def test_union_distributes_over_disjoint_clusters(self):
        rng = random.Random(11)
        for _ in range(50):
            jr = random_joint_range(rng, with_values=False)
            if jr.n_x < 2:
                continue
            xs = list(range(jr.n_x))
            rng.shuffle(xs)
            cut = rng.randint(1, len(xs) - 1)
            a, b = xs[:cut], xs[cut:]
            assert cond_range_cluster(jr, a) | cond_range_cluster(jr, b) == cond_range_cluster(
                jr, xs
            )


class TestMeasures:
    def singletons(self, jr):
        return [{x} for x in range(jr.n_x)]

    def all_in_one(self, jr):
        return [set(range(jr.n_x))]

    def three_way_q(self, jr):
        return clusters_by_id(jr, ("x1", "x2", "x7"), ("x3", "x5"), ("x4", "x6"))

    def test_h0(self):
        assert h0(1) == 0.0
        assert h0(6) == pytest.approx(LOG2_6, abs=1e-9)
        assert h0(7) == pytest.approx(LOG2_7, abs=1e-9)
        with pytest.raises(ContractViolation):
            h0(0)

    def test_b0(self, toy):
        assert b0(toy, self.singletons(toy)) == 0.0
        assert b0(toy, self.all_in_one(toy)) == pytest.approx(LOG2_6, abs=1e-12)
        assert b0(toy, self.three_way_q(toy)) == pytest.approx(1.0, abs=1e-12)

    def test_l0(self, toy):
        assert l0(toy, self.singletons(toy)) == pytest.approx(LOG2_6, abs=1e-9)
        assert l0(toy, self.all_in_one(toy)) == pytest.approx(0.0, abs=1e-12)
        assert l0(toy, self.three_way_q(toy)) == pytest.approx(LOG2_6 - 1.0, abs=1e-9)

    def test_i0_forward(self, toy):
        assert i0_forward(toy, self.singletons(toy)) == pytest.approx(LOG2_6 - 1.0, abs=1e-9)
        assert i0_forward(toy, self.all_in_one(toy)) == pytest.approx(0.0, abs=1e-12)
        assert i0_forward(toy, self.three_way_q(toy)) == pytest.approx(
            LOG2_6 - math.log2(3), abs=1e-9
        )

    def test_k_anonymity(self, toy):
        assert is_k_anonymous(toy, self.singletons(toy), 1)
        assert not is_k_anonymous(toy, self.singletons(toy), 2)
        assert is_k_anonymous(toy, self.all_in_one(toy), 6)
        with pytest.raises(ContractViolation):
            is_k_anonymous(toy, self.singletons(toy), 0)


class TestRandomizedInvariants:
    def test_measure_ordering_and_k_anonymity_equivalence(self):
        rng = random.Random(42)
        for _ in range(100):
            jr = random_joint_range(rng, with_values=False)
            q = random_partition(rng, jr.n_x)
            assert -1e-12 <= i0_forward(jr, q) <= l0(jr, q) + 1e-12
            assert l0(jr, q) <= h0(jr.n_s) + 1e-12
            for k in range(1, jr.n_s + 1):
                assert is_k_anonymous(jr, q, k) == (b0(jr, q) >= math.log2(k))

    def test_merging_monotonicity(self):
        rng = random.Random(43)
        for _ in range(60):
            jr = random_joint_range(rng, with_values=False)
            q = random_partition(rng, jr.n_x)
            if len(q) < 2:
                continue
            i, j = rng.sample(range(len(q)), 2)
            merged = [c for p, c in enumerate(q) if p not in (i, j)] + [q[i] | q[j]]
            assert b0(jr, merged) >= b0(jr, q) - 1e-12
            assert l0(jr, merged) <= l0(jr, q) + 1e-12

    def test_one_cluster_leaks_nothing(self):
        rng = random.Random(44)
        for _ in range(30):
            jr = random_joint_range(rng, with_values=False)
            q = [set(range(jr.n_x))]
            assert l0(jr, q) == pytest.approx(0.0, abs=1e-12)
            assert i0_forward(jr, q) == pytest.approx(0.0, abs=1e-12)


def test_toy_marginals():
    toy = make_toy()
    assert toy.n_s == 6 and toy.n_x == 7 and len(toy.pairs) == 8
