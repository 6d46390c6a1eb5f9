import math
import random
from functools import partial

import pytest

from helpers import (
    clusters_by_id,
    overlap_partition_oracle,
    random_joint_range,
    random_partition,
    reference_component_count,
    s_ids,
)
from privquant import (
    ConfusabilityGraph,
    ContractViolation,
    Decomposition,
    build_graph,
    finest_decomposition,
    l0,
    maximin_information,
    merge_update,
)
from privquant.core import cond_range_cluster
from privquant.graph import components

LOG2_5 = 2.321928094887362


def singletons(jr):
    return [{x} for x in range(jr.n_x)]


def blocks_as_ids(jr, dec, ids="x"):
    getter = jr.x_ids if ids == "x" else partial(s_ids, jr)
    return {frozenset(getter(b)) for b in dec}


class TestBuildGraph:
    def test_toy_singleton_edges(self, toy):
        g = build_graph(toy, singletons(toy))
        # nodes come out ordered by x index, so positions are x indices
        assert g.edges == frozenset({(0, 1), (2, 3)})  # x1-x2 and x3-x4

    def test_all_in_one(self, toy):
        g = build_graph(toy, [set(range(toy.n_x))])
        assert g.n_nodes == 1 and not g.edges

    def test_merged_node_gains_both_edges(self, toy):
        q = clusters_by_id(toy, ("x1", "x3"), ("x2",), ("x4",), ("x5",), ("x6",), ("x7",))
        g = build_graph(toy, q)
        merged = g.clusters.index(frozenset(clusters_by_id(toy, ("x1", "x3"))[0]))
        x2 = g.clusters.index(frozenset(clusters_by_id(toy, ("x2",))[0]))
        x4 = g.clusters.index(frozenset(clusters_by_id(toy, ("x4",))[0]))
        assert tuple(sorted((merged, x2))) in g.edges
        assert tuple(sorted((merged, x4))) in g.edges

    def test_symmetric_no_self_loops(self):
        rng = random.Random(5)
        for _ in range(30):
            jr = random_joint_range(rng, with_values=False)
            g = build_graph(jr, random_partition(rng, jr.n_x))
            for i, j in g.edges:
                assert i < j  # stored once, no self loops


class TestFinestDecomposition:
    def test_toy(self, toy):
        dec = finest_decomposition(build_graph(toy, singletons(toy)))
        assert blocks_as_ids(toy, dec.blocks) == {
            frozenset({"x1", "x2"}),
            frozenset({"x3", "x4"}),
            frozenset({"x5"}),
            frozenset({"x6"}),
            frozenset({"x7"}),
        }

    def test_edgeless_graph(self):
        g = ConfusabilityGraph(tuple(frozenset({i}) for i in range(5)), frozenset())
        assert len(finest_decomposition(g)) == 5

    def test_complete_graph(self):
        nodes = tuple(frozenset({i}) for i in range(5))
        edges = frozenset((i, j) for i in range(5) for j in range(i + 1, 5))
        assert len(finest_decomposition(ConfusabilityGraph(nodes, edges))) == 1

    def test_blocks_ordered_by_min_member(self, toy):
        dec = finest_decomposition(build_graph(toy, singletons(toy)))
        mins = [min(b) for b in dec.blocks]
        assert mins == sorted(mins)


class TestMaximinInformation:
    def test_toy_singletons(self, toy):
        assert maximin_information(toy, singletons(toy)) == pytest.approx(LOG2_5, abs=1e-12)

    def test_all_in_one(self, toy):
        assert maximin_information(toy, [set(range(toy.n_x))]) == 0.0

    def test_merged_quantization(self, toy):
        q = clusters_by_id(toy, ("x1", "x3"), ("x2", "x5"), ("x4", "x6"), ("x7",))
        assert maximin_information(toy, q) == pytest.approx(1.0, abs=1e-12)

    def test_empty_cluster_rejected(self, toy):
        with pytest.raises(ContractViolation, match="^clusters must be non-empty$"):
            maximin_information(toy, [*singletons(toy), set()])


class TestOverlapPartitionOracle:
    def test_toy(self, toy):
        part = overlap_partition_oracle(toy, singletons(toy))
        assert blocks_as_ids(toy, part, ids="s") == {
            frozenset({"s1", "s2"}),
            frozenset({"s3"}),
            frozenset({"s4"}),
            frozenset({"s5"}),
            frozenset({"s6"}),
        }

    def test_all_in_one(self, toy):
        part = overlap_partition_oracle(toy, [set(range(toy.n_x))])
        assert len(part) == 1 and part[0] == frozenset(range(toy.n_s))

    def test_matches_component_count_on_random_instances(self):
        rng = random.Random(6)
        for _ in range(120):
            jr = random_joint_range(rng, with_values=False)
            q = random_partition(rng, jr.n_x)
            oracle = overlap_partition_oracle(jr, q)
            assert len(finest_decomposition(build_graph(jr, q))) == len(oracle)
            assert len(components([jr.cond_mask_cluster(c) for c in q])) == len(oracle)
            assert maximin_information(jr, q) == math.log2(len(oracle))


class TestComponentCount:
    """The mask fold equals the pairwise union-find reference."""

    def test_matches_union_find_on_random_mask_lists(self):
        rng = random.Random(17)
        zero_masks = 0
        for _ in range(600):
            n_s = rng.randint(1, 12)
            masks = [
                rng.getrandbits(n_s) & rng.getrandbits(n_s) for _ in range(rng.randint(0, 10))
            ]
            zero_masks += masks.count(0)
            assert len(components(masks)) == reference_component_count(masks), masks
        assert zero_masks > 0

    def test_empty_and_zero_masks(self):
        assert len(components([])) == 0
        assert len(components([0, 0, 0])) == 3
        assert len(components([0b11, 0, 0b10, 0])) == 3

    def test_one_mask_joins_two_components(self):
        assert len(components([0b001, 0b100, 0b101])) == 1
        assert len(components([0b001, 0b100, 0b110, 0b010])) == 2

    def test_the_last_mask_component_comes_last(self):
        # The oracle reads the component of the last symbol's S-range as the last one.
        assert components([0b0001, 0b0100, 0b1000, 0b0101]) == [0b1000, 0b0101]
        assert components([0b0001, 0b0100, 0]) == [0b0001, 0b0100, 0]


class TestMergeUpdate:
    def test_worked_example(self, toy):
        dec = finest_decomposition(build_graph(toy, singletons(toy)))
        q = clusters_by_id(toy, ("x1", "x3"), ("x2", "x5"), ("x4", "x6"), ("x7",))
        updated = merge_update(dec, q)
        assert blocks_as_ids(toy, updated.blocks) == {
            frozenset({"x1", "x2", "x3", "x4", "x5", "x6"}),
            frozenset({"x7"}),
        }

    def test_singleton_quantization_is_identity(self, toy):
        dec = finest_decomposition(build_graph(toy, singletons(toy)))
        assert merge_update(dec, singletons(toy)).blocks == dec.blocks

    def test_all_in_one_fuses_everything(self, toy):
        dec = finest_decomposition(build_graph(toy, singletons(toy)))
        assert len(merge_update(dec, [set(range(toy.n_x))])) == 1

    def test_mismatched_alphabets_rejected(self, toy):
        dec = Decomposition((frozenset({0, 1}),))
        with pytest.raises(ContractViolation):
            merge_update(dec, singletons(toy))

    def test_empty_cluster_rejected(self, toy):
        dec = finest_decomposition(build_graph(toy, singletons(toy)))
        with pytest.raises(ContractViolation, match="^clusters must be non-empty$"):
            merge_update(dec, [*singletons(toy), set()])

    def test_equivalent_to_rebuild(self):
        rng = random.Random(7)
        for _ in range(120):
            jr = random_joint_range(rng, with_values=False)
            dec = finest_decomposition(build_graph(jr, [{x} for x in range(jr.n_x)]))
            q = random_partition(rng, jr.n_x)
            assert merge_update(dec, q).blocks == finest_decomposition(build_graph(jr, q)).blocks


class TestStructuralInvariants:
    def test_maximin_never_exceeds_l0(self):
        rng = random.Random(8)
        for _ in range(150):
            jr = random_joint_range(rng, with_values=False)
            q = random_partition(rng, jr.n_x)
            assert maximin_information(jr, q) <= l0(jr, q) + 1e-9

    def test_coarsening_never_splits_components(self):
        rng = random.Random(9)
        for _ in range(60):
            jr = random_joint_range(rng, with_values=False)
            q = random_partition(rng, jr.n_x)
            before = len(finest_decomposition(build_graph(jr, q)))
            if len(q) < 2:
                continue
            i, j = rng.sample(range(len(q)), 2)
            coarser = [c for p, c in enumerate(q) if p not in (i, j)] + [q[i] | q[j]]
            after = len(finest_decomposition(build_graph(jr, coarser)))
            assert after <= before

    def test_component_ranges_partition_s(self):
        rng = random.Random(10)
        for _ in range(60):
            jr = random_joint_range(rng, with_values=False)
            q = random_partition(rng, jr.n_x)
            dec = finest_decomposition(build_graph(jr, q))
            ranges = [cond_range_cluster(jr, b) for b in dec.blocks]
            union = set()
            for r in ranges:
                assert not (union & r)  # pairwise disjoint
                union |= r
            assert union == set(range(jr.n_s))
