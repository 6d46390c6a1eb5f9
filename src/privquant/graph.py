"""Confusability graph, finest decomposition and maximin information.

The released clusters of a quantization form the nodes of an undirected
graph with an edge wherever two clusters' conditional S-ranges intersect
(the confusability graph). The graph's connected components determine the
number of perfectly distinguishable pieces of S: the maximin information is
log2 of the component count.

Components are found over X clusters; edges are detected with bitmask
intersections of the conditional ranges. Two independent routes to the same
partition are kept side by side on purpose:

* ``finest_decomposition(build_graph(...))`` (union-find) and
  ``component_count`` (a fold over disjoint component masks) -- over the
  released clusters, used everywhere in production code;
* ``overlap_partition_oracle`` -- a definitional union-find over the S
  alphabet (values are united whenever one released cluster covers both),
  used by tests as a cross-check of the cluster route.

``merge_update`` coarsens an existing decomposition under a quantization
without rebuilding the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import JointRange, cond_range_cluster
from .errors import ContractViolation

__all__ = [
    "ConfusabilityGraph",
    "Decomposition",
    "UnionFind",
    "build_graph",
    "component_count",
    "finest_decomposition",
    "maximin_information",
    "overlap_partition_oracle",
    "merge_update",
]


class UnionFind:
    """Minimal union-find with path halving; the primitive wherever component blocks are built."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Keep the smaller root as representative for stable output order.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def blocks(self, parts: Sequence[Iterable[int]]) -> tuple[frozenset[int], ...]:
        """Union of ``parts[i]`` per set of ``i``, ordered by smallest member."""
        groups: dict[int, set[int]] = {}
        for i, part in enumerate(parts):
            groups.setdefault(self.find(i), set()).update(part)
        return tuple(frozenset(g) for g in sorted(groups.values(), key=min))


def _canonical_clusters(q) -> tuple[frozenset[int], ...]:
    clusters = [frozenset(c) for c in getattr(q, "clusters", q)]
    if any(not c for c in clusters):
        raise ContractViolation("clusters must be non-empty")
    return tuple(sorted(clusters, key=min))


@dataclass(frozen=True)
class ConfusabilityGraph:
    """Graph over released clusters; edge iff conditional S-ranges overlap.

    ``clusters`` is ordered by smallest member x-index; ``edges`` holds
    (i, j) cluster-position pairs with i < j. No self-loops are recorded and
    the relation is symmetric by construction.
    """

    clusters: tuple[frozenset[int], ...]
    edges: frozenset[tuple[int, int]]

    @property
    def n_nodes(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True)
class Decomposition:
    """Partition of the X alphabet into mutually non-confusable blocks.

    Blocks are unions of cluster members, each internally connected in the
    confusability graph, with no edge crossing blocks; ordered by smallest
    contained x-index.
    """

    blocks: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self) -> dict[int, int]:
        """Map every x-index to the position of its block."""
        out: dict[int, int] = {}
        for pos, block in enumerate(self.blocks):
            for x in block:
                out[x] = pos
        return out


def build_graph(jr: JointRange, q) -> ConfusabilityGraph:
    """Confusability graph of a quantization's clusters.

    O(n^2) pairwise bitmask intersections; fine for the alphabet sizes this
    package targets.
    """
    clusters = _canonical_clusters(q)
    masks = [jr.cond_mask_cluster(c) for c in clusters]
    edges = set()
    for i in range(len(clusters)):
        mi = masks[i]
        for j in range(i + 1, len(clusters)):
            if mi & masks[j]:
                edges.add((i, j))
    return ConfusabilityGraph(clusters, frozenset(edges))


def finest_decomposition(g: ConfusabilityGraph) -> Decomposition:
    """Connected components of the graph, as blocks of x-indices."""
    uf = UnionFind(g.n_nodes)
    for i, j in g.edges:
        uf.union(i, j)
    return Decomposition(uf.blocks(g.clusters))


def component_count(masks: Sequence[int]) -> int:
    """Connected components of the overlap graph on S-range bitmasks (an edge
    joins every two masks that intersect), folded into disjoint component
    masks: each mask absorbs every component it intersects."""
    comps: list[int] = []
    for m in masks:
        rest = []
        for c in comps:
            if c & m:
                m |= c
            else:
                rest.append(c)
        rest.append(m)
        comps = rest
    return len(comps)


def maximin_information(jr: JointRange, q) -> float:
    """Bits of S perfectly distinguishable from the release: log2(#components)."""
    return math.log2(component_count([jr.cond_mask_cluster(c) for c in _canonical_clusters(q)]))


def overlap_partition_oracle(jr: JointRange, q) -> tuple[frozenset[int], ...]:
    """Finest overlap partition of the S alphabet, straight from the definition.

    All sensitive values covered by one released cluster are overlap
    connected; the partition is the transitive closure of that relation,
    computed by union-find over S indices. Kept deliberately independent of
    the component search over X clusters so the two can check each other.
    """
    uf = UnionFind(jr.n_s)
    for cluster in _canonical_clusters(q):
        first, *rest = sorted(cond_range_cluster(jr, cluster))
        for s in rest:
            uf.union(first, s)
    return uf.blocks([(s,) for s in range(jr.n_s)])


def merge_update(dec: Decomposition, q) -> Decomposition:
    """Coarsen a decomposition under a quantization without a graph rebuild.

    Every cluster of ``q`` fuses all blocks it intersects. When ``dec`` is
    the finest decomposition of the singleton-level graph, the result equals
    the finest decomposition of the graph built on ``q``'s clusters.
    """
    clusters = _canonical_clusters(q)
    dec_universe = frozenset().union(*dec.blocks)
    q_universe = frozenset().union(*clusters)
    if dec_universe != q_universe:
        raise ContractViolation("decomposition and quantization cover different alphabets")

    block_of = dec.block_of()
    uf = UnionFind(len(dec.blocks))
    for cluster in clusters:
        it = iter(cluster)
        first = block_of[next(it)]
        for x in it:
            uf.union(first, block_of[x])
    return Decomposition(uf.blocks(dec.blocks))
