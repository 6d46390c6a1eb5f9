"""Confusability graph, finest decomposition and maximin information.

The released clusters of a quantization form the nodes of an undirected
graph with an edge wherever two clusters' conditional S-ranges intersect
(the confusability graph). The graph's connected components determine the
number of perfectly distinguishable pieces of S: the maximin information is
log2 of the component count.

Components are found over X clusters; edges are detected with bitmask
intersections of the conditional ranges. ``components``, a fold over
disjoint component bitmasks, is the one component routine of the package
(graph, greedy walk and oracle); the tests check it against a union-find
over the S alphabet.

``merge_update`` coarsens an existing decomposition under a quantization
without rebuilding the graph.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .core import JointRange, _bits
from .errors import ContractViolation

__all__ = [
    "ConfusabilityGraph",
    "Decomposition",
    "build_graph",
    "components",
    "finest_decomposition",
    "maximin_information",
    "merge_update",
]


def _canonical_clusters(q) -> tuple[frozenset[int], ...]:
    clusters = [frozenset(c) for c in getattr(q, "clusters", q)]
    if any(not c for c in clusters):
        raise ContractViolation("clusters must be non-empty")
    return tuple(sorted(clusters, key=min))


class ConfusabilityGraph(NamedTuple):
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


class _Blocks(NamedTuple):
    blocks: tuple[frozenset[int], ...]


class Decomposition(_Blocks):
    """Partition of the X alphabet into mutually non-confusable blocks.

    Blocks are unions of cluster members, each internally connected in the
    confusability graph, with no edge crossing blocks; ordered by smallest
    contained x-index. ``len`` counts the blocks.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def _make(cls, iterable):  # namedtuple's checks its arity with len, the block count here
        return cls(*iterable)


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


def components(masks: Iterable[int]) -> list[int]:
    """Connected components of the overlap graph on bitmasks (an edge joins
    every two masks that intersect), folded into disjoint component masks:
    each mask absorbs every component it intersects and goes last."""
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
    return comps


def finest_decomposition(g: ConfusabilityGraph) -> Decomposition:
    """Connected components of the graph, as blocks of x-indices."""
    nodes = [1 << i for i in range(g.n_nodes)]  # edge (i, j): bit j in node i meets node j
    for i, j in g.edges:
        nodes[i] |= 1 << j
    blocks = (frozenset().union(*(g.clusters[i] for i in _bits(m))) for m in components(nodes))
    return Decomposition(tuple(sorted(blocks, key=min)))


def maximin_information(jr: JointRange, q) -> float:
    """Bits of S perfectly distinguishable from the release: log2(#components)."""
    return math.log2(len(components([jr.cond_mask_cluster(c) for c in _canonical_clusters(q)])))


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

    masks = [sum(1 << x for x in part) for part in (*dec.blocks, *clusters)]
    blocks = (frozenset(_bits(m)) for m in components(masks))
    return Decomposition(tuple(sorted(blocks, key=min)))
