"""Quantizations of the public alphabet, codewords and utility functions.

A quantization is a partition of the X alphabet into clusters; releasing a
cluster's codeword instead of the raw value is the sanitization mechanism.
Two codeword policies are supported: the cluster centroid (arithmetic mean)
and a representative member (the minimum-index one, for determinism).

Two utilities measure how useful the release still is:

* resolution (``U1``): the guaranteed uncertainty reduction about X itself,
  ``log2 |X| - log2 (largest cluster)``;
* max distortion (``U2``): minus the worst distance between a value and its
  cluster codeword, under a pluggable symmetric distance (default absolute
  difference). Requires numeric X values.

Quantizations are immutable value types; ``merge`` returns a new one with
codewords recomputed (centroids move as clusters grow, so nothing is
updated incrementally).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .core import JointRange, h0
from .errors import ConfigurationError, ContractViolation

__all__ = [
    "CodewordPolicy",
    "UtilityKind",
    "UtilityChoice",
    "absolute_difference",
    "Quantization",
    "singleton_quantization",
    "merge",
    "cluster_distortion",
    "utility",
]


def absolute_difference(a: float, b: float) -> float:
    return abs(a - b)


class CodewordPolicy(enum.Enum):
    CENTROID = "centroid"
    REPRESENTATIVE = "representative"


class UtilityKind(enum.Enum):
    U1_RESOLUTION = "u1"
    U2_MAX_DISTORTION = "u2"


@dataclass(frozen=True)
class UtilityChoice:
    """Which utility to optimize, plus the distance used by U2."""

    kind: UtilityKind
    distance: Callable[[float, float], float] = absolute_difference

    @classmethod
    def u1(cls) -> "UtilityChoice":
        return cls(UtilityKind.U1_RESOLUTION)

    @classmethod
    def u2(cls, distance: Callable[[float, float], float] = absolute_difference) -> "UtilityChoice":
        return cls(UtilityKind.U2_MAX_DISTORTION, distance)


def compute_codeword(values: Sequence[float], policy: CodewordPolicy) -> float:
    """Codeword of a cluster given its member values, per policy.

    ``values`` must be ordered by member x-index so the representative
    policy deterministically picks the minimum-index member.
    """
    if policy is CodewordPolicy.CENTROID:
        return math.fsum(values) / len(values)
    return values[0]


@dataclass(frozen=True)
class Quantization:
    """A partition of the X alphabet with per-cluster codewords.

    ``clusters`` is canonically ordered by smallest member index and a
    cluster's identity is that smallest index (stable across merges, which
    keeps traces reproducible). ``codewords`` is present only when every X
    symbol carries a numeric value; ``x_values`` snapshots those values so a
    quantization is self-contained for distortion queries.
    """

    clusters: tuple[frozenset[int], ...]
    policy: CodewordPolicy
    x_values: tuple[Optional[float], ...] = field(repr=False)
    codewords: Optional[tuple[float, ...]] = None

    @classmethod
    def from_clusters(
        cls,
        jr: JointRange,
        clusters: Iterable[Iterable[int]],
        policy: CodewordPolicy = CodewordPolicy.CENTROID,
    ) -> "Quantization":
        parts = [frozenset(c) for c in clusters]
        if any(not p for p in parts):
            raise ContractViolation("clusters must be non-empty")
        covered: set[int] = set()
        total = 0
        for p in parts:
            total += len(p)
            covered |= p
        if covered != set(range(jr.n_x)) or total != jr.n_x:
            raise ContractViolation("clusters must partition the X alphabet")
        parts.sort(key=min)
        values = jr.x_values()
        codewords = None
        if all(v is not None for v in values):
            codewords = tuple(
                compute_codeword([values[x] for x in sorted(p)], policy) for p in parts
            )
        return cls(tuple(parts), policy, values, codewords)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def cluster_ids(self) -> tuple[int, ...]:
        return tuple(min(c) for c in self.clusters)

    def index_of(self, cluster_id: int) -> int:
        for pos, c in enumerate(self.clusters):
            if min(c) == cluster_id:
                return pos
        raise ContractViolation(f"no cluster with id {cluster_id}")

    def members(self, cluster_id: int) -> frozenset[int]:
        return self.clusters[self.index_of(cluster_id)]

    def partition_key(self) -> tuple[tuple[int, ...], ...]:
        """Hashable canonical form, independent of codeword policy."""
        return tuple(tuple(sorted(c)) for c in self.clusters)


def singleton_quantization(
    jr: JointRange, policy: CodewordPolicy = CodewordPolicy.CENTROID
) -> Quantization:
    """The no-quantization starting point: one cluster per X symbol."""
    return Quantization.from_clusters(jr, [{x} for x in range(jr.n_x)], policy)


def merge(q: Quantization, a: int, b: int) -> Quantization:
    """Fuse the clusters identified by ``a`` and ``b`` (min member indices).

    All other clusters are untouched; the fused cluster's codeword is
    recomputed from scratch under the quantization's policy.
    """
    if a == b:
        raise ContractViolation("cannot merge a cluster with itself")
    ia, ib = q.index_of(a), q.index_of(b)
    fused = q.clusters[ia] | q.clusters[ib]
    rest = [c for pos, c in enumerate(q.clusters) if pos not in (ia, ib)]
    parts = sorted(rest + [fused], key=min)
    codewords = None
    if q.codewords is not None:
        codewords = tuple(
            compute_codeword([q.x_values[x] for x in sorted(p)], q.policy) for p in parts
        )
    return Quantization(tuple(parts), q.policy, q.x_values, codewords)


def cluster_distortion(
    q: Quantization,
    cluster_id: int,
    distance: Callable[[float, float], float] = absolute_difference,
) -> float:
    """Worst distance between a member value and the cluster codeword."""
    if q.codewords is None:
        raise ConfigurationError("distortion needs numeric values on every X symbol")
    pos = q.index_of(cluster_id)
    codeword = q.codewords[pos]
    return max(distance(q.x_values[x], codeword) for x in q.clusters[pos])


def utility(jr: JointRange, q: Quantization, u: UtilityChoice) -> float:
    """Worst-case utility of the release under the chosen definition."""
    if u.kind is UtilityKind.U1_RESOLUTION:
        return h0(jr.n_x) - math.log2(max(len(c) for c in q.clusters))
    return -max(cluster_distortion(q, min(c), u.distance) for c in q.clusters)
