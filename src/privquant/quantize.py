"""Quantizations of the public alphabet, codewords and utility functions.

A quantization is a partition of the X alphabet into clusters; releasing a
cluster's codeword instead of the raw value is the sanitization mechanism.
Two codeword policies are supported: the cluster centroid (arithmetic mean)
and a representative member (the minimum-index one, for determinism). A
``LagrangianConfig`` is what a greedy run or an oracle query runs with: the
multiplier lambda, a utility and a codeword policy.

Two utilities measure how useful the release still is:

* resolution (``U1``): the guaranteed uncertainty reduction about X itself,
  ``log2 |X| - log2 (largest cluster)``;
* max distortion (``U2``): minus the worst absolute difference between a
  value and its cluster codeword. It needs a numeric value on every X symbol
  (``require_u2``); ``JointRange`` keeps those finite with a finite sum of
  magnitudes, so every distortion and utility is finite.

Quantizations are immutable value types, built by ``quantizer``, which
reuses the clusters and codewords it has built. Code that grows clusters
incrementally keeps each cluster's value sum exact, as an integer over the
alphabet's common power-of-two denominator (``exact_numerators``), so its
centroids equal ``compute_codeword`` bit for bit in any merge order.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import JointRange, h0
from .errors import ConfigurationError, ContractViolation

__all__ = [
    "CodewordPolicy",
    "UtilityKind",
    "UtilityChoice",
    "Quantization",
    "singleton_quantization",
    "utility",
    "Problem",
    "LagrangianConfig",
]


class CodewordPolicy(enum.Enum):
    CENTROID = "centroid"
    REPRESENTATIVE = "representative"


class UtilityKind(enum.Enum):
    U1_RESOLUTION = "u1"
    U2_MAX_DISTORTION = "u2"


class Problem(enum.Enum):
    """The privacy objective a greedy run or the oracle minimizes."""

    MIN_L0 = "l0"
    MIN_ISTAR = "istar"
    MIN_L0_ZERO_ISTAR = "l0-zero-istar"


class UtilityChoice(NamedTuple):
    """Which utility to optimize."""

    kind: UtilityKind

    @classmethod
    def u1(cls) -> "UtilityChoice":
        return cls(UtilityKind.U1_RESOLUTION)

    @classmethod
    def u2(cls) -> "UtilityChoice":
        return cls(UtilityKind.U2_MAX_DISTORTION)


class _Config(NamedTuple):
    lam: float
    utility: UtilityChoice
    policy: CodewordPolicy = CodewordPolicy.CENTROID


class LagrangianConfig(_Config):
    """Multiplier, utility choice and codeword policy for one greedy run or oracle query."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ConfigurationError("lambda must be a finite non-negative real")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks lambda too
        return cls(*iterable)


def compute_codeword(values: Sequence[float], policy: CodewordPolicy) -> float:
    """Codeword of a cluster given its member values, per policy.

    ``values`` must be ordered by member x-index so the representative
    policy deterministically picks the minimum-index member.
    """
    if policy is CodewordPolicy.CENTROID:
        return math.fsum(values) / len(values)
    return values[0]


def exact_numerators(values: Sequence[float]) -> tuple[list[int], int]:
    """``(numerators, scale)`` with ``values[i] == numerators[i] / scale`` exactly.

    ``scale`` is the largest ``float.as_integer_ratio()`` denominator, a power
    of two that all others divide (1 for integers). Integer sums are exact and
    int/int true division is correctly rounded, like ``math.fsum``, so for a
    cluster C ``sum(numerators[x] for x in C) / scale / len(C)`` equals its
    centroid ``compute_codeword`` bit for bit (up to the sign of a zero sum),
    in any summing order.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = max((d for _, d in ratios), default=1)
    return [n * (scale // d) for n, d in ratios], scale


class Quantization(NamedTuple):
    """A partition of the X alphabet with per-cluster codewords.

    ``clusters`` is canonically ordered by smallest member index and a
    cluster's identity is that smallest index (stable across merges, which
    keeps traces reproducible). ``codewords`` is present only when every X
    symbol carries a numeric value; ``x_values`` snapshots those values so a
    quantization is self-contained for distortion queries.
    """

    clusters: tuple[frozenset[int], ...]
    policy: CodewordPolicy
    x_values: tuple[Optional[float], ...]
    codewords: Optional[tuple[float, ...]] = None

    def __repr__(self) -> str:  # without x_values
        return (f"Quantization(clusters={self.clusters!r}, policy={self.policy!r}, "
                f"codewords={self.codewords!r})")

    @classmethod
    def from_clusters(
        cls,
        jr: JointRange,
        clusters: Iterable[Iterable[int]],
        policy: CodewordPolicy = CodewordPolicy.CENTROID,
    ) -> "Quantization":
        """Check that ``clusters`` partition the X alphabet, then build it with ``quantizer``."""
        parts = [frozenset(c) for c in clusters]
        if any(not p for p in parts):
            raise ContractViolation("clusters must be non-empty")
        if set().union(*parts) != set(range(jr.n_x)) or sum(map(len, parts)) != jr.n_x:
            raise ContractViolation("clusters must partition the X alphabet")
        return quantizer(jr, policy)(sorted(tuple(sorted(p)) for p in parts))

    def partition_key(self) -> tuple[tuple[int, ...], ...]:
        """Hashable canonical form, independent of codeword policy."""
        return tuple(tuple(sorted(c)) for c in self.clusters)


def quantizer(jr: JointRange, policy: CodewordPolicy):
    """The one construction of ``Quantization``s: a function from canonical
    partitions (``partition_key``'s form) to quantizations, which builds each
    cluster's frozenset and ``compute_codeword`` value once and then reuses it."""
    values = jr.x_values()
    numeric = all(v is not None for v in values)

    @functools.cache
    def part(members: tuple[int, ...]) -> tuple[frozenset[int], Optional[float]]:
        cw = compute_codeword([values[x] for x in members], policy) if numeric else None
        return frozenset(members), cw

    def quantize(partition: Iterable[tuple[int, ...]]) -> Quantization:
        clusters, codewords = zip(*map(part, partition))
        return Quantization(clusters, policy, values, codewords if numeric else None)

    return quantize


def singleton_quantization(
    jr: JointRange, policy: CodewordPolicy = CodewordPolicy.CENTROID
) -> Quantization:
    """The no-quantization starting point: one cluster per X symbol."""
    return quantizer(jr, policy)([(x,) for x in range(jr.n_x)])


def require_u2(values: Sequence[Optional[float]]):
    """The u2 precondition: a numeric value on every X symbol."""
    if any(v is None for v in values):
        raise ConfigurationError("max-distortion utility needs numeric values on every X symbol")


def utility(jr: JointRange, q: Quantization, u: UtilityChoice) -> float:
    """Worst-case utility of the release under the chosen definition."""
    if u.kind is UtilityKind.U1_RESOLUTION:
        return h0(jr.n_x) - math.log2(max(len(c) for c in q.clusters))
    require_u2(q.x_values)
    return -max(max(0.0, *(abs(q.x_values[x] - cw) for x in c))
                for c, cw in zip(q.clusters, q.codewords))
