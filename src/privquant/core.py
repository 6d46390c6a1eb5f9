"""Finite uncertain variables and range-based information measures.

A variable is "uncertain" when only its range (the set of values it can
take) is known; there is no probability measure. For a sensitive variable S
and a public variable X, everything observable lives in their joint range:
the set of (s, x) value pairs that can co-occur. Every measure in this
module is a function of set cardinalities:

* ``h0``            -- Hartley entropy, log2 of a range size.
* ``b0``            -- worst-case residual uncertainty about S after seeing a
                       released cluster (min posterior log-range).
* ``l0``            -- maximal leakage, the largest uncertainty reduction an
                       observer can obtain: h0(S) - b0.
* ``i0_forward``    -- guaranteed uncertainty reduction (min over
                       observations), used as a worst-case utility.
* ``is_k_anonymous``-- every released cluster stays consistent with at least
                       k sensitive values.

All logarithms are base 2 and all measures are in bits. Cardinality
comparisons (k-anonymity, argmins over range sizes) are done on integers so
they can never be perturbed by float rounding; float comparisons elsewhere
use ``TOLERANCE``.

Conditional ranges are represented internally as bitmasks over the S
alphabet indices, which keeps unions and intersection tests cheap for the
O(n^2) passes done by the graph module.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import ContractViolation

__all__ = [
    "TOLERANCE",
    "Symbol",
    "JointRange",
    "cond_range_x",
    "cond_range_cluster",
    "h0",
    "b0",
    "l0",
    "i0_forward",
    "is_k_anonymous",
    "min_range_size",
]

#: Absolute tolerance for comparisons between bit-valued measures.
TOLERANCE = 1e-9


class Symbol(NamedTuple):
    """One alphabet entry: a text id plus an optional numeric value.

    The value is required on X symbols only when distortion-based utility is
    evaluated; categorical alphabets leave it ``None``.
    """

    id: str
    value: Optional[float] = None


def _check_alphabet(symbols: Sequence[Symbol], name: str) -> None:
    seen = set()
    for sym in symbols:
        if not sym.id:
            raise ContractViolation(f"{name} alphabet contains an empty symbol id")
        if sym.id in seen:
            raise ContractViolation(f"duplicate id {sym.id!r} in {name} alphabet")
        seen.add(sym.id)


def finite_magnitude(values: Iterable[float]) -> bool:
    """True iff ``sum(|v|)`` is a finite float. Then every cluster sum,
    centroid and distortion (at most ``max - min``) of the values is finite."""
    try:
        return math.isfinite(math.fsum(map(abs, values)))
    except OverflowError:
        return False


class JointRange:
    """Joint range of (S, X): which sensitive/public value pairs co-occur.

    Immutable after construction; all derived quantities are precomputed, so
    instances are safe to share across threads. Symbols are index-addressed
    internally (dense integers); the text ids only matter at the ingestion
    and output boundaries.

    Invariants enforced here: at least one pair, every index an ``int``
    (not a ``bool``, float or string) within its alphabet, every symbol of
    either alphabet occurs in at least one pair (the marginal ranges are the
    full alphabets), and the X values given are finite with a finite
    ``sum(|v|)`` (see ``finite_magnitude``).
    """

    __slots__ = ("s_symbols", "x_symbols", "pairs", "_s_mask_by_x")

    def __init__(
        self,
        s_symbols: Sequence[Symbol],
        x_symbols: Sequence[Symbol],
        pairs: Iterable[tuple[int, int]],
    ):
        s_syms = tuple(s_symbols)
        x_syms = tuple(x_symbols)
        _check_alphabet(s_syms, "S")
        _check_alphabet(x_syms, "X")
        pairs = list(map(tuple, pairs))
        if not pairs:
            raise ContractViolation("a joint range needs at least one pair")

        n_s, n_x = len(s_syms), len(x_syms)
        masks = [0] * n_x
        for s, x in pairs:
            if not (type(s) is int is type(x) and 0 <= s < n_s and 0 <= x < n_x):
                raise ContractViolation(f"pair {(s, x)!r} needs int indices within the alphabets")
            masks[x] |= 1 << s
        if reduce(int.__or__, masks) != (1 << n_s) - 1:
            raise ContractViolation("every S symbol must occur in some pair")
        if not all(masks):
            raise ContractViolation("every X symbol must occur in some pair")
        numeric = [sym for sym in x_syms if sym.value is not None]
        for sym in numeric:
            if not math.isfinite(sym.value):
                raise ContractViolation(f"X symbol {sym.id!r} has a non-finite value {sym.value!r}")
        if not finite_magnitude(sym.value for sym in numeric):
            raise ContractViolation("x_values are too large: |x| sums past the float range")

        self.s_symbols = s_syms
        self.x_symbols = x_syms
        self.pairs = frozenset(pairs)
        self._s_mask_by_x = tuple(masks)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_id_pairs(
        cls,
        id_pairs: Sequence[tuple[str, str]],
        x_values: Optional[Mapping[str, float]] = None,
    ) -> "JointRange":
        """Build a joint range from (s_id, x_id) pairs.

        Alphabets are assembled in first-appearance order, which keeps runs
        reproducible for a given input sequence. ``x_values`` optionally
        attaches numeric values to X symbols by id.
        """
        s_index: dict[str, int] = {}
        x_index: dict[str, int] = {}
        pairs = []
        for s_id, x_id in id_pairs:
            si = s_index.setdefault(s_id, len(s_index))
            xi = x_index.setdefault(x_id, len(x_index))
            pairs.append((si, xi))
        x_values = x_values or {}
        unknown = set(x_values) - set(x_index)
        if unknown:
            raise ContractViolation(f"x_values given for unknown ids: {sorted(unknown)}")
        s_syms = [Symbol(i) for i in s_index]
        x_syms = [Symbol(i, x_values.get(i)) for i in x_index]
        return cls(s_syms, x_syms, pairs)

    # -- basic accessors -------------------------------------------------------

    @property
    def n_s(self) -> int:
        return len(self.s_symbols)

    @property
    def n_x(self) -> int:
        return len(self.x_symbols)

    def x_ids(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.x_symbols[i].id for i in sorted(indices))

    def x_values(self) -> tuple[Optional[float], ...]:
        return tuple(sym.value for sym in self.x_symbols)

    # -- conditional ranges ----------------------------------------------------

    def cond_mask_x(self, x: int) -> int:
        """Bitmask over S indices compatible with observing X = x."""
        if not 0 <= x < len(self._s_mask_by_x):
            raise IndexError(f"x index {x} outside 0..{len(self._s_mask_by_x) - 1}")
        return self._s_mask_by_x[x]

    def cond_mask_cluster(self, cluster: Iterable[int]) -> int:
        """Bitmask of the S range compatible with a released cluster of x's."""
        mask = 0
        for x in cluster:
            mask |= self._s_mask_by_x[x]
        if not mask:  # every X symbol's mask is non-empty
            raise ContractViolation("conditional range of an empty cluster")
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JointRange(|S|={self.n_s}, |X|={self.n_x}, pairs={len(self.pairs)})"


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending; O(set bits)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cond_range_x(jr: JointRange, x: int) -> frozenset[int]:
    """S indices compatible with observing X = x (never empty)."""
    return frozenset(_bits(jr.cond_mask_x(x)))


def cond_range_cluster(jr: JointRange, cluster: Iterable[int]) -> frozenset[int]:
    """Union of per-observation ranges over a non-empty cluster of x's."""
    return frozenset(_bits(jr.cond_mask_cluster(cluster)))


def _range_sizes(jr: JointRange, q) -> list[int]:
    # Accept either a Quantization (has .clusters) or a bare list of clusters.
    return [jr.cond_mask_cluster(c).bit_count() for c in getattr(q, "clusters", q)]


def h0(alphabet_size: int) -> float:
    """Hartley entropy log2(size), in bits."""
    if alphabet_size < 1:
        raise ContractViolation("h0 needs a positive alphabet size")
    return math.log2(alphabet_size)


def min_range_size(jr: JointRange, q) -> int:
    """Smallest conditional-range cardinality over the clusters of ``q``."""
    return min(_range_sizes(jr, q))


def b0(jr: JointRange, q) -> float:
    """Worst-case posterior uncertainty about S given the release, in bits."""
    return math.log2(min_range_size(jr, q))


def l0(jr: JointRange, q) -> float:
    """Maximal leakage h0(S) - b0: the largest uncertainty reduction."""
    return h0(jr.n_s) - b0(jr, q)


def i0_forward(jr: JointRange, q) -> float:
    """Guaranteed uncertainty reduction h0(S) - max posterior log-range."""
    return h0(jr.n_s) - math.log2(max(_range_sizes(jr, q)))


def is_k_anonymous(jr: JointRange, q, k: int) -> bool:
    """True iff every cluster's conditional range holds at least k values.

    Decided on integer cardinalities, which agrees bit-for-bit with
    ``b0(jr, q) >= log2(k)`` because log2 is monotone and exact on equal
    integers.
    """
    if k < 1:
        raise ContractViolation("k-anonymity needs k >= 1")
    return min_range_size(jr, q) >= k
