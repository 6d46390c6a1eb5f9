"""Shared fixtures-in-code: the worked toy instance and random generators."""

from __future__ import annotations

import csv
import itertools
import random

import math
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Sequence

from privquant import (
    JointRange,
    LagrangianConfig,
    Problem,
    Quantization,
    Symbol,
    h0,
    l0,
    maximin_information,
    run,
)
from privquant.core import TOLERANCE, cond_range_cluster, finite_magnitude
from privquant.errors import ConfigurationError, ContractViolation, InfeasibleError, IngestError
from privquant.ingest import DEFAULT_MISSING, DatasetStats, _parses_as_number, _resolve_column
from privquant.graph import _canonical_clusters
from privquant.oracle import OracleResult, enumerate_partitions
from privquant.pareto import Frontier, ParetoPoint, default_lambda_grid
from privquant.quantize import (
    CodewordPolicy,
    UtilityChoice,
    UtilityKind,
    compute_codeword,
    utility,
)

# Joint range shared by the example-based tests: 6 sensitive values, 7 public ones.
TOY_PAIRS = [
    ("s1", "x1"),
    ("s1", "x2"),
    ("s2", "x1"),
    ("s3", "x3"),
    ("s3", "x4"),
    ("s4", "x5"),
    ("s5", "x6"),
    ("s6", "x7"),
]

TOY_VALUES = {"x1": 0.2, "x2": 0.1, "x3": 0.4, "x4": 0.3, "x5": 0.6, "x6": 1.5, "x7": 1.0}
TOY_VALUES_X7_4 = {**TOY_VALUES, "x7": 4.0}


def make_toy(values=None) -> JointRange:
    return JointRange.from_id_pairs(TOY_PAIRS, values)


def id_clusters(jr: JointRange, q: Quantization) -> set[frozenset[str]]:
    """Order-free view of a quantization, by symbol ids."""
    return {frozenset(jr.x_ids(c)) for c in q.clusters}


def clusters_by_id(jr: JointRange, *groups: tuple[str, ...]) -> list[set[int]]:
    """Index clusters from id tuples, e.g. clusters_by_id(jr, ("x1","x2"), ...)."""
    index = {sym.id: i for i, sym in enumerate(jr.x_symbols)}
    return [{index[i] for i in group} for group in groups]


def s_ids(jr: JointRange, indices: Iterable[int]) -> tuple[str, ...]:
    return tuple(jr.s_symbols[i].id for i in sorted(indices))


def joint_range_csv_rows(jr: JointRange) -> list[list[str]]:
    """One row per joint-range pair (s, x), with an ``s,x`` header, for reloading."""
    return [["s", "x"]] + [[jr.s_symbols[s].id, jr.x_symbols[x].id] for s, x in sorted(jr.pairs)]


def cluster_ids(q: Quantization) -> tuple[int, ...]:
    """Each cluster's identity, its smallest member, in canonical order."""
    return tuple(min(c) for c in q.clusters)


def cluster_of(q: Quantization, cluster_id: int) -> frozenset[int]:
    for c in q.clusters:
        if min(c) == cluster_id:
            return c
    raise ContractViolation(f"no cluster with id {cluster_id}")


def merge(q: Quantization, a: int, b: int) -> Quantization:
    """Fuse the clusters identified by ``a`` and ``b`` (min member indices).

    All other clusters are untouched; the fused cluster's codeword is
    recomputed from scratch under the quantization's policy.
    """
    if a == b:
        raise ContractViolation("cannot merge a cluster with itself")
    fused = cluster_of(q, a) | cluster_of(q, b)
    parts = sorted([c for c in q.clusters if min(c) not in (a, b)] + [fused], key=min)
    codewords = None
    if q.codewords is not None:
        codewords = tuple(
            compute_codeword([q.x_values[x] for x in sorted(p)], q.policy) for p in parts
        )
    return Quantization(tuple(parts), q.policy, q.x_values, codewords)


def cluster_distortion(q: Quantization, cluster_id: int) -> float:
    """Worst absolute difference between a member value and the cluster codeword."""
    if q.codewords is None:
        raise ConfigurationError("distortion needs numeric values on every X symbol")
    codeword = q.codewords[cluster_ids(q).index(cluster_id)]
    return max(abs(q.x_values[x] - codeword) for x in cluster_of(q, cluster_id))


def random_joint_range(
    rng: random.Random, max_s: int = 8, max_x: int = 9, with_values: bool = True
) -> JointRange:
    """Random joint range with both marginals covered, sized for brute force."""
    n_s = rng.randint(1, max_s)
    n_x = rng.randint(1, max_x)
    pairs = set()
    for x in range(n_x):
        pairs.add((rng.randrange(n_s), x))
    covered = {s for s, _ in pairs}
    for s in range(n_s):
        if s not in covered:
            pairs.add((s, rng.randrange(n_x)))
    for _ in range(rng.randint(0, (n_s * n_x) // 3)):
        pairs.add((rng.randrange(n_s), rng.randrange(n_x)))
    values = None
    if with_values:
        values = [round(rng.uniform(0.0, 10.0), 3) for _ in range(n_x)]
    s_syms = [Symbol(f"s{i}") for i in range(n_s)]
    x_syms = [Symbol(f"x{i}", values[i] if values else None) for i in range(n_x)]
    return JointRange(s_syms, x_syms, pairs)


def random_partition(rng: random.Random, n: int) -> list[set[int]]:
    """Uniform-ish random partition of {0..n-1} (random labels, normalized)."""
    labels = [rng.randrange(n) for _ in range(n)]
    blocks: dict[int, set[int]] = {}
    for x, lab in enumerate(labels):
        blocks.setdefault(lab, set()).add(x)
    return list(blocks.values())


def random_quantization(
    rng: random.Random, jr: JointRange, policy: CodewordPolicy = CodewordPolicy.CENTROID
) -> Quantization:
    return Quantization.from_clusters(jr, random_partition(rng, jr.n_x), policy)


def raw_leakage(jr: JointRange, q: Quantization, problem: Problem) -> float:
    if problem is Problem.MIN_ISTAR:
        return maximin_information(jr, q)
    return l0(jr, q)


def reference_sweep(
    jr: JointRange,
    problem: Problem,
    utility_choice: UtilityChoice,
    lambda_grid: Optional[Sequence[float]] = None,
    policy: CodewordPolicy = CodewordPolicy.CENTROID,
    include_trace_states: bool = True,
) -> Frontier:
    """``sweep`` as one full greedy run per distinct lambda.

    The reference the merge-path ``sweep`` is checked against: the
    per-lambda loop ``sweep`` had before it walked one shared merge path.
    """
    grid = default_lambda_grid() if lambda_grid is None else tuple(lambda_grid)
    if not grid:
        raise ContractViolation("lambda grid must be non-empty")
    seen_lams = set()
    candidates: dict[tuple, tuple[float, Quantization]] = {}
    for lam in grid:
        if lam in seen_lams:
            continue
        seen_lams.add(lam)
        result = run(jr, problem, LagrangianConfig(lam, utility_choice, policy))
        states: Iterable[Quantization]
        if include_trace_states:
            states = (entry.quantization for entry in result.trace)
        else:
            states = (result.quantization,)
        for q in states:
            candidates.setdefault(q.partition_key(), (lam, q))

    scored = []
    for lam, q in candidates.values():
        leak = raw_leakage(jr, q, problem)
        util = utility(jr, q, utility_choice)
        scored.append((leak, -util, lam, q.partition_key(), q))
    scored.sort(key=lambda row: row[:4])

    survivors: list[tuple[float, float, float, Quantization]] = []
    best_util = -math.inf
    last_coords = None
    for leak, neg_util, lam, _, q in scored:
        util = -neg_util
        if (leak, util) == last_coords:
            continue  # same coordinates, keep the first representative
        last_coords = (leak, util)
        if util > best_util + TOLERANCE:
            best_util = util
            survivors.append((lam, leak, util, q))

    singleton_leak = raw_leakage(
        jr, Quantization.from_clusters(jr, [{x} for x in range(jr.n_x)], policy), problem
    )
    degenerate = singleton_leak <= TOLERANCE
    u2_floor = None
    if utility_choice.kind is UtilityKind.U2_MAX_DISTORTION:
        u2_floor = min(util for _, _, util, _ in survivors)

    # The axes of docs/schemas.md: leakage over the singleton leakage (raw
    # bits when that is 0), loss 1 - U1/h0(X) or U2/u2_floor (0 when the
    # denominator is 0).
    points = []
    for lam, leak, util, q in survivors:
        leak_norm = leak if degenerate else leak / singleton_leak
        if u2_floor is not None:
            loss = 0.0 if abs(u2_floor) <= TOLERANCE else util / u2_floor
        elif jr.n_x == 1:
            loss = 0.0
        else:
            loss = 1.0 - util / h0(jr.n_x)
        points.append(ParetoPoint(lam, leak, leak_norm, util, loss, q))
    points.sort(key=lambda p: p.loss_norm)
    return Frontier(tuple(points), problem, utility_choice.kind, degenerate, u2_floor)


def reference_sweeney_baseline(
    jr: JointRange, k: int, policy: CodewordPolicy = CodewordPolicy.CENTROID
) -> Quantization:
    """``sweeney_baseline`` over a dict of member sets.

    The reference the state-based ``sweeney_baseline`` is checked against:
    its loop before it merged on greedy's cluster state, which rescored every
    cluster's range and codeword from its members on each merge.
    """
    if k < 1:
        raise ContractViolation("k must be at least 1")
    if k > jr.n_s:
        raise InfeasibleError(
            f"{k}-anonymity is impossible: S has only {jr.n_s} values",
            max_achievable=float(jr.n_s),
        )
    values = jr.x_values()
    numeric = all(v is not None for v in values)
    clusters: dict[int, set[int]] = {x: {x} for x in range(jr.n_x)}

    def range_size(cid: int) -> int:
        return jr.cond_mask_cluster(clusters[cid]).bit_count()

    while True:
        offenders = [cid for cid in clusters if range_size(cid) < k]
        if not offenders:
            break
        cid = min(offenders, key=lambda c: (range_size(c), c))
        others = [c for c in clusters if c != cid]
        if numeric:
            def codeword(c: int) -> float:
                return compute_codeword([values[x] for x in sorted(clusters[c])], policy)

            own = codeword(cid)
            partner = min(others, key=lambda c: (abs(codeword(c) - own), c))
        else:
            partner = min(others, key=lambda c: (abs(c - cid), c))
        keep = min(cid, partner)
        drop = max(cid, partner)
        clusters[keep] = clusters[keep] | clusters[drop]
        del clusters[drop]
    return Quantization.from_clusters(jr, clusters.values(), policy)


class UnionFind:
    """Minimal union-find with path halving, for the component references below."""

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
        self.parent[self.find(b)] = self.find(a)


def overlap_partition_oracle(jr: JointRange, q) -> tuple[frozenset[int], ...]:
    """Finest overlap partition of the S alphabet, straight from the definition.

    All sensitive values covered by one released cluster are overlap
    connected; the partition is the transitive closure of that relation,
    computed by union-find over S indices, its blocks in order of least
    member. The reference for ``graph.components``, the fold over X clusters.
    """
    uf = UnionFind(jr.n_s)
    for cluster in _canonical_clusters(q):
        first, *rest = sorted(cond_range_cluster(jr, cluster))
        for s in rest:
            uf.union(first, s)
    groups: dict[int, set[int]] = {}
    for s in range(jr.n_s):
        groups.setdefault(uf.find(s), set()).add(s)
    return tuple(map(frozenset, groups.values()))


def reference_component_count(masks: Sequence[int]) -> int:
    """The number of ``graph.components`` as a union-find over every intersecting pair.

    The reference the mask fold ``components`` is checked against.
    """
    n = len(masks)
    uf = UnionFind(n)
    for i in range(n):
        mi = masks[i]
        for j in range(i + 1, n):
            if mi & masks[j]:
                uf.union(i, j)
    return sum(p == i for i, p in enumerate(uf.parent))


def reference_from_clusters(jr: JointRange, clusters, policy: CodewordPolicy) -> Quantization:
    """``Quantization.from_clusters`` building every cluster and codeword afresh.

    The reference the quantizations of ``quantize.quantizer``, which reuses
    the clusters it has built, are checked against: the construction before
    the quantizer, with its own sort and codeword loop.
    """
    parts = [frozenset(c) for c in clusters]
    if any(not p for p in parts):
        raise ContractViolation("clusters must be non-empty")
    if set().union(*parts) != set(range(jr.n_x)) or sum(map(len, parts)) != jr.n_x:
        raise ContractViolation("clusters must partition the X alphabet")
    parts.sort(key=min)
    values = jr.x_values()
    codewords = None
    if all(v is not None for v in values):
        codewords = tuple(
            compute_codeword([values[x] for x in sorted(p)], policy) for p in parts
        )
    return Quantization(tuple(parts), policy, values, codewords)


def reference_pair_cost(state, a: int, b: int):
    """Cost of the cluster that fusing the clusters of ids ``a`` and ``b`` of
    ``state`` would give.

    The reference the cost rule ``_State.pair_cost``, which takes the two
    ``_Cluster`` records, is checked against: the rule as it was when it
    looked its clusters up by id.
    """
    ca, cb = state.clusters[a], state.clusters[b]
    if not state.needs_values:
        return ca.size + cb.size
    if state.centroid:
        cw = (ca.total + cb.total) / state.scale / (ca.size + cb.size)
    else:
        cw = state.values[min(a, b)]
    return max(0.0, cw - min(ca.vmin, cb.vmin), max(ca.vmax, cb.vmax) - cw)


def reference_best_partner_min_l0(state, cid: int) -> Optional[int]:
    """``greedy._best_partner_min_l0`` as a scan that scores every live cluster.

    The reference the indexed partner search is checked against.
    """
    cx = state.clusters[cid]
    best_key = best = None
    for other in state.clusters.values():
        if other.cid == cid or other.smask == cx.smask:
            continue
        o = other.cid
        key = (reference_pair_cost(state, cid, o), cx.size + other.size, min(cid, o), o)
        if best_key is None or key < best_key:
            best_key, best = key, o
    return best


def reference_cross_component_pairs(state):
    """Every cluster pair ``(a, b)``, ``a < b``, in different components, with
    its tie key ``(-larger x_count, -smaller x_count, a, b)``.

    The pairs ``greedy._cross`` meets, each once, as a scan over every
    cluster pair, in ascending ``(a, b)`` order. It reads only the live
    clusters, not the state's component record: components come from a
    union-find over every pair of intersecting S-masks, and a component's
    size is the sum of its clusters' sizes.
    """
    cids = sorted(state.clusters)
    uf = UnionFind(len(cids))
    for i, a in enumerate(cids):
        for j in range(i + 1, len(cids)):
            if state.clusters[a].smask & state.clusters[cids[j]].smask:
                uf.union(i, j)
    root = [uf.find(i) for i in range(len(cids))]
    size = dict.fromkeys(root, 0)
    for i, a in enumerate(cids):
        size[root[i]] += state.clusters[a].size
    for i, a in enumerate(cids):
        for j in range(i + 1, len(cids)):
            if root[i] != root[j]:
                b, sa, sb = cids[j], size[root[i]], size[root[j]]
                yield a, b, ((-sa, -sb, a, b) if sa >= sb else (-sb, -sa, a, b))


def reference_min_istar_pair(state) -> tuple[int, int]:
    """Algorithm 2's pair as the least ``(cost, *tie)`` over every cross-component pair."""
    pairs = reference_cross_component_pairs(state)
    *_, a, b = min((reference_pair_cost(state, a, b), *tie) for a, b, tie in pairs)
    return a, b


def reference_l0_zero_istar_candidates(state) -> list[tuple]:
    """Algorithm 3's moves as a scan that scores every cross-component pair.

    ``greedy._l0_zero_istar_candidates`` before its extreme-cluster shortcut
    and its dominance filter: every group of equal ``(dpriv, u_new)``, each
    with its least ``rest = (range_sum, *tie)``. Each lambda picks the same
    move from these groups as from the search's.
    """
    min_range_bits = math.log2(min(c.smask.bit_count() for c in state.clusters.values()))
    by_range = sorted(state.clusters.values(), key=lambda c: c.smask.bit_count())
    by_cost = sorted(state.clusters.values(), key=lambda c: c.cost, reverse=True)
    groups: dict[tuple[float, float], tuple] = {}
    for a, b, tie in reference_cross_component_pairs(state):
        ca, cb = state.clusters[a], state.clusters[b]
        new_min = (ca.smask | cb.smask).bit_count()
        cost = reference_pair_cost(state, a, b)
        # The least range and the greatest cost outside the pair: the first
        # cluster outside it in ascending range, and in descending cost.
        least, costliest = (next((c for c in order if c.cid != a and c.cid != b), None)
                            for order in (by_range, by_cost))
        if least is not None:  # some cluster lies outside the pair
            new_min = min(new_min, least.smask.bit_count())
            cost = max(cost, costliest.cost)
        u_new = state.utility_of(cost)
        dpriv = min_range_bits - math.log2(new_min)
        rest = (ca.smask.bit_count() + cb.smask.bit_count(), *tie)
        best = groups.get((dpriv, u_new))
        if best is None or rest < best[2]:
            groups[dpriv, u_new] = (dpriv, u_new, rest)
    return list(groups.values())


def reference_pick(moves: list[tuple], lam: float, u_old: float) -> tuple:
    """The move a run at ``lam`` takes from ``moves`` (``greedy._pick``' rule):
    the least Lagrangian change ``dpriv + lam * (u_old - u_new)``, then ``rest``."""
    return min((m[0] + lam * (u_old - m[1]), m[2], m) for m in moves)[2]


def sparse_joint_range(rng: random.Random, n_x: int) -> JointRange:
    """A table of many small confusability components.

    Two in five X values are singleton components, each alone on its S
    value. The others fall in groups of 2 to 6 that share an S value, and
    about half the groups give one member a second S value of its own, so
    S-ranges differ. X ids are shuffled across components, and values lie
    on a 0.1 grid, so component sizes and merged costs tie often.
    """
    xs = list(range(n_x))
    rng.shuffle(xs)
    n_single = round(0.4 * n_x)
    pairs = {(s, x) for s, x in enumerate(xs[:n_single])}
    s, start = n_single, n_single
    while start < n_x:
        group = xs[start:start + rng.randint(2, 6)]
        pairs |= {(s, x) for x in group}
        if rng.random() < 0.5:
            s += 1
            pairs.add((s, rng.choice(group)))
        s, start = s + 1, start + len(group)
    return JointRange(
        [Symbol(f"s{i}") for i in range(s)],
        [Symbol(f"x{i}", rng.randrange(200) / 10) for i in range(n_x)],
        pairs,
    )


def reference_rgs_strings(n: int) -> list[tuple[int, ...]]:
    """Every restricted-growth string of length n, lexicographically, by recursion."""
    out = []

    def grow(prefix: list[int], top: int) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(top + 2):
            grow(prefix + [v], max(top, v))

    grow([0], 0)
    return out


def blocks_from_rgs(rgs: tuple[int, ...]) -> list[list[int]]:
    """The blocks of a restricted-growth string, each ascending, in block order."""
    blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
    for x, block in enumerate(rgs):
        blocks[block].append(x)
    return blocks


def reference_oracle_min(
    jr: JointRange,
    problem: Problem,
    cfg: LagrangianConfig,
    theta: Optional[float] = None,
) -> OracleResult:
    """``oracle_min`` in two enumeration passes, scoring every partition afresh.

    The reference the one-pass, block-table ``oracle_min`` is checked
    against: each partition's blocks, S-masks, codewords and distortions are
    rebuilt from its RGS; the first pass finds the optimum, the second
    counts the partitions within ``TOLERANCE`` of it and takes the first of
    them as the witness, whose objective is the value. It checks for numeric
    values inline, without ``quantize``'s own check, and raises its message.
    """
    n = jr.n_x
    u2 = cfg.utility.kind is UtilityKind.U2_MAX_DISTORTION
    values = jr.x_values()
    if u2 and any(v is None for v in values):
        raise ConfigurationError(
            "max-distortion utility needs numeric values on every X symbol"
        )
    masks = [jr.cond_mask_x(x) for x in range(n)]
    h0_s = h0(jr.n_s)
    h0_x = h0(n)
    lam = cfg.lam
    centroid = cfg.policy is CodewordPolicy.CENTROID

    def score(rgs: tuple[int, ...]) -> tuple[bool, float, float, bool]:
        blocks = blocks_from_rgs(rgs)
        smasks = []
        for block in blocks:
            m = 0
            for x in block:
                m |= masks[x]
            smasks.append(m)
        if u2:
            worst = 0.0
            for block in blocks:
                vals = [values[x] for x in block]
                cw = math.fsum(vals) / len(vals) if centroid else vals[0]
                for v in vals:
                    if abs(v - cw) > worst:
                        worst = abs(v - cw)
            util = -worst
        else:
            util = h0_x - math.log2(max(len(b) for b in blocks))

        if problem is Problem.MIN_ISTAR:
            privacy = math.log2(reference_component_count(smasks))
        else:
            privacy = h0_s - math.log2(min(m.bit_count() for m in smasks))
            if problem is Problem.MIN_L0_ZERO_ISTAR and reference_component_count(smasks) != 1:
                return False, math.inf, util, False

        if theta is None:
            return True, privacy - lam * util, util, True
        if util >= theta - TOLERANCE:
            return True, privacy, util, True
        return False, math.inf, util, True

    best = math.inf
    best_util = -math.inf
    any_feasible = False
    for rgs in enumerate_partitions(n):
        feasible, obj, util, structural_ok = score(rgs)
        if structural_ok and util > best_util:
            best_util = util
        if feasible:
            any_feasible = True
            if obj < best:
                best = obj
    if not any_feasible:
        raise InfeasibleError(
            f"no quantization satisfies the constraint; best achievable utility is "
            f"{best_util:.6g}",
            max_achievable=best_util,
        )

    count = 0
    witness: Optional[tuple[int, ...]] = None
    for rgs in enumerate_partitions(n):
        feasible, obj, _, _ = score(rgs)
        if feasible and obj <= best + TOLERANCE:
            count += 1
            if witness is None:
                witness, value = rgs, obj
    q = Quantization.from_clusters(jr, blocks_from_rgs(witness), cfg.policy)
    return OracleResult(value, q, count)


def reference_load_csv(
    path,
    s_column,
    x_column,
    *,
    missing: Sequence[str] = DEFAULT_MISSING,
    has_header: bool = True,
    delimiter: str = ",",
    require_numeric_x: bool = False,
):
    """``load_csv`` as a row-by-row scan: every record is checked and kept in
    file order, and the first failing row raises with its number."""
    if len(delimiter) != 1:
        raise ConfigurationError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    missing_set = set(missing)

    def csv_rows(fh):
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            yield from reader
        except UnicodeDecodeError:
            raise IngestError("file is not UTF-8 text") from None
        except csv.Error as exc:
            line = reader.line_num
            raise IngestError(f"CSV error on line {line}: {exc}", row=line) from None

    records: list[tuple[str, str]] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv_rows(fh)
        first_row = next(reader, None)
        if first_row is None:
            raise IngestError("file is empty")
        first_row = [cell.strip() for cell in first_row]
        header = first_row if has_header else None
        rows = reader if has_header else itertools.chain([first_row], reader)
        s_idx = _resolve_column(s_column, header, len(first_row), "sensitive")
        x_idx = _resolve_column(x_column, header, len(first_row), "public")
        for row_no, row in enumerate(rows, start=2 if has_header else 1):
            if not row or all(not str(c).strip() for c in row):
                continue
            if len(row) <= max(s_idx, x_idx):
                raise IngestError(f"row has only {len(row)} columns", row=row_no)
            s_cell = str(row[s_idx]).strip()
            x_cell = str(row[x_idx]).strip()
            if s_cell in missing_set or x_cell in missing_set:
                continue
            if require_numeric_x and not _parses_as_number(x_cell):
                raise IngestError(f"public column value {x_cell!r} is not numeric", row=row_no)
            if not s_cell or not x_cell:
                what = "public" if s_cell else "sensitive"
                raise IngestError(f"{what} column value is empty", row=row_no)
            records.append((s_cell, x_cell))

    if not records:
        raise IngestError("no records left after missing-value filtering")
    x_tokens = {x for _, x in records}
    x_values = None
    if all(_parses_as_number(tok) for tok in x_tokens):
        x_values = {tok: float(tok) for tok in x_tokens}
        if not all(map(math.isfinite, x_values.values())):
            bad = next(x for _, x in records if not math.isfinite(x_values[x]))
            raise IngestError(f"public column value {bad!r} is not a finite number")
        if not finite_magnitude(x_values.values()):
            raise IngestError("public column values are too large: |x| sums past the float range")
    counts = Counter(records)
    return JointRange.from_id_pairs(records, x_values), DatasetStats(
        record_count=len(records),
        distinct_s=len({s for s, _ in records}),
        distinct_x=len({x for _, x in records}),
        distinct_pairs=len(counts),
        singleton_pairs=sum(1 for c in counts.values() if c == 1),
    )
