"""Seeded corpus generators.

Every generator takes a ``random.Random`` built from the run's seed and
returns plain rows or pairs; privquant only ever receives the tables these
produce. The shape parameters that drive the amount of work (row counts,
alphabet sizes, component structure) are fixed, so seeds vary the content
much more than the work, which keeps runs on different seeds comparable.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

Rows = list[tuple[str, str]]


# Ages that own their cholesterol values: each is a component of its own.
ISOLATED_AGES = (33, 47, 61)
ISOLATED_ROWS = 2


def paper_table(rng: random.Random, n_rows: int = 293, n_chol: int = 166) -> Rows:
    """Synthetic table shaped like the Hungarian heart-disease extract.

    S = age on 28..66 (all 39 values occur), X = cholesterol ~ N(250, 60)
    rounded to an integer, with exactly ``n_chol`` distinct values. The
    confusability graph has exactly ``1 + len(ISOLATED_AGES)`` components:
    each age in ``ISOLATED_AGES`` has ``ISOLATED_ROWS`` rows whose
    cholesterol values no other row shares, and the other ages are redrawn
    until they form one connected component. The component-driven
    algorithms (``istar``, ``l0-zero-istar``) therefore merge across
    components on every seed, and the amount of that work does not depend on
    the seed. It is synthetic and never stands in for the real data set.
    """
    n_own = len(ISOLATED_AGES) * ISOLATED_ROWS
    ages = [a for a in range(28, 67) if a not in ISOLATED_AGES]
    while True:
        rows, chol = _paper_draw(rng, ages, n_rows - n_own, n_chol - n_own)
        if _connected(rows):
            break
    own: list[int] = []
    while len(own) < n_own:
        c = _chol(rng)
        if c not in chol and c not in own:
            own.append(c)
    rows += [(str(a), str(c)) for a, c in zip(
        [a for a in ISOLATED_AGES for _ in range(ISOLATED_ROWS)], own)]
    rng.shuffle(rows)
    return rows


def _chol(rng: random.Random) -> int:
    return max(85, min(603, round(rng.gauss(250.0, 60.0))))


def _paper_draw(rng: random.Random, ages: list[int], n_rows: int,
                n_chol: int) -> tuple[Rows, set[int]]:
    chol: list[int] = []
    distinct: set[int] = set()
    while len(distinct) < n_chol:
        c = _chol(rng)
        if c not in distinct:
            distinct.add(c)
            chol.append(c)
    while len(chol) < n_rows:
        c = _chol(rng)
        if c in distinct:
            chol.append(c)
    drawn = ages + [rng.choice(ages) for _ in range(n_rows - len(ages))]
    rng.shuffle(drawn)
    return [(str(a), str(c)) for a, c in zip(drawn, chol)], distinct


def _connected(rows: Rows) -> bool:
    """Whether every S value is linked to every other through shared X values."""
    parent: dict[str, str] = {s: s for s, _ in rows}

    def find(s: str) -> str:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    first_s: dict[str, str] = {}
    for s, x in rows:
        parent[find(s)] = find(first_s.setdefault(x, s))
    return len({find(s) for s in parent}) == 1


def sparse_table(rng: random.Random, n_x: int, n_singletons: int, group: int = 6,
                 n_bridges: int = 4) -> Rows:
    """Sparse table whose confusability graph has many components.

    |S| = n_x / 2. Each of the first ``n_singletons`` S values owns exactly one
    X value (a singleton component). Every other S value owns ``group`` X
    values, and ``n_bridges`` X values in groups 2i also occur with the S
    value of group 2i + 1, which joins those two groups. The component sizes
    are therefore fixed; the seed decides which X values land where and the
    values themselves: distinct reals with three decimals.
    """
    n_s = n_x // 2
    n_groups = n_s - n_singletons
    if n_singletons + group * n_groups != n_x or 2 * n_bridges > n_groups:
        raise ValueError("table shape does not add up")
    values = [f"{v / 1000:.3f}" for v in rng.sample(range(1, 100_000), n_x)]
    rng.shuffle(values)
    rows = [(f"s{i}", values[i]) for i in range(n_singletons)]
    members: list[list[str]] = []
    for g in range(n_groups):
        start = n_singletons + g * group
        members.append(values[start:start + group])
        rows += [(f"s{n_singletons + g}", v) for v in members[-1]]
    for i in range(n_bridges):
        rows.append((f"s{n_singletons + 2 * i + 1}", rng.choice(members[2 * i])))
    rng.shuffle(rows)
    return rows


def random_pairs(rng: random.Random, n_s: int, n_x: int) -> Rows:
    """Random joint range with both marginals covered, for exhaustive search.

    The construction of the property-test corpus at fixed alphabet sizes: one
    S value per X value, every S value covered, then up to a third of the
    grid filled at random. X values are distinct draws from [0, 10] with
    three decimals, so they can serve as the X cells of a CSV.
    """
    pairs = {(rng.randrange(n_s), x) for x in range(n_x)}
    covered = {s for s, _ in pairs}
    pairs |= {(s, rng.randrange(n_x)) for s in range(n_s) if s not in covered}
    for _ in range(rng.randint(0, (n_s * n_x) // 3)):
        pairs.add((rng.randrange(n_s), rng.randrange(n_x)))
    values = [f"{v / 1000:.3f}" for v in rng.sample(range(10_001), n_x)]
    return sorted((f"s{s}", values[x]) for s, x in pairs)


def dense_table(
    rng: random.Random, n_rows: int = 50_000, n_s: int = 73, n_x: int = 150
) -> Rows:
    """Dense table in which every (S, X) cell occurs at least once.

    Every X value's conditional range is then the whole S alphabet, so the
    leakage is zero from the start; the remaining rows are drawn uniformly.
    """
    s_vals = [str(20 + i) for i in range(n_s)]
    x_vals = [str(100 + 2 * i) for i in range(n_x)]
    rows = [(s, x) for s in s_vals for x in x_vals]
    choice = rng.choice
    rows += [(choice(s_vals), choice(x_vals)) for _ in range(n_rows - len(rows))]
    rng.shuffle(rows)
    return rows


def write_csv(path: Path, header: tuple[str, str], rows: Rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
