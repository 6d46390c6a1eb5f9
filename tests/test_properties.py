"""Property tests over random joint ranges (skipped without hypothesis).

* A sweep's raw coordinates are the walk's own scores, so every frontier
  point must recompute bit for bit from its quantization with the public
  measures.
* No greedy run beats the exhaustive optimum of its problem.
* The decomposition a component-driven run reports partitions S exactly as
  the overlap relation of its quantization does.
"""

from __future__ import annotations

import math

import pytest

from privquant import (
    JointRange,
    LagrangianConfig,
    Problem,
    Symbol,
    l0,
    lagrangian_l0,
    maximin_information,
    oracle_min,
    overlap_partition_oracle,
    run,
    sweep,
)
from privquant.quantize import CodewordPolicy, UtilityChoice, utility

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _squared(a, b):
    return (a - b) ** 2


UTILITIES = (UtilityChoice.u1(), UtilityChoice.u2(), UtilityChoice.u2(_squared))
SETTINGS = dict(deadline=None, database=None)


@st.composite
def joint_ranges(draw, max_s: int = 6, max_x: int = 7) -> JointRange:
    """Every X symbol has an S-range of one or two values (so there are often
    several confusability components), every S value occurs, and X values
    mix small integers (many ties) with arbitrary floats."""
    n_s = draw(st.integers(1, max_s))
    n_x = draw(st.integers(1, max_x))
    ranges = draw(st.lists(
        st.sets(st.integers(0, n_s - 1), min_size=1, max_size=2), min_size=n_x, max_size=n_x
    ))
    pairs = {(s, x) for x, r in enumerate(ranges) for s in r}
    for s in set(range(n_s)).difference(*ranges):
        pairs.add((s, draw(st.integers(0, n_x - 1))))
    value = st.one_of(
        st.integers(0, 4).map(float), st.floats(-10.0, 10.0, allow_nan=False)
    )
    values = draw(st.lists(value, min_size=n_x, max_size=n_x))
    return JointRange(
        [Symbol(f"s{i}") for i in range(n_s)],
        [Symbol(f"x{i}", v) for i, v in enumerate(values)],
        pairs,
    )


lambdas = st.floats(0.0, 20.0, allow_nan=False)


@hypothesis.settings(max_examples=200, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(),
    problem=st.sampled_from(Problem),
    u=st.sampled_from(UTILITIES),
    policy=st.sampled_from(CodewordPolicy),
    include_trace_states=st.booleans(),
    grid=st.one_of(st.none(), st.lists(lambdas, min_size=1, max_size=6)),
)
def test_frontier_points_recompute_from_their_quantizations(
    jr, problem, u, policy, include_trace_states, grid
):
    frontier = sweep(jr, problem, u, grid, policy, include_trace_states)
    measure = maximin_information if problem is Problem.MIN_ISTAR else l0
    for p in frontier.points:
        assert p.leakage_raw == measure(jr, p.quantization)
        assert p.utility_raw == utility(jr, p.quantization, u)


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(max_x=6),
    u=st.sampled_from(UTILITIES[:2]),
    lam=lambdas,
)
def test_greedy_never_beats_the_oracle(jr, u, lam):
    cfg = LagrangianConfig(lam, u)
    for problem in Problem:
        q = run(jr, problem, cfg).quantization
        if problem is Problem.MIN_ISTAR:
            achieved = maximin_information(jr, q) - lam * utility(jr, q, u)
        else:
            achieved = lagrangian_l0(jr, q, cfg)
        assert achieved >= oracle_min(jr, problem, cfg).value - 1e-9


@hypothesis.settings(max_examples=100, **SETTINGS)
@hypothesis.given(
    jr=joint_ranges(),
    problem=st.sampled_from((Problem.MIN_ISTAR, Problem.MIN_L0_ZERO_ISTAR)),
    u=st.sampled_from(UTILITIES),
    lam=lambdas,
)
def test_decomposition_blocks_are_the_overlap_partition(jr, problem, u, lam):
    result = run(jr, problem, LagrangianConfig(lam, u))
    s_ranges = set()
    for block in result.decomposition.blocks:
        mask = jr.cond_mask_cluster(block)
        s_ranges.add(frozenset(s for s in range(jr.n_s) if mask >> s & 1))
    assert s_ranges == set(overlap_partition_oracle(jr, result.quantization))
    assert len(s_ranges) == len(result.decomposition.blocks)
    assert math.log2(len(s_ranges)) == maximin_information(jr, result.quantization)
