"""Acceptance gate: every numbered criterion as one test, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Criterion 8 needs the Hungarian heart-disease extract on
disk (see the module docstring of ``_find_hungarian``); it is reported as an
explicit skip when the file is absent.
"""

import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from helpers import (
    id_clusters,
    overlap_partition_oracle,
    random_joint_range,
    random_partition,
    s_ids,
)
from privquant import (
    LagrangianConfig,
    Problem,
    UtilityChoice,
    algorithm1_min_l0,
    algorithm2_min_istar,
    algorithm3_l0_zero_istar,
    b0,
    build_graph,
    finest_decomposition,
    h0,
    is_k_anonymous,
    l0,
    lagrangian_l0,
    load_csv,
    maximin_information,
    merge_update,
    oracle_min,
    singleton_quantization,
    sweep,
    sweeney_baseline,
    utility,
)

U1 = UtilityChoice.u1()
U2 = UtilityChoice.u2()


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num}: FAIL - {description}")
        raise
    print(f"\nCRITERION {num}: PASS - {description}")


def sets(*groups):
    return {frozenset(g) for g in groups}


def test_criterion_1_toy_maximin_and_overlap_partition(toy):
    with criterion(1, "toy maximin information and overlap partition, under 1 ms"):
        q0 = singleton_quantization(toy)
        assert maximin_information(toy, q0) == pytest.approx(math.log2(5), abs=1e-12)
        partition = {frozenset(s_ids(toy, b)) for b in overlap_partition_oracle(toy, q0)}
        assert partition == sets(("s1", "s2"), ("s3",), ("s4",), ("s5",), ("s6",))
        best = min(
            _timed(lambda: maximin_information(toy, q0)) for _ in range(5)
        )
        assert best < 1e-3, f"maximin took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_min_leakage_resolution_trace(toy):
    with criterion(2, "leakage-minimizing run, resolution utility, lambda 0.3"):
        r = algorithm1_min_l0(toy, LagrangianConfig(0.3, U1))
        assert [e.lagrangian for e in r.trace] == pytest.approx(
            [1.7428, 1.2183, 0.7578, 0.0], abs=1e-3
        )
        assert r.trace[1].delta_l == pytest.approx(-0.5245, abs=1e-3)
        assert r.trace[2].delta_l == pytest.approx(-0.4605, abs=1e-3)
        assert id_clusters(toy, r.trace[1].quantization) == sets(
            ("x1", "x2", "x7"), ("x3", "x5"), ("x4", "x6")
        )
        assert id_clusters(toy, r.trace[2].quantization) == sets(
            ("x1", "x2", "x7"), ("x3", "x4", "x5", "x6")
        )
        assert id_clusters(toy, r.quantization) == sets(
            ("x1", "x2", "x3", "x4", "x5", "x6", "x7")
        )


def test_criterion_3_min_leakage_distortion_trace(toy_v):
    with criterion(3, "leakage-minimizing run, max-distortion utility, lambda 2.5"):
        r = algorithm1_min_l0(toy_v, LagrangianConfig(2.5, U2))
        assert [e.lagrangian for e in r.trace] == pytest.approx([2.5850, 2.21], abs=1e-3)
        assert r.rejected_delta_l == pytest.approx(0.0758, abs=1e-3)
        assert id_clusters(toy_v, r.quantization) == sets(
            ("x1", "x2", "x4"), ("x3", "x5"), ("x6", "x7")
        )


def test_criterion_4_min_maximin_resolution_trace(toy):
    with criterion(4, "maximin-minimizing run, resolution utility, lambda 0.3"):
        r = algorithm2_min_istar(toy, LagrangianConfig(0.3, U1))
        assert r.trace[1].delta_l == pytest.approx(-0.0219, abs=1e-3)
        assert [e.merged for e in r.trace[1:]] == [
            ((0, 2),),
            ((1, 4),),
            ((3, 5),),
            ((0, 6),),
        ]
        assert id_clusters(toy, r.quantization) == sets(
            ("x1", "x3", "x7"), ("x2", "x5"), ("x4", "x6")
        )
        assert [e.component_count for e in r.trace] == [5, 4, 3, 2, 1]
        sum_form = [
            math.log2(e.component_count) + 0.3 * e.utility_value for e in r.trace
        ]
        assert sum_form == pytest.approx(
            [3.1641, 2.5422, 2.1272, 1.5422, 0.3667], abs=1e-3
        )


def test_criterion_5_min_maximin_distortion_trace(toy_v4):
    with criterion(5, "maximin-minimizing run, max-distortion utility, outlier x7"):
        r = algorithm2_min_istar(toy_v4, LagrangianConfig(0.3, U2))
        assert [e.lagrangian for e in r.trace] == pytest.approx(
            [2.3219, 2.0150, 1.6150, 1.2001], abs=1e-2
        )
        assert id_clusters(toy_v4, r.quantization) == sets(
            ("x1", "x4"), ("x3", "x5", "x6"), ("x2",), ("x7",)
        )


def test_criterion_6_zero_maximin_variant(toy):
    with criterion(6, "constrained run reaches zero maximin information"):
        r = algorithm3_l0_zero_istar(toy, LagrangianConfig(0.3, U1))
        assert id_clusters(toy, r.quantization) == sets(
            ("x1", "x6", "x7"), ("x2", "x3"), ("x4", "x5")
        )
        assert maximin_information(toy, r.quantization) == 0.0


def test_criterion_7_toy_pareto_frontier(toy):
    with criterion(7, "toy Pareto frontier contains the three reference points"):
        fr = sweep(toy, Problem.MIN_ISTAR, U1)
        for loss, leak in ((0.0, 1.0), (0.3562, 0.4307), (0.5646, 0.0)):
            assert any(
                abs(p.loss_norm - loss) <= 1e-3 and abs(p.leakage_norm - leak) <= 1e-3
                for p in fr.points
            ), (loss, leak)


# ---------------------------------------------------------------------------
# Criterion 8: the Hungarian heart-disease experiment (dataset-gated)
# ---------------------------------------------------------------------------

_HUNGARIAN_STATS = (293, 38, 154, 281, 269)


def _find_hungarian():
    """Locate the Hungarian heart-disease extract.

    Looks at $PRIVQUANT_HUNGARIAN, then data/hungarian.csv (two columns,
    header ``age,chol``), then data/reprocessed.hungarian.data (the UCI
    space-separated 14-attribute file; age is column 0, cholesterol column
    4, missing values -9). README.md documents the recipe.
    """
    candidates = []
    env = os.environ.get("PRIVQUANT_HUNGARIAN")
    if env:
        candidates.append(Path(env))
    data_dir = Path(__file__).resolve().parent.parent / "data"
    candidates += [
        data_dir / "hungarian.csv",
        data_dir / "reprocessed.hungarian.data",
        data_dir / "hungarian.data",
    ]
    for path in candidates:
        if path.is_file():
            return path
    return None


def _load_hungarian(path):
    if path.suffix == ".csv":
        return load_csv(path, "age", "chol")
    return load_csv(path, 0, 4, has_header=False, delimiter=" ")


def test_criterion_8_hungarian_experiment():
    path = _find_hungarian()
    if path is None:
        pytest.skip(
            "Hungarian heart-disease dataset not available (this sandbox has no "
            "network access beyond package mirrors). Provide the file via "
            "$PRIVQUANT_HUNGARIAN or data/ to run criterion 8; see README.md "
            "for the ingestion recipe. Criterion reported as SKIPPED, not passed."
        )
    with criterion(8, "Hungarian ingestion stats and frontier-vs-baseline dominance"):
        t0 = time.perf_counter()
        jr, st = _load_hungarian(path)
        assert (
            st.record_count,
            st.distinct_s,
            st.distinct_x,
            st.distinct_pairs,
            st.singleton_pairs,
        ) == _HUNGARIAN_STATS
        fr = sweep(
            jr,
            Problem.MIN_L0,
            U1,
            lambda_grid=[0.0, 0.03, 0.1, 0.3, 1.0, 2.3, 5.0, 10.0],
        )
        baseline_q = sweeney_baseline(jr, 5)
        assert is_k_anonymous(jr, baseline_q, 5)
        leak_full = l0(jr, singleton_quantization(jr))
        base_leak = l0(jr, baseline_q) / leak_full
        base_loss = 1.0 - utility(jr, baseline_q, U1) / h0(jr.n_x)
        assert base_loss == pytest.approx(0.7, abs=5e-3)
        assert base_leak == pytest.approx(0.1688, abs=5e-3)
        assert any(
            p.leakage_norm <= 0.169 + 5e-3 and p.loss_norm <= 0.667 + 5e-3
            for p in fr.points
        )
        assert any(
            p.leakage_norm <= base_leak + 1e-9 and p.loss_norm < base_loss - 1e-9
            for p in fr.points
        ), "no frontier point dominates the 5-anonymity baseline"
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# Criterion 9: randomized property suite
# ---------------------------------------------------------------------------


def test_criterion_9_property_suite():
    with criterion(9, "randomized property suite (220 instances, six properties)"):
        t0 = time.perf_counter()
        rng = random.Random(987654321)
        instances = [random_joint_range(rng) for _ in range(220)]
        lam = 0.3
        for idx, jr in enumerate(instances):
            quantizations = [
                [{x} for x in range(jr.n_x)],
                random_partition(rng, jr.n_x),
                [set(range(jr.n_x))],
            ]
            singleton_dec = finest_decomposition(
                build_graph(jr, [{x} for x in range(jr.n_x)])
            )
            for q in quantizations:
                # (a) maximin information never exceeds maximal leakage
                assert maximin_information(jr, q) <= l0(jr, q) + 1e-9
                # (b) definitional overlap partition matches the cluster components
                assert len(overlap_partition_oracle(jr, q)) == len(
                    finest_decomposition(build_graph(jr, q))
                )
                # (e) incremental component update equals a full rebuild
                assert (
                    merge_update(singleton_dec, q).blocks
                    == finest_decomposition(build_graph(jr, q)).blocks
                )
                # (f) k-anonymity is exactly the residual-uncertainty bound
                for k in range(1, jr.n_s + 1):
                    assert is_k_anonymous(jr, q, k) == (b0(jr, q) >= math.log2(k))

            # (c) strict reported-Lagrangian descent on every accepted iteration
            u = U1 if idx % 2 == 0 else U2
            cfg = LagrangianConfig(lam, u)
            r1 = algorithm1_min_l0(jr, cfg)
            lags = [e.lagrangian for e in r1.trace]
            assert all(later < earlier for earlier, later in zip(lags, lags[1:]))
            assert all(e.delta_l < 0 for e in r1.trace[1:])
            r2 = algorithm2_min_istar(jr, cfg)
            lags2 = [e.lagrangian for e in r2.trace]
            assert all(later < earlier for earlier, later in zip(lags2, lags2[1:]))
            assert all(e.delta_l < 0 for e in r2.trace[1:])
            r3 = algorithm3_l0_zero_istar(jr, cfg)

            # (d) no greedy run ever beats the exhaustive optimum
            o1 = oracle_min(jr, Problem.MIN_L0, cfg)
            assert lagrangian_l0(jr, r1.quantization, cfg) >= o1.value - 1e-9
            o2 = oracle_min(jr, Problem.MIN_ISTAR, cfg)
            last = r2.trace[-1]
            greedy2 = math.log2(last.component_count) - lam * last.utility_value
            assert greedy2 >= o2.value - 1e-9
            o3 = oracle_min(jr, Problem.MIN_L0_ZERO_ISTAR, cfg)
            assert lagrangian_l0(jr, r3.quantization, cfg) >= o3.value - 1e-9
            assert maximin_information(jr, r3.quantization) == 0.0

        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"property suite took {elapsed:.1f}s"
