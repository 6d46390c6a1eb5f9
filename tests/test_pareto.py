import math
import random

import pytest

from helpers import random_joint_range, reference_sweep
from privquant import (
    ConfigurationError,
    ContractViolation,
    InfeasibleError,
    JointRange,
    Problem,
    UtilityChoice,
    b0,
    default_lambda_grid,
    is_k_anonymous,
    l0,
    maximin_information,
    singleton_quantization,
    sweep,
    sweeney_baseline,
    utility,
)
from privquant.core import min_range_size
from privquant.pareto import NormalizationContext, frontier_csv_rows, normalize
from privquant.quantize import UtilityKind

U1 = UtilityChoice.u1()
U2 = UtilityChoice.u2()


def has_point(frontier, loss, leak, tol=1e-3):
    return any(
        abs(p.loss_norm - loss) <= tol and abs(p.leakage_norm - leak) <= tol
        for p in frontier.points
    )


class TestDefaultGrid:
    def test_shape(self):
        grid = default_lambda_grid()
        assert len(grid) == 65
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e2)
        assert all(a < b for a, b in zip(grid[1:], grid[2:]))


class TestSweep:
    def test_toy_maximin_frontier_points(self, toy):
        fr = sweep(toy, Problem.MIN_ISTAR, U1)
        assert has_point(fr, 0.0, 1.0)
        assert has_point(fr, 0.3562, 0.4307)
        assert has_point(fr, 0.5646, 0.0)

    def test_toy_distortion_frontier(self, toy_v4):
        fr = sweep(toy_v4, Problem.MIN_ISTAR, U2)
        # losses are merged max-distortions over 1.95; the fourth is (2/3)/1.95
        expected = [
            (0.0, 1.0),
            (0.0256410, 0.861353),
            (0.0512821, 0.682606),
            (0.3418803, 0.430677),
            (1.0, 0.0),
        ]
        assert len(fr.points) == len(expected)
        for (loss, leak), p in zip(expected, fr.points):
            assert p.loss_norm == pytest.approx(loss, abs=1e-6)
            assert p.leakage_norm == pytest.approx(leak, abs=1e-6)
        assert fr.u2_floor == pytest.approx(-1.95, abs=1e-9)

    def test_zero_lambda_grid(self, toy):
        fr = sweep(toy, Problem.MIN_ISTAR, U1, lambda_grid=[0.0])
        assert any(p.leakage_norm == pytest.approx(0.0, abs=1e-12) for p in fr.points)
        terminal = sweep(
            toy, Problem.MIN_ISTAR, U1, lambda_grid=[0.0], include_trace_states=False
        )
        assert len(terminal.points) == 1
        assert terminal.points[0].leakage_norm == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_lambdas_add_nothing(self, toy):
        once = sweep(toy, Problem.MIN_ISTAR, U1, lambda_grid=[0.3])
        twice = sweep(toy, Problem.MIN_ISTAR, U1, lambda_grid=[0.3, 0.3, 0.3])
        assert [(p.loss_norm, p.leakage_norm) for p in once.points] == [
            (p.loss_norm, p.leakage_norm) for p in twice.points
        ]

    def test_empty_grid_rejected(self, toy):
        with pytest.raises(ContractViolation):
            sweep(toy, Problem.MIN_ISTAR, U1, lambda_grid=[])

    @pytest.mark.parametrize("problem", list(Problem))
    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_invalid_lambda_in_grid_rejected(self, toy, problem, bad):
        with pytest.raises(ConfigurationError):
            sweep(toy, problem, U1, lambda_grid=[0.1, 0.3, bad, 0.3])

    def test_points_round_trip_their_measures(self, toy):
        for problem in (Problem.MIN_L0, Problem.MIN_ISTAR):
            fr = sweep(toy, problem, U1, lambda_grid=[0.0, 0.1, 0.5, 2.0])
            for p in fr.points:
                if problem is Problem.MIN_ISTAR:
                    assert maximin_information(toy, p.quantization) == pytest.approx(
                        p.leakage_raw, abs=1e-9
                    )
                else:
                    assert l0(toy, p.quantization) == pytest.approx(p.leakage_raw, abs=1e-9)
                assert utility(toy, p.quantization, U1) == pytest.approx(
                    p.utility_raw, abs=1e-9
                )

    def test_no_dominated_points_and_strict_ordering(self):
        rng = random.Random(77)
        for _ in range(25):
            jr = random_joint_range(rng)
            fr = sweep(jr, Problem.MIN_L0, U1, lambda_grid=[0.0, 0.1, 0.3, 1.0, 5.0])
            pts = fr.points
            for i, p in enumerate(pts):
                for q in pts[i + 1 :]:
                    dominated = (
                        q.leakage_raw <= p.leakage_raw + 1e-12
                        and q.utility_raw >= p.utility_raw - 1e-12
                        and (
                            q.leakage_raw < p.leakage_raw - 1e-12
                            or q.utility_raw > p.utility_raw + 1e-12
                        )
                    )
                    assert not dominated
            losses = [p.loss_norm for p in pts]
            if not fr.degenerate:
                leaks = [p.leakage_norm for p in pts]
                assert all(a < b for a, b in zip(losses, losses[1:]))
                assert all(a > b for a, b in zip(leaks, leaks[1:]))
                for p in pts:
                    assert -1e-9 <= p.loss_norm <= 1 + 1e-9
                    assert -1e-9 <= p.leakage_norm <= 1 + 1e-9

    def test_maximin_frontier_endpoints(self):
        # with lambda = 0 in the grid the frontier spans full leakage to none
        rng = random.Random(78)
        for _ in range(15):
            jr = random_joint_range(rng)
            fr = sweep(jr, Problem.MIN_ISTAR, U1, lambda_grid=[0.0, 0.3, 2.0])
            if fr.degenerate:
                continue
            assert fr.points[0].loss_norm == pytest.approx(0.0, abs=1e-12)
            assert fr.points[0].leakage_norm == pytest.approx(1.0, abs=1e-9)
            assert fr.points[-1].leakage_norm == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_leakage_axis_flagged(self):
        # S has one value: nothing can ever leak, normalization impossible
        jr = JointRange.from_id_pairs([("s1", "x1"), ("s1", "x2")])
        fr = sweep(jr, Problem.MIN_L0, U1, lambda_grid=[0.0, 1.0])
        assert fr.degenerate
        assert all(p.leakage_raw == pytest.approx(0.0, abs=1e-12) for p in fr.points)


class TestLambdaPathSweep:
    """The merge-path sweep equals one greedy run per lambda, point for point."""

    PATH_PROBLEMS = (Problem.MIN_L0, Problem.MIN_ISTAR)

    @pytest.mark.parametrize("problem", PATH_PROBLEMS)
    @pytest.mark.parametrize("u", [U1, U2], ids=["u1", "u2"])
    @pytest.mark.parametrize("trace_states", [True, False])
    def test_toy_default_grid(self, toy_v, problem, u, trace_states):
        got = sweep(toy_v, problem, u, include_trace_states=trace_states)
        assert got == reference_sweep(toy_v, problem, u, include_trace_states=trace_states)

    def test_random_corpus_with_unsorted_duplicate_grids(self):
        rng = random.Random(4242)
        lams = [0.0, 0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0]
        for _ in range(60):
            jr = random_joint_range(rng)
            grid = [rng.choice(lams) for _ in range(rng.randint(1, 10))]
            grid += [round(rng.uniform(0.0, 5.0), 3), grid[0]]
            for problem in self.PATH_PROBLEMS:
                for u in (U1, U2):
                    for trace_states in (True, False):
                        args = (jr, problem, u, grid)
                        got = sweep(*args, include_trace_states=trace_states)
                        want = reference_sweep(*args, include_trace_states=trace_states)
                        assert got == want, (grid, problem, u.kind, trace_states)


class TestNormalize:
    def test_endpoints(self, toy):
        ctx = NormalizationContext(
            leakage_full=l0(toy, singleton_quantization(toy)),
            h0_x=math.log2(7),
            u2_floor=None,
            degenerate=False,
        )
        loss, leak = normalize(ctx.leakage_full, math.log2(7), ctx, UtilityKind.U1_RESOLUTION)
        assert (loss, leak) == (pytest.approx(0.0), pytest.approx(1.0))
        loss, leak = normalize(0.0, math.log2(7 / 3), ctx, UtilityKind.U1_RESOLUTION)
        assert leak == pytest.approx(0.0)
        assert loss == pytest.approx(0.5646, abs=1e-4)


class TestSweeneyBaseline:
    def test_k1_keeps_singletons(self, toy):
        assert sweeney_baseline(toy, 1).n_clusters == toy.n_x

    def test_k6_needs_everything(self, toy):
        q = sweeney_baseline(toy, 6)
        assert q.n_clusters == 1

    def test_k_above_s_alphabet_is_infeasible(self, toy):
        with pytest.raises(InfeasibleError):
            sweeney_baseline(toy, 7)
        with pytest.raises(ContractViolation):
            sweeney_baseline(toy, 0)

    def test_output_always_k_anonymous(self):
        rng = random.Random(13)
        for _ in range(50):
            jr = random_joint_range(rng)
            k = rng.randint(1, jr.n_s)
            q = sweeney_baseline(jr, k)
            assert is_k_anonymous(jr, q, k)
            # k-anonymity and the residual-uncertainty bound must agree
            assert (b0(jr, q) >= math.log2(k)) == (min_range_size(jr, q) >= k)

    def test_numeric_neighbors_merge_by_codeword_distance(self, toy_v):
        # x7 (value 1.0) must prefer its numeric neighbor x6 (1.5) over x1
        q = sweeney_baseline(toy_v, 2)
        cluster_of_x7 = next(c for c in q.clusters if 6 in c)
        assert 5 in cluster_of_x7


def test_frontier_csv_shape(toy):
    fr = sweep(toy, Problem.MIN_ISTAR, U1, lambda_grid=[0.0, 0.3])
    rows = frontier_csv_rows(fr)
    assert rows[0] == ["lambda", "leakage_raw", "leakage_norm", "utility_raw", "loss_norm"]
    assert len(rows) == len(fr.points) + 1
    assert all(len(r) == 5 for r in rows)
