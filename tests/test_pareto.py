import math
import random
from unittest import mock

import pytest

from helpers import random_joint_range, reference_sweep, sparse_joint_range
from privquant import (
    ConfigurationError,
    ContractViolation,
    InfeasibleError,
    JointRange,
    LagrangianConfig,
    Problem,
    Symbol,
    UtilityChoice,
    b0,
    default_lambda_grid,
    is_k_anonymous,
    l0,
    maximin_information,
    run,
    singleton_quantization,
    sweep,
    sweeney_baseline,
    utility,
)
from privquant import greedy
from privquant.core import min_range_size
from privquant.pareto import MAX_GRID_COUNT, frontier_csv_rows

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

    def test_grid_longer_than_the_cap_rejected(self, toy):
        with pytest.raises(ConfigurationError, match=f"at most {MAX_GRID_COUNT} lambdas"):
            sweep(toy, Problem.MIN_ISTAR, U1, lambda_grid=[0.3] * (MAX_GRID_COUNT + 1))
        at_cap = sweep(toy, Problem.MIN_ISTAR, U1, lambda_grid=[0.3] * MAX_GRID_COUNT)
        assert at_cap == sweep(toy, Problem.MIN_ISTAR, U1, lambda_grid=[0.3])

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

    PATH_PROBLEMS = (Problem.MIN_L0, Problem.MIN_ISTAR, Problem.MIN_L0_ZERO_ISTAR)

    @pytest.mark.parametrize("problem", PATH_PROBLEMS)
    @pytest.mark.parametrize("u", [U1, U2], ids=["u1", "u2"])
    @pytest.mark.parametrize("trace_states", [True, False])
    def test_toy_default_grid(self, toy_v, problem, u, trace_states):
        got = sweep(toy_v, problem, u, include_trace_states=trace_states)
        assert got == reference_sweep(toy_v, problem, u, include_trace_states=trace_states)

    def test_random_corpus_with_unsorted_duplicate_grids(self):
        rng = random.Random(4242)
        lams = [0.0, 0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0]
        branching = {U1.kind: 0, U2.kind: 0}
        for _ in range(60):
            jr = random_joint_range(rng)
            grid = [rng.choice(lams) for _ in range(rng.randint(1, 10))]
            grid += [round(rng.uniform(0.0, 5.0), 3), grid[0]]
            for u in (U1, U2):
                paths = {
                    tuple(e.merged for e in run(jr, Problem.MIN_L0_ZERO_ISTAR, cfg).trace)
                    for cfg in (LagrangianConfig(lam, u) for lam in grid)
                }
                branching[u.kind] += len(paths) > 1
            for problem in self.PATH_PROBLEMS:
                for u in (U1, U2):
                    for trace_states in (True, False):
                        args = (jr, problem, u, grid)
                        got = sweep(*args, include_trace_states=trace_states)
                        want = reference_sweep(*args, include_trace_states=trace_states)
                        assert got == want, (grid, problem, u.kind, trace_states)
        # The l0-zero-istar lambda tree branches on this corpus, so the
        # sweep's split-and-copy walk is exercised for both utilities.
        assert all(branching.values()), branching


class TestAxes:
    """The normalized coordinates of docs/schemas.md, on real frontiers."""

    def test_toy_frontier_points(self, toy):
        # Leakage over the singleton release's, loss 1 - U1/h0(X): the
        # singleton point reads (0, 1), and the zero-leakage point keeps
        # log2(7/3) bits of resolution.
        fr = sweep(toy, Problem.MIN_ISTAR, U1)
        first, last = fr.points[0], fr.points[-1]
        assert first.quantization == singleton_quantization(toy)
        for p in fr.points:
            assert p.leakage_norm == p.leakage_raw / first.leakage_raw
            assert p.loss_norm == 1.0 - p.utility_raw / math.log2(toy.n_x)
        assert (first.loss_norm, first.leakage_norm) == (0.0, 1.0)
        assert (last.leakage_norm, last.utility_raw) == (0.0, pytest.approx(math.log2(7 / 3)))
        assert last.loss_norm == pytest.approx(0.5646, abs=1e-4)

    def test_zero_denominators(self):
        # One S value: no leakage, so raw bits. One X symbol: h0(X) = 0.
        # Equal X values: every distortion is 0, so u2_floor is 0. Each
        # zero loss denominator gives a loss of 0.
        no_leak = sweep(JointRange.from_id_pairs([("s1", "x1"), ("s1", "x2")]), Problem.MIN_L0, U1)
        assert no_leak.degenerate
        assert all(p.leakage_norm == p.leakage_raw for p in no_leak.points)
        one_x = sweep(JointRange.from_id_pairs([("s1", "x1"), ("s2", "x1")]), Problem.MIN_L0, U1)
        flat = JointRange.from_id_pairs([("s1", "x1"), ("s2", "x2")], {"x1": 1.0, "x2": 1.0})
        flat_u2 = sweep(flat, Problem.MIN_L0, U2)
        assert flat_u2.u2_floor == 0.0 and not flat_u2.degenerate
        for fr in (one_x, flat_u2):
            assert fr.points and all(p.loss_norm == 0.0 for p in fr.points)


class TestSweeneyBaseline:
    def test_k1_keeps_singletons(self, toy):
        assert len(sweeney_baseline(toy, 1).clusters) == toy.n_x

    def test_k6_needs_everything(self, toy):
        q = sweeney_baseline(toy, 6)
        assert len(q.clusters) == 1

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



class TestSweeneyBaselineWork:
    """A baseline merge takes its offender off a heap and its partner from a
    walk over a sorted codeword index, so it computes three codewords: the
    offender's and the partner's to find their entries, and the merged
    cluster's to insert it. Building the index computes one per symbol."""

    @staticmethod
    def work(jr, k):
        """``_State.codeword`` calls and ``_State.merge`` calls of one baseline run."""
        calls, merges = 0, 0
        codeword, merge = greedy._State.codeword, greedy._State.merge

        def counted_codeword(*args):
            nonlocal calls
            calls += 1
            return codeword(*args)

        def counted_merge(*args):
            nonlocal merges
            merges += 1
            return merge(*args)

        with mock.patch.object(greedy._State, "codeword", counted_codeword), \
                mock.patch.object(greedy._State, "merge", counted_merge):
            sweeney_baseline(jr, k)
        return calls, merges

    @pytest.mark.parametrize(("k", "expected"), [(2, (336, 72)), (3, (381, 87))])
    def test_a_merge_computes_three_codewords(self, k, expected):
        # 120 symbols plus three per merge. A rescan of every live cluster
        # per merge computes 6,084 and 6,699 codewords on this table.
        jr = sparse_joint_range(random.Random("baseline-work"), 120)
        assert self.work(jr, k) == expected

    def test_no_offender_computes_no_codeword(self):
        # Every X value sees every S value, as in a dense release, so no
        # cluster is below k and the partner index is never built.
        jr = JointRange(
            [Symbol(f"s{s}") for s in range(5)],
            [Symbol(f"x{x}", x / 10) for x in range(40)],
            {(s, x) for s in range(5) for x in range(40)},
        )
        assert self.work(jr, 5) == (0, 0)
        jr = sparse_joint_range(random.Random("baseline-work"), 120)
        assert self.work(jr, 1) == (0, 0)

def test_frontier_csv_shape(toy):
    fr = sweep(toy, Problem.MIN_ISTAR, U1, lambda_grid=[0.0, 0.3])
    rows = frontier_csv_rows(fr)
    assert rows[0] == ["lambda", "leakage_raw", "leakage_norm", "utility_raw", "loss_norm"]
    assert len(rows) == len(fr.points) + 1
    assert all(len(r) == 5 for r in rows)
