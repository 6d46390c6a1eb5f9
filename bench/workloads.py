"""The benchmark's four workloads: seeded inputs, fixed job lists, checks.

A workload turns a seed into tables (see ``corpora``), writes them as CSV in
its work directory and exposes a fixed list of jobs. A job is one
user-facing operation. Its output is verified by ``check`` against an
independent recompute through privquant's public API, and reduced by
``summary`` to plain data for the output digest.

Jobs look privquant's functions up on the package at call time (``pq.sweep``
rather than a name bound at import), so the traced run's patches see them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import privquant as pq
from privquant import LagrangianConfig, Problem, Quantization, UtilityChoice

import corpora
import tracing

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
CLI_TIMEOUT_S = 120

U = {"u1": UtilityChoice.u1(), "u2": UtilityChoice.u2()}


@dataclass
class Job:
    name: str
    kind: str  # frontier | release | baseline | load | oracle | oracle_theta | cli
    role: Optional[str]  # "primary" | "secondary" | None: which op metric it feeds
    fn: Callable[[], object]
    check: Callable[[object], list[str]]
    summary: Callable[[object], object]


# ---------------------------------------------------------------------------
# Output summaries and checks shared by the workloads
# ---------------------------------------------------------------------------


def _measures(jr, q, u) -> dict:
    """The measures a release reports, the same set the CLI emits."""
    return {
        "h0_s": pq.h0(jr.n_s),
        "h0_x": pq.h0(jr.n_x),
        "b0": pq.b0(jr, q),
        "l0": pq.l0(jr, q),
        "i0_forward": pq.i0_forward(jr, q),
        "maximin_information": pq.maximin_information(jr, q),
        "k_anonymity_level": pq.core.min_range_size(jr, q),
        **({"utility": pq.utility(jr, q, u)} if u is not None else {}),
    }


def _privacy(jr, q, problem: Problem) -> float:
    if problem is Problem.MIN_ISTAR:
        return pq.maximin_information(jr, q)
    return pq.l0(jr, q)


def _non_dominated(coords: list[tuple[float, float]]) -> bool:
    """(leakage, utility) pairs: lower leakage and higher utility are better."""
    for i, (li, ui) in enumerate(coords):
        for j, (lj, uj) in enumerate(coords):
            if i != j and lj <= li and uj >= ui and (lj < li or uj > ui):
                return False
    return True


def release(jr, problem: Problem, u_name: str, lam: float):
    """One greedy release and the measures reported with it."""
    result = pq.run(jr, problem, LagrangianConfig(lam, U[u_name]))
    return result, _measures(jr, result.quantization, U[u_name])


def release_summary(out) -> dict:
    result, measures = out
    return {
        "termination": result.termination.value,
        "rejected_delta_l": result.rejected_delta_l,
        "trace": [
            [e.t, e.quantization.partition_key(), e.lagrangian, e.delta_l,
             e.merged, e.component_count, e.utility_value]
            for e in result.trace
        ],
        "measures": measures,
    }


def release_check(jr, problem: Problem, u_name: str, lam: float):
    u = U[u_name]
    cfg = LagrangianConfig(lam, u)

    def check(out) -> list[str]:
        result, measures = out
        failures = []
        for e in result.trace:
            util = pq.utility(jr, e.quantization, u)
            if e.utility_value != util:
                failures.append(f"trace utility_value at t={e.t} != utility()")
            if problem is Problem.MIN_ISTAR:
                lag = pq.maximin_information(jr, e.quantization) - lam * util
            else:
                lag = pq.lagrangian_l0(jr, e.quantization, cfg)
            if e.lagrangian != lag:
                failures.append(f"trace lagrangian at t={e.t} does not recompute")
        if result.trace[-1].quantization != result.quantization:
            failures.append("release is not the last trace state")
        if measures != _measures(jr, result.quantization, u):
            failures.append("release measures do not recompute")
        return failures

    return check


def frontier_summary(out) -> dict:
    _, f = out
    return {
        "degenerate": f.degenerate,
        "u2_floor": f.u2_floor,
        "points": [
            [p.lam, p.leakage_raw, p.leakage_norm, p.utility_raw, p.loss_norm,
             p.quantization.partition_key()]
            for p in f.points
        ],
    }


def frontier_check(problem: Problem, u_name: str):
    def check(out) -> list[str]:
        jr, f = out
        if not f.points:
            return ["empty frontier"]
        failures = []
        for p in f.points:
            if p.leakage_raw != _privacy(jr, p.quantization, problem):
                failures.append(f"frontier leakage_raw at lambda={p.lam} does not recompute")
            if p.utility_raw != pq.utility(jr, p.quantization, U[u_name]):
                failures.append(f"frontier utility_raw at lambda={p.lam} does not recompute")
        if not _non_dominated([(p.leakage_raw, p.utility_raw) for p in f.points]):
            failures.append("frontier points dominate each other")
        return failures

    return check


def load_job(path: Path, s_col: str, x_col: str, rows: corpora.Rows) -> Job:
    """Ingest of a generated table, checked against the rows written."""

    def check(out) -> list[str]:
        jr, st = out
        expect = (len(rows), len({s for s, _ in rows}), len({x for _, x in rows}))
        got = (st.record_count, jr.n_s, jr.n_x)
        return [] if got == expect else [f"load_csv counts {got} != written {expect}"]

    return Job(
        f"load/{path.name}", "load", None,
        lambda: pq.load_csv(path, s_col, x_col),
        check,
        lambda out: [sorted(out[0].pairs), out[1].to_dict()],
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: ``setup`` builds the inputs and the job list for a seed."""

    name = ""
    primary = ""
    secondary = ""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.jobs: list[Job] = []
        self.tracer: Optional[tracing.Tracer] = None
        self.child_totals: list[dict] = []
        self.child_spans: list[tuple] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def _release_jobs(self, jr, lams, role_of) -> list[Job]:
        return [
            Job(
                f"release/{p.value}/{u}/lam={lam:g}", "release", role_of(p, u),
                lambda p=p, u=u, lam=lam: release(jr, p, u, lam),
                release_check(jr, p, u, lam),
                release_summary,
            )
            for lam in lams
            for p in Problem
            for u in U
        ]


class PaperFrontier(Workload):
    name = "paper_frontier"
    primary = "frontier: one sweep over the default 65-point grid, load_csv included"
    secondary = "release: one greedy run at one lambda, with its measures"

    def setup(self, seed: int) -> None:
        rows = corpora.paper_table(random.Random(seed))
        path = self.workdir / "paper.csv"
        corpora.write_csv(path, ("age", "chol"), rows)
        jr, _ = pq.load_csv(path, "age", "chol")

        def frontier(p, u):
            jr, _ = pq.load_csv(path, "age", "chol")
            return jr, pq.sweep(jr, p, U[u])

        k = 5
        self.jobs = [
            Job(f"frontier/{p.value}/{u}", "frontier", "primary",
                lambda p=p, u=u: frontier(p, u), frontier_check(p, u), frontier_summary)
            for p in Problem
            for u in U
        ]
        self.jobs += self._release_jobs(jr, (0.1, 1.0), lambda p, u: "secondary")
        self.jobs.append(
            Job(f"baseline/k={k}", "baseline", None,
                lambda: pq.sweeney_baseline(jr, k),
                lambda q: [] if pq.core.min_range_size(jr, q) >= k else ["not k-anonymous"],
                lambda q: q.partition_key())
        )


class ComponentMerge(Workload):
    """Single releases on a sparse table with many components.

    Runnable by name, but not one of the workloads BENCHMARK.json lists: its
    releases take up to a second each, and a fourth workload would not fit
    the benchmark's time budget at the run length the others need.
    paper_frontier loads the cross-component rescans of algorithms 2 and 3
    on 4 components; this workload loads them on 71.
    """

    name = "component_merge"
    primary = "release with utility u2, the max-distortion rescans"
    secondary = "release with utility u1"

    def setup(self, seed: int) -> None:
        rows = corpora.sparse_table(random.Random(seed), n_x=150, n_singletons=60)
        path = self.workdir / "sparse.csv"
        corpora.write_csv(path, ("s", "x"), rows)
        jr, _ = pq.load_csv(path, "s", "x")
        self.jobs = [load_job(path, "s", "x", rows)]
        self.jobs += self._release_jobs(
            jr, (0.3,), lambda p, u: "primary" if u == "u2" else "secondary"
        )


class OracleTruth(Workload):
    name = "oracle_truth"
    primary = "oracle: one oracle_min call with lam"
    secondary = "oracle_theta: one oracle_min call with theta"
    LAM = 0.3
    # Three joint ranges at n_x = 8 (Bell(8) = 4140 partitions): a call takes
    # about 0.1 s, so every job runs about ten times in a run. At n_x = 9 a
    # call takes 0.3-1.2 s and a run would see each job only twice or three
    # times, too few for a steady best time.
    N_RANGES, N_S, N_X = 3, 6, 8

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.jobs = []
        for i in range(self.N_RANGES):
            rows = corpora.random_pairs(rng, n_s=self.N_S, n_x=self.N_X)
            path = self.workdir / f"pairs{i}.csv"
            corpora.write_csv(path, ("s", "x"), rows)
            jr, _ = pq.load_csv(path, "s", "x")
            self.jobs.append(load_job(path, "s", "x", rows))
            releases = self._release_jobs(jr, (self.LAM,), lambda p, u: None)
            for job in releases:
                job.name = f"{job.name}/{path.stem}"
            self.jobs += releases
            for p in Problem:
                for u in U:
                    self.jobs += self._oracle_jobs(jr, path.stem, p, u)

    def _oracle_jobs(self, jr, tag: str, p: Problem, u_name: str) -> list[Job]:
        cfg = LagrangianConfig(self.LAM, U[u_name])
        greedy_q = pq.run(jr, p, cfg).quantization
        theta = pq.utility(jr, greedy_q, U[u_name])
        greedy_priv = _privacy(jr, greedy_q, p)
        greedy_lag = greedy_priv - self.LAM * theta

        def check(out, theta_form: bool) -> list[str]:
            q = out.quantization
            priv = _privacy(jr, q, p)
            util = pq.utility(jr, q, U[u_name])
            failures = []
            if theta_form:
                value, greedy_value = priv, greedy_priv
                if util < theta - pq.TOLERANCE:
                    failures.append("oracle witness misses theta")
            else:
                value, greedy_value = priv - self.LAM * util, greedy_lag
            if out.value != value:
                failures.append("oracle value does not recompute from its witness")
            if p is Problem.MIN_L0_ZERO_ISTAR and pq.maximin_information(jr, q) != 0.0:
                failures.append("oracle witness is not indistinguishable")
            if greedy_value < out.value - pq.TOLERANCE:
                failures.append("greedy run beats the oracle")
            if out.optima_count < 1:
                failures.append("oracle reports no optimum")
            return failures

        def summary(out):
            return [out.value, out.quantization.partition_key(), out.optima_count]

        tag = f"{p.value}/{u_name}/{tag}"
        return [
            Job(f"oracle/{tag}", "oracle", "primary",
                lambda: pq.oracle_min(jr, p, cfg),
                lambda out: check(out, False), summary),
            Job(f"oracle_theta/{tag}", "oracle_theta", "secondary",
                lambda: pq.oracle_min(jr, p, cfg, theta=theta),
                lambda out: check(out, True), summary),
        ]


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON output")

    return json.loads(text, parse_constant=reject)


class DenseRelease(Workload):
    name = "dense_release"
    primary = "cli: one quantize, baseline or pareto subprocess"
    secondary = "cli stats: one stats subprocess (start-up and ingest only)"
    INPUT = ["--input", "dense.csv", "--s", "s", "--x", "x"]
    COMMANDS = {
        "stats": ["stats"],
        "quantize": ["quantize", "--algorithm", "l0-zero-istar", "--utility", "u2",
                     "--lambda", "0.3"],
        "baseline": ["baseline", "--k", "5"],
        "pareto": ["pareto", "--algorithm", "l0", "--utility", "u1", "--format", "json"],
    }

    def setup(self, seed: int) -> None:
        rows = corpora.dense_table(random.Random(seed))
        path = self.workdir / "dense.csv"
        corpora.write_csv(path, ("s", "x"), rows)
        self.jr, self.stats = pq.load_csv(path, "s", "x")
        self._children = 0
        self.jobs = [
            Job(f"cli/{cmd}", "cli", "secondary" if cmd == "stats" else "primary",
                lambda cmd=cmd: self._cli(cmd), lambda out, cmd=cmd: self._check(cmd, out),
                self._summary)
            for cmd in self.COMMANDS
        ]

    def _cli(self, cmd: str):
        argv = self.COMMANDS[cmd] + self.INPUT
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        tracer = self.tracer
        if tracer is None:
            command = [sys.executable, "-m", "privquant.cli", *argv]
        else:
            self._children += 1
            spans_file = self.workdir / f"cli-spans-{self._children}.json"
            id_base = 10_000_000 * self._children
            command = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans_file),
                       tracer.run_id, str(tracer.open_span()), str(id_base), *argv]
        proc = subprocess.run(
            command, cwd=self.workdir, env=env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        if tracer is not None:
            data = json.loads(spans_file.read_text())
            spans_file.unlink()
            data["totals"]["cli.out_bytes"] = len(proc.stdout.encode())
            self.child_totals.append(data["totals"])
            self.child_spans.extend(tuple(s) for s in data["spans"])
        return proc.returncode, proc.stdout, proc.stderr

    def _summary(self, out):
        code, stdout, _ = out
        try:
            payload = _strict_json(stdout)
        except ValueError:
            return [code, stdout]
        payload.get("manifest", {}).pop("timestamp", None)
        return [code, payload]

    def _check(self, cmd: str, out) -> list[str]:
        code, stdout, stderr = out
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[:200]}"]
        try:
            payload = _strict_json(stdout)
        except ValueError as exc:
            return [f"output is not strict JSON: {exc}"]
        jr = self.jr
        index = {sym.id: i for i, sym in enumerate(jr.x_symbols)}

        def quantization(clusters) -> Quantization:
            return Quantization.from_clusters(jr, [{index[m] for m in c} for c in clusters])

        if cmd == "stats":
            ok = payload["stats"] == self.stats.to_dict()
            return [] if ok else ["stats differ from load_csv"]
        if cmd == "pareto":
            points = payload["points"]
            failures = []
            for p in points:
                q = quantization(p["clusters"])
                if p["leakage_raw"] != pq.l0(jr, q) or p["utility_raw"] != pq.utility(jr, q, U["u1"]):
                    failures.append(f"pareto point at lambda={p['lambda']} does not recompute")
            if not points or not _non_dominated([(p["leakage_raw"], p["utility_raw"]) for p in points]):
                failures.append("pareto points empty or dominated")
            return failures
        q = quantization([c["members"] for c in payload["quantization"]["clusters"]])
        u = U["u2"] if cmd == "quantize" else None
        if payload["measures"] != _measures(jr, q, u):
            return [f"{cmd} measures do not recompute"]
        if cmd == "baseline" and not payload["k_anonymous"]:
            return ["baseline release is not k-anonymous"]
        return []


WORKLOADS = {w.name: w for w in (PaperFrontier, ComponentMerge, OracleTruth, DenseRelease)}
