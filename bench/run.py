"""privquant benchmark: seeded workloads, end-to-end metrics, traced runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn and prints all their reports.

Builds the workload's inputs from the seed, runs its fixed job list in
repeated passes for about S seconds, checks every output and prints a
report. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from passes that alternate between traced and untraced, and
the spans are written to ``bench/out/``.

Every job of the workload's list is an attempted operation. It fails when
it raises or when its output fails a check against an independent
recompute; ``failed`` counts those jobs. Both counts therefore depend on the
seed only, not on how many passes fit in the run. Every later execution of
a job must give the same output as its first; ``correct`` is false when the
run itself cannot be trusted: a job's output differs between passes, or two
traced passes disagree on their work counts.

End-to-end times are reported at a reference machine speed. On a shared
virtual machine a CPU's speed flips between states up to 1.7x apart that
last from under a second to minutes, often longer than one run, so raw times
of runs made minutes apart differ by more than any bound a comparison could
use. Every timed operation is therefore run between two calls of
``speed_probe``, a fixed piece of pure-Python work, and its time is scaled
by ``PROBE_REF_S`` / the mean of the two probe times. A job's time is its
median scaled time over the run's interleaved passes. An op metric is the mean of the jobs' median times over the jobs of
one kind, and ``wall_s`` is their sum: the time of one pass over the fixed
job list. ``setup_s`` is the median scaled time of several complete set-ups,
each of which imports privquant afresh; they are spread evenly over the run.
The report prints the raw medians next to the scaled ones. Per-layer times
in the traced run are raw.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUPS = 15  # complete set-ups per run
# The speed probe's time, in seconds, that scaled times refer to: a round
# figure between its times on a 2.0 GHz Xeon vCPU in its two speed states.
PROBE_REF_S = 0.003
# Modules a set-up imports afresh: the program and the benchmark modules that
# hold references to it.
FRESH_MODULES = ("privquant", "workloads", "tracing", "corpora")
TRACED_MIN_PASSES = 4  # untraced, traced, untraced, traced

# The metrics the JSON result carries, with their units, are the ones
# BENCHMARK.json lists. Its per-layer list holds only times that are non-zero
# on every workload; times of layers some workloads never enter (pareto,
# oracle, cli) are in the report and the trace file, and their work counts
# are in the list.
SPEC_FILE = BENCH_DIR.parent / "BENCHMARK.json"
# Counts two traced passes must agree on exactly.
WORK_COUNTS = ("greedy.run_calls", "greedy.trace_states", "pareto.candidates",
               "oracle.partitions", "quantize.from_clusters_calls", "core.measure_calls")


def layer_metrics(t: dict) -> dict[str, float]:
    """Named per-layer metrics from one traced pass's additive totals."""
    g = t.get
    runs = {p: g(f"greedy.run.{p}.s", 0.0) for p in ("l0", "istar", "l0-zero-istar")}
    load_s = g("ingest.load_csv.s", 0.0)
    query_s = g("oracle.oracle_min.s", 0.0)
    harvested = g("pareto.harvested_states", 0)
    m = {
        "ingest.load_csv_s": load_s,
        "ingest.rows": g("ingest.rows", 0),
        "ingest.rows_per_s": g("ingest.rows", 0) / load_s if load_s else 0.0,
        "core.from_id_pairs_s": g("core.from_id_pairs.s", 0.0),
        "core.measure_calls": g("core.measure_calls", 0),
        "core.measure_s": g("core.measure_s", 0.0),
        "graph.maximin_calls": g("graph.maximin_information.calls", 0),
        "graph.maximin_s": g("graph.maximin_information.s", 0.0),
        "graph.decomposition_s": g("graph.build_graph.s", 0.0)
        + g("graph.finest_decomposition.s", 0.0),
        "quantize.from_clusters_calls": g("quantize.from_clusters.calls", 0),
        "quantize.from_clusters_s": g("quantize.from_clusters.s", 0.0),
        "quantize.utility_s": g("quantize.utility.s", 0.0),
        "greedy.run_calls": g("greedy.run_calls", 0),
        "greedy.run_s": sum(runs.values()),
        **{f"greedy.run_s.{p}": s for p, s in runs.items()},
        "greedy.trace_states": g("greedy.trace_states", 0),
        "greedy.merges": g("greedy.merges", 0),
        "greedy.trace_utility_mismatch": g("greedy.trace_utility_mismatch", 0),
        "pareto.sweep_s": g("pareto.sweep.s", 0.0),
        "pareto.candidates": g("pareto.candidates", 0),
        "pareto.frontier_points": g("pareto.frontier_points", 0),
        "pareto.distinct_state_ratio": g("pareto.candidates", 0) / harvested
        if harvested else 0.0,
        "pareto.baseline_s": g("pareto.sweeney_baseline.s", 0.0),
        "oracle.calls": g("oracle.oracle_min.calls", 0),
        "oracle.query_s": query_s,
        "oracle.partitions": g("oracle.partitions", 0),
        "oracle.partitions_per_s": g("oracle.partitions", 0) / query_s if query_s else 0.0,
        "cli.calls": g("cli.main.calls", 0),
        "cli.import_s": g("cli.import_s", 0.0),
        "cli.main_s": g("cli.main.s", 0.0),
        "cli.out_bytes": g("cli.out_bytes", 0),
    }
    for layer in ("ingest", "core", "graph", "quantize", "greedy", "pareto", "oracle", "cli"):
        m[f"{layer}.self_s"] = g(f"{layer}.self_s", 0.0)  # span time minus child spans
    return m


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes; best of two tries."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        d = {}
        for i in range(5000):
            d[i % 211] = frozenset((i, i + 1))
            (i * 2654435761 & 0xFFFF).bit_count()
        sorted(d, key=lambda k: -k)
        best = min(best, time.perf_counter() - start)
    return best


def timed(fn):
    """Run ``fn`` between two speed probes; return (result, (seconds, probe seconds)).

    The probe time is the mean of the probes before and after, so a speed
    change during a long job is partly seen.
    """
    before = speed_probe()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, (elapsed, (before + speed_probe()) / 2)


def median_time(samples, scaled: bool = True) -> float:
    """Median of (seconds, probe seconds) samples, at the reference speed if scaled."""
    return statistics.median(t * PROBE_REF_S / p if scaled else t for t, p in samples)


def digest_of(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_category(message: str) -> str:
    return re.split(r" at | [!=]= |: ", message, maxsplit=1)[0]


def fresh_import():
    """Import privquant and the workload module anew; return the latter."""
    for name in list(sys.modules):
        if name.split(".", 1)[0] in FRESH_MODULES:
            del sys.modules[name]
    return importlib.import_module("workloads")


class Run:
    """One benchmark invocation: set-up, measured passes, checks, results."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.job_times: dict[str, list[tuple[float, float]]] = {}
        self.pass_walls: dict[bool, list[float]] = {False: [], True: []}
        self.reference: dict[str, str] = {}  # job name -> digest of its first output
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.layer_passes: list[dict] = []
        self.spans: list[tuple] = []
        self.setup_times: list[tuple[float, float]] = []

    def set_up(self) -> None:
        """Import, generate, write and warm up: the set-up the run keeps."""
        self.wl, sample = timed(self._build)
        self.setup_times.append(sample)

    def _build(self):
        wl = fresh_import().WORKLOADS[self.workload](self.workdir)
        wl.setup(self.seed)
        return wl

    def time_set_up(self) -> None:
        """One more complete set-up, timed and discarded.

        It writes the same files again; the run's own modules are put back
        afterwards, so the jobs and the tracer keep working on one program.
        """
        def ours():
            return {n: m for n, m in sys.modules.items() if n.split(".", 1)[0] in FRESH_MODULES}

        kept = ours()
        self.setup_times.append(timed(self._build)[1])
        for name in ours():
            del sys.modules[name]
        sys.modules.update(kept)

    def _verify(self, job, out, err) -> None:
        if err is None:
            try:
                digest = digest_of(job.summary(out))
            except Exception as exc:  # output too malformed to summarise
                err = f"output could not be read: {type(exc).__name__}: {exc}"
        if err is not None:
            digest = digest_of(["error", err])
        if job.name in self.reference:
            if self.reference[job.name] != digest:
                self.problems.append(f"output of {job.name} changed between passes")
            return
        self.reference[job.name] = digest
        try:
            failures = [err] if err else job.check(out)
        except Exception as exc:  # a check that cannot run is a failed check
            failures = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if failures:
            self.failed += 1
            for msg in set(map(check_category, failures)):
                self.failures[msg] += 1

    def one_pass(self, index: int, tracer) -> None:
        wl = self.wl
        wl.tracer = tracer
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        outputs = []
        try:
            for job in wl.jobs:
                out, err, sample = None, None, None
                try:
                    if tracer is None:
                        out, sample = timed(job.fn)
                    else:
                        tracer.run_id = f"pass{index}:{job.name}"
                        out = tracer.call(f"job.{job.kind}", job.fn)
                except Exception as exc:  # a failed operation is counted, not fatal
                    err = f"{type(exc).__name__}: {exc}"
                if sample is not None:
                    self.job_times.setdefault(job.name, []).append(sample)
                outputs.append((job, out, err))
        finally:
            if tracer is not None:
                tracer.uninstall()
            wl.tracer = None
        self.pass_walls[tracer is not None].append(time.perf_counter() - start)
        for job, out, err in outputs:
            self._verify(job, out, err)
        if tracer is not None:
            self._collect_trace(tracer)

    def _collect_trace(self, tracer) -> None:
        import tracing

        spans, counts = tracer.take()
        totals = tracing.totals(spans, counts)
        for child in self.wl.child_totals:
            for key, value in child.items():
                totals[key] = totals.get(key, 0) + value
        self.spans += spans + self.wl.child_spans
        self.wl.child_totals, self.wl.child_spans = [], []
        self.layer_passes.append(dict(totals))

    def measure(self) -> None:
        import tracing

        tracer = tracing.Tracer() if self.trace else None
        min_passes = TRACED_MIN_PASSES if self.trace else 1
        begin = time.perf_counter()
        index = 0
        while True:
            start = time.perf_counter()
            traced = self.trace and index % 2 == 1
            self.one_pass(index, tracer if traced else None)
            index += 1
            pass_s = time.perf_counter() - start
            due = 1 + int(SETUPS * (time.perf_counter() - begin) / self.seconds)
            while len(self.setup_times) < min(due, SETUPS):
                self.time_set_up()
            if index >= min_passes and (time.perf_counter() - begin) + pass_s > self.seconds:
                break
        while len(self.setup_times) < SETUPS:
            self.time_set_up()
        self.passes = index
        if self.trace:
            for key in WORK_COUNTS:
                values = {p.get(key, 0) for p in self.layer_passes}
                if len(values) > 1:
                    self.problems.append(f"traced passes disagree on {key}: {sorted(values)}")

    # -- results ---------------------------------------------------------------

    def job_medians(self, scaled: bool = True) -> dict[str, float]:
        return {name: median_time(ts, scaled) for name, ts in self.job_times.items()}

    def mean_of(self, times: dict[str, float], pick) -> float:
        values = [times[j.name] for j in self.wl.jobs if pick(j)]
        return statistics.fmean(values) if values else 0.0

    def output_digest(self) -> str:
        return digest_of([self.reference[j.name] for j in self.wl.jobs])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC_DIR / "privquant" / "__init__.py").is_file():
        print(f"error: privquant sources not found in {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    workloads = fresh_import()
    imported = Path(sys.modules["privquant"].__file__).resolve().parent
    if imported != SRC_DIR / "privquant":
        print(f"error: imported privquant from {imported}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    # One CPU for the run and the CLI children it starts, so that the speed
    # probe runs on the CPU whose speed the job sees.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        run.set_up()
        run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(run)


def run_all(names: list[str], args) -> int:
    """Run every workload in turn, each in its own process, one at a time."""
    worst = 0
    for name in names:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def report(run: Run) -> int:
    wl = run.wl
    med = run.job_medians()
    raw = run.job_medians(scaled=False)
    wall_s = sum(med.values())
    untraced = statistics.median(run.pass_walls[False])
    kinds = {
        "frontier_s": ("frontier", 1.0), "release_ms": ("release", 1e3),
        "oracle_ms": ("oracle", 1e3), "oracle_theta_ms": ("oracle_theta", 1e3),
        "cli_s": ("cli", 1.0),
    }
    e2e = {
        "setup_s": (median_time(run.setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "primary_ms": (1e3 * run.mean_of(med, lambda j: j.role == "primary"), "ms"),
        "secondary_ms": (1e3 * run.mean_of(med, lambda j: j.role == "secondary"), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    digest = run.output_digest()
    correct = not run.problems

    print(f"privquant benchmark: workload={wl.name} seed={run.seed} trace={int(run.trace)} "
          f"passes={run.passes} jobs/pass={len(wl.jobs)}")
    print(f"  primary   = {wl.primary}")
    print(f"  secondary = {wl.secondary}")
    probes = [p for samples in (run.setup_times, *run.job_times.values()) for _, p in samples]
    print(f"  speed probe      {statistics.median(probes):12.6f} s    (median of {len(probes)}; "
          f"times are scaled to {PROBE_REF_S} s, raw times are in [])")
    print(f"  setup_s          {e2e['setup_s'][0]:12.6f} s    (median of {len(run.setup_times)} "
          f"set-ups; raw [{median_time(run.setup_times, False):.6f}])")
    print(f"  wall_s           {wall_s:12.6f} s    (sum of per-job medians; raw "
          f"[{sum(raw.values()):.6f}]; median untraced pass {untraced:.4f} s over "
          f"{len(run.pass_walls[False])} passes)")
    for name, (kind, scale) in kinds.items():
        jobs = [j for j in wl.jobs if j.kind == kind]
        if jobs:
            value = scale * run.mean_of(med, lambda j: j.kind == kind)
            raw_value = scale * run.mean_of(raw, lambda j: j.kind == kind)
            samples = sum(len(run.job_times[j.name]) for j in jobs)
            print(f"  {name:16s} {value:12.6f} {name.rsplit('_', 1)[1]:4s} "
                  f"({len(jobs)} jobs, {samples} timed executions; raw [{raw_value:.6f}])")
    for name in ("primary_ms", "secondary_ms", "peak_rss_mb"):
        value, unit = e2e[name]
        print(f"  {name:16s} {value:12.6f} {unit}")
    frac = run.failed / run.attempted
    executions = sum(len(ts) for ts in run.job_times.values())
    print(f"  failed_frac      {frac:12.6f}      ({run.failed} failed of {run.attempted} "
          f"checked jobs; {executions} timed executions, each compared with its job's "
          f"first output)")
    for msg, n in sorted(run.failures.items()):
        print(f"    failed check: {msg} ({n} jobs)")
    for msg in run.problems:
        print(f"  NOT CORRECT: {msg}")
    print(f"  output digest    sha256:{digest}")

    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    if run.trace:
        values = trace_report(run, untraced, digest, spec)
        listed = spec["per_layer"]
    else:
        values = {name: v for name, (v, _) in e2e.items()}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def trace_report(run: Run, untraced: float, digest: str, spec: dict) -> dict:
    passes = [layer_metrics(t) for t in run.layer_passes]
    names = list(passes[0])
    per_layer = {n: statistics.median(p[n] for p in passes) for n in names}
    traced = statistics.median(run.pass_walls[True])
    per_layer["trace.overhead_s"] = traced - untraced
    print(f"  traced passes    {len(passes)}; median traced pass {traced:.4f} s, overhead "
          f"{traced - untraced:+.4f} s ({(traced - untraced) / untraced:+.1%})")
    # Units as BENCHMARK.json lists them; the names only the report prints
    # are times, apart from one rate.
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for n in names:
        unit = units.get(n, "1/s" if n.endswith("_per_s") else "s")
        print(f"  {n:32s} {per_layer[n]:16.6f} {unit}")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{run.wl.name}-seed{run.seed}.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump({
            "workload": run.wl.name, "seed": run.seed, "digest": digest,
            "per_layer": per_layer, "passes": run.layer_passes,
            "span_fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": run.spans,
        }, fh)
    print(f"  spans            {len(run.spans)} written to {path.relative_to(BENCH_DIR.parent)}")
    return per_layer


if __name__ == "__main__":
    sys.exit(main())
