"""Spans and work counters around privquant's public functions.

``Tracer.install`` replaces each traced function in every privquant module
namespace that holds it (and on the class, for the two classmethods), so a
call is recorded wherever the function is looked up; ``uninstall`` puts the
originals back. Nothing under ``src/`` changes. Spans (id, name, start, end,
parent id, run id) stay in memory until the run writes them out.

A span's layer is the module its name starts with. A span's self time is its
duration minus the durations of its direct children. Work the tracer does
after a call returns (counting trace states, recomputing utilities) runs in
a ``bench.bookkeeping`` span, so it is subtracted from whichever privquant
span was open and counted in no layer.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Optional

from privquant import core, graph, greedy, ingest, oracle, pareto, quantize

# (span name, owner, attribute); classmethods are patched on their class.
TARGETS = (
    ("ingest.load_csv", ingest, "load_csv"),
    ("core.from_id_pairs", core.JointRange, "from_id_pairs"),
    ("core.l0", core, "l0"),
    ("core.b0", core, "b0"),
    ("core.i0_forward", core, "i0_forward"),
    ("core.min_range_size", core, "min_range_size"),
    ("graph.maximin_information", graph, "maximin_information"),
    ("graph.build_graph", graph, "build_graph"),
    ("graph.finest_decomposition", graph, "finest_decomposition"),
    ("quantize.from_clusters", quantize.Quantization, "from_clusters"),
    ("quantize.utility", quantize, "utility"),
    ("greedy.run", greedy, "run"),
    ("pareto.sweep", pareto, "sweep"),
    ("pareto.sweeney_baseline", pareto, "sweeney_baseline"),
    ("oracle.oracle_min", oracle, "oracle_min"),
)

MEASURES = frozenset(("core.l0", "core.b0", "core.i0_forward", "core.min_range_size"))


class Tracer:
    def __init__(self, id_base: int = 0):
        self.spans: list[tuple] = []
        self.run_id = ""
        self.counts: Counter = Counter()
        self.last_id = -1
        self._next_id = id_base
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sweep_keys: dict[int, set] = defaultdict(set)
        self._utility = quantize.utility

    def open_span(self) -> Optional[int]:
        """Id of the innermost span still open, if any."""
        return self._stack[-1][0] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; return its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.run_id))
            self.last_id = sid

    # -- what each traced call adds to the counters ----------------------------

    def _after_load(self, sid, args, result) -> None:
        self.counts["ingest.rows"] += result[1].record_count

    def _after_run(self, sid, args, result) -> None:
        jr, _, cfg = args[:3]
        trace = result.trace
        self.counts["greedy.run_calls"] += 1
        self.counts["greedy.trace_states"] += len(trace)
        self.counts["greedy.merges"] += sum(len(e.merged) for e in trace)
        self.counts["greedy.trace_utility_mismatch"] += sum(
            e.utility_value != self._utility(jr, e.quantization, cfg.utility) for e in trace
        )
        for open_sid, name in reversed(self._stack):
            if name == "pareto.sweep":
                self._sweep_keys[open_sid].update(
                    e.quantization.partition_key() for e in trace
                )
                self.counts["pareto.harvested_states"] += len(trace)
                break

    def _after_sweep(self, sid, args, frontier) -> None:
        self.counts["pareto.candidates"] += len(self._sweep_keys.pop(sid, ()))
        self.counts["pareto.frontier_points"] += len(frontier.points)

    # -- patching ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        after = {
            "ingest.load_csv": self._after_load,
            "greedy.run": self._after_run,
            "pareto.sweep": self._after_sweep,
        }.get(name)

        def wrapper(*args, **kwargs):
            # greedy.run spans carry the problem, so run time splits by algorithm.
            span = f"greedy.run.{args[1].value}" if name == "greedy.run" else name
            result = tracer.call(span, fn, *args, **kwargs)
            if after is not None:
                tracer.call("bench.bookkeeping", after, tracer.last_id, args, result)
            return result

        return wrapper

    def _count_partitions(self, fn):
        counts = self.counts

        def enumerate_partitions(n):
            for rgs in fn(n):
                counts["oracle.partitions"] += 1
                yield rgs

        return enumerate_partitions

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, raw, attr: str, new) -> None:
        for name, mod in list(sys.modules.items()):
            if name == "privquant" or name.startswith("privquant."):
                if mod.__dict__.get(attr) is raw:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch_everywhere(raw, attr, self._wrap(name, raw))
        raw = oracle.enumerate_partitions
        self._patch_everywhere(raw, "enumerate_partitions", self._count_partitions(raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def totals(spans, counts) -> dict[str, float]:
    """Additive per-layer totals of one batch of spans and counts.

    Keys: every counter; ``<span name>.calls`` and ``<span name>.s``;
    ``<layer>.self_s``; ``core.measure_calls``/``core.measure_s`` for
    measure calls not made from inside another measure. Totals of a pass
    and of the CLI children it started can be summed key by key.
    """
    name_of = {s[0]: s[1] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float, counts)
    for sid, name, start, end, parent, _ in spans:
        dur = end - start
        layer = name.split(".", 1)[0]
        if layer != "bench":
            out[f"{layer}.self_s"] += dur - child_time[sid]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        if name in MEASURES and name_of.get(parent) not in MEASURES:
            out["core.measure_calls"] += 1
            out["core.measure_s"] += dur
    return out
