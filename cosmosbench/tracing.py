"""Per-layer tracing for the traced benchmark run.

Only the traced run installs these wrappers; the untraced run that
yields the end-to-end metrics executes the program unmodified.  Each
wrapper records a span (name, start, end, parent, op id) around one call
into a layer's public entry point.  The benchmark opens a root span per
user operation (``bench.<kind>``), so every span of one submit, slice or
migration shares that operation's id.  Spans stay in compact in-memory
arrays and are written out when the run ends.

Self time is a span's duration minus the time its direct child spans
cover; busy time (``ms``) counts only the outermost span of a name, so a
recursive or re-entrant call is not counted twice.  The one leaf called
about a thousand times per operation, ``RoutingTable.remove``, is
counted and timed into its parent but stores no span of its own.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import repro.core.grouping
import repro.core.manager
import repro.core.profiles
import repro.system.cosmos
import repro.system.fault
import repro.system.loadmgr
import repro.system.rebuild
from repro.cbn.network import ContentBasedNetwork
from repro.cbn.routing import RoutingTable
from repro.core.grouping import GroupingOptimizer
from repro.spe.engine import StreamProcessingEngine
from repro.system.cosmos import CosmosSystem
from repro.system.distribution import StreamAffinityDistribution
from repro.system.node import Processor

clock = time.perf_counter

#: span name -> the (owner, attribute) bindings it wraps.  A function a
#: module imported by name is wrapped in each module that calls it.
TARGETS: Dict[str, List[Tuple[object, str]]] = {
    "cql.parse": [(repro.system.cosmos, "parse_query")],
    "core.grouping.add": [(GroupingOptimizer, "add")],
    "core.grouping.remove": [(GroupingOptimizer, "remove")],
    "core.merge": [(repro.core.grouping, "mergeable")],
    "core.profiles": [
        (module, name)
        for module in (repro.core.profiles, repro.core.manager, repro.system.rebuild)
        for name in ("source_profile", "result_profile")
    ],
    "cbn.subscribe": [(ContentBasedNetwork, "subscribe")],
    "cbn.unsubscribe": [(ContentBasedNetwork, "unsubscribe")],
    "cbn.table_remove": [(RoutingTable, "remove")],
    "cbn.publish_many": [(ContentBasedNetwork, "publish_many")],
    "spe.push_to": [(StreamProcessingEngine, "push_to")],
    "spe.register": [(StreamProcessingEngine, "register")],
    "spe.deregister": [(StreamProcessingEngine, "deregister")],
    "system.submit": [(CosmosSystem, "submit")],
    "system.withdraw": [(CosmosSystem, "withdraw")],
    "system.distribution": [(StreamAffinityDistribution, "choose")],
    "system.replay": [(CosmosSystem, "replay")],
    "system.on_source_data": [(Processor, "on_source_data")],
    "system.fail_broker": [(repro.system.fault, "fail_broker")],
    "system.fail_processor": [(repro.system.fault, "fail_processor")],
    "system.rebuild_network": [(repro.system.rebuild, "rebuild_network")],
    "overlay.repair_tree": [(repro.system.fault, "repair_tree")],
    "loadmgr.choose_target": [(repro.system.loadmgr, "choose_target")],
    "loadmgr.cutover_group": [(repro.system.loadmgr, "cutover_group")],
}

#: Layer metric -> (end-to-end metric it should move, workload), as the
#: benchmark's design states it; printed with the traced run's table.
SHOULD_MOVE: Dict[str, Tuple[str, str]] = {
    "cql.parse": ("submit_ms_p50 (small share)", "control_churn"),
    "core.grouping.add": ("submit_ms_p50; setup_s", "control_churn"),
    "core.grouping.remove": ("withdraw_ms_p50", "control_churn"),
    "core.merge": ("submit_ms_p50; setup_s", "control_churn"),
    "core.profiles": ("submit_ms_p50, withdraw_ms_p50", "control_churn"),
    "cbn.subscribe": ("submit_ms_p95; setup_s", "control_churn"),
    "cbn.unsubscribe": ("withdraw_ms_p95, submit_ms_p95, peak_rss_mb", "control_churn"),
    "cbn.table_remove": ("withdraw_ms_p95, repair_ms_p50", "control_churn"),
    "cbn.publish_many": ("tuples_per_s, slice_ms_* (link_cost_per_tuple fixed)",
                         "replay_joins; control_churn"),
    "spe.push_to": ("tuples_per_s, slice_ms_*", "replay_joins"),
    "spe.register": ("submit_ms_p50", "control_churn"),
    "spe.deregister": ("withdraw_ms_p50", "control_churn"),
    "system.submit": ("glue on submit_ms_*", "all"),
    "system.withdraw": ("glue on withdraw_ms_*", "all"),
    "system.distribution": ("submit_ms_p50", "all"),
    "system.replay": ("glue on slice_ms_*", "all"),
    "system.on_source_data": ("glue on slice_ms_*", "all"),
    "system.fail_broker": ("repair_ms_p50", "control_churn"),
    "system.fail_processor": ("repair_ms_p50", "control_churn"),
    "system.rebuild_network": ("repair_ms_p50", "control_churn"),
    "overlay.repair_tree": ("repair_ms_p50", "control_churn"),
    "loadmgr.choose_target": ("migrate_ms_p50", "control_churn"),
    "loadmgr.cutover_group": ("migrate_ms_p50", "control_churn"),
}

#: Spans whose call count is reported under another name.
CALLS_NAME = {"core.merge": "attempts"}


class Span:
    __slots__ = ("tracer", "index", "name", "start", "child")

    def __init__(self, tracer: "Tracer", index: int, name: str, start: float) -> None:
        self.tracer = tracer
        self.index = index
        self.name = name
        self.start = start
        self.child = 0.0

    def close(self) -> None:
        self.tracer.close(self)


class Tracer:
    """Collects spans and per-name call counts, busy and self time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[Span] = []
        self._op = 0
        self._open: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)

    def open(self, name: str) -> Span:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        if self._stack:
            parent = self._stack[-1].index
        else:
            parent = -1
            self._op += 1
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._open[name] += 1
        span = Span(self, index, name, clock())
        self.starts.append(span.start)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        end = clock()
        self._stack.pop()
        self.ends[span.index] = end
        duration = end - span.start
        name = span.name
        self.calls[name] += 1
        self.own[name] += duration - span.child
        self._open[name] -= 1
        if not self._open[name]:
            self.busy[name] += duration
        if self._stack:
            self._stack[-1].child += duration

    def leaf(self, name: str, duration: float) -> None:
        """Account a call that stores no span of its own."""
        self.calls[name] += 1
        self.busy[name] += duration
        self.own[name] += duration
        if self._stack:
            self._stack[-1].child += duration

    def op(self, kind: str) -> Span:
        """Root span of one benchmark operation."""
        return self.open(f"bench.{kind}")

    def wrap(self, name: str, function: Callable) -> Callable:
        tracer = self
        if name == "cbn.table_remove":
            # A leaf called about a thousand times per unsubscribe: it is
            # counted and timed into its parent span but stores no span.
            def traced(table, *args, **kwargs):
                before = table.entry_count
                start = clock()
                try:
                    return function(table, *args, **kwargs)
                finally:
                    tracer.leaf(name, clock() - start)
                    tracer.counters["table_remove_hits"] += table.entry_count < before
        elif name == "cbn.publish_many":
            def traced(network, datagrams, *args, **kwargs):
                span = tracer.open(name)
                try:
                    out = function(network, datagrams, *args, **kwargs)
                finally:
                    span.close()
                tracer.counters["batched"] += len(datagrams)
                tracer.counters["deliveries"] += sum(len(d) for d in out)
                return out
        elif name in ("spe.push_to", "core.merge"):
            def traced(*args, **kwargs):
                span = tracer.open(name)
                try:
                    out = function(*args, **kwargs)
                finally:
                    span.close()
                if name == "spe.push_to":
                    tracer.counters["push_results"] += len(out)
                else:
                    tracer.counters["merges_accepted"] += bool(out)
                return out
        else:
            def traced(*args, **kwargs):
                span = tracer.open(name)
                try:
                    return function(*args, **kwargs)
                finally:
                    span.close()
        traced.__wrapped__ = function
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, bindings in TARGETS.items():
                for owner, attr in bindings:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> Dict[str, float]:
        """calls / ms / self_ms of every target span, plus the ratios."""
        out: Dict[str, float] = {}
        for name in TARGETS:
            out[f"{name}.{CALLS_NAME.get(name, 'calls')}"] = float(self.calls[name])
            out[f"{name}.ms"] = self.busy[name] * 1e3
            out[f"{name}.self_ms"] = self.own[name] * 1e3
        counters = self.counters
        # share of mergeable() checks that passed
        out["core.merge.accept_ratio"] = _ratio(
            counters["merges_accepted"], self.calls["core.merge"]
        )
        out["cbn.table_remove.hit_ratio"] = _ratio(
            counters["table_remove_hits"], self.calls["cbn.table_remove"]
        )
        out["cbn.batch_len_mean"] = _ratio(
            counters["batched"], self.calls["cbn.publish_many"]
        )
        out["cbn.deliveries"] = counters["deliveries"]
        out["spe.results_per_push"] = _ratio(
            counters["push_results"], self.calls["spe.push_to"]
        )
        return out

    def write(self, path: str) -> int:
        """Write every span as gzip TSV; returns the span count."""
        base = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as out:
            out.write("index\top\tparent\tname\tstart_us\tend_us\n")
            for index in range(len(self.starts)):
                out.write(
                    f"{index}\t{self.ops[index]}\t{self.parents[index]}\t"
                    f"{self.names[self.name_ids[index]]}\t"
                    f"{(self.starts[index] - base) * 1e6:.1f}\t"
                    f"{(self.ends[index] - base) * 1e6:.1f}\n"
                )
        return len(self.starts)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
