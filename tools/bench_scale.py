#!/usr/bin/env python
"""CI scale benchmark: columnar batch data plane + incremental repair.

Three measurements, written to ``BENCH_scale.json`` at the repo root:

* **gate tier** (~10k subscriptions, 300 brokers): the columnar batch
  path (``publish_many`` over contiguous same-stream runs, per-stream
  routing index on) against the per-datagram scan router
  (:class:`~repro.sim.oracle.ScanNetwork`).
  This is the CI-gated floor: the columnar path must be at least
  ``GATE_FLOOR``x faster while producing byte-identical deliveries and
  per-link traffic.
* **scale tier** (10k nodes, 100k subscriptions): columnar-only
  throughput at the paper's target scale — no scan run (it would take
  minutes), just the achievable datagrams/sec and delivery fan-out.
* **churn**: 100 join/re-weight events on a 10k-node topology
  maintained by :class:`repro.overlay.optimizer.IncrementalOverlay`,
  timed against a full Kruskal recompute after every event; the
  incremental tree's total weight must match the recompute exactly.

Measurement helpers come from :mod:`repro.workload.bench`, the same
harness ``tools/bench_publish.py`` and the pytest gates use.  Exits
non-zero when equivalence breaks, the gate-tier speedup is under the
floor, or the incrementally maintained tree's weight drifts.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.overlay.optimizer import IncrementalOverlay  # noqa: E402
from repro.overlay.topology import barabasi_albert  # noqa: E402
from repro.sim.oracle import ScanNetwork  # noqa: E402
from repro.workload.bench import (  # noqa: E402
    best_of,
    group_feed,
    publish_batched,
    publish_batched_time,
    publish_loop,
    publish_loop_time,
    stats_equal,
)
from repro.workload.fastpath import build_fastpath_workload  # noqa: E402

#: CI-gated floor for the gate tier (measured headroom is ~16x).
GATE_FLOOR = 10.0

GATE_TIER = dict(
    n_streams=64,
    n_subscriptions=10_000,
    n_nodes=300,
    n_datagrams=128,
    batch_size=32,
)
SCALE_TIER = dict(
    n_streams=128,
    n_subscriptions=100_000,
    n_nodes=10_000,
    n_datagrams=256,
    batch_size=64,
)
CHURN_NODES = 10_000
CHURN_EVENTS = 100
REPS = 3


def run_gate_tier() -> dict:
    """Columnar batches vs the per-datagram scan router at 10k subs."""
    fast = build_fastpath_workload(**GATE_TIER)
    slow = build_fastpath_workload(ScanNetwork, **GATE_TIER)
    runs = group_feed(fast.feed)
    fast_out = publish_batched(fast.network, runs)
    slow_out = publish_loop(slow.network, slow.feed)
    fast_time, slow_time = best_of(
        REPS,
        lambda: publish_batched_time(fast.network, runs),
        lambda: publish_loop_time(slow.network, slow.feed),
    )
    n = GATE_TIER["n_datagrams"]
    return {
        "workload": dict(GATE_TIER, reps=REPS),
        "naive": {
            "datagrams_per_sec": round(n / slow_time, 1),
            "seconds": round(slow_time, 4),
        },
        "columnar": {
            "datagrams_per_sec": round(n / fast_time, 1),
            "seconds": round(fast_time, 4),
        },
        "speedup": round(slow_time / fast_time, 2),
        "floor": GATE_FLOOR,
        "equivalent": fast_out == slow_out and stats_equal(fast.network, slow.network),
    }


def run_scale_tier() -> dict:
    """Columnar-only throughput at 10k nodes / 100k subscriptions."""
    build_start = time.perf_counter()
    workload = build_fastpath_workload(**SCALE_TIER)
    build_seconds = time.perf_counter() - build_start
    runs = group_feed(workload.feed)
    deliveries = sum(len(s) for s in publish_batched(workload.network, runs))
    best = min(
        publish_batched_time(workload.network, runs) for __ in range(2)
    )
    n = SCALE_TIER["n_datagrams"]
    return {
        "workload": dict(SCALE_TIER),
        "build_seconds": round(build_seconds, 1),
        "datagrams_per_sec": round(n / best, 1),
        "seconds": round(best, 4),
        "deliveries": deliveries,
    }


def run_churn() -> dict:
    """Incremental spanning-tree repair vs full recompute under churn."""
    rng = random.Random(11)
    topology = barabasi_albert(CHURN_NODES, 2, rng)
    overlay = IncrementalOverlay(topology)
    next_id = CHURN_NODES
    incremental_seconds = 0.0
    full_seconds = 0.0
    for __ in range(CHURN_EVENTS):
        if rng.random() < 0.4:
            nodes = topology.nodes
            links = {}
            while len(links) < 2:
                links[rng.choice(nodes)] = rng.uniform(1.0, 1000.0)
            start = time.perf_counter()
            overlay.join(next_id, links)
            incremental_seconds += time.perf_counter() - start
            next_id += 1
        else:
            u, v = rng.choice(sorted(topology.weights))
            start = time.perf_counter()
            overlay.reweight(u, v, rng.uniform(1.0, 1000.0))
            incremental_seconds += time.perf_counter() - start
        start = time.perf_counter()
        full_edges = topology.minimum_spanning_tree_edges()
        full_seconds += time.perf_counter() - start
    full_weight = sum(topology.weights[e] for e in full_edges)
    return {
        "nodes": CHURN_NODES,
        "events": CHURN_EVENTS,
        "incremental_seconds": round(incremental_seconds, 4),
        "full_recompute_seconds": round(full_seconds, 4),
        "speedup": round(full_seconds / incremental_seconds, 2),
        "local_repairs": overlay.local_repairs,
        "full_rebuilds": overlay.full_rebuilds,
        "weight_exact": abs(overlay.total_weight() - full_weight) < 1e-6,
    }


def main() -> int:
    gate = run_gate_tier()
    scale = run_scale_tier()
    churn = run_churn()
    result = {"gate": gate, "scale": scale, "churn": churn}
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scale.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    failures = []
    if not gate["equivalent"]:
        failures.append("columnar deliveries/stats differ from the scan router")
    if gate["speedup"] < GATE_FLOOR:
        failures.append(
            f"gate-tier speedup {gate['speedup']}x under the {GATE_FLOOR}x floor"
        )
    if not churn["weight_exact"]:
        failures.append("incremental tree weight drifted from the full recompute")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
