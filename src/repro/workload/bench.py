"""Shared measurement harness for the CBN publish benchmarks.

One set of warm/timed/equivalence helpers used by the pytest gates in
``benchmarks/test_microbench.py`` and the CI artifacts written by
``tools/bench_publish.py`` and ``tools/bench_scale.py``, so the gates
and the artifacts measure the *same* procedures and cannot drift:

* :func:`publish_loop` / :func:`publish_loop_time` drive a workload
  datagram-at-a-time through ``network.publish`` (the shape both the
  scan-router reference and the scalar production path are measured in);
* :func:`group_feed` folds a feed into consecutive same-``(stream,
  origin)`` runs and :func:`publish_batched` /
  :func:`publish_batched_time` drive those runs through
  ``network.publish_many`` (the columnar batch path);
* :func:`snapshot` and :func:`stats_equal` are the byte-identical
  equivalence checks (same subscribers, payloads and order; same
  per-link traffic).

Timing helpers return wall seconds for one pass over the feed; callers
interleave reps of the compared paths and keep each path's best rep so
both sample the same machine conditions.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from repro.cbn.datagram import Datagram
from repro.cbn.network import ContentBasedNetwork
from repro.overlay.topology import NodeId

#: One feed entry: a datagram and the broker it is injected at.
FeedItem = Tuple[Datagram, NodeId]
#: One grouped run: consecutive same-stream datagrams and their broker.
FeedRun = Tuple[List[Datagram], NodeId]
#: Per-datagram delivery snapshot for byte-identical comparison.
Snapshot = List[Tuple[str, NodeId, Datagram]]


def snapshot(deliveries) -> Snapshot:
    """The comparable content of one datagram's delivery list."""
    return [(d.subscription_id, d.node, d.datagram) for d in deliveries]


def publish_loop(network: ContentBasedNetwork, feed: List[FeedItem]) -> List[Snapshot]:
    """Publish datagram-at-a-time; returns per-datagram snapshots."""
    return [
        snapshot(network.publish(datagram, origin))
        for datagram, origin in feed
    ]


def publish_loop_time(network: ContentBasedNetwork, feed: List[FeedItem]) -> float:
    """Wall seconds for one datagram-at-a-time pass over the feed."""
    publish = network.publish
    # cos: disable=COS502 (benchmark harness: wall-clock is the measurement, not simulated time)
    start = time.perf_counter()
    for datagram, origin in feed:
        publish(datagram, origin)
    # cos: disable=COS502 (benchmark harness: wall-clock is the measurement, not simulated time)
    return time.perf_counter() - start


def group_feed(feed: List[FeedItem]) -> List[FeedRun]:
    """Fold a feed into consecutive same-``(stream, origin)`` runs.

    This is the grouping ``publish_many`` exploits: each run enters
    the network as one batch.  Grouping only joins *consecutive*
    entries, so replaying the runs preserves the feed order exactly.
    """
    runs: List[FeedRun] = []
    for datagram, origin in feed:
        if runs and runs[-1][1] == origin and runs[-1][0][0].stream == datagram.stream:
            runs[-1][0].append(datagram)
        else:
            runs.append(([datagram], origin))
    return runs


def publish_batched(
    network: ContentBasedNetwork, runs: List[FeedRun]
) -> List[Snapshot]:
    """Publish grouped runs via ``publish_many``; per-datagram snapshots."""
    out: List[Snapshot] = []
    for batch, origin in runs:
        out.extend(
            snapshot(deliveries)
            for deliveries in network.publish_many(batch, origin)
        )
    return out


def publish_batched_time(
    network: ContentBasedNetwork, runs: List[FeedRun]
) -> float:
    """Wall seconds for one batched pass over the grouped runs."""
    publish_many = network.publish_many
    # cos: disable=COS502 (benchmark harness: wall-clock is the measurement, not simulated time)
    start = time.perf_counter()
    for batch, origin in runs:
        publish_many(batch, origin)
    # cos: disable=COS502 (benchmark harness: wall-clock is the measurement, not simulated time)
    return time.perf_counter() - start


def stats_equal(a: ContentBasedNetwork, b: ContentBasedNetwork) -> bool:
    """Identical per-link data-traffic accounting on both networks."""
    return a.data_stats.as_dict() == b.data_stats.as_dict()


def best_of(reps: int, *timers) -> List[float]:
    """Interleave timing reps of the given thunks; best rep of each.

    Interleaving (A, B, A, B, ...) rather than (A, A, B, B) keeps a
    machine-load burst from biasing one path's comparison.
    """
    best = [float("inf")] * len(timers)
    for __ in range(reps):
        for index, timer in enumerate(timers):
            best[index] = min(best[index], timer())
    return best
