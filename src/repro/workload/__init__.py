"""Workload generation for the evaluation (section 5).

* :mod:`repro.workload.zipf` — seeded zipfian sampling (the query
  popularity distributions of Figure 4: uniform, zipf 1.0/1.5/2.0);
* :mod:`repro.workload.sensorscope` — a synthetic stand-in for the
  SensorScope environmental dataset: 63 streams of typed sensor
  attributes with a timestamp-driven replayer;
* :mod:`repro.workload.auction` — the auction monitoring application of
  Table 1 (OpenAuction / ClosedAuction);
* :mod:`repro.workload.queries` — the random query generator ("randomly
  selecting the involved streams, their window sizes and the filtering
  predicates based on a distribution (uniform or zipfian)");
* :mod:`repro.workload.fastpath` — the matching-heavy publish workload
  shared by the publish/columnar benchmarks and their pytest gates;
* :mod:`repro.workload.bench` — the shared warm/timed/equivalence
  measurement harness those benchmarks run the workload through.
"""

from __future__ import annotations

from repro.workload.auction import (
    AuctionWorkload,
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
    TABLE1_Q3,
)
from repro.workload.bench import (
    best_of,
    group_feed,
    publish_batched,
    publish_batched_time,
    publish_loop,
    publish_loop_time,
    snapshot,
    stats_equal,
)
from repro.workload.fastpath import FastPathWorkload, build_fastpath_workload
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import sensorscope_catalog, SensorScopeReplayer
from repro.workload.zipf import ZipfSampler

__all__ = [
    "AuctionWorkload",
    "CLOSED_AUCTION_SCHEMA",
    "FastPathWorkload",
    "OPEN_AUCTION_SCHEMA",
    "QueryWorkload",
    "SensorScopeReplayer",
    "TABLE1_Q1",
    "TABLE1_Q2",
    "TABLE1_Q3",
    "WorkloadConfig",
    "ZipfSampler",
    "best_of",
    "build_fastpath_workload",
    "group_feed",
    "publish_batched",
    "publish_batched_time",
    "publish_loop",
    "publish_loop_time",
    "sensorscope_catalog",
    "snapshot",
    "stats_equal",
]
