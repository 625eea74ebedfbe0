"""Microbenchmarks of the per-operation primitives.

Not a paper figure — these quantify the substrate costs (parse, route,
match, join, group) that the system-level experiments are built on, and
guard against performance regressions.
"""

import random

import pytest

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.core.cost import CostModel
from repro.core.grouping import GroupingOptimizer
from repro.cql.parser import parse_query
from repro.cql.predicates import Comparison, Conjunction
from repro.experiments.runner import render_table
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.sim.oracle import ScanNetwork
from repro.spe.engine import StreamProcessingEngine
from repro.workload.auction import TABLE1_Q3, auction_catalog
from repro.workload.bench import (
    best_of,
    group_feed,
    publish_batched,
    publish_batched_time,
    publish_loop,
    publish_loop_time,
    stats_equal,
)
from repro.workload.fastpath import build_fastpath_workload
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import sensorscope_catalog


def test_parse_query_throughput(benchmark):
    query = benchmark(parse_query, TABLE1_Q3)
    assert len(query.streams) == 2


def test_profile_coverage_throughput(benchmark):
    profile = Profile(
        {"S": frozenset({"a"})},
        [Filter("S", Conjunction.from_atoms([Comparison("a", ">", 10)]))],
    )
    datagram = Datagram("S", {"a": 20, "b": 1}, 0.0)
    assert benchmark(profile.covers, datagram)


def test_cbn_publish_throughput(benchmark):
    rng = random.Random(1)
    catalog = sensorscope_catalog(1, rng=random.Random(1))
    topo = barabasi_albert(200, 2, rng)
    tree = DisseminationTree.minimum_spanning(topo)
    net = ContentBasedNetwork(tree, catalog)
    net.advertise("ss00", 0, catalog.get("ss00"))
    for index in range(20):
        net.subscribe(
            Profile({"ss00": frozenset({"station", "ambient_temperature"})}),
            rng.randrange(200),
            f"u{index}",
        )
    datagram = Datagram(
        "ss00", {"station": 0, "ambient_temperature": 20.0, "timestamp": 1.0}, 1.0
    )
    deliveries = benchmark(net.publish, datagram, 0)
    assert len(deliveries) == 20


def test_cbn_publish_many_throughput(benchmark):
    """Batched publication of a whole feed via ``publish_many``."""
    workload = build_fastpath_workload(
        n_streams=8, n_subscriptions=200, n_nodes=80, n_datagrams=50,
        batch_size=10,
    )
    runs = group_feed(workload.feed)

    def run():
        return sum(
            len(deliveries)
            for batch, origin in runs
            for deliveries in workload.network.publish_many(batch, origin)
        )

    delivered = benchmark(run)
    assert delivered > 0


def test_cbn_columnar_batch_speedup(report):
    """The columnar batch path vs the scalar per-datagram fast path.

    Bursty feed (runs of 25 same-stream datagrams): grouping the runs
    through ``publish_many`` amortises plan lookup, column extraction
    and shared projection across each batch, and must stay
    byte-identical to publishing the feed one datagram at a time.
    """
    shape = dict(n_datagrams=200, batch_size=25)
    batched = build_fastpath_workload(**shape)
    scalar = build_fastpath_workload(**shape)
    runs = group_feed(batched.feed)

    batched_out = publish_batched(batched.network, runs)
    scalar_out = publish_loop(scalar.network, scalar.feed)
    batched_time, scalar_time = best_of(
        3,
        lambda: publish_batched_time(batched.network, runs),
        lambda: publish_loop_time(scalar.network, scalar.feed),
    )

    assert batched_out == scalar_out
    assert stats_equal(batched.network, scalar.network)

    speedup = scalar_time / batched_time
    report(
        "microbench_columnar",
        render_table(
            ["path", "datagrams/sec", "best rep (s)"],
            [
                ["scalar fast path", f"{len(scalar_out) / scalar_time:.0f}",
                 f"{scalar_time:.4f}"],
                ["columnar batches", f"{len(batched_out) / batched_time:.0f}",
                 f"{batched_time:.4f}"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            "Microbench: CBN columnar batch path vs scalar fast path",
        ),
    )
    assert speedup >= 1.2


def test_cbn_fastpath_speedup(report):
    """The per-stream index + decision cache vs the scan router.

    Matching-heavy workload (24 streams, 1200 subscriptions, 120
    brokers): the indexed path must be at least 3x faster while staying
    byte-identical — same deliveries in the same order, same per-link
    ``LinkStats`` totals.  Timed reps of the two paths are interleaved
    so both sample the same machine conditions.
    """
    fast = build_fastpath_workload()
    slow = build_fastpath_workload(ScanNetwork)

    fast_out = publish_loop(fast.network, fast.feed)
    slow_out = publish_loop(slow.network, slow.feed)
    fast_time, slow_time = best_of(
        3,
        lambda: publish_loop_time(fast.network, fast.feed),
        lambda: publish_loop_time(slow.network, slow.feed),
    )

    # Byte-identical outcomes: same subscribers, nodes and payloads in
    # the same order, and identical per-link message/byte totals.
    assert fast_out == slow_out
    assert stats_equal(fast.network, slow.network)

    speedup = slow_time / fast_time
    rate_fast = len(fast_out) / fast_time
    rate_slow = len(slow_out) / slow_time
    report(
        "microbench_fastpath",
        render_table(
            ["path", "datagrams/sec", "best rep (s)"],
            [
                ["scan router", f"{rate_slow:.0f}", f"{slow_time:.4f}"],
                ["production path", f"{rate_fast:.0f}", f"{fast_time:.4f}"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            "Microbench: CBN publish production path vs scan router",
        ),
    )
    assert speedup >= 3.0


def test_spe_join_throughput(benchmark):
    catalog = auction_catalog()
    feed = []
    for item in range(50):
        ts = float(item * 60)
        feed.append(
            Datagram(
                "OpenAuction",
                {"itemID": item, "sellerID": 1, "start_price": 1.0, "timestamp": ts},
                ts,
            )
        )
        feed.append(
            Datagram(
                "ClosedAuction",
                {"itemID": item, "buyerID": 2, "timestamp": ts + 30},
                ts + 30,
            )
        )
    feed.sort(key=lambda d: d.timestamp)

    def run():
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query(TABLE1_Q3), "q3")
        return sum(len(spe.push(d)) for d in feed)

    results = benchmark(run)
    assert results == 50


def test_grouping_add_throughput(benchmark):
    catalog = sensorscope_catalog(rng=random.Random(2))
    workload = QueryWorkload(
        catalog, WorkloadConfig(skew=1.0, join_fraction=0.0, seed=4)
    )
    queries = workload.generate(200)

    def run():
        optimizer = GroupingOptimizer(catalog, CostModel())
        for query in queries:
            optimizer.add(query)
        return optimizer.group_count

    groups = benchmark(run)
    assert 0 < groups < 200


def test_tree_path_throughput(benchmark):
    rng = random.Random(3)
    topo = barabasi_albert(1000, 2, rng)
    tree = DisseminationTree.minimum_spanning(topo)
    pairs = [(rng.randrange(1000), rng.randrange(1000)) for __ in range(100)]

    def run():
        return sum(len(tree.path(a, b)) for a, b in pairs)

    total = benchmark(run)
    assert total > 0
