"""Matching-heavy CBN publish workload for the publish benchmarks.

One deterministic generator shared by ``benchmarks/test_microbench.py``,
``tools/bench_publish.py`` and ``tools/bench_scale.py`` so the pytest
speedup gates and the CI ``BENCH_*.json`` artifacts measure the *same*
workload: many SensorScope streams, hundreds of filtered/projecting
subscriptions spread over a sizeable tree, and a feed replayed from each
stream's publisher.  This is the regime the per-stream routing index
targets — a scan router scans every routing entry behind an interface
while the production path only touches the datagram's own stream
bucket.  The caller picks the network class: the production
:class:`~repro.cbn.network.ContentBasedNetwork` (default) or a
reference subclass such as the scan router the benchmarks compare
against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple, Type

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cql.predicates import Comparison, Conjunction
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.workload.sensorscope import sensorscope_catalog


@dataclass
class FastPathWorkload:
    """A CBN primed with subscriptions plus the feed to publish."""

    network: ContentBasedNetwork
    #: ``(datagram, origin broker)`` pairs, publisher-correct per stream.
    feed: List[Tuple[Datagram, int]]


def build_fastpath_workload(
    network_type: Type[ContentBasedNetwork] = ContentBasedNetwork,
    n_streams: int = 24,
    n_subscriptions: int = 1200,
    n_nodes: int = 120,
    n_datagrams: int = 200,
    wants_all_fraction: float = 0.2,
    filter_fraction: float = 0.7,
    seed: int = 7,
    batch_size: int = 1,
) -> FastPathWorkload:
    """Build the matching-heavy workload on a ``network_type`` network.

    Everything is seeded, so any two network classes get byte-for-byte
    identical routing state and an identical feed — the only difference
    is the publish path the class takes.

    ``batch_size`` shapes the feed into contiguous same-stream runs of
    that length (a publisher emitting bursts), which is the regime the
    columnar batch path exploits: ``publish_many`` evaluates each run's
    bucket plans once per batch.  The default of 1 keeps the historical
    one-datagram-per-stream-pick feed.
    """
    rng = random.Random(seed)
    catalog = sensorscope_catalog(n_streams, rng=random.Random(seed))
    streams = catalog.stream_names[:n_streams]
    topology = barabasi_albert(n_nodes, 2, rng)
    tree = DisseminationTree.minimum_spanning(topology)
    network = network_type(tree, catalog.copy())

    setup = random.Random(seed + 1)
    for stream in streams:
        network.advertise(stream, setup.randrange(n_nodes), catalog.get(stream))
    for index in range(n_subscriptions):
        stream = setup.choice(streams)
        attrs = [a.name for a in catalog.get(stream).attributes]
        if setup.random() < wants_all_fraction:
            projection = ALL_ATTRIBUTES
        else:
            width = setup.randint(1, min(3, len(attrs)))
            projection = frozenset(setup.sample(attrs, k=width))
        filters = []
        if setup.random() < filter_fraction:
            atom = Comparison(
                setup.choice(attrs),
                setup.choice(["<=", ">="]),
                setup.randint(-5, 40),
            )
            filters.append(Filter(stream, Conjunction.from_atoms([atom])))
        network.subscribe(
            Profile({stream: projection}, filters),
            setup.randrange(n_nodes),
            f"u{index}",
        )

    data = random.Random(seed + 2)
    feed: List[Tuple[Datagram, int]] = []
    while len(feed) < n_datagrams:
        stream = data.choice(streams)
        origin = network.publishers_of(stream)[0]
        attrs = catalog.get(stream).attributes
        for __ in range(min(batch_size, n_datagrams - len(feed))):
            payload = {a.name: data.randint(-5, 40) for a in attrs}
            feed.append((Datagram(stream, payload, float(len(feed))), origin))
    return FastPathWorkload(network, feed)
