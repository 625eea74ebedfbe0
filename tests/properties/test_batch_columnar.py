"""The columnar batch data plane is observationally identical.

``publish_many`` routes each consecutive same-stream run through the
compiled bucket plans *once per batch* — per-term columns, vectorized
predicate masks, projection shared across a bucket's subscriptions.
These properties pin the whole batch path to the per-datagram scan
router (:class:`~repro.sim.oracle.ScanNetwork`): for any random workload, any batch partitioning (size 1, 2,
odd, large), any interleaving of subscribes/unsubscribes between
batches, and broker failures landing mid-feed, the deliveries are
byte-identical (same subscribers, payloads and order) and the per-link
traffic accounting agrees.

Extends the production==scan oracle of ``test_fastpath_properties.py`` to
the batched entry points (:meth:`ContentBasedNetwork.publish_many`,
:meth:`CosmosSystem.publish_batch`).
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbn.columns import ColumnBatch
from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cql.predicates import Comparison, Conjunction
from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.sim.oracle import ScanNetwork
from repro.system.cosmos import CosmosSystem
from repro.system.fault import FaultError, fail_broker

from tests.properties.test_fastpath_properties import (
    ATTRS,
    STREAMS,
    draw_profile,
    random_trees,
    snapshot,
)


def draw_payload(data, label):
    return {
        attr: data.draw(st.integers(-10, 10), label=f"{label}-{attr}")
        for attr in ATTRS
    }


class TestColumnarBatchEquivalence:
    @given(random_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_partitionings_identical(self, tree, data):
        """Any chunking of a feed — singletons, pairs, odd sizes, one
        big batch — delivers exactly what the scan loop delivers."""
        nodes = tree.nodes
        fast = ContentBasedNetwork(tree)
        naive = ScanNetwork(tree)
        publisher = data.draw(st.sampled_from(nodes), label="publisher")
        fast.advertise("S", publisher)
        naive.advertise("S", publisher)
        n_profiles = data.draw(st.integers(1, 5), label="n_profiles")
        for index in range(n_profiles):
            profile = draw_profile(data, "S", f"p{index}")
            node = data.draw(st.sampled_from(nodes), label=f"node{index}")
            fast.subscribe(profile, node, f"u{index}")
            naive.subscribe(profile, node, f"u{index}")
        n_datagrams = data.draw(st.integers(1, 12), label="n_datagrams")
        feed = [
            Datagram("S", draw_payload(data, f"d{index}"), float(index))
            for index in range(n_datagrams)
        ]
        batched = []
        cursor = 0
        while cursor < len(feed):
            size = data.draw(
                st.sampled_from([1, 2, 3, 7, len(feed)]), label=f"chunk{cursor}"
            )
            batch = feed[cursor:cursor + size]
            cursor += size
            batched.extend(fast.publish_many(batch, publisher))
        looped = [naive.publish(datagram, publisher) for datagram in feed]
        assert [snapshot(per) for per in batched] == [snapshot(per) for per in looped]
        assert fast.data_stats.as_dict() == naive.data_stats.as_dict()

    @given(random_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_mutations_and_batches(self, tree, data):
        """Subscribes/unsubscribes/advertises interleaved with batched
        publishes: the columnar plans revalidate against the mutated
        routing state and still match the scan loop exactly."""
        nodes = tree.nodes
        fast = ContentBasedNetwork(tree)
        naive = ScanNetwork(tree)
        advertisers = {}
        live = []
        counter = itertools.count()
        clock = itertools.count()
        n_ops = data.draw(st.integers(4, 14), label="n_ops")
        for index in range(n_ops):
            choices = ["advertise", "subscribe"]
            if live:
                choices.append("unsubscribe")
            if advertisers:
                choices.append("publish_batch")
            op = data.draw(st.sampled_from(choices), label=f"op{index}")
            if op == "advertise":
                stream = data.draw(st.sampled_from(STREAMS), label=f"ad{index}")
                node = data.draw(st.sampled_from(nodes), label=f"ad-node{index}")
                fast.advertise(stream, node)
                naive.advertise(stream, node)
                advertisers.setdefault(stream, []).append(node)
            elif op == "subscribe":
                stream = data.draw(st.sampled_from(STREAMS), label=f"sub{index}")
                profile = draw_profile(data, stream, f"sub{index}")
                node = data.draw(st.sampled_from(nodes), label=f"sub-node{index}")
                sid = f"u{next(counter)}"
                fast.subscribe(profile, node, sid)
                naive.subscribe(profile, node, sid)
                live.append(sid)
            elif op == "unsubscribe":
                sid = data.draw(st.sampled_from(live), label=f"unsub{index}")
                live.remove(sid)
                fast.unsubscribe(sid)
                naive.unsubscribe(sid)
            else:
                stream = data.draw(
                    st.sampled_from(sorted(advertisers)), label=f"pub{index}"
                )
                origin = data.draw(
                    st.sampled_from(advertisers[stream]), label=f"pub-node{index}"
                )
                batch = [
                    Datagram(stream, draw_payload(data, f"d{index}-{i}"),
                             float(next(clock)))
                    for i in range(data.draw(st.integers(1, 6),
                                             label=f"batch{index}"))
                ]
                batched = fast.publish_many(batch, origin)
                looped = [naive.publish(d, origin) for d in batch]
                assert [snapshot(per) for per in batched] == [
                    snapshot(per) for per in looped
                ]
        assert fast.data_stats.as_dict() == naive.data_stats.as_dict()
        assert fast.routing_state_size() == naive.routing_state_size()


SCHEMA = StreamSchema(
    "Temp",
    [Attribute("station", "int", 0, 9), Attribute("celsius", "float", -20, 40)],
    rate=1.0,
)

#: Nodes with attached roles (processor, source, users) — never failed.
PROTECTED = {0, 1, 2, 3}


def _build_system(seed):
    topo = barabasi_albert(25, 2, random.Random(seed))
    tree = DisseminationTree.minimum_spanning(topo)
    system = CosmosSystem(tree, processor_nodes=[0], topology=topo)
    system.add_source(SCHEMA, 1)
    handles = [
        system.submit(
            "SELECT T.celsius FROM Temp [Range 1 Hour] T WHERE T.celsius > 0",
            user_node=2,
            name="qa",
        ),
        system.submit(
            "SELECT T.station FROM Temp [Range 1 Hour] T",
            user_node=3,
            name="qb",
        ),
    ]
    return system, handles


class TestBatchUnderFailures:
    @given(st.integers(0, 30), st.data())
    @settings(max_examples=25, deadline=None)
    def test_mid_feed_broker_failure_identical(self, seed, data):
        """A broker failure landing mid-feed: the batched system and
        the tuple-at-a-time system repair identically and every query
        handle accumulates identical results."""
        batched_sys, batched_handles = _build_system(seed)
        looped_sys, looped_handles = _build_system(seed)
        clock = itertools.count(1)
        rounds = data.draw(st.integers(1, 3), label="rounds")
        for round_index in range(rounds):
            tuples = [
                (
                    {
                        "station": data.draw(st.integers(0, 9),
                                             label=f"st{round_index}-{i}"),
                        "celsius": float(data.draw(st.integers(-5, 30),
                                                   label=f"c{round_index}-{i}")),
                    },
                    float(next(clock)),
                )
                for i in range(data.draw(st.integers(1, 5),
                                         label=f"batch{round_index}"))
            ]
            batched_sys.publish_batch("Temp", tuples)
            for payload, timestamp in tuples:
                looped_sys.publish("Temp", payload, timestamp)
            assert [h.result_count for h in batched_handles] == [
                h.result_count for h in looped_handles
            ]
            assert [h.results for h in batched_handles] == [
                h.results for h in looped_handles
            ]
            candidates = sorted(
                n for n in batched_sys.tree.nodes if n not in PROTECTED
            )
            if not candidates:
                continue
            victim = data.draw(
                st.sampled_from(candidates), label=f"victim{round_index}"
            )
            try:
                fail_broker(batched_sys, victim)
            except FaultError:
                continue  # survivors physically partitioned: skip in both
            fail_broker(looped_sys, victim)
            assert sorted(batched_sys.tree.edges) == sorted(looped_sys.tree.edges)


class TestCoverageMask:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_coverage_mask_matches_covers(self, data):
        """``Profile.coverage_mask`` equals per-datagram ``covers``."""
        profile = draw_profile(data, "S", "mask")
        n = data.draw(st.integers(1, 8), label="n")
        datagrams = [
            Datagram("S", draw_payload(data, f"d{index}"), float(index))
            for index in range(n)
        ]
        batch = ColumnBatch(datagrams, "S")
        expected = [profile.covers(d) for d in datagrams]
        assert profile.coverage_mask(batch) == expected
        # Second call exercises the per-profile evaluator cache.
        assert profile.coverage_mask(batch) == expected
        foreign = ColumnBatch([Datagram("T", {}, 0.0)], "T")
        assert profile.coverage_mask(foreign) == [False]
