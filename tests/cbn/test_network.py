"""End-to-end CBN behaviour on small trees."""

import pytest

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork, NetworkError
from repro.cql.predicates import Comparison, Conjunction
from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.tree import DisseminationTree


def cond(*atoms):
    return Conjunction.from_atoms(atoms)


SCHEMA = StreamSchema(
    "S",
    [Attribute("a", "int", 0, 100), Attribute("b", "float", 0, 1)],
    rate=1.0,
)


@pytest.fixture
def net(line_tree):
    network = ContentBasedNetwork(line_tree)
    network.advertise("S", 0, SCHEMA)
    return network


class TestSubscribePublish:
    def test_delivery_to_matching_subscriber(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        deliveries = net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)
        assert [d.subscription_id for d in deliveries] == ["u1"]
        assert deliveries[0].node == 4

    def test_no_delivery_when_filtered_out(self, net):
        p = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 50)))])
        net.subscribe(p, 4, "u1")
        assert net.publish(Datagram("S", {"a": 10, "b": 0.1}), 0) == []

    def test_projection_applied_at_delivery(self, net):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        deliveries = net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)
        assert dict(deliveries[0].datagram.payload) == {"a": 1}

    def test_multiple_subscribers_each_get_own_view(self, net):
        net.subscribe(Profile({"S": {"a"}}), 2, "u1")
        net.subscribe(Profile({"S": {"b"}}), 4, "u2")
        deliveries = {d.subscription_id: d for d in net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)}
        assert dict(deliveries["u1"].datagram.payload) == {"a": 1}
        assert dict(deliveries["u2"].datagram.payload) == {"b": 0.5}

    def test_subscriber_at_publisher_node(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 0, "u1")
        deliveries = net.publish(Datagram("S", {"a": 1, "b": 0.2}), 0)
        assert len(deliveries) == 1
        # Local delivery moves no bytes across links.
        assert net.data_stats.total_bytes() == 0

    def test_unsubscribe_stops_delivery(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        net.unsubscribe("u1")
        assert net.publish(Datagram("S", {"a": 1, "b": 0.1}), 0) == []

    def test_duplicate_subscription_id_rejected(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        with pytest.raises(NetworkError):
            net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 3, "u1")

    def test_unknown_node_rejected(self, net):
        with pytest.raises(NetworkError):
            net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 99)
        with pytest.raises(NetworkError):
            net.publish(Datagram("S", {}), 99)


class TestTrafficAccounting:
    def test_bytes_counted_per_hop(self, net):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)
        # 4 hops from node 0 to node 4, a:int = 4 bytes each.
        assert net.data_stats.total_messages() == 4
        assert net.data_stats.total_bytes() == 16

    def test_early_projection_on_first_hop(self, net):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)
        assert net.data_stats.usage(0, 1).bytes == 4  # b already stripped

    def test_no_subscribers_no_traffic(self, net):
        net.publish(Datagram("S", {"a": 1}), 0)
        assert net.data_stats.total_messages() == 0

    def test_shared_path_carries_union(self, star_tree):
        net = ContentBasedNetwork(star_tree)
        net.advertise("S", 1, SCHEMA)
        net.subscribe(Profile({"S": {"a"}}), 3, "u1")
        net.subscribe(Profile({"S": {"b"}}), 4, "u2")
        net.publish(Datagram("S", {"a": 1, "b": 0.5}), 1)
        # Link 1->0 carries the union {a, b} once: 4 + 8 = 12 bytes.
        assert net.data_stats.usage(0, 1).bytes == 12
        assert net.data_stats.usage(0, 3).bytes == 4
        assert net.data_stats.usage(0, 4).bytes == 8

    def test_control_traffic_recorded(self, net):
        before = net.control_stats.total_messages()
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        assert net.control_stats.total_messages() > before


class TestAdvertisementScoping:
    def test_subscription_before_advertisement(self, line_tree):
        net = ContentBasedNetwork(line_tree)
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        net.advertise("S", 0, SCHEMA)  # late advertisement re-propagates
        deliveries = net.publish(Datagram("S", {"a": 1}), 0)
        assert [d.subscription_id for d in deliveries] == ["u1"]

    def test_flooding_mode_needs_no_advertisement(self, line_tree):
        net = ContentBasedNetwork(line_tree, scope_to_advertisements=False)
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        deliveries = net.publish(Datagram("S", {"a": 1}), 0)
        assert [d.subscription_id for d in deliveries] == ["u1"]

    def test_scoped_mode_keeps_routing_state_small(self, line_tree):
        scoped = ContentBasedNetwork(line_tree)
        scoped.advertise("S", 0, SCHEMA)
        flooded = ContentBasedNetwork(line_tree, scope_to_advertisements=False)
        flooded.advertise("S", 0, SCHEMA)
        p = Profile({"S": ALL_ATTRIBUTES})
        scoped.subscribe(p, 2, "u1")
        flooded.subscribe(p, 2, "u1")
        assert scoped.routing_state_size() < flooded.routing_state_size()

    def test_multiple_publishers(self, star_tree):
        net = ContentBasedNetwork(star_tree)
        net.advertise("S", 1, SCHEMA)
        net.advertise("S", 2, SCHEMA)
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 3, "u1")
        assert len(net.publish(Datagram("S", {"a": 1}), 1)) == 1
        assert len(net.publish(Datagram("S", {"a": 2}), 2)) == 1


class TestSubsumptionMode:
    def test_covered_subscription_still_delivered(self, line_tree):
        net = ContentBasedNetwork(line_tree, use_subsumption=True)
        net.advertise("S", 0, SCHEMA)
        broad = Profile({"S": ALL_ATTRIBUTES})
        narrow = Profile(
            {"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 50)))]
        )
        net.subscribe(broad, 4, "broad")
        net.subscribe(narrow, 4, "narrow")
        deliveries = net.publish(Datagram("S", {"a": 60, "b": 0.5}), 0)
        assert {d.subscription_id for d in deliveries} == {"broad", "narrow"}

    def test_subsumption_reduces_routing_state(self, line_tree):
        def build(use):
            net = ContentBasedNetwork(line_tree, use_subsumption=use)
            net.advertise("S", 0, SCHEMA)
            net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "broad")
            net.subscribe(
                Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 50)))]),
                4,
                "narrow",
            )
            return net.routing_state_size()

        assert build(True) < build(False)


class TestSubsumptionUnsubscribe:
    def test_covered_subscription_survives_coverers_departure(self, line_tree):
        """Regression (found by stateful testing): removing a covering
        subscription must re-propagate the suppressed covered ones, or
        they are stranded with no forwarding state."""
        net = ContentBasedNetwork(line_tree, use_subsumption=True)
        net.advertise("S", 0, SCHEMA)
        profile = Profile(
            {"S": ALL_ATTRIBUTES},
            [Filter("S", cond(Comparison("a", ">=", 0)))],
        )
        net.subscribe(profile, 1, "coverer")
        net.subscribe(profile, 1, "covered")  # suppressed behind coverer
        net.unsubscribe("coverer")
        deliveries = net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)
        assert [d.subscription_id for d in deliveries] == ["covered"]

    def test_chain_of_coverers(self, line_tree):
        net = ContentBasedNetwork(line_tree, use_subsumption=True)
        net.advertise("S", 0, SCHEMA)
        broad = Profile({"S": ALL_ATTRIBUTES})
        narrow = Profile(
            {"S": ALL_ATTRIBUTES},
            [Filter("S", cond(Comparison("a", ">=", 0)))],
        )
        narrower = Profile(
            {"S": ALL_ATTRIBUTES},
            [Filter("S", cond(Comparison("a", ">=", 10)))],
        )
        net.subscribe(broad, 4, "u1")
        net.subscribe(narrow, 4, "u2")
        net.subscribe(narrower, 4, "u3")
        net.unsubscribe("u1")
        net.unsubscribe("u2")
        deliveries = net.publish(Datagram("S", {"a": 50, "b": 0.1}), 0)
        assert [d.subscription_id for d in deliveries] == ["u3"]


class TestAdvertisementDedup:
    def test_duplicate_advertisement_not_recorded(self, net):
        net.advertise("S", 0, SCHEMA)
        assert net.publishers_of("S") == [0]

    def test_duplicate_advertisement_is_silent(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        state = net.routing_state_size()
        epoch = net.routing_epoch
        control = net.control_stats.total_bytes()
        net.advertise("S", 0, SCHEMA)
        assert net.routing_state_size() == state
        assert net.routing_epoch == epoch
        assert net.control_stats.total_bytes() == control

    def test_duplicate_advertisement_does_not_duplicate_delivery(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        net.advertise("S", 0, SCHEMA)
        deliveries = net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)
        assert [d.subscription_id for d in deliveries] == ["u1"]

    def test_same_stream_second_publisher_recorded(self, net):
        net.advertise("S", 4, SCHEMA)
        assert sorted(net.publishers_of("S")) == [0, 4]


class TestFastPathCache:
    def test_epoch_tracks_routing_mutations(self, net):
        before = net.routing_epoch
        sid = net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4)
        after_subscribe = net.routing_epoch
        assert after_subscribe > before
        net.unsubscribe(sid)
        assert net.routing_epoch > after_subscribe

    def test_new_subscription_invalidates_cached_route(self, net):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)  # warm the cache
        net.subscribe(Profile({"S": {"b"}}), 2, "u2")
        deliveries = net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)
        assert sorted(d.subscription_id for d in deliveries) == ["u1", "u2"]

    def test_unsubscribe_invalidates_cached_route(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)  # warm the cache
        net.unsubscribe("u1")
        assert net.publish(Datagram("S", {"a": 1, "b": 0.5}), 0) == []

    def test_schema_registration_bumps_catalog_version(self, net):
        from repro.cql.schema import Attribute, StreamSchema

        before = net.catalog.version
        net.catalog.register(
            StreamSchema("T", [Attribute("x", "int", 0, 1)], rate=1.0)
        )
        assert net.catalog.version > before

    def test_naive_mode_still_available(self, line_tree):
        from repro.sim.oracle import ScanNetwork

        network = ScanNetwork(line_tree)
        network.advertise("S", 0, SCHEMA)
        network.subscribe(Profile({"S": {"a"}}), 4, "u1")
        deliveries = network.publish(Datagram("S", {"a": 1, "b": 0.5}), 0)
        assert [d.subscription_id for d in deliveries] == ["u1"]
        # The scan router never consults the per-stream decision cache.
        assert network._facts == {}


class TestUnsubscribe:
    def test_unsubscribe_spares_ids_extending_the_removed_one(self):
        """Removing ``"a"`` keeps the entries of a live ``"a#b"``:
        forwarding keys are ``"<id>#<stream>"``, so ``"a#b"``'s keys start
        with ``"a#"`` and only an exact-key removal spares them."""
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        tree = DisseminationTree(edges, {e: 1.0 for e in edges})
        network = ContentBasedNetwork(tree)
        network.advertise("S", 0, SCHEMA)
        network.subscribe(Profile({"S": ALL_ATTRIBUTES}), 5, "a")
        network.subscribe(Profile({"S": ALL_ATTRIBUTES}), 3, "a#b")
        datagram = Datagram("S", {"a": 1, "b": 0.5})
        delivered = [d.subscription_id for d in network.publish(datagram, 0)]
        assert sorted(delivered) == ["a", "a#b"]
        network.unsubscribe("a")
        assert sorted(network.subscriptions()) == ["a#b"]
        delivered = [d.subscription_id for d in network.publish(datagram, 0)]
        assert delivered == ["a#b"]


class TestPublishMany:
    def test_one_delivery_list_per_datagram(self, net):
        net.subscribe(
            Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 5)))]),
            4,
            "u1",
        )
        feed = [
            Datagram("S", {"a": 1, "b": 0.1}, 0.0),
            Datagram("S", {"a": 9, "b": 0.2}, 1.0),
            Datagram("S", {"a": 7, "b": 0.3}, 2.0),
        ]
        batches = net.publish_many(feed, 0)
        assert [len(b) for b in batches] == [0, 1, 1]

    def test_matches_publish_loop(self, line_tree):
        def build():
            network = ContentBasedNetwork(line_tree)
            network.advertise("S", 0, SCHEMA)
            network.subscribe(Profile({"S": {"a"}}), 4, "u1")
            network.subscribe(Profile({"S": ALL_ATTRIBUTES}), 2, "u2")
            return network

        feed = [Datagram("S", {"a": i, "b": 0.5}, float(i)) for i in range(4)]
        batched_net, looped_net = build(), build()
        batched = batched_net.publish_many(feed, 0)
        looped = [looped_net.publish(datagram, 0) for datagram in feed]
        assert [
            [(d.subscription_id, d.node, d.datagram) for d in per] for per in batched
        ] == [
            [(d.subscription_id, d.node, d.datagram) for d in per] for per in looped
        ]
        assert batched_net.data_stats.as_dict() == looped_net.data_stats.as_dict()

    def test_unknown_broker_rejected(self, net):
        with pytest.raises(NetworkError):
            net.publish_many([Datagram("S", {"a": 1, "b": 0.1})], 99)
