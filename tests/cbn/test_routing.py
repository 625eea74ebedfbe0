"""Per-node routing tables: install/remove, decisions, early projection."""

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.routing import RoutingTable
from repro.cql.predicates import Comparison, Conjunction
from repro.sim.oracle import scan_decide


def cond(*atoms):
    return Conjunction.from_atoms(atoms)


def profile(attrs, *atoms, stream="S"):
    filters = [Filter(stream, cond(*atoms))] if atoms else []
    return Profile({stream: attrs}, filters)


class TestInstallRemove:
    def test_install_and_decide(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        assert table.decide(1, Datagram("S", {"a": 1})).forward

    def test_remove_clears_everywhere(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(2, "s1", profile({"a"}))
        table.remove("s1")
        assert not table.decide(1, Datagram("S", {"a": 1})).forward
        assert not table.decide(2, Datagram("S", {"a": 1})).forward

    def test_remove_drops_exactly_the_named_stream_entries(self):
        table = RoutingTable(0)
        table.install(1, "a#S", profile({"a"}))
        table.install(1, "a#T", profile({"a"}, stream="T"))
        table.install(1, "a#b#S", profile({"a"}))
        table.install(RoutingTable.LOCAL, "a", profile({"a"}))
        table.remove("a", {"S"})
        assert sorted(table.entries(1)) == ["a#T", "a#b#S"]
        assert table.local_profiles() == {}

    def test_remove_interface(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.remove_interface(1)
        assert table.entry_count == 0

    def test_entry_count(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(1, "s2", profile({"b"}))
        table.install(RoutingTable.LOCAL, "s3", profile({"a"}))
        assert table.entry_count == 3


class TestSubsumptionAggregation:
    def test_subsumed_entry_suppressed(self):
        table = RoutingTable(0, use_subsumption=True)
        assert table.install(1, "broad", profile({"a"}, Comparison("a", ">", 0)))
        assert not table.install(1, "narrow", profile({"a"}, Comparison("a", ">", 5)))
        assert table.entry_count == 1

    def test_broader_entry_replaces_narrower(self):
        table = RoutingTable(0, use_subsumption=True)
        table.install(1, "narrow", profile({"a"}, Comparison("a", ">", 5)))
        assert table.install(1, "broad", profile({"a"}, Comparison("a", ">", 0)))
        assert table.entry_count == 1
        assert table.decide(1, Datagram("S", {"a": 1})).forward

    def test_no_suppression_across_interfaces(self):
        table = RoutingTable(0, use_subsumption=True)
        table.install(1, "broad", profile({"a"}, Comparison("a", ">", 0)))
        assert table.install(2, "narrow", profile({"a"}, Comparison("a", ">", 5)))

    def test_disabled_by_default(self):
        table = RoutingTable(0)
        table.install(1, "broad", profile({"a"}, Comparison("a", ">", 0)))
        assert table.install(1, "narrow", profile({"a"}, Comparison("a", ">", 5)))
        assert table.entry_count == 2


class TestForwardDecision:
    def test_no_match_no_forward(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, Comparison("a", ">", 100)))
        decision = table.decide(1, Datagram("S", {"a": 1}))
        assert not decision.forward

    def test_projection_unions_coverers(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(1, "s2", profile({"b"}))
        decision = table.decide(1, Datagram("S", {"a": 1, "b": 2, "c": 3}))
        assert decision.forward
        assert decision.attributes == frozenset({"a", "b"})

    def test_all_attributes_disables_projection(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile(ALL_ATTRIBUTES))
        decision = table.decide(1, Datagram("S", {"a": 1}))
        assert decision.attributes is None

    def test_non_covering_profile_does_not_widen_projection(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        table.install(1, "s2", profile({"zzz"}, Comparison("a", "<", 0)))
        decision = table.decide(1, Datagram("S", {"a": 1, "zzz": 9}))
        assert decision.attributes is not None
        assert "zzz" not in decision.attributes

    def test_filter_attributes_retained_for_downstream_refiltering(self):
        # The downstream profile filters on b but only outputs a: b must
        # survive the early projection or the next hop drops the datagram.
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, Comparison("b", ">", 0)))
        decision = table.decide(1, Datagram("S", {"a": 1, "b": 5}))
        assert decision.attributes is not None
        assert "b" in decision.attributes


class TestLocalDeliveries:
    def test_projected_per_subscriber(self):
        table = RoutingTable(0)
        table.install(RoutingTable.LOCAL, "u1", profile({"a"}))
        table.install(RoutingTable.LOCAL, "u2", profile({"b"}, Comparison("b", ">", 10)))
        deliveries = dict(table.local_deliveries(Datagram("S", {"a": 1, "b": 20})))
        assert dict(deliveries["u1"].payload) == {"a": 1}
        assert dict(deliveries["u2"].payload) == {"b": 20}

    def test_uncovered_not_delivered(self):
        table = RoutingTable(0)
        table.install(RoutingTable.LOCAL, "u1", profile({"a"}, Comparison("a", ">", 5)))
        assert table.local_deliveries(Datagram("S", {"a": 1})) == []


class TestStreamIndex:
    def test_entries_bucketed_by_stream(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.install(1, "s2", profile({"b"}, stream="T"))
        assert set(table.stream_entries(1, "S")) == {"s1"}
        assert set(table.stream_entries(1, "T")) == {"s2"}
        assert table.has_stream_entries(1, "S")
        assert not table.has_stream_entries(1, "U")

    def test_stream_interfaces(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.install(2, "s2", profile({"a"}, stream="S"))
        table.install(3, "s3", profile({"a"}, stream="T"))
        assert sorted(table.stream_interfaces("S")) == [1, 2]
        assert table.stream_interfaces("T") == [3]

    def test_remove_clears_index(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.remove("s1")
        assert not table.has_stream_entries(1, "S")
        assert table.stream_interfaces("S") == []

    def test_remove_interface_clears_index(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.remove_interface(1)
        assert not table.has_stream_entries(1, "S")

    def test_overwrite_reindexes_new_streams(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}, stream="S"))
        table.install(1, "s1", profile({"a"}, stream="T"))
        assert not table.has_stream_entries(1, "S")
        assert table.has_stream_entries(1, "T")

    def test_decide_matches_unindexed_table(self):
        datagrams = [
            Datagram("S", {"a": 1, "b": 2}),
            Datagram("S", {"a": 9, "b": 0}),
            Datagram("T", {"a": 1, "b": 2}),
        ]
        profiles = [
            ("s1", profile({"a"}, Comparison("a", ">", 0))),
            ("s2", profile(ALL_ATTRIBUTES, stream="T")),
            ("s3", profile({"b"}, Comparison("b", ">=", 2))),
        ]
        indexed = RoutingTable(0)
        for sid, prof in profiles:
            indexed.install(1, sid, prof)
        for datagram in datagrams:
            a = indexed.decide(1, datagram)
            b = scan_decide(indexed.entries(1), datagram)
            assert (a.forward, a.attributes) == (b.forward, b.attributes)


class TestEpoch:
    def test_install_bumps_epoch(self):
        table = RoutingTable(0)
        before = table.epoch
        table.install(1, "s1", profile({"a"}))
        assert table.epoch == before + 1

    def test_noop_remove_keeps_epoch(self):
        table = RoutingTable(0)
        table.install(1, "s1", profile({"a"}))
        before = table.epoch
        table.remove("missing")
        assert table.epoch == before

    def test_remove_missing_interface_keeps_epoch(self):
        table = RoutingTable(0)
        before = table.epoch
        table.remove_interface(9)
        assert table.epoch == before

    def test_on_change_called_per_mutation(self):
        calls = []
        table = RoutingTable(0, on_change=calls.append)
        table.install(1, "s1", profile({"a"}))
        table.remove("s1")
        # One call per mutation, reporting the streams it touched.
        assert calls == [frozenset({"S"}), frozenset({"S"})]

    def test_suppressed_install_keeps_epoch(self):
        table = RoutingTable(0, use_subsumption=True)
        table.install(1, "broad", profile({"a"}, Comparison("a", ">", 0)))
        before = table.epoch
        assert not table.install(1, "narrow", profile({"a"}, Comparison("a", ">", 5)))
        assert table.epoch == before
