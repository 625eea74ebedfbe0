"""The delivery oracle against hand-computed ground truth."""

import pytest

from repro.cbn.datagram import Datagram
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.sim.oracle import (
    ScanCosmosSystem,
    check_chronology,
    check_ground_truth,
    check_no_orphans,
    compare_systems,
    expected_results,
)
from repro.sim.runner import ChaosConfig, build_system, query_ids

TEMP = StreamSchema(
    "Temp",
    [Attribute("station", "int", 0, 9), Attribute("celsius", "float", -20, 40)],
    rate=1.0,
)


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(TEMP)
    return cat


def _feed(*rows):
    return [
        Datagram("Temp", {"station": s, "celsius": c}, t) for t, s, c in rows
    ]


class TestExpectedResults:
    def test_selection_and_projection(self, catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Range 1 Hour] T WHERE T.celsius > 20"
        )
        feed = _feed((1.0, 1, 25.0), (2.0, 2, 15.0), (3.0, 3, 30.5))
        assert expected_results(query, catalog, feed) == [
            ({"Temp.station": 1}, 1.0),
            ({"Temp.station": 3}, 3.0),
        ]

    def test_duplicates_delivered_twice(self, catalog):
        query = parse_query("SELECT T.station FROM Temp [Now] T")
        feed = _feed((1.0, 4, 25.0), (1.5, 4, 25.0))
        assert len(expected_results(query, catalog, feed)) == 2

    def test_other_streams_ignored(self, catalog):
        query = parse_query("SELECT T.station FROM Temp [Now] T")
        feed = [Datagram("Other", {"x": 1}, 1.0)] + _feed((2.0, 1, 5.0))
        assert expected_results(query, catalog, feed) == [
            ({"Temp.station": 1}, 2.0)
        ]

    def test_multi_stream_query_rejected(self, catalog):
        catalog.register(
            StreamSchema("Humid", [Attribute("station", "int", 0, 9)], rate=1.0)
        )
        join = parse_query(
            "SELECT T.station FROM Temp [Now] T, Humid [Now] H "
            "WHERE T.station = H.station"
        )
        with pytest.raises(ValueError):
            expected_results(join, catalog, [])


class TestSystemChecks:
    """The checkers against a real (healthy, then doctored) system."""

    @pytest.fixture
    def system(self):
        return build_system(ChaosConfig(seed=1))

    def test_healthy_system_is_clean(self, system):
        system.publish("Temp", {"station": 0, "celsius": 30.0}, 1.0)
        feed = _feed((1.0, 0, 30.0))
        ids = query_ids(ChaosConfig(seed=1))
        assert check_ground_truth(system, feed, ids) == []
        assert check_no_orphans(system) == []
        assert check_chronology(system) == []

    def test_missing_delivery_flagged(self, system):
        # The system never saw the tuple the oracle expects.
        feed = _feed((1.0, 0, 30.0))
        ids = query_ids(ChaosConfig(seed=1))
        violations = check_ground_truth(system, feed, ids)
        assert violations
        assert all(v.startswith("ground-truth:") for v in violations)

    def test_dropped_subscription_is_an_orphan(self, system):
        query_id = query_ids(ChaosConfig(seed=1))[0]
        system.network.unsubscribe(system._user_subscriptions.pop(query_id))
        violations = check_no_orphans(system)
        assert any(query_id in v and "no user subscription" in v for v in violations)

    def test_leaked_subscription_is_an_orphan(self, system):
        query_id = query_ids(ChaosConfig(seed=1))[0]
        del system._queries[query_id]
        del system._user_subscriptions[query_id]
        violations = check_no_orphans(system)
        assert any("outlived its query" in v for v in violations)

    def test_chronology_violation_flagged(self, system):
        system.publish("Temp", {"station": 0, "celsius": 30.0}, 5.0)
        handle = next(h for h in system.queries if h.results)
        handle.results.insert(
            0, Datagram(handle.result_stream, dict(handle.results[0].payload), 9.0)
        )
        assert check_chronology(system)

    def test_twin_comparison(self):
        fast = build_system(ChaosConfig(seed=1))
        naive = build_system(ChaosConfig(seed=1), ScanCosmosSystem)
        assert compare_systems(fast, naive) == []
        fast.publish("Temp", {"station": 0, "celsius": 30.0}, 1.0)
        assert compare_systems(fast, naive)
