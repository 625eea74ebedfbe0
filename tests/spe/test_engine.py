"""The continuous query engine end to end."""

import random

import pytest

from repro.cbn.datagram import Datagram
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.spe.engine import EngineError, StreamProcessingEngine, result_schema
from repro.workload.auction import TABLE1_Q3, auction_catalog


@pytest.fixture
def catalog():
    return Catalog(
        [
            StreamSchema(
                "Temp",
                [
                    Attribute("station", "int", 0, 9),
                    Attribute("temp", "float", -20, 40),
                ],
                rate=1.0,
            ),
            StreamSchema(
                "Wind",
                [
                    Attribute("station", "int", 0, 9),
                    Attribute("speed", "float", 0, 50),
                ],
                rate=1.0,
            ),
        ]
    )


def temp(ts, station=1, value=20.0):
    return Datagram("Temp", {"station": station, "temp": value}, ts)


def wind(ts, station=1, speed=5.0):
    return Datagram("Wind", {"station": station, "speed": speed}, ts)


class TestRegistration:
    def test_register_validates(self, catalog):
        spe = StreamProcessingEngine(catalog)
        with pytest.raises(Exception):
            spe.register(parse_query("SELECT X.a FROM X"))

    def test_duplicate_name_rejected(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query("SELECT T.temp FROM Temp T")
        spe.register(q, "q")
        with pytest.raises(EngineError):
            spe.register(q, "q")

    def test_deregister(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q")
        spe.deregister("q")
        assert spe.push(temp(0)) == []

    def test_deregister_unknown(self, catalog):
        with pytest.raises(EngineError):
            StreamProcessingEngine(catalog).deregister("zzz")

    def test_result_stream_default(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q7")
        assert spe.result_stream_of("q7") == "q7:results"

    def test_aggregate_join_unsupported(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT AVG(T.temp) FROM Temp T, Wind W WHERE T.station = W.station"
        )
        with pytest.raises(EngineError):
            spe.register(q)


class TestSelectProject:
    def test_filtering(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T WHERE T.temp > 25"), "hot")
        assert spe.push(temp(0, value=20.0)) == []
        results = spe.push(temp(1, value=30.0))
        assert len(results) == 1
        assert dict(results[0].datagram.payload) == {"T.temp": 30.0}

    def test_result_stream_tagging(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q", result_stream="out")
        results = spe.push(temp(0))
        assert results[0].datagram.stream == "out"

    def test_multiple_queries_same_stream(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "a")
        spe.register(parse_query("SELECT T.station FROM Temp T"), "b")
        results = spe.push(temp(0))
        assert {r.query_name for r in results} == {"a", "b"}

    def test_out_of_order_rejected(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q")
        spe.push(temp(10))
        with pytest.raises(EngineError):
            spe.push(temp(5))


class TestJoin:
    def test_window_join(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT T.temp, W.speed FROM Temp [Range 10] T, Wind [Range 10] W "
            "WHERE T.station = W.station"
        )
        spe.register(q, "j")
        spe.push(temp(0, station=1))
        results = spe.push(wind(5, station=1))
        assert len(results) == 1
        payload = dict(results[0].datagram.payload)
        assert payload == {"T.temp": 20.0, "W.speed": 5.0}

    def test_join_respects_station_mismatch(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT T.temp FROM Temp [Range 10] T, Wind [Range 10] W "
            "WHERE T.station = W.station"
        )
        spe.register(q, "j")
        spe.push(temp(0, station=1))
        assert spe.push(wind(5, station=2)) == []

    def test_join_window_expiry(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT T.temp FROM Temp [Range 10] T, Wind [Now] W "
            "WHERE T.station = W.station"
        )
        spe.register(q, "j")
        spe.push(temp(0))
        assert len(spe.push(wind(10))) == 1
        spe2 = StreamProcessingEngine(catalog)
        spe2.register(q, "j")
        spe2.push(temp(0))
        assert spe2.push(wind(11)) == []

    def test_table1_q3_over_auction_feed(self):
        """Q3's equijoin over a seeded auction feed yields exactly the
        Lemma 1 pairs: each close joins every same-item open from the
        five hours before it."""
        catalog = auction_catalog()
        rng = random.Random(4)
        feed = []
        for item in range(60):
            open_ts = item * 120.0
            close_ts = open_ts + rng.expovariate(1.0 / (4 * 3600.0))
            feed.append(
                Datagram(
                    "OpenAuction",
                    {"itemID": item % 10, "sellerID": 1, "start_price": 2.0,
                     "timestamp": open_ts},
                    open_ts,
                )
            )
            feed.append(
                Datagram(
                    "ClosedAuction",
                    {"itemID": item % 10, "buyerID": 2, "timestamp": close_ts},
                    close_ts,
                )
            )
        feed.sort(key=lambda d: d.timestamp)
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query(TABLE1_Q3), "q3")
        results = [r.datagram for d in feed for r in spe.push(d)]
        opens = [d for d in feed if d.stream == "OpenAuction"]
        expected = sorted(
            (c.timestamp, o.timestamp)
            for c in feed
            if c.stream == "ClosedAuction"
            for o in opens
            if o.payload["itemID"] == c.payload["itemID"]
            and 0.0 <= c.timestamp - o.timestamp <= 5 * 3600.0
        )
        assert expected
        assert sorted(
            (r.timestamp, r.payload["O.timestamp"]) for r in results
        ) == expected


class TestPushTo:
    def test_targets_single_query(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "a")
        spe.register(parse_query("SELECT T.station FROM Temp T"), "b")
        results = spe.push_to("a", temp(0))
        assert [r.query_name for r in results] == ["a"]

    def test_unknown_target(self, catalog):
        with pytest.raises(EngineError):
            StreamProcessingEngine(catalog).push_to("zzz", temp(0))


class TestAggregates:
    def test_grouped_average(self, catalog):
        spe = StreamProcessingEngine(catalog)
        q = parse_query(
            "SELECT AVG(T.temp) AS m FROM Temp [Range 100] T GROUP BY T.station"
        )
        spe.register(q, "agg")
        spe.push(temp(0, station=1, value=10.0))
        results = spe.push(temp(1, station=1, value=20.0))
        assert dict(results[0].datagram.payload) == {"T.station": 1, "m": 15.0}


class TestResultSchema:
    def test_spj_schema_carries_source_metadata(self, catalog):
        q = parse_query("SELECT T.temp, T.station FROM Temp T").canonical(catalog)
        schema = result_schema(q, catalog, "out")
        assert schema.attribute("Temp.temp").lo == -20
        assert schema.attribute("Temp.station").type == "int"

    def test_implicit_timestamp_attribute(self, catalog):
        q = parse_query("SELECT T.temp, T.timestamp FROM Temp T").canonical(catalog)
        schema = result_schema(q, catalog, "out")
        assert schema.attribute("Temp.timestamp").type == "timestamp"

    def test_aggregate_schema(self, catalog):
        q = parse_query(
            "SELECT COUNT(*) AS n, AVG(T.temp) AS m FROM Temp T GROUP BY T.station"
        ).canonical(catalog)
        schema = result_schema(q, catalog, "out")
        assert schema.attribute("n").type == "int"
        assert schema.attribute("m").type == "float"
        assert schema.attribute("Temp.station").type == "int"

    def test_engine_exposes_result_schema(self, catalog):
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query("SELECT T.temp FROM Temp T"), "q")
        assert spe.result_schema_of("q").name == "q:results"
