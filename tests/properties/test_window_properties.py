"""Property-based checks of window buffers and Lemma 1 join semantics.

The symmetric window join is compared against a brute-force oracle that
enumerates all cross pairs and applies Lemma 1's condition
``-T1 <= t1.ts - t2.ts <= T2`` directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbn.datagram import Datagram
from repro.spe.operators import JoinInput, SymmetricWindowJoin
from repro.spe.windows import WindowBuffer

timestamps = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    min_size=0,
    max_size=12,
).map(sorted)

window_sizes = st.sampled_from([0.0, 1.0, 5.0, 20.0, 1000.0])


class TestWindowBufferInvariant:
    @given(timestamps, window_sizes)
    def test_contents_always_inside_window(self, times, size):
        buf = WindowBuffer(size)
        for ts in times:
            buf.insert(Datagram("S", {"v": 1}, ts))
            for item in buf.contents(now=ts):
                assert ts - size <= item.timestamp <= ts

    @given(timestamps, window_sizes)
    def test_every_tuple_expired_exactly_once(self, times, size):
        buf = WindowBuffer(size)
        expired_total = []
        for ts in times:
            expired_total.extend(buf.expire(ts))
            buf.insert(Datagram("S", {"v": 1}, ts))
        survivors = list(buf)
        assert len(expired_total) + len(survivors) == len(times)


@st.composite
def interleaved_feed(draw):
    """Two streams' timestamps interleaved into one ordered feed."""
    a_times = draw(timestamps)
    b_times = draw(timestamps)
    feed = [("A", ts) for ts in a_times] + [("B", ts) for ts in b_times]
    feed.sort(key=lambda item: item[1])
    return feed


class TestLemma1Oracle:
    @given(interleaved_feed(), window_sizes, window_sizes)
    @settings(max_examples=80, deadline=None)
    def test_join_matches_brute_force(self, feed, t_a, t_b):
        join = SymmetricWindowJoin([JoinInput("A", t_a), JoinInput("B", t_b)])
        produced = set()
        counter = {"A": 0, "B": 0}
        for stream, ts in feed:
            ident = counter[stream]
            counter[stream] += 1
            out = join.process(stream, Datagram(stream, {"id": ident}, ts))
            for binding in out:
                produced.add((binding["A.id"], binding["B.id"]))

        a_items = [(i, ts) for i, (s, ts) in enumerate(
            item for item in feed if item[0] == "A"
        )]
        # Rebuild ids per stream in arrival order.
        a_list = [ts for s, ts in feed if s == "A"]
        b_list = [ts for s, ts in feed if s == "B"]
        expected = set()
        for ia, ta in enumerate(a_list):
            for ib, tb in enumerate(b_list):
                if -t_a <= ta - tb <= t_b:
                    expected.add((ia, ib))
        assert produced == expected

