"""The production data path is observationally identical to the scan router.

The per-stream routing index, the epoch-versioned decision cache and the
batched ``publish_many`` are pure optimisations: across any interleaving
of advertise / subscribe / unsubscribe / publish operations, the
production :class:`ContentBasedNetwork` must produce exactly the
deliveries (same subscribers, payloads and order), the same per-link
``data_stats`` and the same ``routing_state_size()`` as the
:class:`~repro.sim.oracle.ScanNetwork` reference.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cql.predicates import Comparison, Conjunction
from repro.overlay.tree import DisseminationTree
from repro.sim.oracle import ScanNetwork

ATTRS = ["a", "b", "c", "d"]
STREAMS = ["S", "T"]


@st.composite
def random_trees(draw):
    """A random tree on 4..10 nodes (node i attaches to a prior node)."""
    n = draw(st.integers(min_value=4, max_value=10))
    edges = []
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.append((parent, node))
    return DisseminationTree(edges, {tuple(sorted(e)): 1.0 for e in edges})


def draw_profile(data, stream, label):
    projection = data.draw(
        st.one_of(
            st.just(ALL_ATTRIBUTES),
            st.sets(st.sampled_from(ATTRS), min_size=1, max_size=4).map(frozenset),
        ),
        label=f"{label}-projection",
    )
    atoms = []
    for attr in data.draw(
        st.lists(st.sampled_from(ATTRS), max_size=2, unique=True),
        label=f"{label}-filter-attrs",
    ):
        op = data.draw(st.sampled_from(["<=", ">="]), label=f"{label}-op")
        value = data.draw(st.integers(-5, 5), label=f"{label}-value")
        atoms.append(Comparison(attr, op, value))
    filters = [Filter(stream, Conjunction.from_atoms(atoms))] if atoms else []
    return Profile({stream: projection}, filters)


def snapshot(deliveries):
    return [(d.subscription_id, d.node, d.datagram) for d in deliveries]


class TestFastPathEquivalence:
    @given(random_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_operations_identical(self, tree, data):
        """Fast and naive networks agree after every publish of any
        random advertise/subscribe/unsubscribe/publish interleaving."""
        nodes = tree.nodes
        fast = ContentBasedNetwork(tree)
        naive = ScanNetwork(tree)
        advertisers = {}
        live = []
        counter = itertools.count()
        n_ops = data.draw(st.integers(min_value=4, max_value=16), label="n_ops")
        for index in range(n_ops):
            choices = ["advertise", "subscribe"]
            if live:
                choices.append("unsubscribe")
            if advertisers:
                choices.append("publish")
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
                payload = {
                    attr: data.draw(st.integers(-10, 10), label=f"pay{index}-{attr}")
                    for attr in ATTRS
                }
                datagram = Datagram(stream, payload, float(index))
                assert snapshot(fast.publish(datagram, origin)) == snapshot(
                    naive.publish(datagram, origin)
                )
        assert fast.data_stats.as_dict() == naive.data_stats.as_dict()
        assert fast.routing_state_size() == naive.routing_state_size()

    @given(
        random_trees(),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_publish_many_matches_publish_loop(
        self, tree, n_profiles, n_datagrams, data
    ):
        """Batched publication equals datagram-at-a-time publication."""
        nodes = tree.nodes
        fast = ContentBasedNetwork(tree)
        naive = ScanNetwork(tree)
        publisher = data.draw(st.sampled_from(nodes), label="publisher")
        fast.advertise("S", publisher)
        naive.advertise("S", publisher)
        for index in range(n_profiles):
            profile = draw_profile(data, "S", f"p{index}")
            node = data.draw(st.sampled_from(nodes), label=f"node{index}")
            fast.subscribe(profile, node, f"u{index}")
            naive.subscribe(profile, node, f"u{index}")
        feed = []
        for index in range(n_datagrams):
            payload = {
                attr: data.draw(st.integers(-10, 10), label=f"d{index}-{attr}")
                for attr in ATTRS
            }
            feed.append(Datagram("S", payload, float(index)))
        batched = fast.publish_many(feed, publisher)
        looped = [naive.publish(datagram, publisher) for datagram in feed]
        assert [snapshot(per) for per in batched] == [snapshot(per) for per in looped]
        assert fast.data_stats.as_dict() == naive.data_stats.as_dict()
