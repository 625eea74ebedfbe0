"""Property-based checks of CBN routing.

The network-level invariant: for any tree, any subscriber placement and
any datagram, the set of (subscriber, delivered payload) pairs equals
what evaluating each profile directly against the datagram would give —
routing, early projection and subsumption aggregation never lose or
corrupt a delivery.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cql.predicates import Comparison, Conjunction
from repro.overlay.tree import DisseminationTree

ATTRS = ["a", "b", "c", "d"]


@st.composite
def random_trees(draw):
    """A random tree on 4..10 nodes (node i attaches to a prior node)."""
    n = draw(st.integers(min_value=4, max_value=10))
    edges = []
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.append((parent, node))
    return DisseminationTree(edges, {tuple(sorted(e)): 1.0 for e in edges})


@st.composite
def random_profiles(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    projection = draw(
        st.one_of(
            st.just(ALL_ATTRIBUTES),
            st.sets(st.sampled_from(ATTRS), min_size=1, max_size=4),
        )
    )
    atoms = []
    for attr in draw(st.lists(st.sampled_from(ATTRS), max_size=2, unique=True)):
        op = draw(st.sampled_from(["<=", ">="]))
        atoms.append(Comparison(attr, op, draw(st.integers(-5, 5))))
    filters = [Filter("S", Conjunction.from_atoms(atoms))] if atoms else []
    return Profile({"S": projection}, filters)


@st.composite
def datagrams(draw):
    payload = {attr: draw(st.integers(-10, 10)) for attr in ATTRS}
    return Datagram("S", payload, 0.0)


class TestRoutingEquivalence:
    @given(
        random_trees(),
        st.lists(random_profiles(), min_size=1, max_size=5),
        datagrams(),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_delivery_equals_direct_profile_application(
        self, tree, profiles, datagram, use_subsumption, data
    ):
        nodes = tree.nodes
        network = ContentBasedNetwork(tree, use_subsumption=use_subsumption)
        publisher = data.draw(st.sampled_from(nodes), label="publisher")
        network.advertise("S", publisher)
        expected = {}
        for index, profile in enumerate(profiles):
            node = data.draw(st.sampled_from(nodes), label=f"sub{index}")
            sid = f"u{index}"
            network.subscribe(profile, node, sid)
            delivered = profile.apply(datagram)
            if delivered is not None:
                expected[sid] = dict(delivered.payload)
        actual = {
            d.subscription_id: dict(d.datagram.payload)
            for d in network.publish(datagram, publisher)
        }
        assert actual == expected

    @given(
        random_trees(),
        st.lists(random_profiles(), min_size=1, max_size=4),
        datagrams(),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_subsumption_never_changes_deliveries(
        self, tree, profiles, datagram, data
    ):
        placements = [
            data.draw(st.sampled_from(tree.nodes), label=f"sub{i}")
            for i in range(len(profiles))
        ]
        publisher = data.draw(st.sampled_from(tree.nodes), label="pub")

        def run(use_subsumption):
            network = ContentBasedNetwork(tree, use_subsumption=use_subsumption)
            network.advertise("S", publisher)
            for index, (profile, node) in enumerate(zip(profiles, placements)):
                network.subscribe(profile, node, f"u{index}")
            return {
                d.subscription_id: dict(d.datagram.payload)
                for d in network.publish(datagram, publisher)
            }

        assert run(True) == run(False)

