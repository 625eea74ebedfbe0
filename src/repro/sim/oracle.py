"""Delivery oracles: ground truth computed outside the CBN.

The chaos harness restricts its workload to single-stream
select-project queries, which makes expected deliveries *exactly*
computable from the query text and the effective input feed alone —
no window state, no join ordering, no reliance on any code path the
chaos run is trying to falsify.  :func:`expected_results` canonicalises
the query (the system under test does the same at submission), binds
each surviving input tuple's payload under qualified names, evaluates
the WHERE conjunction, and projects — one expected result per matching
tuple, in injection order, carrying the tuple's timestamp.

The invariant checkers each return a list of violation strings (empty
means the invariant holds):

* :func:`check_ground_truth` — every query's delivered result sequence
  equals the oracle's expectation, exactly and in order;
* :func:`check_no_orphans` — after all crash/repair cycles, the
  system's query handles, user subscriptions and source subscriptions
  are mutually consistent and live on surviving nodes;
* :func:`check_chronology` — each query's result timestamps are
  non-decreasing (re-homing must preserve result chronology);
* :func:`compare_systems` — the production twin delivered exactly what
  the scan-router twin delivered (per-query sequences and traffic
  accounting).

:class:`ScanNetwork` is the scan-router reference itself: a
:class:`~repro.cbn.network.ContentBasedNetwork` whose publications
evaluate every profile behind every interface, with no routing index,
compiled plans or cached facts.  :class:`ScanCosmosSystem` builds (and
rebuilds after a tree repair) on it; the chaos shadow twin, the
equivalence tests and the publish benchmarks all compare production
against this one reference.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Profile
from repro.cbn.network import ContentBasedNetwork, Delivery
from repro.cbn.routing import ForwardDecision
from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog
from repro.overlay.topology import NodeId
from repro.sim.schedule import ChaosEvent, DropEvent, InjectEvent
from repro.system.cosmos import CosmosSystem, QueryStatus

#: One expected delivery: (payload under qualified names, timestamp).
ExpectedResult = Tuple[Dict[str, object], float]


def scan_decide(
    entries: Mapping[str, Profile], datagram: Datagram
) -> ForwardDecision:
    """The reference forwarding decision: evaluate every profile behind
    the interface, whatever streams it requests."""
    needed: Set[str] = set()
    wants_all = False
    forward = False
    for profile in entries.values():
        if not profile.covers(datagram):
            continue
        forward = True
        projection = profile.projection_for(datagram.stream)
        if projection == ALL_ATTRIBUTES:
            wants_all = True
        else:
            needed |= projection
            # Keep attributes the downstream filters evaluate, or the
            # profile could no longer recognise the datagram at the
            # next hop after projection.
            for flt in profile.filters_for(datagram.stream):
                needed |= flt.condition.referenced_terms()
    if not forward:
        return ForwardDecision(False)
    if wants_all:
        return ForwardDecision(True, None)
    return ForwardDecision(True, frozenset(needed))


class ScanNetwork(ContentBasedNetwork):
    """The scan-every-profile reference router.

    Subscription, advertisement and routing-table maintenance are the
    production code; only publication differs.  Each hop evaluates
    every local profile and every profile behind every tree neighbour
    through the tables' public entry views, and per-publish state
    (schema widths, the stream's tree) is rebuilt from scratch.
    """

    def publish(self, datagram: Datagram, node: NodeId) -> List[Delivery]:
        self.table(node)  # NetworkError for an unknown broker
        return self._publish_scan(datagram, node)

    def publish_many(
        self, datagrams: Iterable[Datagram], node: NodeId
    ) -> List[List[Delivery]]:
        self.table(node)
        return [self._publish_scan(d, node) for d in datagrams]

    def _publish_scan(self, datagram: Datagram, node: NodeId) -> List[Delivery]:
        widths = self._widths_for(datagram.stream)
        tree = self.tree_for(datagram.stream)
        deliveries: List[Delivery] = []
        #: (broker to process, interface it arrived from, datagram copy)
        stack: List[Tuple[NodeId, Optional[NodeId], Datagram]] = [
            (node, None, datagram)
        ]
        while stack:
            here, arrived_from, current = stack.pop()
            table = self.table(here)
            for sid, profile in table.local_profiles().items():
                projected = profile.apply(current)
                if projected is not None:
                    deliveries.append(Delivery(sid, here, projected))
            for neighbor in sorted(tree.neighbors(here)):
                if neighbor == arrived_from:
                    continue
                decision = scan_decide(table.entries(neighbor), current)
                if not decision.forward:
                    continue
                if decision.attributes is None:
                    outgoing = current
                else:
                    outgoing = current.project(decision.attributes)
                self.data_stats.record(
                    here, neighbor, outgoing.size_bytes(widths)
                )
                stack.append((neighbor, here, outgoing))
        return deliveries


class ScanCosmosSystem(CosmosSystem):
    """A COSMOS system routing on :class:`ScanNetwork` (the chaos
    shadow twin); tree repairs rebuild it on the same class."""

    network_type = ScanNetwork


def pristine_feed_from_events(
    events: Sequence[ChaosEvent],
) -> List[Datagram]:
    """The pristine (pre-perturbation) feed a recovery run must deliver.

    Reconstructed from the schedule itself so it stays exact for any
    sub-schedule the shrinker produces: every sequenced send — a
    non-duplicate injection or a drop (the wire ate it, but the
    reliable uplink must heal it) — contributes one datagram at its
    original send time.  Per stream the order is sequence order, which
    is send order; globally the feed sorts by send time (ties broken
    by stream/seq), matching the per-query delivery order of the
    sequenced uplink.
    """
    sends: Dict[Tuple[str, int], Datagram] = {}
    for event in events:
        if isinstance(event, InjectEvent) and not event.duplicate:
            if event.seq is None:
                continue
            sent = event.sent if event.sent is not None else event.time
            sends[(event.stream, event.seq)] = Datagram(
                event.stream, dict(event.payload), sent, event.seq
            )
        elif isinstance(event, DropEvent) and event.seq is not None:
            sent = event.sent if event.sent is not None else event.time
            sends[(event.stream, event.seq)] = Datagram(
                event.stream, dict(event.payload or ()), sent, event.seq
            )
    return [
        sends[key]
        for key in sorted(
            sends, key=lambda k: (sends[k].timestamp, k[0], k[1])
        )
    ]


def expected_results(
    query: ContinuousQuery,
    catalog: Catalog,
    feed: Sequence[Datagram],
) -> List[ExpectedResult]:
    """Ground-truth deliveries of a single-stream select-project query.

    ``feed`` is the *effective* input feed — the tuples that actually
    entered the system, post link perturbation, in injection order
    (duplicates included: a stateless select-project query must deliver
    a duplicate input twice).
    """
    canonical = query.canonical(catalog)
    if len(canonical.streams) != 1:
        raise ValueError(
            f"the chaos oracle only supports single-stream queries, "
            f"got {len(canonical.streams)} streams"
        )
    stream = canonical.streams[0].stream
    projected = [attr.key for attr in canonical.projected_attributes(catalog)]
    expected: List[ExpectedResult] = []
    for datagram in feed:
        if datagram.stream != stream:
            continue
        binding = {
            f"{stream}.{key}": value for key, value in datagram.payload.items()
        }
        if not canonical.predicate.evaluate(binding):
            continue
        expected.append(
            ({key: binding[key] for key in projected}, datagram.timestamp)
        )
    return expected


def _delivered(system: CosmosSystem, query_id: str) -> List[ExpectedResult]:
    """What the system actually delivered, via the *current* handle.

    ``fail_processor`` replaces handles, so stale references collected
    before a crash silently miss post-repair deliveries; always go
    through ``system.query``.
    """
    handle = system.query(query_id)
    return [(dict(r.payload), r.timestamp) for r in handle.results]


def check_ground_truth(
    system: CosmosSystem,
    feed: Sequence[Datagram],
    query_ids: Sequence[str],
) -> List[str]:
    """Every query delivered exactly the oracle's expectation, in order."""
    violations: List[str] = []
    for query_id in query_ids:
        handle = system.query(query_id)
        if handle.status is not QueryStatus.ACTIVE:
            continue  # quarantined: delivery is suspended by design
        want = expected_results(handle.query, system.catalog, feed)
        got = _delivered(system, query_id)
        if got != want:
            missing = len(want) - len(got)
            detail = (
                f"{missing} results missing" if missing > 0
                else f"{-missing} spurious results" if missing < 0
                else "same count, wrong content/order"
            )
            violations.append(
                f"ground-truth: query {query_id!r} delivered {len(got)} "
                f"results, oracle expects {len(want)} ({detail})"
            )
    return violations


def check_no_orphans(system: CosmosSystem) -> List[str]:
    """Queries, subscriptions and roles are consistent after repairs.

    Catches the classic repair bugs: a re-homed query whose user
    subscription was dropped (it silently stops receiving), a withdrawn
    query whose subscription leaked (phantom traffic), a source
    subscription pointing at a node that is no longer a processor, and
    any role pinned to a node the repaired tree no longer contains.
    """
    violations: List[str] = []
    live = system.network.subscriptions()
    for query_id, handle in sorted(system._queries.items()):
        if handle.status is not QueryStatus.ACTIVE:
            # A quarantined (DEGRADED) query holds no subscriptions by
            # design; it is not an orphan.
            continue
        sub_id = system._user_subscriptions.get(query_id)
        if sub_id is None:
            violations.append(
                f"orphan: query {query_id!r} has no user subscription"
            )
        elif sub_id not in live:
            violations.append(
                f"orphan: query {query_id!r} subscription {sub_id} "
                f"not installed in the CBN"
            )
        else:
            node, __ = live[sub_id]
            if node != handle.user_node:
                violations.append(
                    f"orphan: query {query_id!r} subscription lives at "
                    f"node {node}, user is at {handle.user_node}"
                )
        if handle.user_node not in system.tree:
            violations.append(
                f"orphan: query {query_id!r} user node "
                f"{handle.user_node} left the tree"
            )
        if handle.processor_node not in system.processors:
            violations.append(
                f"orphan: query {query_id!r} homed on "
                f"{handle.processor_node}, which is not a processor"
            )
    for sub_id in sorted(live):
        node, __ = live[sub_id]
        if sub_id.startswith("user:"):
            query_id = sub_id.split(":", 2)[1]
            if query_id not in system._queries:
                violations.append(
                    f"orphan: subscription {sub_id} outlived its query"
                )
        elif sub_id.startswith("src:"):
            if node not in system.processors:
                violations.append(
                    f"orphan: source subscription {sub_id} feeds node "
                    f"{node}, which is not a processor"
                )
        if node not in system.tree:
            violations.append(
                f"orphan: subscription {sub_id} at node {node}, "
                f"which left the tree"
            )
    return violations


def check_chronology(system: CosmosSystem) -> List[str]:
    """Result timestamps are non-decreasing per query (survives re-homing)."""
    violations: List[str] = []
    for query_id in sorted(system._queries):
        results = system.query(query_id).results
        for prev, cur in zip(results, results[1:]):
            if cur.timestamp < prev.timestamp:
                violations.append(
                    f"chronology: query {query_id!r} result at "
                    f"t={cur.timestamp:g} follows t={prev.timestamp:g}"
                )
                break
    return violations


def compare_systems(fast: CosmosSystem, naive: CosmosSystem) -> List[str]:
    """The production system delivered exactly what its
    :class:`ScanCosmosSystem` twin did."""
    violations: List[str] = []
    fast_ids = sorted(fast._queries)
    naive_ids = sorted(naive._queries)
    if fast_ids != naive_ids:
        violations.append(
            f"fast-vs-naive: query sets diverged ({fast_ids} vs {naive_ids})"
        )
        return violations
    for query_id in fast_ids:
        if _delivered(fast, query_id) != _delivered(naive, query_id):
            violations.append(
                f"fast-vs-naive: query {query_id!r} result sequences diverged"
            )
    if fast.network.data_stats.as_dict() != naive.network.data_stats.as_dict():
        violations.append("fast-vs-naive: data-layer traffic accounting diverged")
    if fast.network.routing_state_size() != naive.network.routing_state_size():
        violations.append("fast-vs-naive: routing state sizes diverged")
    return violations
