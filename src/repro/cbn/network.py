"""The content-based network: advertisement, subscription, publication.

This is the data layer of COSMOS.  Brokers sit on a dissemination tree;
sources *advertise* the streams they publish, receivers *subscribe*
data-interest profiles, and published datagrams are routed hop-by-hop:
at every broker the datagram is delivered to covering local subscribers
and forwarded on each interface behind which a covering profile lives,
projected down to the attributes actually requested downstream (early
projection).

Subscription propagation is advertisement-scoped by default (profiles
only travel toward the advertised publishers of their streams, the
Siena model); set ``scope_to_advertisements=False`` to flood them
everywhere, which is simpler but costs control traffic and routing
state.

All data traffic is accounted in :attr:`ContentBasedNetwork.data_stats`
and control traffic (subscriptions, advertisements) in
:attr:`ContentBasedNetwork.control_stats`.

Data path
---------
Publication is the dominant cost of every experiment, so steady-state
publishes run on cached state: per stream the network memoizes the
dissemination tree, the schema width table, each broker's neighbour
list and — from the routing tables' per-stream index — the *candidate
interfaces* that have any entry for the stream.  The cache is
epoch-versioned **per stream shard**
(:func:`~repro.cbn.columns.stream_shard`): every routing mutation
(install/remove/remove_interface, reached via subscribe/unsubscribe/
advertise) bumps the shards of the streams it touched — or a catch-all
version when the touched set is unknown — and every catalog
registration bumps the catalog version, so the next publish only
rebuilds the facts of streams whose shard actually moved.

:meth:`ContentBasedNetwork.publish_many` is the columnar batch entry
point: the feed is split into consecutive same-stream runs and each
run of two or more datagrams is routed **once per batch** through
:meth:`_route_batch` — a shared DFS over the dissemination tree where
every broker evaluates its compiled per-bucket plans against the whole
surviving batch (:meth:`RoutingTable.decide_batch` /
:meth:`RoutingTable.local_deliveries_batch`) instead of once per
datagram.  Only *consecutive* same-stream datagrams are batched so the
per-link traffic accounting accumulates in exactly the per-datagram
order (float addition is order-sensitive); deliveries and stats are
byte-identical to per-datagram :meth:`publish` calls.  Runs of one take
the scalar :meth:`_route` instead, which is markedly cheaper than a
columnar batch of one.

This is the only routing path.  The scan-every-profile reference it is
checked against is :class:`repro.sim.oracle.ScanNetwork`, a subclass
used by the equivalence tests, the chaos shadow twin and the publish
benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.cbn.columns import ColumnBatch, stream_shard
from repro.cbn.datagram import Datagram
from repro.cbn.filters import Profile
from repro.cbn.routing import RoutingTable
from repro.cql.schema import Catalog, StreamSchema
from repro.overlay.metrics import LinkStats
from repro.overlay.topology import NodeId
from repro.overlay.tree import DisseminationTree


class NetworkError(Exception):
    """Raised for operations on unknown nodes/subscriptions."""


@dataclass(frozen=True)
class Delivery:
    """One datagram delivered to one subscriber."""

    subscription_id: str
    node: NodeId
    datagram: Datagram


@dataclass
class _Subscription:
    subscription_id: str
    node: NodeId
    profile: Profile


@dataclass
class _Advertisement:
    stream: str
    node: NodeId


class _StreamFacts:
    """Static per-stream facts the publish hot loop needs.

    Everything here is a pure function of (routing state, catalog,
    stream trees) and is invalidated wholesale when the owning
    network's epoch moves: the dissemination tree the stream travels
    on, its schema width table, each broker's neighbour tuple, and the
    *candidate interfaces* per broker — the neighbours that have at
    least one routing entry for the stream, everything else cannot
    possibly forward.
    """

    __slots__ = ("stream", "tree", "widths", "_neighbors", "_candidates")

    def __init__(
        self,
        stream: str,
        tree: DisseminationTree,
        widths: Optional[Dict[str, int]],
    ) -> None:
        self.stream = stream
        self.tree = tree
        self.widths = widths
        self._neighbors: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self._candidates: Dict[NodeId, Tuple[NodeId, ...]] = {}

    def candidates(self, node: NodeId, table: RoutingTable) -> Tuple[NodeId, ...]:
        """Neighbours of ``node`` with any entry for this stream."""
        cached = self._candidates.get(node)
        if cached is None:
            neighbors = self._neighbors.get(node)
            if neighbors is None:
                neighbors = tuple(sorted(self.tree.neighbors(node)))
                self._neighbors[node] = neighbors
            cached = tuple(
                neighbor
                for neighbor in neighbors
                if table.has_stream_entries(neighbor, self.stream)
            )
            self._candidates[node] = cached
        return cached


class ContentBasedNetwork:
    """A simulated CBN over a dissemination tree of brokers.

    Parameters
    ----------
    tree:
        The overlay dissemination tree the brokers form.
    catalog:
        Optional shared schema catalog used to price datagram payloads;
        advertised schemas are registered into it.
    scope_to_advertisements:
        Propagate subscriptions only toward advertised publishers of
        the streams they request (default) instead of flooding.
    use_subsumption:
        Enable covering-based routing-table aggregation.
    """

    def __init__(
        self,
        tree: DisseminationTree,
        catalog: Optional[Catalog] = None,
        scope_to_advertisements: bool = True,
        use_subsumption: bool = False,
        stream_trees: Optional[Mapping[str, DisseminationTree]] = None,
    ) -> None:
        self._tree = tree
        self.catalog = catalog if catalog is not None else Catalog()
        self.use_subsumption = use_subsumption
        self.scope_to_advertisements = scope_to_advertisements
        self._scope = scope_to_advertisements
        #: Optional per-stream dissemination trees ("the nodes in COSMOS
        #: are organized into multiple overlay dissemination trees").
        #: Streams not listed use the default tree; every tree must span
        #: the same node set.
        self._stream_trees: Dict[str, DisseminationTree] = dict(stream_trees or {})
        for stream, stree in self._stream_trees.items():
            if set(stree.nodes) != set(tree.nodes):
                raise NetworkError(
                    f"tree for stream {stream!r} spans different nodes"
                )
        self._epoch = 0
        self._tables: Dict[NodeId, RoutingTable] = {
            node: RoutingTable(node, use_subsumption, on_change=self._bump_epoch)
            for node in tree.nodes
        }
        self._subscriptions: Dict[str, _Subscription] = {}
        self._advertisements: Dict[str, List[_Advertisement]] = {}
        #: stream -> (facts, shard version they were built at); each
        #: entry revalidates lazily against its own stream's shard, so
        #: churn on one stream leaves the others' facts warm.
        self._facts: Dict[str, Tuple[_StreamFacts, Tuple[int, int, int]]] = {}
        #: shard index -> routing-mutation count for streams hashing
        #: there (fed by the tables' ``on_change`` stream reports).
        self._shard_epochs: Dict[int, int] = {}
        #: Bumped by mutations with unknown touched streams.
        self._all_epoch = 0
        #: stream -> shard index memo.
        self._shard_of: Dict[str, int] = {}
        weights = {edge: tree.weight(*edge) for edge in tree.edges}
        for stree in self._stream_trees.values():
            for edge in stree.edges:
                weights.setdefault(edge, stree.weight(*edge))
        self.data_stats = LinkStats(weights)
        self.control_stats = LinkStats(weights)
        self._counter = itertools.count()

    # -- structure ---------------------------------------------------------------

    @property
    def tree(self) -> DisseminationTree:
        return self._tree

    @property
    def has_stream_trees(self) -> bool:
        return bool(self._stream_trees)

    def tree_for(self, stream: str) -> DisseminationTree:
        """The dissemination tree datagrams of ``stream`` travel on."""
        return self._stream_trees.get(stream, self._tree)

    def set_stream_tree(self, stream: str, tree: DisseminationTree) -> None:
        """Attach a dedicated dissemination tree for one stream.

        Must happen before any subscription requesting the stream is
        installed (routing entries already laid along the old tree
        would be stranded).
        """
        if set(tree.nodes) != set(self._tree.nodes):
            raise NetworkError(f"tree for stream {stream!r} spans different nodes")
        for sub in self._subscriptions.values():
            if stream in sub.profile.streams:
                raise NetworkError(
                    f"stream {stream!r} already has subscriptions; its tree "
                    "can no longer change"
                )
        self._stream_trees[stream] = tree
        self._bump_epoch((stream,))
        for edge in tree.edges:
            weight = tree.weight(*edge)
            self.data_stats.add_weight(edge, weight)
            self.control_stats.add_weight(edge, weight)

    def table(self, node: NodeId) -> RoutingTable:
        try:
            return self._tables[node]
        except KeyError:
            raise NetworkError(f"unknown broker {node}") from None

    # -- the decision cache -------------------------------------------------------

    def _bump_epoch(self, streams: Optional[Iterable[str]] = None) -> None:
        """Record a routing mutation touching ``streams``.

        ``None`` means the touched set is unknown; the catch-all
        version moves instead, invalidating every stream's facts.
        """
        self._epoch += 1
        if streams is None:
            self._all_epoch += 1
            return
        epochs = self._shard_epochs
        shard_of = self._shard_of
        touched = set()
        for stream in streams:
            shard = shard_of.get(stream)
            if shard is None:
                shard = stream_shard(stream)
                shard_of[stream] = shard
            touched.add(shard)
        for shard in sorted(touched):
            epochs[shard] = epochs.get(shard, 0) + 1

    @property
    def routing_epoch(self) -> int:
        """Monotone counter of routing-state mutations (cache key)."""
        return self._epoch

    def _facts_for(self, stream: str) -> _StreamFacts:
        shard = self._shard_of.get(stream)
        if shard is None:
            shard = stream_shard(stream)
            self._shard_of[stream] = shard
        version = (
            self._shard_epochs.get(shard, 0),
            self._all_epoch,
            self.catalog.version,
        )
        cached = self._facts.get(stream)
        if cached is not None and cached[1] == version:
            return cached[0]
        facts = _StreamFacts(
            stream, self.tree_for(stream), self._widths_for(stream)
        )
        self._facts[stream] = (facts, version)
        return facts

    # -- advertisement --------------------------------------------------------------

    def advertise(
        self,
        stream: str,
        node: NodeId,
        schema: Optional[StreamSchema] = None,
    ) -> None:
        """Declare that ``node`` publishes ``stream``.

        Existing subscriptions requesting the stream are (re-)propagated
        toward the new publisher so later publications reach them.
        Re-advertising an already-known ``(stream, node)`` pair is a
        no-op apart from schema (re-)registration: duplicates would
        inflate :meth:`publishers_of` and make every later subscription
        re-propagate (and be re-charged on ``control_stats``) once per
        duplicate.
        """
        if node not in self._tables:
            raise NetworkError(f"unknown broker {node}")
        if schema is not None:
            self.catalog.register(schema)
        ads = self._advertisements.setdefault(stream, [])
        if any(ad.node == node for ad in ads):
            return
        ads.append(_Advertisement(stream, node))
        self._bump_epoch((stream,))
        if self._scope:
            for sub in self._subscriptions.values():
                if stream in sub.profile.streams:
                    self._propagate_toward(sub, stream, node)

    def publishers_of(self, stream: str) -> List[NodeId]:
        return [ad.node for ad in self._advertisements.get(stream, [])]

    # -- subscription -----------------------------------------------------------------

    def subscribe(
        self,
        profile: Profile,
        node: NodeId,
        subscription_id: Optional[str] = None,
    ) -> str:
        """Install ``profile`` for a party attached to broker ``node``.

        Returns the subscription id (generated when not supplied).
        """
        if node not in self._tables:
            raise NetworkError(f"unknown broker {node}")
        if subscription_id is None:
            subscription_id = f"sub-{next(self._counter)}"
        if subscription_id in self._subscriptions:
            raise NetworkError(f"duplicate subscription id {subscription_id!r}")
        sub = _Subscription(subscription_id, node, profile)
        self._subscriptions[subscription_id] = sub
        self._tables[node].install(RoutingTable.LOCAL, subscription_id, profile)
        if self._scope:
            for stream in profile.streams:
                for publisher in self.publishers_of(stream):
                    self._propagate_toward(sub, stream, publisher)
        else:
            for stream in profile.streams:
                self._flood_subscription(sub, stream)
        return subscription_id

    def unsubscribe(self, subscription_id: str) -> None:
        if subscription_id not in self._subscriptions:
            raise NetworkError(f"unknown subscription {subscription_id!r}")
        removed = self._subscriptions.pop(subscription_id)
        streams = removed.profile.streams
        for tbl in self._tables.values():
            tbl.remove(subscription_id, streams)
        if not self.use_subsumption:
            return
        # Covering aggregation may have suppressed other subscriptions'
        # entries behind the removed one; re-propagate every remaining
        # subscription that shares a stream so the uncovered ones regain
        # their own forwarding state (installation is idempotent).
        for sub in self._subscriptions.values():
            shared = sub.profile.streams & removed.profile.streams
            if not shared:
                continue
            for stream in shared:
                if self._scope:
                    for publisher in self.publishers_of(stream):
                        self._propagate_toward(sub, stream, publisher)
                else:
                    self._flood_subscription(sub, stream)

    def _propagate_toward(
        self, sub: _Subscription, stream: str, publisher: NodeId
    ) -> None:
        """Install routing entries along the path subscriber -> publisher.

        Propagation is *per stream*: the installed entry is the profile
        restricted to ``stream`` and the path follows that stream's own
        dissemination tree, so configurations with multiple trees route
        each stream on its tree.  Walking outward from the subscriber,
        every node on the path stores the restricted profile behind the
        interface pointing back at the subscriber.  A subsumed entry is
        *not stored* (covering aggregation: the broader profile on the
        same interface already routes everything we would match, with a
        carried-attribute superset) but propagation continues — the
        covering subscription may have been propagated toward different
        publishers, so upstream nodes still need an entry for this one.
        """
        if publisher == sub.node:
            return
        restricted = sub.profile.restricted_to(stream)
        entry_id = f"{sub.subscription_id}#{stream}"
        tree = self.tree_for(stream)
        path = tree.path(sub.node, publisher)
        size = float(restricted.size_estimate())
        for toward_sub, here in zip(path, path[1:]):
            self._tables[here].install(toward_sub, entry_id, restricted)
            self.control_stats.record(toward_sub, here, size)

    def _flood_subscription(self, sub: _Subscription, stream: str) -> None:
        """Install routing entries everywhere (flooding propagation).

        Like :meth:`_propagate_toward`, per stream on the stream's tree;
        covering aggregation only prunes stored state — the flood always
        visits the whole tree.
        """
        restricted = sub.profile.restricted_to(stream)
        entry_id = f"{sub.subscription_id}#{stream}"
        tree = self.tree_for(stream)
        size = float(restricted.size_estimate())
        seen = {sub.node}
        frontier = [sub.node]
        while frontier:
            here = frontier.pop()
            for neighbor in sorted(tree.neighbors(here)):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                # At ``neighbor`` the subscriber lies behind ``here``.
                self._tables[neighbor].install(here, entry_id, restricted)
                self.control_stats.record(here, neighbor, size)
                frontier.append(neighbor)

    # -- publication ---------------------------------------------------------------------

    def publish(self, datagram: Datagram, node: NodeId) -> List[Delivery]:
        """Inject ``datagram`` at broker ``node`` and route it.

        Returns every delivery made to a subscriber, with the
        per-subscriber projection applied.  Link traffic is recorded on
        :attr:`data_stats` using schema widths when the stream's schema
        is in the catalog.
        """
        if node not in self._tables:
            raise NetworkError(f"unknown broker {node}")
        return self._route(datagram, node, self._facts_for(datagram.stream))

    def publish_many(
        self, datagrams: Iterable[Datagram], node: NodeId
    ) -> List[List[Delivery]]:
        """Inject a batch of datagrams at broker ``node``.

        Returns one delivery list per datagram, in order — exactly what
        per-datagram :meth:`publish` calls would produce.  Consecutive
        datagrams of the same stream form a *run* routed once per batch
        through the columnar plans (:meth:`_route_batch`); runs of one
        fall back to the scalar hot path.  Only consecutive datagrams
        are grouped (not all same-stream datagrams of the feed) so the
        per-link traffic accounting accumulates float contributions in
        exactly the per-datagram order.
        """
        if node not in self._tables:
            raise NetworkError(f"unknown broker {node}")
        out: List[List[Delivery]] = []
        run: List[Datagram] = []
        run_stream: Optional[str] = None
        for datagram in datagrams:
            if datagram.stream != run_stream and run:
                self._flush_run(run, run_stream, node, out)
                run = []
            run_stream = datagram.stream
            run.append(datagram)
        if run:
            self._flush_run(run, run_stream, node, out)
        return out

    def _flush_run(
        self,
        run: List[Datagram],
        stream: str,
        node: NodeId,
        out: List[List[Delivery]],
    ) -> None:
        """Route one consecutive same-stream run, appending to ``out``.

        Dispatches on the run length the feed produced: a run of one
        takes the scalar :meth:`_route`, because a columnar batch of one
        pays the column and mask set-up for a single datagram (about
        2.6x slower at the 10k-subscription gate tier).
        """
        facts = self._facts_for(stream)
        if len(run) == 1:
            out.append(self._route(run[0], node, facts))
        else:
            out.extend(self._route_batch(run, node, facts))

    def _route(
        self, datagram: Datagram, node: NodeId, facts: _StreamFacts
    ) -> List[Delivery]:
        """The scalar hot path: candidate interfaces from the routing
        index, cached widths/neighbours, per-copy size computed once."""
        widths = facts.widths
        record = self.data_stats.record
        tables = self._tables
        deliveries: List[Delivery] = []
        #: (broker, interface it arrived from, datagram copy, its size
        #: in bytes or None when not yet needed)
        stack: List[Tuple[NodeId, Optional[NodeId], Datagram, Optional[float]]] = [
            (node, None, datagram, None)
        ]
        while stack:
            here, arrived_from, current, size = stack.pop()
            table = tables[here]
            for sid, projected in table.local_deliveries(current):
                deliveries.append(Delivery(sid, here, projected))
            for neighbor in facts.candidates(here, table):
                if neighbor == arrived_from:
                    continue
                decision = table.decide(neighbor, current)
                if not decision.forward:
                    continue
                keep = decision.attributes
                payload = current.payload
                if keep is None or all(attr in keep for attr in payload):
                    # Projection keeps everything: reuse the immutable
                    # datagram (and its already-computed size).
                    outgoing, out_size = current, size
                else:
                    outgoing, out_size = current.project(keep), None
                if out_size is None:
                    out_size = outgoing.size_bytes(widths)
                record(here, neighbor, out_size)
                stack.append((neighbor, here, outgoing, out_size))
        return deliveries

    def _route_batch(
        self, datagrams: List[Datagram], node: NodeId, facts: _StreamFacts
    ) -> List[List[Delivery]]:
        """Columnar batch routing of one same-stream run.

        One DFS over the dissemination tree carries the whole batch:
        each stack frame holds the *surviving subset* (original indices,
        per-datagram current copies and byte sizes) at one broker, and
        every broker evaluates its compiled plans once per batch via
        the column masks.  Per datagram the visit order, deliveries and
        per-link traffic records are exactly those of a standalone
        :meth:`_route` call — frames not containing a datagram never
        spawn frames that do, so the projection of the shared DFS onto
        one datagram's frames is its solo DFS.
        """
        widths = facts.widths
        record = self.data_stats.record
        tables = self._tables
        n = len(datagrams)
        deliveries: List[List[Delivery]] = [[] for __ in range(n)]
        #: (broker, interface it arrived from, surviving original
        #: indices, their current copies, their sizes or None)
        stack: List[
            Tuple[
                NodeId,
                Optional[NodeId],
                List[int],
                List[Datagram],
                List[Optional[float]],
            ]
        ] = [(node, None, list(range(n)), list(datagrams), [None] * n)]
        stream = facts.stream
        while stack:
            here, arrived_from, indices, currents, sizes = stack.pop()
            table = tables[here]
            batch = ColumnBatch(currents, stream)
            local = table.local_deliveries_batch(batch)
            for slot, index in enumerate(indices):
                for sid, projected in local[slot]:
                    deliveries[index].append(Delivery(sid, here, projected))
            for neighbor in facts.candidates(here, table):
                if neighbor == arrived_from:
                    continue
                decisions = table.decide_batch(neighbor, batch)
                sub_indices: List[int] = []
                sub_currents: List[Datagram] = []
                sub_sizes: List[Optional[float]] = []
                for slot, decision in enumerate(decisions):
                    if not decision.forward:
                        continue
                    current = currents[slot]
                    keep = decision.attributes
                    payload = current.payload
                    if keep is None or all(attr in keep for attr in payload):
                        # Projection keeps everything: reuse the
                        # immutable datagram (and cache its size for
                        # this frame's remaining interfaces).
                        out_size = sizes[slot]
                        if out_size is None:
                            out_size = current.size_bytes(widths)
                            sizes[slot] = out_size
                        outgoing = current
                    else:
                        outgoing = current.project(keep)
                        out_size = outgoing.size_bytes(widths)
                    record(here, neighbor, out_size)
                    sub_indices.append(indices[slot])
                    sub_currents.append(outgoing)
                    sub_sizes.append(out_size)
                if sub_indices:
                    stack.append(
                        (neighbor, here, sub_indices, sub_currents, sub_sizes)
                    )
        return deliveries

    def _widths_for(self, stream: str) -> Optional[Dict[str, int]]:
        if stream not in self.catalog:
            return None
        schema = self.catalog.get(stream)
        return {attr.name: attr.byte_width for attr in schema.attributes}

    # -- introspection -----------------------------------------------------------------------

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def subscriptions(self) -> Dict[str, Tuple[NodeId, Profile]]:
        """Subscription id -> (attachment broker, profile)."""
        return {
            sid: (sub.node, sub.profile)
            for sid, sub in self._subscriptions.items()
        }

    def advertised_streams(self) -> List[str]:
        """Streams with at least one advertisement, sorted."""
        return sorted(
            stream for stream, ads in self._advertisements.items() if ads
        )

    def routing_state_size(self) -> int:
        """Total routing entries across all brokers (table pressure)."""
        return sum(tbl.entry_count for tbl in self._tables.values())
