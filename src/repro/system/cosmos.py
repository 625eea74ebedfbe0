"""The COSMOS system facade (Figure 1).

Wires sources, brokers, processors, the CBN and the query layer into
one object:

* :meth:`CosmosSystem.add_source` registers a source stream at a node
  (schema advertisement + catalog registration);
* :meth:`CosmosSystem.submit` accepts a user query (CQL text or AST) at
  a user's broker, distributes it to a processor, and installs all the
  subscriptions the query layer composed;
* :meth:`CosmosSystem.publish` injects one source tuple and drives it
  end to end: CBN routing to processors, SPE evaluation, result-stream
  publication, CBN routing to users.

Every delivered result is collected on the :class:`SubmittedQuery`
handle, and all traffic is accounted on the network's
:class:`~repro.overlay.metrics.LinkStats`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cbn.datagram import Datagram
from repro.cbn.network import ContentBasedNetwork, Delivery
from repro.cql.ast import ContinuousQuery
from repro.cql.parser import parse_query
from repro.cql.schema import Catalog, StreamSchema
from repro.core.cost import CostModel
from repro.core.grouping import GroupingOptimizer
from repro.overlay.topology import NodeId, Topology
from repro.overlay.tree import DisseminationTree
from repro.system.distribution import (
    QueryDistribution,
    StreamAffinityDistribution,
)
from repro.system.node import Broker, Processor


class SystemError_(Exception):
    """Raised for invalid system operations (unknown streams/nodes)."""


class QueryStatus(enum.Enum):
    """Lifecycle state of a submitted query.

    ``ACTIVE`` queries are installed end to end.  ``DEGRADED`` queries
    have been quarantined by the reliability layer because a physical
    partition made some of their nodes unreachable; their handles (and
    accumulated results) survive, but no subscriptions are installed
    until :func:`repro.system.reliability.heal_partition` resumes them.
    """

    ACTIVE = "active"
    DEGRADED = "degraded"


@dataclass
class SubmittedQuery:
    """Handle for one user query living in the system."""

    query_id: str
    query: ContinuousQuery
    user_node: NodeId
    processor_node: NodeId
    result_stream: str
    results: List[Datagram] = field(default_factory=list)
    status: QueryStatus = QueryStatus.ACTIVE

    @property
    def result_count(self) -> int:
        return len(self.results)


class CosmosSystem:
    """A simulated COSMOS deployment.

    Parameters
    ----------
    tree:
        The overlay dissemination tree (all nodes are at least brokers).
    processor_nodes:
        Which nodes are equipped with an SPE.
    topology:
        Optional underlying physical topology; required only by the
        fault-tolerance repair logic (:mod:`repro.system.fault`).
    distribution:
        Query distribution policy; defaults to stream-set affinity.
    merging:
        When ``False``, every query forms its own group (the non-share
        baseline of Figure 3) — implemented by an infinite merge
        threshold on each processor's grouping optimizer.
    per_source_trees:
        Build a dedicated shortest-path dissemination tree rooted at
        each source's node (the paper's "multiple overlay dissemination
        trees"); requires ``topology``.  Result streams stay on the
        default tree.
    static_check:
        Run the static analyzer (schema + satisfiability families) on
        every submitted query and reject submissions with errors by
        raising :class:`SystemError_` before anything is installed.
    """

    #: The CBN class the system builds (and rebuilds after a tree
    #: repair).  A subclass may swap in a reference network; the chaos
    #: harness does so to run its scan-router shadow twin.
    network_type = ContentBasedNetwork

    def __init__(
        self,
        tree: DisseminationTree,
        processor_nodes: Sequence[NodeId],
        topology: Optional[Topology] = None,
        distribution: Optional[QueryDistribution] = None,
        cost_model: Optional[CostModel] = None,
        merging: bool = True,
        use_subsumption: bool = False,
        per_source_trees: bool = False,
        static_check: bool = False,
    ) -> None:
        if per_source_trees and topology is None:
            raise SystemError_("per_source_trees requires the topology")
        self.per_source_trees = per_source_trees
        self.static_check = static_check
        self.tree = tree
        self.topology = topology
        self.catalog = Catalog()
        self.cost_model = cost_model or CostModel()
        self.merging = merging
        self.network = self.network_type(
            tree, self.catalog, use_subsumption=use_subsumption
        )
        self.processors: Dict[NodeId, Processor] = {}
        for node in processor_nodes:
            if node not in tree:
                raise SystemError_(f"processor node {node} not in the tree")
            self.processors[node] = self._make_processor(node)
        self.brokers: Dict[NodeId, Broker] = {
            node: Broker(node) for node in tree.nodes if node not in self.processors
        }
        self.distribution = distribution or StreamAffinityDistribution()
        self._sources: Dict[str, NodeId] = {}
        self._queries: Dict[str, SubmittedQuery] = {}
        #: query id -> current CBN subscription id for its results
        self._user_subscriptions: Dict[str, str] = {}
        self._counter = itertools.count()
        self._sub_version = itertools.count()
        #: Reliability state (:func:`repro.system.reliability.attach_reliability`);
        #: ``None`` until a supervisor attaches one.
        self.reliability = None
        #: Load-management state (:func:`repro.system.loadmgr.attach_load_manager`);
        #: ``None`` until a load manager attaches one.
        self.load = None

    def _make_processor(self, node: NodeId) -> Processor:
        threshold = 0.0 if self.merging else float("inf")
        grouping = GroupingOptimizer(
            self.catalog, self.cost_model, merge_threshold=threshold
        )
        return Processor(
            node, self.catalog, network=self.network, grouping=grouping,
            cost_model=self.cost_model,
        )

    # -- sources -----------------------------------------------------------------

    def add_source(self, schema: StreamSchema, node: NodeId) -> None:
        """Attach a source stream publishing from ``node``."""
        if node not in self.tree:
            raise SystemError_(f"source node {node} not in the tree")
        self._sources[schema.name] = node
        self.catalog.register(schema)
        if self.per_source_trees:
            assert self.topology is not None
            self.network.set_stream_tree(
                schema.name, DisseminationTree.shortest_path(self.topology, node)
            )
        self.network.advertise(schema.name, node, schema)

    def source_node(self, stream: str) -> NodeId:
        try:
            return self._sources[stream]
        except KeyError:
            raise SystemError_(f"unknown source stream {stream!r}") from None

    # -- queries ---------------------------------------------------------------------

    def submit(
        self,
        query: Union[str, ContinuousQuery],
        user_node: NodeId,
        name: Optional[str] = None,
    ) -> SubmittedQuery:
        """Submit a user query from ``user_node``; returns its handle."""
        if isinstance(query, str):
            query = parse_query(query)
        if user_node not in self.tree:
            raise SystemError_(f"user node {user_node} not in the tree")
        query_id = name or query.name or f"q{next(self._counter)}"
        if query_id in self._queries:
            raise SystemError_(f"duplicate query id {query_id!r}")
        named = ContinuousQuery(
            query.select_items,
            query.streams,
            query.predicate,
            query.group_by,
            query_id,
        )
        if self.static_check:
            from repro.analysis.checker import analyze_query

            report = analyze_query(named, self.catalog)
            if report.errors:
                raise SystemError_(
                    f"query {query_id!r} rejected by static analysis:\n"
                    + "\n".join(d.render() for d in report.errors)
                )
        processor = self.distribution.choose(
            named, user_node, sorted(self.processors.values(), key=lambda p: p.node_id)
        )
        submission = processor.accept(named)
        handle = SubmittedQuery(
            query_id=query_id,
            query=named,
            user_node=user_node,
            processor_node=processor.node_id,
            result_stream=submission.result_stream,
        )
        self._queries[query_id] = handle
        # The group's representative may have changed: refresh the result
        # subscription of every member of the group.
        self._refresh_result_subscriptions(
            submission.updated_profiles, submission.result_stream
        )
        return handle

    def withdraw(self, query_id: str) -> None:
        handle = self._queries.pop(query_id, None)
        if handle is None:
            raise SystemError_(f"unknown query {query_id!r}")
        sub_id = self._user_subscriptions.pop(query_id, None)
        if sub_id is not None:
            self.network.unsubscribe(sub_id)
        processor = self.processors[handle.processor_node]
        group = processor.withdraw(query_id)
        if group is None:
            return
        # The representative narrowed: refresh every surviving member's
        # result subscription (the old profiles may reference attributes
        # the new representative no longer outputs).
        self._refresh_result_subscriptions(
            processor.manager.result_profiles_of(group)
        )

    def _refresh_result_subscriptions(
        self,
        profiles: Dict[str, "object"],
        result_stream: Optional[str] = None,
    ) -> None:
        """Replace the result subscription of each member in ``profiles``.

        Shared by submission, withdrawal and live migration — whenever a
        group's representative changes, every member's subscription must
        be recomposed against it.  Members without a handle (standalone
        manager usage) are skipped; ``result_stream``, when given, is
        stamped on each refreshed handle.
        """
        for member_name, profile in profiles.items():
            member = self._queries.get(member_name)
            if member is None:
                continue
            old = self._user_subscriptions.pop(member_name, None)
            if old is not None:
                self.network.unsubscribe(old)
            sub_id = self.network.subscribe(
                profile,
                member.user_node,
                subscription_id=f"user:{member_name}:v{next(self._sub_version)}",
            )
            self._user_subscriptions[member_name] = sub_id
            if result_stream is not None:
                member.result_stream = result_stream

    def query(self, query_id: str) -> SubmittedQuery:
        try:
            return self._queries[query_id]
        except KeyError:
            raise SystemError_(f"unknown query {query_id!r}") from None

    @property
    def queries(self) -> List[SubmittedQuery]:
        return list(self._queries.values())

    # -- data flow ----------------------------------------------------------------------

    def publish(
        self,
        stream: str,
        payload: Dict[str, object],
        timestamp: float,
        seq: Optional[int] = None,
    ) -> List[Delivery]:
        """Inject one source tuple and drive it end to end.

        Returns every delivery made to a *user* subscription; results
        are also appended to the owning :class:`SubmittedQuery`.
        ``seq`` is the uplink transport sequence number when the tuple
        arrived over a reliable sequenced uplink; it rides the datagram
        through routing, projection and result relabelling.
        """
        node = self.source_node(stream)
        datagram = Datagram(stream, payload, timestamp, seq)
        return self._drive([datagram], node)

    def publish_batch(
        self,
        stream: str,
        tuples: Sequence[Tuple[Dict[str, object], float]],
    ) -> List[Delivery]:
        """Inject a batch of source tuples of one stream end to end.

        ``tuples`` is a sequence of ``(payload, timestamp)`` pairs.  The
        whole batch enters the CBN as one ``publish_many`` call, so the
        columnar batch plans evaluate it once per bucket.  Processors
        still see the tuples in order, and every query handle
        accumulates exactly the results sequential :meth:`publish`
        calls would produce; only the interleaving of the returned flat
        delivery list may differ (grouped per routing batch rather than
        per source tuple).
        """
        node = self.source_node(stream)
        batch = [
            Datagram(stream, payload, timestamp)
            for payload, timestamp in tuples
        ]
        if not batch:
            return []
        return self._drive(batch, node)

    def _drive(self, batch: List[Datagram], node: NodeId) -> List[Delivery]:
        """Route a source batch end to end: CBN to processors, SPE
        evaluation, result publication, CBN to users."""
        user_deliveries: List[Delivery] = []
        # Each pending item is a batch of datagrams injected at one
        # broker: the source tuples first, then whole result batches
        # from each SPE evaluation, published via publish_many so the
        # per-stream routing setup is paid once per batch.
        pending: List[tuple] = [(batch, node)]
        while pending:
            batch, origin = pending.pop(0)
            for deliveries in self.network.publish_many(batch, origin):
                for delivery in deliveries:
                    sid = delivery.subscription_id
                    if sid.startswith("src:"):
                        processor = self.processors.get(delivery.node)
                        if processor is None:
                            continue
                        group_id = sid.split(":")[2]
                        results = processor.on_source_data(
                            delivery.datagram, group_id
                        )
                        if results:
                            pending.append((results, processor.node_id))
                    elif sid.startswith("user:"):
                        query_id = sid.split(":", 2)[1]
                        handle = self._queries.get(query_id)
                        if handle is not None:
                            handle.results.append(delivery.datagram)
                        user_deliveries.append(delivery)
        return user_deliveries

    def replay(self, feed: Sequence[Datagram]) -> int:
        """Publish a timestamp-ordered feed; returns total user deliveries."""
        total = 0
        for datagram in feed:
            total += len(
                self.publish(datagram.stream, dict(datagram.payload), datagram.timestamp)
            )
        return total

    # -- reporting --------------------------------------------------------------------------

    def data_cost(self) -> float:
        """Delay-weighted bytes moved by the data layer so far."""
        return self.network.data_stats.weighted_cost()

    def grouping_summary(self) -> Dict[str, float]:
        """Aggregate grouping statistics across all processors."""
        queries = sum(p.manager.grouping.query_count for p in self.processors.values())
        groups = sum(p.manager.grouping.group_count for p in self.processors.values())
        benefit = sum(p.manager.grouping.total_benefit() for p in self.processors.values())
        unmerged = sum(
            p.manager.grouping.total_unmerged_rate() for p in self.processors.values()
        )
        return {
            "queries": float(queries),
            "groups": float(groups),
            "grouping_ratio": groups / queries if queries else 1.0,
            "benefit_ratio": benefit / unmerged if unmerged else 0.0,
        }
