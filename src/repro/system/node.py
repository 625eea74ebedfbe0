"""Broker and processor node models (Figure 2).

A *broker* runs only the data layer (it is a position on the
dissemination tree; the routing itself lives in
:class:`~repro.cbn.network.ContentBasedNetwork`).  A *processor*
additionally runs the query layer: a query manager, a pluggable SPE
behind its data/query wrappers, and the bookkeeping to keep its CBN
subscriptions in line with the groups the manager maintains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cbn.datagram import Datagram
from repro.cbn.network import ContentBasedNetwork
from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog
from repro.core.grouping import GroupingOptimizer, QueryGroup
from repro.core.manager import QueryManager, Submission
from repro.core.cost import CostModel
from repro.overlay.topology import NodeId
from repro.spe.engine import StreamProcessingEngine
from repro.spe.wrappers import (
    DataWrapper,
    IdentityDataWrapper,
    IdentityQueryWrapper,
    QueryWrapper,
)


@dataclass
class Broker:
    """A data-layer-only server: routes datagrams, processes nothing."""

    node_id: NodeId

    @property
    def is_processor(self) -> bool:
        return False


class Processor:
    """A server equipped with a stream processing engine.

    The processor subscribes to the CBN for the source data of each of
    its query groups, feeds delivered datagrams through the data
    wrapper into the SPE, and publishes result tuples back into the
    CBN under the group's result-stream name.
    """

    def __init__(
        self,
        node_id: NodeId,
        catalog: Catalog,
        network: Optional[ContentBasedNetwork] = None,
        data_wrapper: Optional[DataWrapper] = None,
        query_wrapper: Optional[QueryWrapper] = None,
        grouping: Optional[GroupingOptimizer] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.node_id = node_id
        self.catalog = catalog
        self.network = network
        self.data_wrapper = data_wrapper or IdentityDataWrapper()
        self.query_wrapper = query_wrapper or IdentityQueryWrapper()
        self.spe = StreamProcessingEngine(catalog)
        self.manager = QueryManager(
            catalog,
            self.spe,
            grouping=grouping,
            cost_model=cost_model,
            namespace=f"n{node_id}",
        )
        #: group id -> CBN subscription id of the group's source profile
        self._source_subscriptions: Dict[str, str] = {}
        #: result streams this processor has advertised
        self._advertised: Set[str] = set()

    @property
    def is_processor(self) -> bool:
        return True

    @property
    def query_count(self) -> int:
        return self.manager.grouping.query_count

    @property
    def group_count(self) -> int:
        """Merged query groups on this processor — the load-management
        layer's unit of placement and migration."""
        return self.manager.grouping.group_count

    # -- query layer ---------------------------------------------------------------

    def accept(self, query: ContinuousQuery, name: Optional[str] = None) -> Submission:
        """Accept a user query and reconcile CBN subscriptions.

        The query travels through the query wrapper (as it would to a
        foreign SPE), the manager groups and registers it, and the
        processor's source subscription for the affected group is
        replaced if the representative changed.
        """
        wrapped = self.query_wrapper.to_engine(query)
        unwrapped = self.query_wrapper.from_engine(wrapped)
        if unwrapped.name is None and query.name is not None:
            unwrapped = ContinuousQuery(
                unwrapped.select_items,
                unwrapped.streams,
                unwrapped.predicate,
                unwrapped.group_by,
                query.name,
            )
        submission = self.manager.submit(unwrapped, name=name)
        if self.network is not None:
            self._subscribe_sources(submission)
            self._advertise_result(submission)
        return submission

    def withdraw(self, query_name: str) -> Optional["QueryGroup"]:
        """Remove a query; returns the recomposed group (or ``None``).

        The group's source subscription is replaced (or dropped with
        the group).  Callers holding *result* subscriptions for the
        surviving members must refresh them from
        ``manager.result_profiles_of(group)`` — the representative
        narrowed and the old profiles may reference attributes the
        result stream no longer carries.
        """
        group = self.manager.withdraw(query_name)
        if self.network is None:
            return group
        if group is None:
            # Group vanished: drop its source subscription.
            for group_id, sub_id in list(self._source_subscriptions.items()):
                if not any(
                    g.group_id == group_id for g in self.manager.groups
                ):
                    self.network.unsubscribe(sub_id)
                    del self._source_subscriptions[group_id]
            return None
        from repro.core.profiles import source_profile as _source_profile

        profile = _source_profile(
            group.representative, self.catalog, subscriber=group.group_id
        )
        self._replace_source_subscription(group.group_id, profile)
        return group

    def release_group(self, group_id: str) -> List[ContinuousQuery]:
        """Tear a whole group off this processor for live migration.

        The manager deregisters the representative from the SPE and
        hands back the intact member list; the group's CBN source
        subscription is withdrawn (the target installs its own when it
        re-accepts the members).  The result-stream advertisement is
        left in place — advertisements are idempotent registrations and
        the stream simply goes quiet with no publisher behind it.
        """
        members = self.manager.release_group(group_id)
        if self.network is not None:
            sub_id = self._source_subscriptions.pop(group_id, None)
            if sub_id is not None:
                self.network.unsubscribe(sub_id)
        return members

    def _subscribe_sources(self, submission: Submission) -> None:
        self._replace_source_subscription(
            submission.group.group_id, submission.source_profile
        )

    def _replace_source_subscription(self, group_id: str, profile) -> None:
        assert self.network is not None
        old = self._source_subscriptions.pop(group_id, None)
        if old is not None:
            self.network.unsubscribe(old)
        sub_id = self.network.subscribe(
            profile, self.node_id, subscription_id=f"src:{self.node_id}:{group_id}:{self.manager.grouping.query_count}"
        )
        self._source_subscriptions[group_id] = sub_id

    def _advertise_result(self, submission: Submission) -> None:
        assert self.network is not None
        if submission.result_stream not in self._advertised:
            self.network.advertise(
                submission.result_stream, self.node_id, submission.result_schema
            )
            self._advertised.add(submission.result_stream)
        else:
            # Representative changed: refresh the result schema.
            self.network.catalog.register(submission.result_schema)

    # -- data layer callbacks ----------------------------------------------------------

    def on_source_data(
        self, datagram: Datagram, group_id: Optional[str] = None
    ) -> List[Datagram]:
        """Feed one delivered source datagram through the SPE.

        ``group_id`` names the query group whose subscription the
        delivery belongs to; the datagram carries that group's early
        projection and must only reach that group's representative.
        Without a group id the datagram is broadcast to every query on
        its stream (standalone-processor usage).

        Returns the result datagrams (already tagged with their result
        stream names), which the caller publishes into the CBN from
        this node.
        """
        engine_tuple = self.data_wrapper.to_engine(datagram)
        native = self.data_wrapper.from_engine(engine_tuple)
        if group_id is not None:
            engine_name = self.manager.engine_name_of(group_id)
            if engine_name is None:
                return []
            results = self.spe.push_to(engine_name, native)
        else:
            results = self.spe.push(native)
        return [result.datagram for result in results]
