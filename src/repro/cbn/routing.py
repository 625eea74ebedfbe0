"""Per-node CBN routing state.

Every broker keeps, per overlay interface (tree neighbour), the set of
data-interest profiles reachable through that interface.  A datagram
arriving at the broker is forwarded on an interface when any profile
behind it covers the datagram, after **early projection**: the
forwarded copy keeps only the union of the attributes requested by the
covering downstream profiles (section 3.1).

Routing tables optionally aggregate with *subsumption*: a newly
installed profile that is subsumed by an existing one on the same
interface is not stored (and does not need further propagation), the
classic CBN optimisation (Siena-style covering).

Routing index
-------------
Matching is the hot operation of the whole system: every datagram hop
evaluates the profiles behind every interface.  The table therefore
maintains a **per-(interface, stream) index**: each entry is indexed
under every stream its profile requests, so :meth:`RoutingTable.decide`
and :meth:`RoutingTable.local_deliveries` only touch entries whose
stream set includes the datagram's stream.  On top of the index sit
lazily **compiled matchers** — per entry the per-stream filter
conditions, projection set and carried-attribute set are precomputed —
with two short-circuits: a covering entry that wants all attributes
ends evaluation immediately (projection can no longer narrow), and once
the accumulated attribute union reaches the per-(interface, stream)
upper bound the remaining entries cannot change the decision either.

Every mutation bumps :attr:`RoutingTable.epoch`; compiled state is
rebuilt lazily when versions move, and the owning network layer uses
the same signal (via ``on_change``, which reports the *streams* a
mutation touched) to invalidate its own per-stream caches.  The
scan-every-entry reference these paths are checked against is
:class:`repro.sim.oracle.ScanNetwork`, which reads only the public
entry views (:meth:`RoutingTable.entries`,
:meth:`RoutingTable.local_profiles`).

Columnar batch path
-------------------
:meth:`RoutingTable.decide_batch` and
:meth:`RoutingTable.local_deliveries_batch` evaluate one compiled plan
against a whole same-stream :class:`~repro.cbn.columns.ColumnBatch` at
once: each entry's filter conditions are compiled
(:func:`~repro.cbn.columns.compile_condition`) into column evaluators
producing per-batch match masks, and projection work is shared across
the subscriptions of a bucket (one projected copy per distinct
projection set per datagram).  Results are element-wise identical to
per-datagram :meth:`decide` / :meth:`local_deliveries`.

Shard-scoped invalidation
-------------------------
Compiled plans are validated per *stream shard*
(:func:`~repro.cbn.columns.stream_shard`): every mutation bumps only
the shards of the streams it touched (or a catch-all version when the
touched set is unknown), so a subscription churn event invalidates the
plans of the streams it concerns and publishing other streams keeps
hitting warm caches — per-publish recompilation work is O(touched
shards), not O(all streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.cbn.columns import ColumnBatch, Mask, compile_condition, stream_shard
from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Profile
from repro.overlay.topology import NodeId


class RoutingError(Exception):
    """Raised for inconsistent routing operations."""


@dataclass
class ForwardDecision:
    """Outcome of evaluating a datagram against one interface.

    ``forward`` says whether any downstream profile covers the datagram;
    ``attributes`` is the union of attribute names the downstream
    coverers need (``None`` means "all attributes", i.e. no projection).
    """

    forward: bool
    attributes: Optional[FrozenSet[str]] = None


class _CompiledEntry:
    """One routing entry pre-resolved for a single stream.

    Everything :meth:`RoutingTable.decide` needs per evaluation is
    precomputed here so the hot loop performs no profile introspection:
    the filter conditions for the stream (empty means unconditional),
    the projection set (for local delivery), the carried-attribute set
    (projection plus filter-referenced attributes, for forwarding) and
    the wants-all flag.
    """

    __slots__ = (
        "entry_id",
        "profile",
        "conditions",
        "projection",
        "carried",
        "wants_all",
        "_evaluators",
    )

    def __init__(self, entry_id: str, profile: Profile, stream: str) -> None:
        self.entry_id = entry_id
        self.profile = profile
        self.conditions = tuple(
            flt.condition for flt in profile.filters_for(stream)
        )
        self.projection = profile.projection_for(stream)
        self.carried = profile.carried_attributes(stream)
        self.wants_all = self.projection == ALL_ATTRIBUTES
        #: Column evaluators for :meth:`batch_mask`, compiled on first
        #: use (many entries are only ever hit by the scalar path).
        self._evaluators: Optional[Tuple] = None

    def covers(self, payload) -> bool:
        conditions = self.conditions
        if not conditions:
            return True
        for condition in conditions:
            if condition.evaluate(payload):
                return True
        return False

    def batch_mask(self, batch: ColumnBatch) -> Mask:
        """Per-datagram coverage of a same-stream batch.

        Element ``i`` equals ``covers(batch.datagrams[i].payload)``:
        the filter conditions (a disjunction) are evaluated as compiled
        column masks OR-combined across conditions.
        """
        evaluators = self._evaluators
        if evaluators is None:
            evaluators = tuple(
                compile_condition(condition) for condition in self.conditions
            )
            self._evaluators = evaluators
        if not evaluators:
            return [True] * batch.n
        mask = evaluators[0](batch)
        for evaluator in evaluators[1:]:
            if all(mask):
                break
            mask = [
                hit or extra
                for hit, extra in zip(mask, evaluator(batch))
            ]
        return mask


#: Compiled matching state for one (interface, stream):
#: (entries, any_wants_all, attribute-union upper bound over non-wants-all
#: entries).
_Plan = Tuple[List[_CompiledEntry], bool, FrozenSet[str]]

_EMPTY_PLAN: _Plan = ([], False, frozenset())


class RoutingTable:
    """Routing state of one broker.

    Entries are keyed ``(interface, subscription_id)`` where interface
    is either a neighbour node id or :data:`LOCAL` for subscriptions
    attached directly to this broker.
    """

    #: Interface key for locally attached subscribers.
    LOCAL: object = "local"

    def __init__(
        self,
        node: NodeId,
        use_subsumption: bool = False,
        on_change: Optional[Callable[[Optional[FrozenSet[str]]], None]] = None,
    ) -> None:
        self.node = node
        self._use_subsumption = use_subsumption
        #: Invoked after every state mutation with the streams the
        #: mutation touched (``None`` when unattributable); the network
        #: layer hooks its shard-scoped cache invalidation here.
        self.on_change = on_change
        #: Bumped on every mutation; monotone mutation counter.
        self.epoch = 0
        self._entries: Dict[object, Dict[str, Profile]] = {}
        #: interface -> stream -> entry id -> profile (install order
        #: preserved per bucket, mirroring ``_entries``).
        self._by_stream: Dict[object, Dict[str, Dict[str, Profile]]] = {}
        #: (interface, stream) -> (compiled plan, shard version it was
        #: built at).  Entries revalidate lazily against the stream's
        #: shard version, so a mutation touching stream S leaves the
        #: cached plans of unrelated streams warm.
        self._plans: Dict[Tuple[object, str], Tuple[_Plan, Tuple[int, int]]] = {}
        #: shard index -> mutation count for streams hashing there.
        self._shard_epochs: Dict[int, int] = {}
        #: Bumped by mutations whose touched streams are unknown;
        #: part of every shard version so they invalidate everything.
        self._all_epoch = 0
        #: stream -> shard index memo (crc32 paid once per stream).
        self._shard_of: Dict[str, int] = {}

    # -- maintenance -----------------------------------------------------------

    def _shard(self, stream: str) -> int:
        shard = self._shard_of.get(stream)
        if shard is None:
            shard = stream_shard(stream)
            self._shard_of[stream] = shard
        return shard

    def _touch(self, streams: Optional[Iterable[str]] = None) -> None:
        self.epoch += 1
        if streams is None:
            self._all_epoch += 1
            notify: Optional[FrozenSet[str]] = None
        else:
            notify = frozenset(streams)
            bumped = self._shard_epochs
            for shard in sorted({self._shard(stream) for stream in notify}):
                bumped[shard] = bumped.get(shard, 0) + 1
        if self.on_change is not None:
            self.on_change(notify)

    def _index_entry(self, interface: object, entry_id: str, profile: Profile) -> None:
        streams = self._by_stream.setdefault(interface, {})
        for stream in profile.streams:
            streams.setdefault(stream, {})[entry_id] = profile

    def _unindex_entry(self, interface: object, entry_id: str, profile: Profile) -> None:
        streams = self._by_stream.get(interface)
        if streams is None:
            return
        for stream in profile.streams:
            bucket = streams.get(stream)
            if bucket is None:
                continue
            bucket.pop(entry_id, None)
            if not bucket:
                del streams[stream]

    def install(self, interface: object, subscription_id: str, profile: Profile) -> bool:
        """Install a profile behind an interface.

        Returns ``False`` when subsumption aggregation suppressed the
        entry (an existing profile on the same interface already covers
        it), meaning propagation beyond this node can stop.
        """
        entries = self._entries.setdefault(interface, {})
        touched: Set[str] = set(profile.streams)
        # Local subscribers are delivery endpoints, not forwarding state:
        # every one needs its own entry (own projection), so covering
        # aggregation only applies to remote interfaces.
        if self._use_subsumption and interface is not self.LOCAL:
            for existing in entries.values():
                if existing.subsumes(profile):
                    return False
            # Remove entries the new profile renders redundant.
            redundant = [
                sid for sid, p in entries.items() if profile.subsumes(p)
            ]
            for sid in redundant:
                touched.update(entries[sid].streams)
                self._unindex_entry(interface, sid, entries[sid])
                del entries[sid]
        previous = entries.get(subscription_id)
        if previous is not None:
            touched.update(previous.streams)
            self._unindex_entry(interface, subscription_id, previous)
        entries[subscription_id] = profile
        self._index_entry(interface, subscription_id, profile)
        self._touch(touched)
        return True

    def remove(self, subscription_id: str, streams: Iterable[str] = ()) -> None:
        """Drop a subscription from every interface.

        Removes the local entry keyed ``subscription_id`` and the
        per-stream forwarding entries the network layer installs under
        ``"<id>#<stream>"`` for each of ``streams`` — exactly those
        keys, so a live subscription whose id merely extends this one
        (``"a#b"`` when removing ``"a"``) keeps its entries.
        """
        keys = [subscription_id] + [f"{subscription_id}#{s}" for s in streams]
        touched: Set[str] = set()
        changed = False
        for interface, entries in self._entries.items():
            for key in keys:
                profile = entries.pop(key, None)
                if profile is None:
                    continue
                touched.update(profile.streams)
                self._unindex_entry(interface, key, profile)
                changed = True
        if changed:
            self._touch(touched)

    def remove_interface(self, interface: object) -> None:
        removed = self._entries.pop(interface, None)
        self._by_stream.pop(interface, None)
        if removed:
            touched: Set[str] = set()
            for profile in removed.values():
                touched.update(profile.streams)
            self._touch(touched)

    def entries(self, interface: object) -> Mapping[str, Profile]:
        """Read-only view of entry-id -> profile behind one interface,
        in install order.  A view, not a copy: the scan reference reads
        it once per hop and must not pay a copy the index path never
        pays."""
        return MappingProxyType(self._entries.get(interface, {}))

    def local_profiles(self) -> Mapping[str, Profile]:
        return self.entries(self.LOCAL)

    @property
    def interfaces(self) -> List[object]:
        return list(self._entries)

    @property
    def entry_count(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    # -- the index -------------------------------------------------------------

    def stream_entries(self, interface: object, stream: str) -> Dict[str, Profile]:
        """Entry-id -> profile behind ``interface`` requesting ``stream``."""
        return dict(self._by_stream.get(interface, {}).get(stream, {}))

    def stream_interfaces(self, stream: str) -> List[object]:
        """Interfaces with at least one entry requesting ``stream``."""
        return [
            interface
            for interface, streams in self._by_stream.items()
            if streams.get(stream)
        ]

    def has_stream_entries(self, interface: object, stream: str) -> bool:
        return bool(self._by_stream.get(interface, {}).get(stream))

    def _plan(self, interface: object, stream: str) -> _Plan:
        """The compiled matchers for one (interface, stream), cached
        until the next mutation touching the stream's shard."""
        key = (interface, stream)
        version = (
            self._shard_epochs.get(self._shard(stream), 0),
            self._all_epoch,
        )
        cached = self._plans.get(key)
        if cached is not None and cached[1] == version:
            return cached[0]
        bucket = self._by_stream.get(interface, {}).get(stream)
        if not bucket:
            plan = _EMPTY_PLAN
        else:
            compiled = [
                _CompiledEntry(entry_id, profile, stream)
                for entry_id, profile in bucket.items()
            ]
            any_wants_all = any(e.wants_all for e in compiled)
            bound = frozenset().union(
                *(e.carried for e in compiled if not e.wants_all)
            )
            plan = (compiled, any_wants_all, bound)
        self._plans[key] = (plan, version)
        return plan

    # -- forwarding ------------------------------------------------------------

    def decide(self, interface: object, datagram: Datagram) -> ForwardDecision:
        """Should ``datagram`` be forwarded on ``interface``, and with
        which attributes retained?"""
        compiled, any_wants_all, bound = self._plan(interface, datagram.stream)
        if not compiled:
            return ForwardDecision(False)
        payload = datagram.payload
        needed: Set[str] = set()
        forward = False
        bound_size = len(bound)
        for entry in compiled:
            if not entry.covers(payload):
                continue
            forward = True
            if entry.wants_all:
                # Projection can no longer narrow: no later entry can
                # shrink the attribute set back below "everything".
                return ForwardDecision(True, None)
            needed |= entry.carried
            if not any_wants_all and len(needed) == bound_size:
                # The union upper bound is reached; the remaining
                # entries can only contribute attributes already kept.
                break
        if not forward:
            return ForwardDecision(False)
        return ForwardDecision(True, frozenset(needed))

    def decide_batch(
        self, interface: object, batch: ColumnBatch
    ) -> List[ForwardDecision]:
        """Vectorized :meth:`decide` over a same-stream batch.

        Element ``i`` equals ``decide(interface, batch.datagrams[i])``
        — each compiled entry contributes one column-mask evaluation
        for the whole batch instead of one scalar evaluation per
        datagram.
        """
        compiled, __, __ = self._plan(interface, batch.stream)
        n = batch.n
        if not compiled:
            return [ForwardDecision(False)] * n
        forward = [False] * n
        wants_all = [False] * n
        needed: List[Optional[Set[str]]] = [None] * n
        for entry in compiled:
            mask = entry.batch_mask(batch)
            if entry.wants_all:
                for index, hit in enumerate(mask):
                    if hit:
                        forward[index] = True
                        wants_all[index] = True
            else:
                carried = entry.carried
                for index, hit in enumerate(mask):
                    if hit and not wants_all[index]:
                        forward[index] = True
                        acc = needed[index]
                        if acc is None:
                            needed[index] = set(carried)
                        else:
                            acc |= carried
        decisions: List[ForwardDecision] = []
        for index in range(n):
            if not forward[index]:
                decisions.append(ForwardDecision(False))
            elif wants_all[index]:
                decisions.append(ForwardDecision(True, None))
            else:
                decisions.append(ForwardDecision(True, frozenset(needed[index])))
        return decisions

    def local_deliveries(
        self, datagram: Datagram
    ) -> List[Tuple[str, Datagram]]:
        """(subscription_id, projected datagram) for local matches."""
        compiled, __, __ = self._plan(self.LOCAL, datagram.stream)
        if not compiled:
            return []
        payload = datagram.payload
        out: List[Tuple[str, Datagram]] = []
        for entry in compiled:
            if not entry.covers(payload):
                continue
            if entry.wants_all:
                out.append((entry.entry_id, datagram))
            else:
                out.append((entry.entry_id, datagram.project(entry.projection)))
        return out

    def local_deliveries_batch(
        self, batch: ColumnBatch
    ) -> List[List[Tuple[str, Datagram]]]:
        """Vectorized :meth:`local_deliveries` over a same-stream batch.

        Element ``i`` equals ``local_deliveries(batch.datagrams[i])``
        (same subscriptions, same order — entries append in compiled
        install order).  Projection work is shared across the bucket's
        subscriptions: per datagram, each distinct projection set is
        materialised once and reused by every entry requesting it.
        """
        compiled, __, __ = self._plan(self.LOCAL, batch.stream)
        out: List[List[Tuple[str, Datagram]]] = [[] for __ in range(batch.n)]
        if not compiled:
            return out
        datagrams = batch.datagrams
        #: per datagram, projection set -> the shared projected copy.
        projected: List[Optional[Dict[FrozenSet[str], Datagram]]] = [
            None
        ] * batch.n
        for entry in compiled:
            mask = entry.batch_mask(batch)
            entry_id = entry.entry_id
            if entry.wants_all:
                for index, hit in enumerate(mask):
                    if hit:
                        out[index].append((entry_id, datagrams[index]))
            else:
                keep = entry.projection
                for index, hit in enumerate(mask):
                    if not hit:
                        continue
                    cache = projected[index]
                    if cache is None:
                        cache = {}
                        projected[index] = cache
                    copy = cache.get(keep)
                    if copy is None:
                        copy = datagrams[index].project(keep)
                        cache[keep] = copy
                    out[index].append((entry_id, copy))
        return out
