"""Seeded input generation for the benchmark workloads.

Everything a run feeds the system is made here: the overlay topology
and the placement of processors, sources and users, the standing
queries (as CQL text), the control-plane plan (withdrawals and
resubmissions, broker failures) and the source feed cut into replay
slices (see :func:`make_inputs` for what the CLI seed draws).  The
session in :mod:`cosmosbench.session` receives only an :class:`Inputs`
value, so two runs with one seed drive the system with identical inputs.

The repository's own generators are used where they exist
(``barabasi_albert``, ``sensorscope_catalog``, ``SensorScopeReplayer``,
``QueryWorkload``).  What it lacks lives here: band joins (the repo's
join generator equates the per-station ``station`` attribute, so its
joins never match), CQL-text rendering of every generated query and the
choice of pure brokers to fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.cbn.datagram import Datagram
from repro.cql.schema import Catalog
from repro.cql.text import to_cql
from repro.overlay.topology import Topology, barabasi_albert
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import SensorScopeReplayer, sensorscope_catalog

WORKLOADS = ("control_churn", "replay_joins")

#: Float channels a band join may compare across two stations.
BAND_CHANNELS = ("ambient_temperature", "relative_humidity", "soil_moisture")
#: Band half-widths a band join may use.
BAND_WIDTHS = (0.02, 0.05, 0.1)


@dataclass(frozen=True)
class Sizes:
    """The input size of one workload; recorded with every result."""

    brokers: int = 300
    processors: int = 8
    streams: int = 63
    #: range per-stream tuple rates are drawn from, tuples per second
    rates: Tuple[float, float] = (0.5, 4.0)
    user_brokers: int = 100
    #: standing queries installed at set-up
    queries: int = 200
    #: zipf skew of every query choice (0 = uniform popularity)
    skew: float = 1.5
    join_fraction: float = 0.15
    aggregate_fraction: float = 0.15
    #: window menu in seconds; empty keeps the generator's default
    windows: Tuple[float, ...] = ()
    band_joins: bool = False
    #: control plane: withdraw-and-resubmit pairs, pure-broker failures
    #: and evacuations of the hottest processor (one processor fails too)
    churn: int = 200
    broker_failures: int = 7
    evacuations: int = 3
    #: feed: seconds of sensor time, and tuples per replay slice
    feed_seconds: float = 8.0
    slice_len: int = 12


SIZES: Dict[str, Sizes] = {
    # The control plane does almost all the work; zipf skew makes groups
    # form and re-form, which drives the unsubscribe/resubscribe cascade.
    "control_churn": Sizes(
        queries=240, broker_failures=9, evacuations=3,
        feed_seconds=40.0, slice_len=8,
    ),
    # Uniform popularity (no merging) and windowed band joins and
    # aggregates only.  Fewer, faster stations fill each window with
    # tens of tuples, which every join arrival scans and every aggregate
    # arrival recomputes over, while narrow bands keep results (and so
    # their routing to users) few: the SPE does most of the replay work.
    "replay_joins": Sizes(
        streams=24, rates=(2.0, 8.0), queries=120, skew=0.0,
        join_fraction=0.6, aggregate_fraction=0.4,
        windows=(8.0, 12.0, 16.0), band_joins=True, evacuations=1,
        feed_seconds=20.0, slice_len=10,
    ),
}


def tiny(workload: str) -> Sizes:
    """A second-long version of ``workload`` for the benchmark's own tests."""
    return replace(
        SIZES[workload], brokers=40, processors=3, streams=8, user_brokers=12,
        queries=16, churn=4, broker_failures=2, evacuations=2, slice_len=6,
        feed_seconds=min(SIZES[workload].feed_seconds, 10.0),
    )


#: User sessions drawn per seed.  Episodes take them in order, so a
#: run's figures cover as many sessions as its episodes, not one draw.
SESSIONS = 12


@dataclass
class Session:
    """One user session: who submits which query, and the churn."""

    #: (query id, CQL text, user broker) installed at set-up
    standing: List[Tuple[str, str, int]]
    #: (query id withdrawn, id it is resubmitted under, CQL text, user broker)
    churn: List[Tuple[str, str, str, int]]

    def live(self) -> Dict[str, str]:
        """Query id -> CQL text of every query the session leaves alive."""
        alive = {qid: text for qid, text, __ in self.standing}
        for old, new, text, __ in self.churn:
            del alive[old]
            alive[new] = text
        return alive


@dataclass
class Inputs:
    """Everything one run hands to the system."""

    workload: str
    seed: int
    sizes: Sizes
    topology: Topology
    catalog: Catalog
    processors: List[int]
    #: stream name -> node hosting its source
    sources: Dict[str, int]
    users: List[int]
    sessions: List[Session]
    broker_failures: List[int]
    slices: List[List[Datagram]] = field(default_factory=list)

    @property
    def feed(self) -> List[Datagram]:
        return [datagram for chunk in self.slices for datagram in chunk]

    def record(self) -> Dict[str, object]:
        """Input sizes as they went into the run record."""
        return {
            "brokers": len(self.topology),
            "processors": len(self.processors),
            "streams": len(self.sources),
            "user_brokers": len(self.users),
            "sessions": len(self.sessions),
            "standing_queries": len(self.sessions[0].standing),
            "churn_pairs": len(self.sessions[0].churn),
            "broker_failures": len(self.broker_failures),
            "processor_failures": 1,
            "evacuations": self.sizes.evacuations,
            "feed_tuples": sum(len(chunk) for chunk in self.slices),
            "slices": len(self.slices),
            "slice_len": self.sizes.slice_len,
            "skew": self.sizes.skew,
        }


def make_inputs(workload: str, seed: int, sizes: Optional[Sizes] = None) -> Inputs:
    """All inputs of ``workload`` for ``seed`` (same seed, same inputs).

    The deployment (topology, stream rates, where processors, sources
    and user brokers sit), the population of query texts and the
    failure targets are the workload's fixed scenario.  The seed draws
    what user sessions vary in many small choices: which user submits
    which query, which queries are withdrawn and resubmitted by another
    user, and the feed's readings.  Coarse draws per seed (a topology, a
    query population, one failed processor, or a submission order, which
    decides the greedy grouping and so the size of the largest merged
    group) would make the figures follow that one draw rather than the
    system, and the spread between seeds would hide a regression.
    """
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sizes = sizes or SIZES[workload]
    scenario = random.Random(f"{workload}:scenario")
    rng = random.Random(f"{workload}:{seed}")
    catalog = sensorscope_catalog(
        sizes.streams, random.Random(scenario.random()), *sizes.rates
    )
    topology = barabasi_albert(sizes.brokers, 2, random.Random(scenario.random()))
    nodes = sorted(topology.nodes)
    scenario.shuffle(nodes)
    processors = sorted(nodes[: sizes.processors])
    streams = sorted(catalog.stream_names)
    sources = dict(zip(streams, nodes[sizes.processors:]))
    free = nodes[sizes.processors + len(streams):]
    if len(free) < sizes.user_brokers:
        raise ValueError("too few brokers for the processors, sources and users")
    users = sorted(scenario.sample(free, sizes.user_brokers))

    queries = _QueryMaker(catalog, sizes, scenario)
    texts = [queries.text() for __ in range(sizes.queries)]
    sessions = [user_session(texts, users, sizes.churn, rng) for __ in range(SESSIONS)]

    pinned = set(processors) | set(sources.values()) | set(users)
    broker_failures = pure_broker_failures(
        topology, pinned, sizes.broker_failures, scenario
    )

    feed = SensorScopeReplayer(catalog, random.Random(rng.random())).feed(
        sizes.feed_seconds
    )
    slices = [
        feed[start: start + sizes.slice_len]
        for start in range(0, len(feed), sizes.slice_len)
    ]
    return Inputs(
        workload=workload,
        seed=seed,
        sizes=sizes,
        topology=topology,
        catalog=catalog,
        processors=processors,
        sources=sources,
        users=users,
        sessions=sessions,
        broker_failures=broker_failures,
        slices=slices,
    )


def user_session(
    texts: List[str], users: List[int], churn: int, rng: random.Random
) -> Session:
    """Each query from a random user, then ``churn`` withdrawals, each
    resubmitted by another random user.

    A withdrawn query comes back, so churn re-forms groups while the
    query population stays the scenario's.  Queries are withdrawn in
    shuffled passes over the population (again under their new id in a
    later pass), so every session withdraws members of the large merged
    groups about equally often.
    """
    standing = [(f"q{index}", text, rng.choice(users)) for index, text in enumerate(texts)]
    order: List[int] = []
    while len(order) < churn:
        order += rng.sample(range(len(texts)), len(texts))
    live = [qid for qid, __, __ in standing]
    pairs = []
    for index, slot in enumerate(order[:churn]):
        pairs.append((live[slot], f"r{index}", texts[slot], rng.choice(users)))
        live[slot] = f"r{index}"
    return Session(standing, pairs)


class _QueryMaker:
    """Draws queries and renders them to CQL text.

    Select-project queries and windowed aggregates come from the
    repository's :class:`QueryWorkload`; band joins are drawn here when
    the workload asks for them.
    """

    def __init__(self, catalog: Catalog, sizes: Sizes, rng: random.Random) -> None:
        self.sizes = sizes
        self.rng = rng
        self.catalog = catalog
        config = WorkloadConfig(
            skew=sizes.skew,
            join_fraction=0.0 if sizes.band_joins else sizes.join_fraction,
            aggregate_fraction=sizes.aggregate_fraction,
            seed=rng.randrange(2 ** 31),
        )
        if sizes.windows:
            config = replace(config, window_choices=sizes.windows)
        self.workload = QueryWorkload(self.catalog, config)

    def text(self) -> str:
        if self.sizes.band_joins and self.rng.random() < self.sizes.join_fraction:
            return self._band_join()
        return to_cql(self.workload.next_query())

    def _band_join(self) -> str:
        """Two stations whose readings of one channel lie within a band."""
        rng = self.rng
        left, right = sorted(rng.sample(sorted(self.catalog.stream_names), 2))
        channel = rng.choice(BAND_CHANNELS)
        width = rng.choice(BAND_WIDTHS)
        shown = rng.choice(("wind_speed", "rain_meter", channel))
        windows = [rng.choice(self.sizes.windows) for __ in range(2)]
        diff = f"{left}.{channel} - {right}.{channel}"
        text = (
            f"SELECT {left}.station, {right}.{shown} "
            f"FROM {left} [Range {windows[0]:g} Seconds], "
            f"{right} [Range {windows[1]:g} Seconds] "
            f"WHERE {diff} <= {width:g} AND {diff} >= -{width:g}"
        )
        if rng.random() < 0.5:
            text += f" AND {left}.wind_speed >= {rng.choice((2, 4, 6))}"
        return text


def pure_broker_failures(
    topology: Topology, pinned: set, count: int, rng: random.Random
) -> List[int]:
    """``count`` brokers hosting nothing whose removal, one after the
    other, leaves the physical topology connected (so every repair can
    reconnect the survivors)."""
    survivors = Topology()
    for node in topology.nodes:
        survivors.add_node(node)
    for u, v in topology.edges:
        survivors.add_edge(u, v, topology.weight(u, v))
    candidates = sorted(node for node in topology.nodes if node not in pinned)
    rng.shuffle(candidates)
    chosen: List[int] = []
    for node in candidates:
        if len(chosen) == count:
            break
        trial = Topology()
        for other in survivors.nodes:
            if other != node:
                trial.add_node(other)
        for u, v in survivors.edges:
            if node not in (u, v):
                trial.add_edge(u, v, survivors.weight(u, v))
        if trial.is_connected():
            survivors = trial
            chosen.append(node)
    if len(chosen) < count:
        raise ValueError(f"only {len(chosen)} brokers can fail without a partition")
    return chosen
