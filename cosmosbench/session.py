"""One benchmark episode: a closed-loop user session through the public API.

An episode builds the deployment and installs one user session's
standing queries (set-up), runs the control-plane plan (withdraw and
resubmit, broker failures, a processor failure, live group migrations)
and then replays the feed slice by slice.  One caller issues every operation and each
call returns only after all the routing, SPE evaluation and user
delivery it caused, so the recorded wall time of a call is its latency.

Control operations come before the feed so every query alive at the end
has seen the whole feed; that is what lets :func:`reference_digests`
check every delivered result against an unmerged standalone SPE.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cql.parser import parse_query
from repro.overlay.tree import DisseminationTree
from repro.spe.engine import StreamProcessingEngine
from repro.system import fault, loadmgr
from repro.system.cosmos import CosmosSystem
from repro.system.monitor import SystemMonitor

from cosmosbench.inputs import Inputs, Session
from cosmosbench.speed import Speedometer

clock = time.perf_counter


@dataclass
class Episode:
    """What one episode measured; times are seconds."""

    #: index of the input session it ran
    session: int = 0
    #: (kind, wall time, core-speed scale) of each timed op in call order;
    #: the first ``setup_ops`` ("build", then the standing submits) are
    #: the set-up
    ops: List[Tuple[str, float, float]] = field(default_factory=list)
    setup_ops: int = 0
    #: probe time of each core-speed reading (see :mod:`cosmosbench.speed`)
    probe_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: deterministic counts read from the system's public surface
    counts: Dict[str, float] = field(default_factory=dict)
    #: query id -> digest of the result multiset it received
    digests: Dict[str, str] = field(default_factory=dict)

    def times(self, kind: str, scaled: bool = True) -> List[float]:
        """Time of every op of ``kind`` that succeeded."""
        return [
            wall * (scale if scaled else 1.0)
            for name, wall, scale in self.ops if name == kind
        ]

    def setup_s(self, scaled: bool = True) -> float:
        return sum(
            wall * (scale if scaled else 1.0)
            for __, wall, scale in self.ops[: self.setup_ops]
        )

    def busy_s(self) -> float:
        """Scaled time spent inside timed ops."""
        return sum(wall * scale for __, wall, scale in self.ops)


class Recorder:
    """Times each operation; ``on_op`` lets the tracer open a root span.

    Core-speed readings are taken between operations, never inside one.
    """

    def __init__(self, episode: Episode, on_op: Optional[Callable] = None) -> None:
        self.episode = episode
        self.on_op = on_op
        self.speed = Speedometer()
        #: (kind, start, end, index of the reading before it) of each op
        #: that succeeded
        self.spans: List[Tuple[str, float, float, int]] = []

    def run(self, kind: str, call: Callable, *args) -> None:
        """Call ``call(*args)``; record its wall time, or its failure."""
        self.episode.attempted += 1
        reading = self.speed.tick()
        span = self.on_op(kind) if self.on_op else None
        start = clock()
        try:
            call(*args)
        except Exception as exc:  # a failed op is counted, the run goes on
            self.episode.failed += 1
            self.episode.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        else:
            self.spans.append((kind, start, clock(), reading))
        if span is not None:
            span.close()

    def finish(self) -> None:
        """Scale every op by the core speed read around it."""
        self.speed.tick()
        speed = self.speed
        self.episode.ops = [
            (kind, end - start, speed.scale(reading))
            for kind, start, end, reading in self.spans
        ]
        self.episode.probe_s = speed.readings


def set_up(inputs: Inputs, session: Session, recorder: Recorder) -> CosmosSystem:
    """Build the deployment and install the standing queries."""
    reading = recorder.speed.tick()
    start = clock()
    tree = DisseminationTree.minimum_spanning(inputs.topology)
    system = CosmosSystem(tree, inputs.processors, topology=inputs.topology)
    for stream in sorted(inputs.sources):
        system.add_source(inputs.catalog.get(stream), inputs.sources[stream])
    recorder.spans.append(("build", start, clock(), reading))
    for query_id, text, user in session.standing:
        recorder.run("submit", system.submit, text, user, query_id)
    return system


def migrate_group(system: CosmosSystem, source: int, group_id: str, index: int) -> None:
    """Live-migrate one group off ``source``.

    The group is priced onto the cheapest other processor, quarantined,
    its state handed off over a migration channel and cut over; the move
    completes only on a gap-free channel close.
    """
    group = next(
        g for g in system.processors[source].manager.groups if g.group_id == group_id
    )
    target = loadmgr.choose_target(system, group, exclude={source})
    if target is None:
        raise loadmgr.LoadManagementError("no migration target")
    members = loadmgr.quarantine_for_migration(system, source, group_id)
    migration = loadmgr.GroupMigration(
        f"m{index}", group_id, source, target, members=members
    )
    chunks = loadmgr.capture_group_state(system, source, group_id)
    channel = loadmgr.MigrationChannel()
    for chunk in chunks:
        channel.send(chunk, float(index))
    migration.channel = channel
    migration.start_drain()
    if channel.close(float(index)):
        raise loadmgr.LoadManagementError("state handoff left gaps")
    migration.cut_over()
    loadmgr.cutover_group(system, migration)
    migration.complete()


def hottest_processor(system: CosmosSystem) -> int:
    loads = SystemMonitor(system).processor_loads()
    return max(loads, key=lambda load: (load.merged_rate, -load.node_id)).node_id


def coolest_processor(system: CosmosSystem) -> int:
    loads = SystemMonitor(system).processor_loads()
    return min(loads, key=lambda load: (load.merged_rate, load.node_id)).node_id


def evacuate_hottest(system: CosmosSystem, recorder: Recorder) -> None:
    """Migrate every group off the most loaded processor, one by one."""
    hottest = hottest_processor(system)
    groups = [group.group_id for group in system.processors[hottest].manager.groups]
    for index, group_id in enumerate(groups):
        recorder.run("migrate", migrate_group, system, hottest, group_id, index)


def fail_coolest(system: CosmosSystem) -> None:
    """Fail the least loaded processor; its queries are re-homed."""
    fault.fail_processor(system, coolest_processor(system))


def control_phase(
    system: CosmosSystem, inputs: Inputs, session: Session, recorder: Recorder
) -> None:
    """Withdraw-and-resubmit churn in rounds, each round followed by a
    failure and some rounds by an evacuation.  Spreading failures and
    migrations over the phase, rather than running them back to back,
    samples their latency across the whole run instead of one moment.
    Halfway through, the least loaded processor fails: re-homing its
    queries costs about what a broker repair costs, where failing the
    processor of the most popular streams would spend seconds on one
    sample."""
    failures = [(fault.fail_broker, (system, node)) for node in inputs.broker_failures]
    middle = len(failures) // 2
    failures.insert(middle, (fail_coolest, (system,)))
    rounds = max(len(failures), inputs.sizes.evacuations, 1)
    evacuations = {
        ((index + 1) * rounds) // inputs.sizes.evacuations - 1
        for index in range(inputs.sizes.evacuations)
    }
    churn = session.churn
    for index in range(rounds):
        for old, new, text, user in churn[
            index * len(churn) // rounds: (index + 1) * len(churn) // rounds
        ]:
            recorder.run("withdraw", system.withdraw, old)
            recorder.run("submit", system.submit, text, user, new)
        if index < len(failures):
            fail, args = failures[index]
            recorder.run("repair", fail, *args)
        if index in evacuations:
            evacuate_hottest(system, recorder)


def play(
    inputs: Inputs, episode: Episode, index: int = 0, on_op: Optional[Callable] = None
) -> CosmosSystem:
    """Set up, run the control plan and replay the feed for input
    session ``index``; returns the system."""
    episode.session = index % len(inputs.sessions)
    session = inputs.sessions[episode.session]
    recorder = Recorder(episode, on_op)
    system = set_up(inputs, session, recorder)
    episode.setup_ops = len(recorder.spans)
    control_phase(system, inputs, session, recorder)
    network = system.network
    episode.counts.update(
        control_bytes=network.control_stats.total_bytes(),
        routing_entries=float(network.routing_state_size()),
        groups=float(sum(p.group_count for p in system.processors.values())),
        queries_submitted=float(sum(kind == "submit" for kind, *__ in recorder.spans)),
    )
    for chunk in inputs.slices:
        recorder.run("slice", system.replay, chunk)
    recorder.finish()
    network = system.network
    episode.counts.update(
        data_cost=network.data_stats.weighted_cost(),
        data_msgs=float(network.data_stats.total_messages()),
    )
    return system


def run_episode(
    inputs: Inputs, index: int = 0, on_op: Optional[Callable] = None
) -> Episode:
    """Run one full session over ``inputs``; returns its measurements."""
    # Start every episode from a collected heap, so the collector's work
    # in it does not depend on what earlier episodes left behind.
    gc.collect()
    episode = Episode()
    system = play(inputs, episode, index, on_op)
    episode.digests = digests(system)
    return episode


def digests(system: CosmosSystem) -> Dict[str, str]:
    """Query id -> digest of the results each live query received."""
    return {h.query_id: multiset_digest(h.results) for h in system.queries}


def multiset_digest(results) -> str:
    """Order-free digest of a result multiset (timestamp and payload)."""
    rows = sorted(
        repr((r.timestamp, sorted(r.payload.items()))) for r in results
    )
    return hashlib.sha1("\n".join(rows).encode()).hexdigest()


def reference_digests(inputs: Inputs) -> Dict[str, str]:
    """CQL text -> digest of its results when it runs unmerged on one
    standalone SPE over the feed.  Every session ends with the same
    population of texts alive, so one run serves them all."""
    texts = sorted({text for s in inputs.sessions for text in s.live().values()})
    engine = StreamProcessingEngine(inputs.catalog)
    for index, text in enumerate(texts):
        engine.register(parse_query(text).canonical(inputs.catalog), f"t{index}")
    results = engine.run(inputs.feed)
    return {text: multiset_digest(results[f"t{i}"]) for i, text in enumerate(texts)}


def score(episodes: List[Episode], inputs: Inputs, reference: Dict[str, str]):
    """Operations attempted and failed over ``episodes``, and the wrong
    queries of each.  A live query counts as one attempt; it fails when
    its results differ from the reference.  A control operation fails
    when it raised."""
    attempted = failed = 0
    wrong: List[List[str]] = []
    for episode in episodes:
        live = inputs.sessions[episode.session].live()
        expected = {qid: reference[text] for qid, text in live.items()}
        names = sorted(set(episode.digests) | set(expected))
        wrong.append([q for q in names if episode.digests.get(q) != expected.get(q)])
        attempted += episode.attempted + len(expected)
        failed += episode.failed + len(wrong[-1])
    return attempted, failed, wrong
