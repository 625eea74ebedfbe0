"""Recovery-mode chaos: self-healing runs under the exact delivery oracle."""

import pytest

from repro.overlay.topology import Topology
from repro.overlay.tree import DisseminationTree
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, StreamSchema
from repro.sim import (
    ChaosConfig,
    FaultEvent,
    InjectEvent,
    PunctuationEvent,
    VirtualNetwork,
    generate_schedule,
    run_chaos,
    run_schedule,
    shrink_failing_schedule,
)
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.reliability import heal_partition

RECOVERY = ChaosConfig(seed=0, recovery=True)


class TestScheduleAnnotations:
    def test_lossy_schedule_carries_no_transport_metadata(self):
        for event in generate_schedule(ChaosConfig(seed=0)).events:
            assert not isinstance(event, PunctuationEvent)
            if isinstance(event, InjectEvent):
                assert event.seq is None and event.sent is None

    def test_recovery_flag_does_not_perturb_the_lossy_draws(self):
        # Same seed, same times/streams/payloads — the recovery flag
        # only annotates; it must never shift the perturbation RNG.
        lossy = [
            (e.time, e.stream, e.payload, e.duplicate)
            for e in generate_schedule(ChaosConfig(seed=3)).events
            if isinstance(e, InjectEvent)
        ]
        recovery = [
            (e.time, e.stream, e.payload, e.duplicate)
            for e in generate_schedule(ChaosConfig(seed=3, recovery=True)).events
            if isinstance(e, InjectEvent)
        ]
        assert lossy == recovery

    def test_sequence_numbers_are_per_stream_and_gapless(self):
        from repro.sim import DropEvent

        events = generate_schedule(RECOVERY).events
        seen = {}
        for event in sorted(
            (
                e
                for e in events
                if isinstance(e, (InjectEvent, DropEvent))
                and getattr(e, "seq", None) is not None
                and not getattr(e, "duplicate", False)
            ),
            key=lambda e: e.sent,
        ):
            seen.setdefault(event.stream, []).append(event.seq)
        for stream, seqs in seen.items():
            assert seqs == list(range(len(seqs))), stream

    def test_punctuation_announces_each_streams_top_main_seq(self):
        events = generate_schedule(RECOVERY).events
        punct = [e for e in events if isinstance(e, PunctuationEvent)]
        assert {p.stream for p in punct} == {"Temp", "Humid"}
        for p in punct:
            assert p.time < RECOVERY.epilogue_start
            main_seqs = [
                e.seq
                for e in events
                if getattr(e, "seq", None) is not None
                and e.stream == p.stream
                and e.time < RECOVERY.epilogue_start
                and not isinstance(e, PunctuationEvent)
            ]
            assert p.top == max(main_seqs)


class TestRecoveryRuns:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_delivery_under_chaos(self, seed):
        report = run_chaos(ChaosConfig(seed=seed, recovery=True))
        assert report.ok, "\n".join(report.violations)
        assert report.reliability is not None
        # Every drop in the schedule was healed by a retransmission.
        assert report.reliability["retransmits"] >= report.counters.drops
        assert report.reliability["gaps_abandoned"] == 0

    def test_replay_is_byte_identical(self):
        a = run_chaos(RECOVERY)
        b = run_chaos(RECOVERY)
        assert a.trace.render() == b.trace.render()
        assert a.trace.digest() == b.trace.digest()

    def test_known_seed_digest_pinned(self):
        # Cross-process determinism canary (string-seeded RNGs, ordered
        # timers): a digest change means recovery replays broke.
        assert run_chaos(RECOVERY).trace.digest() == "259e9fa81b34"

    def test_crashes_are_detector_driven(self):
        report = run_chaos(RECOVERY)
        lines = report.trace.lines
        assert any("-> crashed" in line for line in lines)
        assert any(line.startswith("suspect ") for line in lines)
        assert any(
            line.startswith("repair ") and "-> applied" in line
            for line in lines
        )
        assert report.counters.faults_applied == RECOVERY.n_faults
        assert report.reliability["nodes_suspected"] == RECOVERY.n_faults

    def test_duplicates_are_suppressed_not_delivered(self):
        report = run_chaos(RECOVERY)
        assert (
            report.reliability["duplicates_suppressed"]
            == report.counters.duplicates
        )

    def test_convergence_time_precedes_the_epilogue(self):
        for seed in range(5):
            config = ChaosConfig(seed=seed, recovery=True)
            report = run_chaos(config)
            assert report.convergence_time is not None
            assert report.convergence_time < config.epilogue_start + 10.0

    def test_punctuation_heals_trailing_drops(self):
        # Seed 7's Temp stream loses its last two tuples; only the
        # punctuation NACK round can expose those gaps.
        report = run_chaos(ChaosConfig(seed=7, recovery=True))
        assert report.ok, "\n".join(report.violations)
        assert any(
            line.startswith("punct ") and "-> 2 gaps" in line
            for line in report.trace.lines
        )

    def test_report_render_names_recovery(self):
        rendered = run_chaos(RECOVERY).render()
        assert "recovery" in rendered
        assert "converged t=" in rendered


class TestRecoveryShrinking:
    def test_post_quiescence_fault_shrinks_to_itself(self):
        # A processor crash after quiescence violates the convergence
        # invariant (detector-driven repair moves the routing epoch);
        # ddmin must isolate exactly that event.
        config = ChaosConfig(seed=0, recovery=True)
        events = list(generate_schedule(config).events)
        rogue = FaultEvent(config.epilogue_start + 5.0, "processor", 0)
        events.append(rogue)
        events.sort(key=lambda e: e.time)
        assert not run_schedule(config, events).ok
        minimal = shrink_failing_schedule(config, events, max_runs=150)
        assert minimal == [rogue]

    def test_shrunken_sub_schedules_stay_consistent(self):
        # Deleting arbitrary events must not wedge the transport: a
        # NACK for a send the shrinker cut is abandoned immediately,
        # and the oracle reconstructs its expectation from the same
        # event list, so sub-schedules remain self-consistent.
        config = ChaosConfig(seed=0, recovery=True)
        events = generate_schedule(config).events
        report = run_schedule(config, events[::2])
        assert isinstance(report.ok, bool)  # terminated, verdict either way


def build_chain(system_type=CosmosSystem):
    """0(proc) - 1(src) - 2 - 3(user): removing 2 strands the user."""
    topo = Topology()
    edges = [(0, 1), (1, 2), (2, 3)]
    for u, v in edges:
        topo.add_edge(u, v, 1.0)
    tree = DisseminationTree(edges, {e: 1.0 for e in edges})
    system = system_type(tree, processor_nodes=[0], topology=topo)
    system.add_source(
        StreamSchema("Temp", [Attribute("station", "int", 0, 9)], rate=1.0), 1
    )
    system.submit(
        parse_query("SELECT T.station FROM Temp [Now] T"),
        user_node=3,
        name="q",
    )
    return system


class TestDegradedMode:
    def test_partition_degrades_instead_of_refusing(self):
        vnet = VirtualNetwork(build=build_chain, recovery=True)
        # Crash the cut vertex; the sweep suspects it, the repair finds
        # the survivors partitioned and quarantines the stranded query.
        vnet.execute([FaultEvent(1.0, "broker", 2)])
        assert vnet.counters.faults_applied == 1
        assert vnet.counters.faults_refused == 0
        assert any("-> degraded [q]" in line for line in vnet.trace.lines)
        for system in vnet.systems:
            assert system.query("q").status is QueryStatus.DEGRADED
        assert vnet.state.counters.queries_quarantined == 1

    def test_degraded_query_resumes_on_heal(self):
        vnet = VirtualNetwork(build=build_chain, recovery=True)
        vnet.execute([FaultEvent(1.0, "broker", 2)])
        for system in vnet.systems:
            system.topology.add_edge(1, 3, 1.0)
            assert heal_partition(system) == ["q"]
            assert system.query("q").status is QueryStatus.ACTIVE
