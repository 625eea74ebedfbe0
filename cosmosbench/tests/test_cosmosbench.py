"""The benchmark's own tests, on a few-second version of every workload.

    python3 -m pytest cosmosbench/tests -q
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from cosmosbench.inputs import WORKLOADS, make_inputs, tiny  # noqa: E402
from cosmosbench.run import run_benchmark  # noqa: E402
from cosmosbench.session import Episode, digests, play, reference_digests, score  # noqa: E402
from cosmosbench.speed import REFERENCE_S, Speedometer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

DETERMINISTIC = {
    0: ("link_cost_per_tuple", "control_bytes_per_query"),
    1: ("core.groups", "cbn.routing_entries"),
}


def tiny_run(workload, seed, trace):
    return run_benchmark(workload, seed, 0.0, bool(trace), sizes=tiny(workload))["result"]


@pytest.fixture(scope="module")
def runs():
    """(workload, seed, trace) -> result line, computed once."""
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = tiny_run(workload, seed, trace)
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(runs, workload, trace):
    result = runs(workload, 1, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_workloads_match_the_declared_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counts_repeat_for_a_seed_and_follow_it(runs, workload, trace):
    first, other = runs(workload, 1, trace), runs(workload, 2, trace)
    again = tiny_run(workload, 1, trace)
    for name in DETERMINISTIC[trace]:
        value = first["metrics"][name]["value"]
        assert again["metrics"][name]["value"] == value, name
    changed = [
        name for name in DETERMINISTIC[trace]
        if other["metrics"][name]["value"] != first["metrics"][name]["value"]
    ]
    assert changed, "a different seed left every deterministic count unchanged"


def test_same_seed_same_inputs():
    a, b = (make_inputs("replay_joins", 7, tiny("replay_joins")) for __ in range(2))
    assert a.sessions == b.sessions
    assert [d.payload for d in a.feed] == [d.payload for d in b.feed]


def test_canary_one_altered_delivery_counts_as_an_error():
    inputs = make_inputs("replay_joins", 1, tiny("replay_joins"))
    reference = reference_digests(inputs)
    episode = Episode()
    system = play(inputs, episode)
    handles = [h for h in system.queries if h.results]
    episode.digests = digests(system)
    assert score([episode], inputs, reference)[1] == 0

    victim = handles[0].results[0]
    key = next(iter(victim.payload))
    victim.payload[key] = -1
    episode.digests = digests(system)
    attempted, failed, wrong = score([episode], inputs, reference)
    assert failed == 1 and wrong == [[handles[0].query_id]]
    assert failed / attempted > 0


def test_an_op_is_scaled_by_the_probe_readings_either_side_of_it():
    speed = Speedometer()
    speed.readings = [REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S]
    assert speed.scale(0) == pytest.approx(1 / 2)
    assert speed.scale(1) == pytest.approx(2 / 5)
    assert speed.tick() == 3 and speed.readings[3] > 0
