"""End-to-end COSMOS benchmark.

    python3 cosmosbench/run.py --workload control_churn --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports the system from its
``src/``.  One process and one thread drive the workload as a closed
loop through the public user path (``CosmosSystem.submit`` /
``withdraw`` / ``replay``, ``repro.system.fault``,
``repro.system.loadmgr``) with production defaults only.

A run repeats episodes (see :mod:`cosmosbench.session`) for
``--seconds``, at least three, each on the seed's next user session, and
pools their samples; it starts no episode that would end past
``--seconds``.  After the timed episodes, each live query's results are
checked against an unmerged standalone SPE run over the same feed.

Every time metric is the op's wall time scaled to a reference core
speed read next to it (:mod:`cosmosbench.speed`), because a shared
host's core speed changes under the run; the run record also keeps the
unscaled figures.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced episodes and prints every per-layer metric, with
``trace.overhead_frac`` from the pair.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is the run record, also written
under ``.cosmosbench/`` with the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".cosmosbench")
#: Episodes every untraced run makes, whatever ``--seconds`` says; the
#: deterministic byte costs average over these first sessions.
MIN_EPISODES = 3

#: end-to-end metric -> (unit, op kind and percentile, or None)
END_TO_END: Dict[str, Tuple[str, Optional[Tuple[str, float]]]] = {
    "setup_s": ("s", None),
    "peak_rss_mb": ("MB", None),
    "submit_ms_p50": ("ms", ("submit", 0.50)),
    "submit_ms_p95": ("ms", ("submit", 0.95)),
    "withdraw_ms_p50": ("ms", ("withdraw", 0.50)),
    "withdraw_ms_p95": ("ms", ("withdraw", 0.95)),
    "repair_ms_p50": ("ms", ("repair", 0.50)),
    "migrate_ms_p50": ("ms", ("migrate", 0.50)),
    "control_bytes_per_query": ("B", None),
    "tuples_per_s": ("tuples/s", None),
    "slice_ms_p50": ("ms", ("slice", 0.50)),
    "slice_ms_p95": ("ms", ("slice", 0.95)),
    "link_cost_per_tuple": ("weighted_B", None),
}


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile with linear interpolation between the closest ranks."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return None
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(episodes, feed_tuples: int, peak_mb: float, scaled: bool = True):
    """Metric values, sample counts and per-episode spreads.

    Times are scaled to the reference core speed (see
    :mod:`cosmosbench.speed`) unless ``scaled`` is false.  A p50 pools
    every sample of the run.  A p95 is taken in each episode (every
    episode has at least 200 samples of each p95 kind) and the median
    across episodes is reported: a few seconds of disturbance on the
    machine then inflate one episode's tail, not the run's figure.
    """
    values: Dict[str, float] = {}
    samples: Dict[str, object] = {}
    firsts = episodes[:MIN_EPISODES]
    per_episode = {
        "setup_s": [e.setup_s(scaled) for e in episodes],
        "tuples_per_s": [
            feed_tuples / sum(e.times("slice", scaled)) for e in episodes
        ],
    }
    for name, (unit, op) in END_TO_END.items():
        if op is None:
            continue
        kind, q = op
        series = [e.times(kind, scaled) for e in episodes]
        per_episode[name] = [percentile(s, q) * 1e3 for s in series if s]
        if q < 0.9:
            pooled = [sample for s in series for sample in s]
            values[name] = percentile(pooled, q) * 1e3
            samples[name] = len(pooled)
        else:
            values[name] = statistics.median(per_episode[name])
            samples[name] = {"per_episode_min": min(map(len, series))}
    values["setup_s"] = statistics.median(per_episode["setup_s"])
    values["tuples_per_s"] = statistics.median(per_episode["tuples_per_s"])
    values["peak_rss_mb"] = peak_mb
    values["control_bytes_per_query"] = statistics.mean(
        e.counts["control_bytes"] / e.counts["queries_submitted"] for e in firsts
    )
    values["link_cost_per_tuple"] = statistics.mean(
        e.counts["data_cost"] / feed_tuples for e in firsts
    )
    spreads = {name: spread(series) for name, series in per_episode.items()}
    return values, samples, spreads


def layer_metrics(traced, untraced) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced episodes."""
    per_episode = [tracer.layer_metrics() for __, tracer in traced]
    out = {
        name: statistics.median(m[name] for m in per_episode)
        for name in per_episode[0]
    }
    counts = traced[0][0].counts
    out["core.groups"] = counts["groups"]
    out["cbn.routing_entries"] = counts["routing_entries"]
    out["cbn.control_bytes"] = counts["control_bytes"]
    out["cbn.data_msgs"] = counts["data_msgs"]
    out["loadmgr.migrations"] = float(len(traced[0][0].times("migrate")))
    out["trace.overhead_frac"] = (
        statistics.median(e.busy_s() for e, __ in traced)
        / statistics.median(e.busy_s() for e in untraced)
        - 1.0
    )
    return out


def layer_units() -> Dict[str, str]:
    from cosmosbench.tracing import CALLS_NAME, TARGETS

    units: Dict[str, str] = {}
    for name in TARGETS:
        units[f"{name}.{CALLS_NAME.get(name, 'calls')}"] = "count"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "core.merge.accept_ratio": "ratio",
        "cbn.table_remove.hit_ratio": "ratio",
        "cbn.batch_len_mean": "tuples",
        "cbn.deliveries": "count",
        "spe.results_per_push": "ratio",
        "core.groups": "count",
        "cbn.routing_entries": "count",
        "cbn.control_bytes": "B",
        "cbn.data_msgs": "count",
        "loadmgr.migrations": "count",
        "trace.overhead_frac": "ratio",
    })
    return units


def commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, sizes=None
) -> Dict[str, object]:
    """One benchmark run; returns the result line and the run record."""
    from cosmosbench.inputs import make_inputs, tiny
    from cosmosbench.session import reference_digests, run_episode, score
    from cosmosbench.speed import REFERENCE_S
    from cosmosbench.tracing import Tracer

    inputs = make_inputs(workload, seed, sizes)
    # Lazy imports and first-call caches are paid once, before timing.
    run_episode(make_inputs(workload, seed, tiny(workload)))
    feed_tuples = len(inputs.feed)
    untraced, traced = [], []
    #: wall time of each loop pass, to stop before overrunning ``seconds``
    passes: List[float] = []
    start = time.perf_counter()
    while len(untraced) < (1 if trace else MIN_EPISODES) or (
        time.perf_counter() - start + statistics.median(passes) <= seconds
    ):
        began = time.perf_counter()
        untraced.append(run_episode(inputs, len(untraced)))
        if trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append((run_episode(inputs, len(traced), tracer.op), tracer))
        passes.append(time.perf_counter() - began)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = reference_digests(inputs)
    episodes = untraced + [episode for episode, __ in traced]
    attempted, failed, wrong = score(episodes, inputs, reference)

    values, samples, spreads = end_to_end(untraced, feed_tuples, peak_mb)
    unscaled = end_to_end(untraced, feed_tuples, peak_mb, scaled=False)[0]
    probes = [p * 1e3 for e in untraced for p in e.probe_s]
    units = {name: unit for name, (unit, __) in END_TO_END.items()}
    if trace:
        values = layer_metrics(traced, untraced)
        units = layer_units()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "inputs": inputs.record(),
        "episodes": len(untraced),
        "traced_episodes": len(traced),
        "percentile_samples": samples,
        "episode_spread": spreads,
        "unscaled_times": {
            name: unscaled[name]
            for name, (unit, __) in END_TO_END.items() if unit in ("s", "ms", "tuples/s")
        },
        "probe_ms": {
            "reference": REFERENCE_S * 1e3,
            "readings": len(probes),
            "min": min(probes),
            "median": statistics.median(probes),
            "max": max(probes),
        },
        "error_rate": failed / attempted,
        "mismatched_queries": sorted({q for bad in wrong for q in bad})[:20],
        "op_errors": [err for e in episodes for err in e.errors][:20],
    }
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
        record["spans"] = traced[0][1].write(stem + "-spans.tsv.gz")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    return {"result": result, "record": record}


def render(out: Dict[str, object], trace: bool) -> str:
    from cosmosbench.tracing import SHOULD_MOVE

    record = out["record"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"episodes {record['episodes']}+{record['traced_episodes']} traced  "
        f"error_rate {record['error_rate']:.4g}",
        "inputs " + " ".join(f"{k}={v}" for k, v in record["inputs"].items()),
    ]
    noted = set()
    for name, metric in out["result"]["metrics"].items():
        note = ""
        if trace:
            layer = name.rsplit(".", 1)[0]
            if layer in SHOULD_MOVE and layer not in noted:
                noted.add(layer)
                note = "  -> {} on {}".format(*SHOULD_MOVE[layer])
        elif name in record["percentile_samples"]:
            note = f"  (n={record['percentile_samples'][name]})"
        lines.append(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}{note}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no COSMOS sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from cosmosbench.inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=float(run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as handle:
        json.dump(out, handle, indent=1)
    print(render(out, bool(args.trace)))
    print("record " + json.dumps(out["record"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
