#!/usr/bin/env python
"""CI benchmark smoke: CBN publish throughput, production vs scan router.

Runs the shared matching-heavy workload
(:func:`repro.workload.fastpath.build_fastpath_workload`) once on the
production :class:`~repro.cbn.network.ContentBasedNetwork` (per-stream
routing index + decision cache) and once on the
:class:`~repro.sim.oracle.ScanNetwork` reference, checks the two
produce byte-identical deliveries and per-link traffic, and writes
``BENCH_publish.json`` at the repo root::

    {
      "workload": {...},
      "before": {"datagrams_per_sec": ..., "seconds": ...},
      "after":  {"datagrams_per_sec": ..., "seconds": ...},
      "speedup": ...,
      "equivalent": true
    }

Measurement and equivalence procedures come from
:mod:`repro.workload.bench` — the same harness the pytest gate
``test_cbn_fastpath_speedup`` and ``tools/bench_scale.py`` use, so the
artifact and the gates cannot drift on methodology.  Scale is kept
small enough for an offline CI smoke step (a couple of seconds); the
pytest benchmark is the authoritative >=3x gate at full scale.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.sim.oracle import ScanNetwork  # noqa: E402
from repro.workload.bench import (  # noqa: E402
    best_of,
    publish_loop,
    publish_loop_time,
    stats_equal,
)
from repro.workload.fastpath import build_fastpath_workload  # noqa: E402

WORKLOAD = dict(
    n_streams=24,
    n_subscriptions=1200,
    n_nodes=120,
    n_datagrams=100,
)
REPS = 3


def main() -> int:
    fast = build_fastpath_workload(**WORKLOAD)
    slow = build_fastpath_workload(ScanNetwork, **WORKLOAD)
    fast_out = publish_loop(fast.network, fast.feed)
    slow_out = publish_loop(slow.network, slow.feed)
    fast_time, slow_time = best_of(
        REPS,
        lambda: publish_loop_time(fast.network, fast.feed),
        lambda: publish_loop_time(slow.network, slow.feed),
    )
    equivalent = fast_out == slow_out and stats_equal(fast.network, slow.network)
    n = WORKLOAD["n_datagrams"]
    result = {
        "workload": dict(WORKLOAD, reps=REPS),
        "before": {
            "datagrams_per_sec": round(n / slow_time, 1),
            "seconds": round(slow_time, 4),
        },
        "after": {
            "datagrams_per_sec": round(n / fast_time, 1),
            "seconds": round(fast_time, 4),
        },
        "speedup": round(slow_time / fast_time, 2),
        "equivalent": equivalent,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_publish.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if not equivalent:
        print("FAIL: production deliveries/stats differ from the scan router")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
