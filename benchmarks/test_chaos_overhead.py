"""Checkpointing-cost guard: journaling must be (nearly) free.

Runs the Figure-7-style utilization grid three ways — plain, with a
``checkpoint=`` journal, and resumed from that journal — then asserts:

* **bit identity** — the checkpointed and the resumed sweeps equal the
  plain one exactly (always asserted, on any machine);
* **≤ 5 % checkpoint overhead** — one fsync'd JSON line per sweep point
  must be invisible next to seconds of simulation (asserted when the
  plain run is slow enough for the ratio to be meaningful);
* **resume is fast** — replaying 13 journaled points skips all
  simulation, so the resumed run must beat the plain one by a wide
  margin.

Every sweep runs on the same supervised executor; ``checkpoint=None``
only leaves the journal off, so the plain timing here is the baseline
the journal's cost is measured against.  Measurements go to
``BENCH_chaos.json`` at the repo root.

Run with::

    pytest benchmarks/test_chaos_overhead.py -s
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.comparator import EdgeCloudComparator
from repro.core.scenarios import TYPICAL_CLOUD

REQUESTS_PER_SITE = 30_000
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_chaos.json"

#: Below this plain-sweep duration the overhead ratio is dominated by
#: scheduler noise, not journaling; the gate self-gates like the
#: speedup gate in test_parallel_scaling.py.
MIN_MEANINGFUL_SECONDS = 2.0

MAX_OVERHEAD = 0.05


def _fig7_grid():
    """The Figure-7 utilization grid (~13 points) as per-site rates."""
    grid = np.arange(0.15, 0.97, 0.0665)
    return [TYPICAL_CLOUD.rate_for_utilization(float(u)) for u in grid]


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """One timed plain + checkpointed + resumed sweep triple."""
    rates = _fig7_grid()
    journal = tmp_path_factory.mktemp("chaos") / "sweep.journal"
    cmp_ = EdgeCloudComparator(
        TYPICAL_CLOUD, requests_per_site=REQUESTS_PER_SITE, seed=2021
    )
    t0 = time.perf_counter()
    plain = cmp_.sweep(rates)
    t1 = time.perf_counter()
    checkpointed = cmp_.sweep(rates, checkpoint=journal)
    t2 = time.perf_counter()
    resumed = cmp_.sweep(rates, checkpoint=journal, resume=True)
    t3 = time.perf_counter()
    seconds_plain = t1 - t0
    seconds_checkpointed = t2 - t1
    seconds_resume = t3 - t2
    overhead = seconds_checkpointed / seconds_plain - 1.0
    payload = {
        "benchmark": "figure-7 utilization grid, typical cloud (24 ms)",
        "sweep_points": len(rates),
        "requests_per_site": REQUESTS_PER_SITE,
        "cpu_count": os.cpu_count(),
        "seconds_plain": round(seconds_plain, 3),
        "seconds_checkpointed": round(seconds_checkpointed, 3),
        "seconds_resume": round(seconds_resume, 3),
        "checkpoint_overhead_pct": round(100.0 * overhead, 2),
        "resume_speedup": round(seconds_plain / seconds_resume, 1),
        "journal_bytes": journal.stat().st_size,
        "bit_identical": plain.points == checkpointed.points == resumed.points,
        "overhead_asserted": seconds_plain >= MIN_MEANINGFUL_SECONDS,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nchaos overhead: checkpointing {payload['checkpoint_overhead_pct']}% "
        f"over {seconds_plain:.2f}s plain, resume {payload['resume_speedup']}x "
        f"faster -> {BENCH_PATH.name}"
    )
    return payload, plain, checkpointed, resumed


def test_checkpointed_sweep_bit_identical(chaos_run):
    """Journaling must never perturb results — on any machine."""
    payload, plain, checkpointed, resumed = chaos_run
    assert payload["bit_identical"]
    for p, q, r in zip(
        plain.points, checkpointed.points, resumed.points, strict=True
    ):
        assert p.edge == q.edge == r.edge
        assert p.cloud == q.cloud == r.cloud
        assert p.utilization == q.utilization == r.utilization


def test_checkpoint_overhead_within_budget(chaos_run):
    """One fsync per point costs <= 5% of a real sweep."""
    payload, *_ = chaos_run
    if not payload["overhead_asserted"]:
        pytest.skip(
            f"plain sweep finished in {payload['seconds_plain']}s "
            f"(< {MIN_MEANINGFUL_SECONDS}s): overhead ratio is noise here "
            f"(measured {payload['checkpoint_overhead_pct']}%, recorded in "
            f"{BENCH_PATH.name})"
        )
    assert payload["checkpoint_overhead_pct"] <= 100.0 * MAX_OVERHEAD, (
        f"checkpointing cost {payload['checkpoint_overhead_pct']}% "
        f"(plain {payload['seconds_plain']}s, checkpointed "
        f"{payload['seconds_checkpointed']}s); journaling must stay under "
        f"{100.0 * MAX_OVERHEAD}%"
    )


def test_resume_replays_instead_of_recomputing(chaos_run):
    """A fully journaled grid replays far faster than it simulates."""
    payload, *_ = chaos_run
    assert payload["resume_speedup"] >= 5.0, (
        f"resume took {payload['seconds_resume']}s vs plain "
        f"{payload['seconds_plain']}s; replay should skip simulation entirely"
    )
