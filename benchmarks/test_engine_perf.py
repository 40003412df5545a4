"""Engine guard: fastsim speedup gate and accuracy.

Two guarantees from the engine overhaul, asserted on every run:

* **throughput gate** — the comparator's default fastsim engine
  sustains at least **3×** the requests/sec of ``engine="des"`` on
  the Figure-7 utilization grid (the target is 10×; typical measured
  speedups are far above the gate — the 3× floor only catches a fastsim
  path that silently fell back to event-by-event simulation);
* **agreement** — both engines replay one sampled workload, so their
  sweeps agree to rounding (``rtol=1e-9``) at every grid point;
* **accuracy** — the fastsim recursion still matches the exact M/M/k
  model within the cross-validation tolerances used by the unit tests
  (mean wait rel 0.07, p95 wait rel 0.1).

Each engine's time is the fastest of three alternating passes.
Measured numbers are written to ``BENCH_engine.json`` at the repo root
so CI tracks the trajectory across commits (the ``engine-bench`` job
uploads it as an artifact).

Run with::

    pytest benchmarks/test_engine_perf.py -s
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.comparator import EdgeCloudComparator
from repro.core.scenarios import TYPICAL_CLOUD
from repro.queueing.mmk import MMk
from repro.sim.fastsim import simulate_fcfs_queue

REQUESTS_PER_SITE = 6_000
#: Alternating timed passes per engine; each engine reports its fastest.
PASSES = 3
SPEEDUP_GATE = 3.0
SPEEDUP_TARGET = 10.0
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

_PAYLOAD: dict = {
    "benchmark": "engine overhaul: fastsim auto-selection",
    "speedup_gate": SPEEDUP_GATE,
    "speedup_target": SPEEDUP_TARGET,
}


def _fig7_grid():
    """The Figure-7 utilization grid (~13 points) as per-site rates."""
    grid = np.arange(0.15, 0.97, 0.0665)
    return [TYPICAL_CLOUD.rate_for_utilization(float(u)) for u in grid]


def _requests_per_grid_pass(rates) -> int:
    """Simulated requests per engine pass: edge + pooled cloud per point."""
    per_point = 2 * TYPICAL_CLOUD.sites * REQUESTS_PER_SITE
    return per_point * len(rates)


def _flush_payload() -> None:
    BENCH_PATH.write_text(json.dumps(_PAYLOAD, indent=2) + "\n")


@pytest.fixture(scope="module")
def grid_timings():
    """Timed DES and fastsim sweeps over the Figure-7 grid.

    The engines alternate for :data:`PASSES` passes and each keeps its
    fastest pass, so a slow phase of the host inflates neither engine
    alone and the recorded speedup moves with the code.
    """
    rates = _fig7_grid()
    des = EdgeCloudComparator(
        TYPICAL_CLOUD, requests_per_site=REQUESTS_PER_SITE, seed=2021, engine="des"
    )
    fastsim = EdgeCloudComparator(
        TYPICAL_CLOUD, requests_per_site=REQUESTS_PER_SITE, seed=2021, engine="fastsim"
    )
    seconds_des = seconds_fastsim = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        des_sweep = des.sweep(rates)
        t1 = time.perf_counter()
        fastsim_sweep = fastsim.sweep(rates)
        t2 = time.perf_counter()
        seconds_des = min(seconds_des, t1 - t0)
        seconds_fastsim = min(seconds_fastsim, t2 - t1)
    requests = _requests_per_grid_pass(rates)
    _PAYLOAD["figure7_grid"] = {
        "sweep_points": len(rates),
        "requests_per_site": REQUESTS_PER_SITE,
        "requests_per_pass": requests,
        "passes": PASSES,
        "seconds_des": round(seconds_des, 3),
        "seconds_fastsim": round(seconds_fastsim, 3),
        "requests_per_sec_des": round(requests / seconds_des, 1),
        "requests_per_sec_fastsim": round(requests / seconds_fastsim, 1),
        "speedup": round(seconds_des / seconds_fastsim, 2),
    }
    _flush_payload()
    print(
        f"\nengine speedup: {_PAYLOAD['figure7_grid']['speedup']}x "
        f"(best of {PASSES}: DES {seconds_des:.2f}s, fastsim {seconds_fastsim:.2f}s, "
        f"{requests} requests/pass) -> {BENCH_PATH.name}"
    )
    return des_sweep, fastsim_sweep


def test_fastsim_speedup_gate(grid_timings):
    """Default fastsim must beat the DES by >= 3x on the grid."""
    speedup = _PAYLOAD["figure7_grid"]["speedup"]
    assert speedup >= SPEEDUP_GATE, (
        f"fastsim engine only {speedup}x faster than DES on the Figure-7 "
        f"grid (gate {SPEEDUP_GATE}x, target {SPEEDUP_TARGET}x) — did the "
        f"comparator stop defaulting to the vectorized path?"
    )


def test_engines_statistically_equivalent(grid_timings):
    """DES and fastsim sweeps agree to rounding at every grid point.

    Both engines replay the same sampled arrivals and service times
    (common random numbers), so the only differences are float rounding
    from the DES summing in completion order.  The assertion covers the
    whole grid, saturation included, on the mean and the p95; the
    largest relative mean gap is recorded in the payload.
    """
    des_sweep, fastsim_sweep = grid_timings
    max_rel = 0.0
    for p, q in zip(des_sweep.points, fastsim_sweep.points, strict=True):
        for side in ("edge", "cloud"):
            a = getattr(p, side)
            b = getattr(q, side)
            max_rel = max(max_rel, abs(a.mean - b.mean) / b.mean)
            for metric in ("mean", "p95"):
                assert getattr(a, metric) == pytest.approx(getattr(b, metric), rel=1e-9), (
                    f"{side} {metric} drifted at utilization {p.utilization:.2f}"
                )
    _PAYLOAD["figure7_grid"]["max_mean_rel_gap_full_grid"] = float(f"{max_rel:.3g}")
    _flush_payload()


def test_fastsim_matches_mmk_model():
    """The fastsim recursion still reproduces exact M/M/k waits."""
    n = 200_000
    rng = np.random.default_rng(11)
    a = np.cumsum(rng.exponential(1.0 / 40.0, n))
    s = rng.exponential(1.0 / 13.0, n)
    waits = simulate_fcfs_queue(a, s, 5)[n // 4:]
    model = MMk(40.0, 13.0, 5)
    assert waits.mean() == pytest.approx(model.mean_wait(), rel=0.07)
    emp_p95 = float(np.quantile(waits, 0.95))
    assert emp_p95 == pytest.approx(model.waiting_time_percentile(0.95), rel=0.1)
    _PAYLOAD["fastsim_vs_mmk"] = {
        "requests": n,
        "mean_wait_rel_err": round(
            abs(float(waits.mean()) - model.mean_wait()) / model.mean_wait(), 4
        ),
        "p95_wait_rel_err": round(
            abs(emp_p95 - model.waiting_time_percentile(0.95))
            / model.waiting_time_percentile(0.95),
            4,
        ),
    }
    _flush_payload()
