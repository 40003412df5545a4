"""Telemetry-overhead guard: observability must be (near-)free when off.

The observability layer is pull-model by design — stations and clients
register zero-arg gauge readers at construction, and the per-event hot
path pays one ``is None`` check when nothing is installed.  These
benchmarks pin that claim:

* ``test_event_engine_disabled`` runs the same workload as the seed's
  ``test_event_engine_throughput`` (benchmarks/test_substrate_perf.py),
  so pytest-benchmark history comparison (``--benchmark-compare``)
  catches a disabled-mode regression against the pre-observability
  baseline — the "within 5% of seed" check.
* ``test_disabled_vs_enabled_overhead`` interleaves timed disabled and
  enabled runs in-process and bounds the cost of *enabling* full
  telemetry (spans + windows + metrics), so the instrumentation can't
  quietly become push-model.
* ``test_enabled_results_identical`` asserts telemetry never perturbs
  simulation results — same seed, bit-identical latencies.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.queueing.distributions import Exponential
from repro.sim.network import ConstantLatency
from repro.sim.runner import run_deployment

#: Multiple of the disabled-mode runtime that fully-enabled telemetry
#: (spans on, 1 s windows, in-memory export) may cost.  Full tracing of
#: a pure-Python event loop measures ~1.9× (median of 8 interleaved
#: rounds on a 2-vCPU Xeon; four span objects and one latency append
#: per completion); the bound leaves headroom for CI noise while still
#: catching an accidental O(n·windows) regression.
ENABLED_OVERHEAD_BOUND = 3.0


def _run(seed: int = 3):
    return run_deployment(
        "cloud",
        sites=5,
        servers_per_site=1,
        rate_per_site=8.0,
        service_dist=Exponential(1.0 / 13.0),
        latency=ConstantLatency.from_ms(25.0),
        duration=300.0,
        seed=seed,
    )


def _timed(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_event_engine_disabled(benchmark):
    """Same workload as the seed's event-engine benchmark, telemetry off."""
    assert obs.current_telemetry() is None
    bd = benchmark.pedantic(_run, rounds=3, iterations=1)
    assert len(bd) > 5000


def test_event_engine_enabled(benchmark):
    """The same workload with full telemetry, for history tracking."""

    def run():
        with obs.installed(
            lambda: obs.Telemetry(window=1.0, spans=True, exporters=[obs.InMemoryExporter()])
        ):
            return _run()

    bd = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(bd) > 5000


def test_disabled_vs_enabled_overhead():
    """Enabling spans+windows+metrics must stay within the pull-model bound."""

    def enabled():
        with obs.installed(
            lambda: obs.Telemetry(window=1.0, spans=True, exporters=[obs.InMemoryExporter()])
        ):
            _run()

    _run()  # warm caches before timing either variant
    disabled_t = _timed(_run)
    enabled_t = _timed(enabled)
    assert enabled_t < ENABLED_OVERHEAD_BOUND * disabled_t, (
        f"telemetry-enabled run took {enabled_t:.3f}s vs {disabled_t:.3f}s disabled "
        f"({enabled_t / disabled_t:.2f}x > {ENABLED_OVERHEAD_BOUND}x bound)"
    )


def test_enabled_results_identical():
    """Observability observes; it must never change what it observes."""
    baseline = _run(seed=7)
    with obs.installed(lambda: obs.Telemetry(window=1.0)):
        observed = _run(seed=7)
    np.testing.assert_array_equal(baseline.end_to_end, observed.end_to_end)
    np.testing.assert_array_equal(baseline.wait, observed.wait)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "--benchmark-only"]))
