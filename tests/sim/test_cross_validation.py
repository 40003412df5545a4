"""Cross-validation: the event engine and the fast path must agree.

Both simulation paths implement the same FCFS G/G/c semantics; driven
with the *identical* request sequence (same arrival times and service
times) through a constant-latency network they must produce identical
waits — not statistically similar, bit-for-bit equal, at every server
count.  Only the end-to-end latency over a network is summed in another
order by the two paths, so it agrees to rounding.  This is the strongest
internal-consistency check in the suite (DESIGN.md §5, item 2).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.client import TraceSource
from repro.sim.engine import Simulation
from repro.sim.fastsim import simulate_fcfs_queue, simulate_single_queue_system
from repro.sim.network import ConstantLatency
from repro.sim.topology import CloudDeployment


def run_engine(arrivals, services, servers, rtt=0.0):
    """Waits and end-to-end latencies of the event engine, in submission order.

    The log is in completion order, and sorting by ``created`` cannot
    restore submission order when arrivals tie, so requests are ordered
    by ``rid``, which is assigned at submission.
    """
    sim = Simulation(0)
    cloud = CloudDeployment(sim, servers=servers, latency=ConstantLatency(rtt))
    TraceSource(sim, cloud, arrivals, services)
    sim.run()
    reqs = sorted(cloud.log.requests, key=lambda r: r.rid)
    wait = np.array([r.service_start - r.arrived for r in reqs])
    e2e = np.array([r.completed - r.created for r in reqs])
    return wait, e2e


class TestEnginesAgree:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        servers=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_identical_waits_on_identical_workload(self, seed, servers):
        rng = np.random.default_rng(seed)
        n = 200
        arrivals = np.cumsum(rng.exponential(0.05, n))
        services = rng.exponential(0.05 * servers, n)
        fast = simulate_fcfs_queue(arrivals, services, servers)
        engine_waits, _ = run_engine(arrivals, services, servers)
        np.testing.assert_array_equal(engine_waits, fast)

    def test_identical_end_to_end_with_network(self):
        rng = np.random.default_rng(7)
        n = 500
        arrivals = np.cumsum(rng.exponential(0.02, n))
        services = rng.exponential(0.05, n)
        rtt = 0.025
        fast = simulate_single_queue_system(
            arrivals, services, 3, ConstantLatency(rtt)
        )
        engine_waits, engine_e2e = run_engine(arrivals, services, 3, rtt=rtt)
        np.testing.assert_array_equal(engine_waits, fast.wait)
        # fastsim adds the legs, wait and service; the engine subtracts
        # two clock readings: the same latency up to a few ulps.
        np.testing.assert_allclose(engine_e2e, fast.end_to_end, rtol=0, atol=1e-12)

    def test_heavy_load_agreement(self):
        """Agreement must survive deep queues (rho near 1)."""
        rng = np.random.default_rng(11)
        n = 2000
        arrivals = np.cumsum(rng.exponential(0.0105, n))  # rho ~ 0.95
        services = rng.exponential(0.01, n)
        fast = simulate_fcfs_queue(arrivals, services, 1)
        engine_waits, _ = run_engine(arrivals, services, 1)
        np.testing.assert_array_equal(engine_waits, fast)

    def test_simultaneous_arrivals_agree(self):
        """Ties in arrival time must break identically (FIFO insertion)."""
        arrivals = np.zeros(6)
        services = np.array([0.3, 0.1, 0.2, 0.1, 0.05, 0.4])
        fast = simulate_fcfs_queue(arrivals, services, 2)
        engine_waits, _ = run_engine(arrivals, services, 2)
        np.testing.assert_array_equal(engine_waits, fast)

    @pytest.mark.parametrize("servers", [1, 2, 5])
    def test_deterministic_workload_agreement(self, servers):
        arrivals = np.arange(20) * 0.1
        services = np.full(20, 0.35)
        fast = simulate_fcfs_queue(arrivals, services, servers)
        engine_waits, _ = run_engine(arrivals, services, servers)
        np.testing.assert_array_equal(engine_waits, fast)
