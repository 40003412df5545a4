"""Seeded-grid cross-validation of the fastsim topology layer.

Complements ``test_cross_validation.py`` (hypothesis-driven single-queue
checks) with a deterministic seeded grid — every case is pinned, so a
failure names the exact (pattern, servers, seed) cell — and extends the
coverage to the new load-balanced topologies:

* ``simulate_fcfs_queue`` (the Kiefer–Wolfowitz heap at every c)
  against the DES station, bit for bit, for c ∈ {1, 2, 8} and Poisson /
  deterministic / bursty arrivals;
* ``simulate_lb_system`` round-robin against the DES
  :class:`~repro.sim.topology.CloudDeployment` with the
  :class:`~repro.sim.loadbalancer.RoundRobin` policy on the *identical*
  trace (near-exact agreement: same assignment, same recursion);
* JSQ fastsim against DES JSQ: exact when both break ties the same
  way, statistical with their own tie-break streams;
* the comparator's ``engine="des"`` and ``engine="fastsim"`` paths,
  which replay one sampled workload and agree to rounding over the
  Figure-7 grid;
* ``sample_oneway_batch`` bit-identity against scalar draws.
"""

import numpy as np
import pytest

from repro.core.comparator import EdgeCloudComparator, SweepPoint
from repro.core.scenarios import TYPICAL_CLOUD
from repro.sim.client import TraceSource
from repro.sim.engine import Simulation
from repro.sim.fastsim import simulate_fcfs_queue, simulate_lb_system
from repro.sim.loadbalancer import JoinShortestQueue, RoundRobin
from repro.sim.network import (
    ConstantLatency,
    LognormalLatency,
    LossyLatency,
    NormalJitterLatency,
)
from repro.sim.topology import CloudDeployment

SEEDS = (0, 1, 2, 3, 4)
SERVER_COUNTS = (1, 2, 8)
PATTERNS = ("poisson", "deterministic", "bursty")


def make_workload(pattern: str, n: int, seed: int, load: float = 0.85):
    """An (arrivals, services) pair with mean service 1 and rate ``load``.

    ``bursty`` interleaves geometric batches of simultaneous arrivals
    with long gaps (squared CoV >> 1) — the adversarial case for any
    recursion that assumes ties are rare.
    """
    rng = np.random.default_rng(seed)
    if pattern == "poisson":
        gaps = rng.exponential(1.0 / load, n)
    elif pattern == "deterministic":
        gaps = np.full(n, 1.0 / load)
    else:  # bursty: batches at shared instants, exponential batch gaps
        gaps = np.where(
            rng.random(n) < 0.7, 0.0, rng.exponential(1.0 / (0.3 * load), n)
        )
    arrivals = np.cumsum(gaps)
    services = rng.exponential(1.0, n)
    return arrivals, services


def run_des_cloud(arrivals, services, servers, *, rtt=0.0, policy=None,
                  backends=None, seed=0, rng=None):
    """Replay a trace through the DES cloud and return trace-ordered waits.

    The request log is in *completion* order; sorting by ``created``
    alone cannot recover submission order when arrivals tie (the bursty
    patterns tie on purpose), so requests are re-ordered by rid — the
    globally monotone id assigned at submission.  ``rng`` replaces the
    deployment's dispatch stream.
    """
    sim = Simulation(seed)
    cloud = CloudDeployment(
        sim, servers=servers, latency=ConstantLatency(rtt),
        policy=policy, backends=backends,
    )
    if rng is not None:
        cloud._rng = rng
    TraceSource(sim, cloud, arrivals, services)
    sim.run()
    reqs = sorted(cloud.log.requests, key=lambda r: r.rid)
    wait = np.array([r.service_start - r.arrived for r in reqs])
    e2e = np.array([r.completed - r.created for r in reqs])
    return wait, e2e


class TestRecursionGrid:
    """fastsim vs DES over the full seeded grid, bit for bit."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lindley_equals_kw_heap_single_server(self, pattern, seed):
        """One server runs the heap recursion too, and its waits are the DES station's.

        The name is kept from the Lindley recursion this path replaced,
        which matched the DES only to rounding.
        """
        a, s = make_workload(pattern, 400, seed)
        fast = simulate_fcfs_queue(a, s, 1)
        des, _ = run_des_cloud(a, s, 1)
        assert fast.tobytes() == des.tobytes()

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("servers", SERVER_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fastsim_matches_des_station(self, pattern, servers, seed):
        # mean service c·0.9: per-server utilization ~0.77 for every c
        a, s = make_workload(pattern, 300, seed)
        s = s * (servers * 0.9)
        fast = simulate_fcfs_queue(a, s, servers)
        des, _ = run_des_cloud(a, s, servers)
        np.testing.assert_array_equal(
            des, fast,
            err_msg=f"DES drifted from fastsim at ({pattern}, c={servers}, seed={seed})",
        )


class TestLbTopology:
    def test_round_robin_matches_des_exactly(self):
        """Identical trace + constant latency: RR fastsim == RR DES."""
        for seed in SEEDS:
            a, s = make_workload("poisson", 600, seed)
            s *= 6.0  # 8 servers in 4 backends: per-server load ~0.64
            fast = simulate_lb_system(
                a, s, 8, ConstantLatency(0.025), policy="round-robin", backends=4
            )
            des_wait, des_e2e = run_des_cloud(
                a, s, 8, rtt=0.025, policy=RoundRobin(), backends=4
            )
            np.testing.assert_allclose(des_wait, fast.wait, atol=1e-9)
            np.testing.assert_allclose(des_e2e, fast.end_to_end, atol=1e-9)

    def test_round_robin_bursty_ties_agree(self):
        """Simultaneous arrivals must be dealt to backends in the same order."""
        a, s = make_workload("bursty", 400, 9)
        s *= 3.0
        fast = simulate_lb_system(
            a, s, 4, ConstantLatency(0.0), policy="round-robin", backends=2
        )
        des_wait, _ = run_des_cloud(a, s, 4, policy=RoundRobin(), backends=2)
        np.testing.assert_allclose(des_wait, fast.wait, atol=1e-9)

    def test_jsq_matches_des_statistically(self):
        """JSQ tie-breaks draw from different streams: means agree, bits don't."""
        a, s = make_workload("poisson", 40_000, 17)
        s *= 6.0
        fast = simulate_lb_system(
            a, s, 8, ConstantLatency(0.0), np.random.default_rng(1),
            policy="jsq", backends=4,
        )
        des_wait, _ = run_des_cloud(
            a, s, 8, policy=JoinShortestQueue(), backends=4, seed=2
        )
        assert des_wait.mean() == pytest.approx(fast.wait.mean(), rel=0.1)

    def test_jsq_matches_des_exactly_with_shared_tie_breaks(self):
        """The JSQ residual is the tie-break stream, nothing else.

        The DES policy draws from the deployment's stream on every
        dispatch, fastsim from its caller's stream and only on ties.
        With both streams replaced by one that always picks the first
        tied backend, occupancy counting alone decides, and the waits
        are identical.
        """

        class FirstTied:
            def integers(self, n):
                return 0

        for seed in SEEDS:
            a, s = make_workload("poisson", 20_000, seed)
            s *= 8.0  # 8 servers in 4 backends: per-server load ~0.85
            fast = simulate_lb_system(
                a, s, 8, ConstantLatency(0.0), FirstTied(),
                policy="jsq", backends=4,
            )
            des_wait, _ = run_des_cloud(
                a, s, 8, policy=JoinShortestQueue(), backends=4, rng=FirstTied()
            )
            np.testing.assert_array_equal(des_wait, fast.wait)

    @pytest.mark.parametrize("policy", ["round-robin", "jsq"])
    def test_both_policies_reject_invalid_input(self, policy):
        """Both policies check the stream they queue, JSQ before any tie-break draw."""

        class NoDraws:
            def integers(self, n):
                raise AssertionError("tie-break drawn before the input was checked")

        cases = [
            ("finite", np.array([0.0, np.nan, 2.0]), np.ones(3)),
            ("non-decreasing", np.array([2.0, 1.0, 0.0]), np.ones(3)),
            ("non-negative", np.array([0.0, 1.0, 2.0]), np.array([1.0, -5.0, 1.0])),
            # each backend's share of this stream is non-decreasing
            ("non-decreasing", np.array([0.0, 3.0, 1.0, 4.0]), np.ones(4)),
        ]
        for match, a, s in cases:
            with pytest.raises(ValueError, match=match):
                simulate_lb_system(
                    a, s, 2, ConstantLatency(0.0), NoDraws(), policy=policy, backends=2
                )
        empty = simulate_lb_system(
            np.empty(0), np.empty(0), 2, ConstantLatency(0.0), policy=policy, backends=2
        )
        assert len(empty) == 0

    def test_lb_overhead_inbound_only(self):
        """The balancer adds no hop: network time is the RTT, like the DES topology."""
        a = np.array([0.0, 10.0])
        s = np.array([1.0, 1.0])
        res = simulate_lb_system(
            a, s, 2, ConstantLatency(0.020), policy="round-robin", backends=2,
        )
        np.testing.assert_array_equal(res.network, 0.020)
        np.testing.assert_allclose(res.end_to_end, 0.020 + 1.0)
        with pytest.raises(TypeError):
            simulate_lb_system(a, s, 2, ConstantLatency(0.020), lb_overhead=0.005)


#: Figure 7's utilization grid: 13 points, up to rho = 0.948.
FIG7_GRID = np.arange(0.15, 0.97, 0.0665)


class TestComparatorEngines:
    def test_auto_selects_fastsim_without_hooks(self, monkeypatch):
        """One rule: fastsim unless ``engine="des"`` is passed."""
        des_calls = []

        def fake_des(self, rate, seed_offset, traces):
            des_calls.append(self.cloud_policy)
            return "des"

        monkeypatch.setattr(EdgeCloudComparator, "_measure_point_des", fake_des)
        rate = TYPICAL_CLOUD.rate_for_utilization(0.5)
        for policy in (None, "jsq"):
            cmp_ = EdgeCloudComparator(
                TYPICAL_CLOUD, requests_per_site=200, cloud_policy=policy
            )
            assert cmp_.engine == "fastsim"
            assert isinstance(cmp_.measure_point(rate), SweepPoint)
        assert des_calls == []
        des = EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=200, engine="des")
        assert des.measure_point(rate) == "des"
        assert des_calls == [None]

    def test_fastsim_engine_rejects_des_only_config(self):
        """Policy objects are not a comparator option on either engine."""
        with pytest.raises(ValueError):
            EdgeCloudComparator(
                TYPICAL_CLOUD, cloud_policy=RoundRobin(), engine="fastsim"
            )

    def test_engines_agree_at_moderate_load(self):
        rate = TYPICAL_CLOUD.rate_for_utilization(0.6)
        kwargs = dict(requests_per_site=8_000, seed=77)
        fast = EdgeCloudComparator(
            TYPICAL_CLOUD, engine="fastsim", **kwargs
        ).measure_point(rate)
        des = EdgeCloudComparator(
            TYPICAL_CLOUD, engine="des", **kwargs
        ).measure_point(rate)
        assert des.edge.mean == pytest.approx(fast.edge.mean, rel=1e-9)
        assert des.cloud.mean == pytest.approx(fast.cloud.mean, rel=1e-9)

    @pytest.mark.parametrize("policy", [None, "round-robin"])
    def test_engines_identical_on_fig7_grid(self, policy):
        """Both engines replay one sampled workload: equal to rounding,
        saturation included (the DES drains in completion order, so
        sums round differently, nothing more)."""
        rates = [TYPICAL_CLOUD.rate_for_utilization(float(u)) for u in FIG7_GRID]
        kwargs = dict(requests_per_site=2_000, seed=2021, cloud_policy=policy)
        fast = EdgeCloudComparator(TYPICAL_CLOUD, **kwargs).sweep(rates)
        des = EdgeCloudComparator(TYPICAL_CLOUD, engine="des", **kwargs).sweep(rates)
        for p, q in zip(fast.points, des.points, strict=True):
            for side in ("edge", "cloud"):
                a, b = getattr(p, side), getattr(q, side)
                assert a.count == b.count
                for metric in ("mean", "p50", "p95", "p99"):
                    np.testing.assert_allclose(
                        getattr(b, metric), getattr(a, metric), rtol=1e-9,
                        err_msg=f"{side} {metric} at utilization {p.utilization:.3f}",
                    )

    def test_lb_policy_point_runs_and_waits_dominate_central(self):
        """Round-robin partitions the pool: no better than the central queue."""
        rate = TYPICAL_CLOUD.rate_for_utilization(0.8)
        kwargs = dict(requests_per_site=8_000, seed=5)
        central = EdgeCloudComparator(TYPICAL_CLOUD, **kwargs).measure_point(rate)
        rr = EdgeCloudComparator(
            TYPICAL_CLOUD, cloud_policy="round-robin", **kwargs
        ).measure_point(rate)
        assert rr.cloud.mean >= central.cloud.mean * 0.99


class TestBatchSampling:
    """sample_oneway_batch must replay the scalar draw stream bit-for-bit."""

    @pytest.mark.parametrize(
        "model",
        [
            ConstantLatency.from_ms(24.0),
            NormalJitterLatency.from_ms(24.0, 2.0),
            LognormalLatency.from_ms(54.0, 0.25),
            LossyLatency(NormalJitterLatency.from_ms(24.0, 2.0), loss_prob=0.01),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_batch_bit_identical_to_scalar(self, model):
        n = 257
        batch = model.sample_oneway_batch(np.random.default_rng(42), n)
        scalar_rng = np.random.default_rng(42)
        scalar = np.array([model.sample_oneway(scalar_rng) for _ in range(n)])
        np.testing.assert_array_equal(batch, scalar)

    def test_base_class_fallback_loops(self):
        class Fixed(ConstantLatency):
            # exercise the LatencyModel.sample_oneway_batch fallback
            sample_oneway_batch = __import__(
                "repro.sim.network", fromlist=["LatencyModel"]
            ).LatencyModel.sample_oneway_batch

        model = Fixed(0.024)
        np.testing.assert_array_equal(
            model.sample_oneway_batch(np.random.default_rng(0), 5),
            np.full(5, 0.012),
        )
