#!/usr/bin/env python3
"""Defend one saturated edge site: FIFO vs CoDel + brownout + admission.

The paper's capacity story ends at the saturation knee — past 13 req/s
per 8-core site the DNN-inference queue grows without bound.  This
example offers 16 req/s (1.23x saturation) to a single site and
compares two servers:

* undefended — unbounded FIFO.  Nothing is refused, so *everything* is
  served late: the admitted p95 diverges with the backlog.
* defended   — CoDel sheds requests whose queue sojourn stays above
  target, an AIMD concurrency limit turns excess load away at the door,
  and a brownout dimmer serves the rest with a cheaper degraded model
  when the estimated wait climbs.

The defended site refuses (and degrades) a reported share of the work —
and that is the point: the requests it *does* serve meet a latency SLO
that the undefended site misses for every request.

Run:  python examples/overload_control.py
"""

from repro.mitigation.admission import AdaptiveAdmission, AIMDConcurrencyLimit
from repro.queueing.distributions import Exponential
from repro.sim.client import OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.network import ConstantLatency
from repro.sim.overload import BrownoutController, CoDelDiscipline
from repro.sim.topology import EdgeDeployment, EdgeSite
from repro.stats.overload import summarize_overload
from repro.workload.service import DNNInferenceModel

RATE = 16.0  # offered load, req/s (saturation is 13)
DURATION = 400.0
SLO = 2.0  # seconds
WARMUP = 100.0

MODEL = DNNInferenceModel()


def run(defended, seed):
    sim = Simulation(seed)
    kw = {}
    if defended:
        kw = dict(
            discipline=CoDelDiscipline(target=0.3),
            admission=AdaptiveAdmission(
                AIMDConcurrencyLimit(latency_target=1.0, max_limit=64.0)
            ),
            brownout=BrownoutController(
                degraded_scale=0.4, target_wait=0.25, full_wait=1.0
            ),
        )
    site = EdgeSite(
        sim, "s0", MODEL.cores, ConstantLatency.from_ms(1.0),
        MODEL.service_dist(), **kw,
    )
    edge = EdgeDeployment(sim, [site])
    OpenLoopSource(sim, edge, Exponential(1.0 / RATE), site="s0", stop_time=DURATION)
    sim.run(until=DURATION)
    b = edge.log.breakdown().after(WARMUP)
    summary = summarize_overload(
        duration=DURATION, stations=[site.station], latencies=b.end_to_end
    )
    slo_hits = int((b.end_to_end <= SLO).sum())
    return summary, slo_hits / (DURATION - WARMUP)


def main() -> None:
    print("Server-side overload control on one saturated edge site")
    print(f"(offered {RATE:.0f} req/s vs {MODEL.cores}-core capacity "
          f"~13 req/s; SLO {SLO:.0f}s)\n")

    rows = {
        "undefended FIFO": run(False, seed=11),
        "CoDel + admission + brownout": run(True, seed=12),
    }
    print(f"{'server':>28} {'p95(ms)':>9} {'SLO goodput':>11} "
          f"{'refused':>8} {'degraded':>9}")
    for label, (s, slo_goodput) in rows.items():
        p95 = s.latency.p95 * 1e3 if s.latency is not None else float("nan")
        print(f"{label:>28} {p95:>9.0f} {slo_goodput:>9.1f}/s "
              f"{s.refusal_rate:>8.1%} {s.degraded_fraction:>9.1%}")

    naive, naive_goodput = rows["undefended FIFO"]
    defended, defended_goodput = rows["CoDel + admission + brownout"]
    print(f"\n-> the defended site turns {defended.refusal_rate:.0%} of "
          f"arrivals away and degrades {defended.degraded_fraction:.0%} "
          "of the rest, but serves "
          f"{defended_goodput:.1f}/s within SLO where FIFO serves "
          f"{naive_goodput:.1f}/s (p95 "
          f"{naive.latency.p95:.0f}s vs {defended.latency.p95 * 1e3:.0f}ms).")


if __name__ == "__main__":
    main()
