"""Extension E5 — admission control under a flash crowd.

At ρ = 1.8 an unprotected edge site's latency diverges; occupancy-based
admission keeps served-request latency bounded at the price of explicit
rejections — the controlled alternative to the paper's observed
"dropping or thrashing" at saturation.
"""

from itertools import count

import numpy as np

from repro.mitigation.admission import OccupancyAdmission
from repro.queueing.distributions import Exponential
from repro.sim.engine import Simulation
from repro.sim.request import Request
from repro.sim.station import Station

MU = 13.0
OVERLOAD = 23.0  # rho = 1.77 on one server
DURATION = 600.0


def _run(limit):
    sim = Simulation(91)
    waits = []
    st = Station(
        sim, 1, Exponential(1.0 / MU),
        on_departure=lambda r: waits.append(r.server_time),
        admission=None if limit is None else OccupancyAdmission(limit),
    )
    rng = sim.spawn_rng()

    ids = count()

    def gen():
        if sim.now < DURATION:
            st.arrive(Request(next(ids), created=sim.now))
            sim.schedule(rng.exponential(1.0 / OVERLOAD), gen)

    sim.schedule(0.0, gen)
    sim.run(until=DURATION)
    return float(np.mean(waits)), float(np.quantile(waits, 0.95)), st.refusal_rate


def run_admission_sweep():
    out = {"none": _run(None)}
    for limit in (16.0, 8.0, 4.0):
        out[f"limit={limit:.0f}"] = _run(limit)
    return out


def test_extension_admission(run_once):
    res = run_once(run_admission_sweep)
    print("\nExtension E5 — flash crowd (rho=1.77): served latency vs admission")
    print(f"{'policy':>10} {'mean (ms)':>10} {'p95 (ms)':>10} {'rejected':>9}")
    for name, (mean, p95, rej) in res.items():
        print(f"{name:>10} {mean * 1e3:>10.1f} {p95 * 1e3:>10.1f} {rej:>9.1%}")
    unprotected = res["none"]
    tightest = res["limit=4"]
    # Admission bounds the served latency by orders of magnitude...
    assert tightest[0] < unprotected[0] / 10
    # ...while shedding roughly the overload fraction (1 - 1/rho = 43%).
    assert 0.3 < tightest[2] < 0.6
    # Tighter limits -> lower served latency.
    assert res["limit=4"][0] < res["limit=8"][0] < res["limit=16"][0]
