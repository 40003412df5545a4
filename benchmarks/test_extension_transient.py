"""Extension E7 — analytic prediction of the Figure 9 time series.

Quasi-stationary M/M/c(/K) evaluated on each window's observed rate
should track the *simulated* windowed latency whenever the workload
varies slowly — giving operators a way to predict when their edge will
invert over a day without simulating anything.
"""

import numpy as np

from repro.core.transient import predict_windowed_series
from repro.sim.fastsim import simulate_single_queue_system
from repro.sim.network import ConstantLatency
from repro.stats.timeseries import windowed_mean
from repro.workload.arrivals import NonHomogeneousPoisson

MU = 13.0
PERIOD = 4000.0
HORIZON = 12_000.0
WINDOW = 400.0


def run_transient_prediction():
    def rate(t):
        return 7.5 + 4.5 * np.sin(2 * np.pi * t / PERIOD)

    proc = NonHomogeneousPoisson(rate, max_rate=12.2, mean_rate=7.5)
    rng = np.random.default_rng(111)
    trace = proc.generate(rng, horizon=HORIZON)
    services = rng.exponential(1.0 / MU, len(trace))
    sim = simulate_single_queue_system(
        trace.arrival_times, services, 1, ConstantLatency.from_ms(1.0)
    )
    _, predicted = predict_windowed_series(
        trace, MU, 1, WINDOW, rtt=0.001, horizon=HORIZON
    )
    _, simulated = windowed_mean(sim.created, sim.end_to_end, WINDOW, horizon=HORIZON)
    valid = ~np.isnan(simulated)
    corr = float(np.corrcoef(predicted[valid], simulated[valid])[0, 1])
    rel_bias = float(
        (predicted[valid].mean() - simulated[valid].mean()) / simulated[valid].mean()
    )
    return {"corr": corr, "rel_bias": rel_bias,
            "peak_pred": float(np.nanmax(predicted)),
            "peak_sim": float(np.nanmax(simulated))}


def test_extension_transient(run_once):
    res = run_once(run_transient_prediction)
    print("\nExtension E7 — quasi-stationary prediction of windowed latency")
    print(f"  correlation with simulation: {res['corr']:.2f}")
    print(f"  relative bias: {res['rel_bias']:+.1%}")
    print(f"  peak window: predicted {res['peak_pred'] * 1e3:.0f} ms "
          f"vs simulated {res['peak_sim'] * 1e3:.0f} ms")
    assert res["corr"] > 0.8
    assert abs(res["rel_bias"]) < 0.3
