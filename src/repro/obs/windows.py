"""Windowed telemetry: periodic snapshots of a running simulation.

The :class:`WindowedCollector` is the "watch it happen" half of the
observability layer: every ``dt`` of *virtual* time it closes a window
and emits one record — throughput, exact p50/p95 of end-to-end latency,
the :math:`n + w + s` component sums, the refusal taxonomy and
per-station occupancy/utilization — to the configured exporters.  The
transient experiments (E10 retry storms, E11 overload pulses) are
dynamic stories; these records are the data that tells them while the
run is still going, rather than post-hoc from the request log.

Design constraints, in order:

* **Zero cost when disabled** — the collector only exists inside an
  installed :class:`~repro.obs.Telemetry`; the simulator's hot paths
  check one attribute against ``None``.
* **Exact percentiles from one retained buffer** — every served
  request's end-to-end latency is appended to one ``array('d')``
  (:attr:`WindowedCollector.latencies`), and a window's p50/p95 come
  from one sort of its slice at window close
  (:func:`~repro.stats.summary.quantiles`).  That costs 8 bytes
  per served request, beside the request log's nine float64 columns,
  and makes every telemetry percentile exact — the tail is where the
  paper's inversion shows first, so an estimate is not good enough
  there.  Station state comes from counter deltas polled at window
  boundaries (pull model: the station hot path is untouched).
* **Self-terminating** — the boundary tick re-schedules itself only
  while other events remain, so a drained calendar ends the run exactly
  as it would without telemetry.
"""

from __future__ import annotations

import math
from array import array

from repro.stats.summary import quantiles

__all__ = ["WindowedCollector"]


def _finite(x: float) -> float | None:
    """JSON-safe float: NaN/inf become None (JSON has no NaN)."""
    return x if math.isfinite(x) else None


class _StationWatch:
    """Per-station counter baseline for window deltas."""

    __slots__ = ("station", "arrivals", "completions", "rejected", "dropped", "shed", "busy_time")

    def __init__(self, station):
        self.station = station
        self.arrivals = station.arrivals
        self.completions = station.completions
        self.rejected = station.rejected
        self.dropped = station.drops
        self.shed = station.shed
        self.busy_time = station.busy_time()

    def delta(self) -> dict:
        """Close the window for this station: deltas plus instantaneous state."""
        st = self.station
        busy_time = st.busy_time()
        out = {
            "arrivals": st.arrivals - self.arrivals,
            "completions": st.completions - self.completions,
            "rejected": st.rejected - self.rejected,
            "dropped": st.drops - self.dropped,
            "shed": st.shed - self.shed,
            "busy": st.busy,
            "queue": st.queue_length,
            "busy_time": busy_time - self.busy_time,
        }
        self.arrivals = st.arrivals
        self.completions = st.completions
        self.rejected = st.rejected
        self.dropped = st.drops
        self.shed = st.shed
        self.busy_time = busy_time
        return out


class WindowedCollector:
    """Snapshot the system every ``dt`` virtual seconds.

    Parameters
    ----------
    dt:
        Window length in virtual seconds; finite and positive.
    """

    def __init__(self, dt: float = 1.0):
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        self.dt = float(dt)
        #: End-to-end latency of every served request, in completion order.
        self.latencies = array("d")
        self.sim = None
        self.label = ""
        self.windows_emitted = 0
        self._exporters: list = []
        self._watches: dict[str, _StationWatch] = {}
        self._window_start = 0.0
        self._ticking = False
        self._reset_window()

    # -- wiring ----------------------------------------------------------
    def bind(self, sim, exporters: list, label: str = "") -> None:
        """Attach to the owning simulation (called by ``Telemetry.bind``)."""
        self.sim = sim
        self._exporters = exporters
        self.label = label
        self._window_start = sim.now

    def register_station(self, station) -> None:
        """Start watching a station's counters and occupancy."""
        if station.name in self._watches:
            raise ValueError(f"station {station.name!r} already registered")
        self._watches[station.name] = _StationWatch(station)
        self._ensure_tick()

    def _ensure_tick(self) -> None:
        if not self._ticking and self.sim is not None:
            self._ticking = True
            self.sim.schedule(self.dt, self._tick)

    # -- per-request accumulation ----------------------------------------
    def _reset_window(self) -> None:
        self._completed = 0
        self._net_sum = 0.0
        self._wait_sum = 0.0
        self._service_sum = 0.0
        self._e2e_sum = 0.0
        self._refused = {"rejected": 0, "dropped": 0, "shed": 0}
        self._failed_ops = 0
        self._first = len(self.latencies)

    def record_success(self, request) -> None:
        """Fold one served request into the current window."""
        self._completed += 1
        e2e = request.end_to_end
        self._net_sum += request.network_time
        self._wait_sum += request.wait
        self._service_sum += request.service_time
        self._e2e_sum += e2e
        self.latencies.append(e2e)

    def record_refusal(self, request, outcome: str) -> None:
        """Fold one refused request (rejected / dropped / shed)."""
        counts = self._refused
        counts[outcome] = counts.get(outcome, 0) + 1

    def record_failed_operation(self, request) -> None:
        """Fold one abandoned logical operation (resilience layer)."""
        self._failed_ops += 1

    # -- window boundary -------------------------------------------------
    def _tick(self) -> None:
        self.flush()
        if self.sim.invariants is not None:
            # Window boundaries are quiescent points (no half-applied
            # station transitions), so request conservation must hold at
            # each one, not just at run end.
            self.sim.invariants.check_stations("telemetry window")
        if self.sim.pending_events > 0:
            self.sim.schedule(self.dt, self._tick)
        else:
            self._ticking = False

    def flush(self) -> dict | None:
        """Close the current window and emit its record.

        Returns the emitted record (``None`` when the window is empty
        and holds no stations — nothing worth a line of output).
        """
        now = self.sim.now if self.sim is not None else self._window_start
        record = self._build_record(now)
        self._window_start = now
        self._reset_window()
        if record is None:
            return None
        self.windows_emitted += 1
        for exporter in self._exporters:
            exporter.export(record)
        return record

    def _build_record(self, now: float) -> dict | None:
        span = now - self._window_start
        if span <= 0 and self._completed == 0:
            return None
        stations = {}
        for name, watch in self._watches.items():
            d = watch.delta()
            d["utilization"] = _finite(
                d.pop("busy_time") / (span * watch.station.servers) if span > 0 else math.nan
            )
            stations[name] = d
        if self._completed == 0 and not stations and not any(self._refused.values()):
            return None
        from repro.experiments.schema import stamp_telemetry

        latency = {"mean": None, "p50": None, "p95": None}
        if self._completed:
            p50, p95 = quantiles(self.latencies[self._first:], (0.5, 0.95))
            latency = {
                "mean": self._e2e_sum / self._completed,
                "p50": p50,
                "p95": p95,
            }
        record = {
            "type": "window",
            "t_start": self._window_start,
            "t_end": now,
            "completed": self._completed,
            "throughput": self._completed / span if span > 0 else 0.0,
            "latency": latency,
            "sums": {
                "net": self._net_sum,
                "wait": self._wait_sum,
                "service": self._service_sum,
                "end_to_end": self._e2e_sum,
            },
            "refused": dict(self._refused),
            "failed_operations": self._failed_ops,
            "stations": stations,
        }
        if self.label:
            record["run"] = self.label
        return stamp_telemetry(record)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowedCollector(dt={self.dt}, stations={len(self._watches)}, "
            f"windows={self.windows_emitted})"
        )
