"""repro.obs — live observability for the simulation substrate.

The paper's inversion story is about *where time goes* — network versus
queue versus service.  Before this subsystem the answer existed only
post-hoc, by crunching a :class:`~repro.sim.tracing.RequestLog` after
the run; ``repro.obs`` makes it observable while the run happens:

* :mod:`repro.obs.metrics` — a registry of pull-model gauges that
  stations, admission controllers, queue disciplines and resilient
  clients publish readers into;
* :mod:`repro.obs.spans` — causally linked per-request spans (network
  legs, queue wait, service, retry/hedge attempts, failover hops) whose
  durations decompose end-to-end latency exactly into the paper's
  :math:`n + w + s` terms, recorded only when asked for
  (``Telemetry(spans=True)``);
* :mod:`repro.obs.windows` — a windowed collector snapshotting
  throughput, exact p50/p95, per-station occupancy and the
  rejected/dropped/shed taxonomy every Δt of virtual time;
* :mod:`repro.obs.exporters` — JSON-lines and in-memory sinks;
  :mod:`repro.obs.schema` validates the JSON-lines contract.

Everything hangs off one :class:`Telemetry` facade.  Enablement is by
*installation* (:func:`install` / :func:`installed` — the CLI's
``--telemetry`` flag does this): every :class:`~repro.sim.engine.Simulation`
constructed while a factory is installed gets a fresh telemetry
instance; with nothing installed the simulator pays a single ``is
None`` check and is otherwise untouched (guarded by
``benchmarks/test_obs_overhead.py``).

Quick start::

    from repro import obs

    exporter = obs.InMemoryExporter()
    with obs.installed(lambda: obs.Telemetry(window=5.0, exporters=[exporter])):
        run_experiment(...)          # any code that builds Simulations
    for window in exporter.windows:
        print(window["t_end"], window["throughput"], window["latency"]["p95"])
"""

from __future__ import annotations

import math

from repro.obs.exporters import Exporter, InMemoryExporter, JsonLinesExporter
from repro.obs.metrics import MetricsRegistry
from repro.obs.provider import current_telemetry, install, installed, uninstall
from repro.obs.schema import SchemaError, validate_record, validate_telemetry_file
from repro.obs.spans import Span, SpanRecorder, request_spans
from repro.obs.windows import WindowedCollector
from repro.stats.summary import quantiles

__all__ = [
    "Telemetry",
    "install",
    "uninstall",
    "installed",
    "current_telemetry",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "request_spans",
    "WindowedCollector",
    "Exporter",
    "JsonLinesExporter",
    "InMemoryExporter",
    "validate_record",
    "validate_telemetry_file",
    "SchemaError",
]


class Telemetry:
    """One simulation's observability bundle.

    Parameters
    ----------
    window:
        Windowed-collector period in virtual seconds.
    spans:
        Record per-request spans (about four ``Span`` objects per
        request, all retained).  Off by default: only code that reads
        :attr:`spans` should pay for them.
    exporters:
        Sinks receiving window and summary records.
    label:
        Run label stamped on every exported record (distinguishes the
        many simulations of one experiment in a shared JSON-lines file).
    """

    def __init__(
        self,
        *,
        window: float = 1.0,
        spans: bool = False,
        exporters: tuple | list = (),
        label: str = "",
    ):
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder() if spans else None
        self.windows = WindowedCollector(window)
        self.exporters = list(exporters)
        self.label = label
        self.sim = None
        self.completed = 0
        self.failed_operations = 0
        self.refused = {"rejected": 0, "dropped": 0, "shed": 0}
        self._station_names: set[str] = set()
        self._client_names: set[str] = set()
        self._prefixes: set[str] = set()
        self._finished = False

    # -- wiring ----------------------------------------------------------
    def bind(self, sim) -> None:
        """Attach to the owning simulation (called by ``Simulation.__init__``)."""
        if self.sim is not None and self.sim is not sim:
            raise ValueError("Telemetry instances are per-simulation; install a factory")
        self.sim = sim
        self.windows.bind(sim, self.exporters, self.label)

    @staticmethod
    def _dedupe(base: str, seen: set[str]) -> str:
        """Reserve a unique name, suffixing ``#2``, ``#3``, … on clashes."""
        name = base
        suffix = 2
        while name in seen:
            name = f"{base}#{suffix}"
            suffix += 1
        seen.add(name)
        return name

    def register_station(self, station) -> None:
        """Watch a station: windowed deltas plus pull-model gauges."""
        name = self._dedupe(station.name, self._station_names)
        if name == station.name:
            # Windowed per-station records keep the station's own name;
            # deduped duplicates are visible through gauges only.
            self.windows.register_station(station)
        m = self.metrics
        prefix = f"station.{name}"
        m.gauge(f"{prefix}.queue_length", lambda s=station: s.queue_length)
        m.gauge(f"{prefix}.busy", lambda s=station: s.busy)
        m.gauge(f"{prefix}.in_system", lambda s=station: s.in_system)
        m.gauge(f"{prefix}.utilization", lambda s=station: s.utilization())
        m.gauge(f"{prefix}.arrivals", lambda s=station: s.arrivals)
        m.gauge(f"{prefix}.completions", lambda s=station: s.completions)
        m.gauge(f"{prefix}.rejected", lambda s=station: s.rejected)
        m.gauge(f"{prefix}.dropped", lambda s=station: s.drops)
        m.gauge(f"{prefix}.shed", lambda s=station: s.shed)
        # Overload-control components riding on the station publish
        # whatever they expose through ``observables()``.
        if station.admission is not None:
            self.register_observables(f"{prefix}.admission", station.admission)
        if station.brownout is not None:
            self.register_observables(f"{prefix}.brownout", station.brownout)
        self.register_observables(f"{prefix}.discipline", station.discipline)

    def register_client(self, client) -> None:
        """Watch a resilient client: pull-model gauges over its counters."""
        name = self._dedupe(client.name, self._client_names)
        m = self.metrics
        prefix = f"client.{name}"
        m.gauge(f"{prefix}.operations", lambda c=client: c.operations)
        m.gauge(f"{prefix}.successes", lambda c=client: c.successes)
        m.gauge(f"{prefix}.failures", lambda c=client: c.failures)
        m.gauge(f"{prefix}.attempts", lambda c=client: c.attempts)
        m.gauge(f"{prefix}.retries", lambda c=client: c.retries)
        m.gauge(f"{prefix}.hedges", lambda c=client: c.hedges)
        m.gauge(f"{prefix}.failovers", lambda c=client: c.failovers)
        m.gauge(f"{prefix}.timeouts", lambda c=client: c.timeouts)
        m.gauge(f"{prefix}.breaker_opens", lambda c=client: c.breaker_opens)

    def register_observables(self, prefix: str, component) -> None:
        """Publish a component's ``observables()`` mapping as pull gauges.

        Any component may expose ``observables() -> {key: callable}``
        (admission controllers, queue disciplines, brownout controllers);
        each reader becomes the gauge ``<prefix>.<key>``.  Components
        without the hook are silently skipped.
        """
        readers = getattr(component, "observables", None)
        if readers is None:
            return
        prefix = self._dedupe(prefix, self._prefixes)
        for key, fn in readers().items():
            self.metrics.gauge(f"{prefix}.{key}", fn)

    # -- event recording (called from instrumented hot paths) ------------
    def record_success(self, request) -> None:
        """One request served and returned to its client."""
        self.completed += 1
        self.windows.record_success(request)
        if self.spans is not None:
            self.spans.record_request(request)

    def record_refusal(self, request, outcome: str) -> None:
        """One request refused (rejected / dropped / shed) by a station."""
        self.refused[outcome] = self.refused.get(outcome, 0) + 1
        self.windows.record_refusal(request, outcome)
        if self.spans is not None:
            self.spans.record_request(request)

    def record_failed_operation(self, request) -> None:
        """One logical operation abandoned by the resilience layer."""
        self.failed_operations += 1
        self.windows.record_failed_operation(request)

    def record_attempt(
        self,
        request,
        kind: str,
        outcome: str,
        target: str | None = None,
        start: float | None = None,
    ) -> None:
        """Record the resilience layer's view of one delivery attempt.

        ``kind`` distinguishes first tries, retries and hedges; ``target``
        says which deployment carried the attempt (``primary`` /
        ``fallback``).  Breaker fast-fails pass an explicit ``start`` so
        the span is the zero-length instant of the local refusal, not the
        operation's whole life.
        """
        if self.spans is None:
            return
        trace = request.op_id if request.op_id is not None else request.rid
        if start is None:
            start = request.created
        end = self.sim.now if self.sim is not None else start
        attrs = {"outcome": outcome}
        if target is not None:
            attrs["target"] = target
        self.spans.record(
            Span(trace, request.rid, "attempt", start, end, site=request.site,
                 kind=kind, attrs=attrs)
        )

    # -- lifecycle -------------------------------------------------------
    def finish(self) -> dict | None:
        """Flush the partial window and emit the run summary (idempotent)."""
        if self._finished:
            return None
        self._finished = True
        from repro.experiments.schema import stamp_telemetry

        self.windows.flush()
        # Whole-run latency is exact over the collector's buffer of every
        # served request's end-to-end latency.
        latencies = self.windows.latencies
        n = len(latencies)
        p50, p95 = quantiles(latencies, (0.5, 0.95)) if n else (math.nan, math.nan)
        snapshot = {
            **self.metrics.snapshot(),
            "latency.end_to_end.count": float(n),
            "latency.end_to_end.mean": sum(latencies) / n if n else math.nan,
            "latency.end_to_end.p50": float(p50),
            "latency.end_to_end.p95": float(p95),
        }
        snapshot = {k: (v if math.isfinite(v) else None) for k, v in snapshot.items()}
        summary = {
            "type": "summary",
            "t_end": self.sim.now if self.sim is not None else 0.0,
            "windows": self.windows.windows_emitted,
            "completed": self.completed,
            "refused": {
                "rejected": self.refused.get("rejected", 0),
                "dropped": self.refused.get("dropped", 0),
                "shed": self.refused.get("shed", 0),
            },
            "failed_operations": self.failed_operations,
            "metrics": snapshot,
        }
        if self.label:
            summary["run"] = self.label
        stamp_telemetry(summary)
        for exporter in self.exporters:
            exporter.export(summary)
        return summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Telemetry(label={self.label!r}, completed={self.completed}, "
            f"windows={self.windows.windows_emitted})"
        )
