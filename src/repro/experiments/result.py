"""Unified experiment-result API: one return type, one registry.

Historically every experiment runner returned its own dataclass
(``SweepFigure``, ``PulseResult``, …) and every consumer — the CLI, the
JSON dumper, the markdown report — kept its own parallel table of
runners and renderers.  This module collapses that into:

* :class:`ExperimentResult` — the single result envelope: ``name``,
  rendered ``text``, the runner's whole structured result in JSON form
  (``data``), JSON-safe ``tables`` (named row-lists) and ``series``
  (named numeric columns) harvested from it, ``metadata`` (config,
  description) and the original ``raw`` object for code that wants the
  typed dataclass;
* :class:`ExperimentSpec` / :func:`register` — the experiment registry,
  mapping a name to its runner and renderer once.  The CLI (commands,
  ``dump``) and the markdown report are built from it;
* :func:`run_experiment` — run a registered experiment and wrap the
  outcome.

Telemetry composes orthogonally: :func:`run_experiment` builds ordinary
``Simulation`` objects, so installing an observability factory
(:func:`repro.obs.install`, or ``--telemetry`` on the CLI) makes every
experiment emit windowed records with no per-experiment wiring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.experiments import figures as F
from repro.experiments import report as R
from repro.experiments.config import ExperimentConfig
from repro.workload.service import DNNInferenceModel

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "register",
    "get_spec",
    "available",
    "run_experiment",
    "result_to_dict",
]


@dataclass
class ExperimentResult:
    """The envelope every experiment resolves to.

    ``data`` is the runner's whole structured result in JSON form
    (:func:`result_to_dict`); ``tables`` maps a dotted path inside it to
    a list of flat row-dicts and ``series`` maps paths to numeric
    columns.  All three are JSON-safe (NaN → ``None``) so ``as_dict`` /
    ``save`` need no further conversion, and ``save`` → ``load`` loses
    nothing but ``raw``: the runner's original typed result, kept for
    in-process consumers.
    """

    name: str
    text: str
    tables: dict[str, list[dict]] = field(default_factory=dict)
    series: dict[str, list] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    data: Any = None
    raw: Any = None

    def as_dict(self) -> dict:
        """JSON-safe projection (everything except ``raw``).

        An enveloped ``experiment-result`` wire document
        (:mod:`repro.experiments.schema`): ``schema_version`` + ``kind``
        plus the stable payload fields.
        """
        from repro.experiments import schema as wire

        return wire.dump_experiment_result(self)

    def save(self, path: str | Path) -> Path:
        """Persist the envelope to ``path`` as indented JSON."""
        from repro.experiments import schema as wire

        return wire.dump(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentResult":
        """Load a result written by :meth:`save`.

        The loaded result carries ``raw=None``; ``data`` holds the
        runner's result in its JSON form.
        """
        from repro.experiments import schema as wire

        return wire.load_experiment_result(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExperimentResult(name={self.name!r}, tables={sorted(self.tables)}, "
            f"series={len(self.series)})"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: how to run it and how to render it."""

    name: str
    description: str
    runner: Callable[[ExperimentConfig], Any]
    renderer: Callable[[Any], str]


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(
    name: str,
    description: str,
    runner: Callable[[ExperimentConfig], Any],
    renderer: Callable[[Any], str],
    *,
    overwrite: bool = False,
) -> ExperimentSpec:
    """Add an experiment to the registry (used by extensions and tests)."""
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"experiment {name!r} already registered")
    spec = ExperimentSpec(name, description, runner, renderer)
    _REGISTRY[name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    """Look up one experiment; raises ``KeyError`` with the known names."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(_REGISTRY)}")
    return spec


def available() -> list[ExperimentSpec]:
    """Registered experiments in registration order."""
    return list(_REGISTRY.values())


def run_experiment(name: str, config: ExperimentConfig) -> ExperimentResult:
    """Run a registered experiment and wrap its outcome in the envelope."""
    spec = get_spec(name)
    raw = spec.runner(config)
    data = result_to_dict(raw)
    tables: dict[str, list[dict]] = {}
    series: dict[str, list] = {}
    _harvest(data, "", tables, series)
    return ExperimentResult(
        name=name,
        text=spec.renderer(raw),
        tables=tables,
        series=series,
        metadata={
            "experiment": name,
            "description": spec.description,
            "config": result_to_dict(config),
        },
        data=data,
        raw=raw,
    )


def result_to_dict(obj: Any) -> Any:
    """Recursively convert a result object to JSON-safe types.

    Handles dataclasses, NumPy arrays/scalars, mappings, sequences and
    scalars; ``nan``/``inf`` become ``None`` (JSON has no representation
    for them and silently emitting bare ``NaN`` breaks strict parsers).
    """
    if isinstance(obj, DNNInferenceModel):
        return {
            "saturation_rate": obj.saturation_rate,
            "cores": obj.cores,
            "cv2": obj.cv2,
        }
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: result_to_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return [result_to_dict(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): result_to_dict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [result_to_dict(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__!r} to JSON")


def _is_scalar(x: Any) -> bool:
    return x is None or isinstance(x, (str, int, float, bool))


def _flatten_row(row: dict, prefix: str = "") -> dict:
    """One table row: nested dicts become dotted scalar columns."""
    flat: dict = {}
    for key, value in row.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten_row(value, path))
        elif _is_scalar(value):
            flat[path] = value
        # nested lists stay only in ``data`` — a cell must be a scalar
    return flat


def _harvest(node: Any, prefix: str, tables: dict, series: dict) -> None:
    """Walk a JSON-safe result tree, collecting tables and series.

    A list of dicts is a table (rows flattened to dotted scalar
    columns); a list of numbers (or ``None`` for NaN) is a series;
    dicts recurse with dotted prefixes.  Anything else stays only in
    ``data`` — harvesting is a view, not a round-trip.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            _harvest(value, f"{prefix}.{key}" if prefix else str(key), tables, series)
        return
    if isinstance(node, list) and node and prefix:
        if all(isinstance(row, dict) for row in node):
            rows = [_flatten_row(row) for row in node]
            if any(rows):
                tables[prefix] = rows
            return
        numeric = all(
            v is None or (isinstance(v, (int, float)) and not isinstance(v, bool))
            for v in node
        )
        if numeric:
            series[prefix] = node


# -- built-in experiments ------------------------------------------------
def _run_validation(cfg: ExperimentConfig) -> dict:
    from repro.experiments.validation import paper_formula_consistency, validation_table

    return {"table": validation_table(cfg), "consistency": paper_formula_consistency()}


def _render_validation(raw: dict) -> str:
    return (
        R.render_validation(raw["table"])
        + f"\npaper formula unit consistency: {raw['consistency']}"
    )


def _run_resilience(cfg: ExperimentConfig) -> dict:
    from repro.experiments.resilience import outage_recovery, retry_storm

    return {"storm": retry_storm(cfg), "recovery": outage_recovery(cfg)}


def _render_resilience(raw: dict) -> str:
    return R.render_retry_storm(raw["storm"]) + "\n\n" + R.render_outage_recovery(raw["recovery"])


def _run_overload(cfg: ExperimentConfig) -> dict:
    from repro.experiments import overload as O

    return {
        "disciplines": O.discipline_sweep(cfg),
        "admission_pulse": O.admission_pulse(cfg),
        "priority_shedding": O.priority_shedding(cfg),
        "brownout": O.brownout_tradeoff(cfg),
        "storm_defense": O.storm_defense(cfg),
    }


def _render_overload(raw: dict) -> str:
    return "\n\n".join(
        [
            R.render_discipline_sweep(raw["disciplines"]),
            R.render_admission_pulse(raw["admission_pulse"]),
            R.render_priority_shedding(raw["priority_shedding"]),
            R.render_brownout_tradeoff(raw["brownout"]),
            R.render_storm_defense(raw["storm_defense"]),
        ]
    )


def _run_telemetry(cfg: ExperimentConfig):
    from repro.experiments.telemetry import pulse_timeline

    return pulse_timeline(cfg)


def _render_telemetry(raw) -> str:
    from repro.experiments.telemetry import render_pulse_timeline

    return render_pulse_timeline(raw)


register("fig2", "spatial load skew across edge cells (taxi stand-in)",
         F.fig2_spatial_skew, R.render_fig2)
register("fig3", "mean latency, edge vs typical cloud (24 ms)",
         F.fig3_mean_typical, R.render_sweep_figure)
register("fig4", "mean latency, edge vs distant cloud (54 ms)",
         F.fig4_mean_distant, R.render_sweep_figure)
register("fig5", "p95 latency, edge vs distant cloud",
         F.fig5_tail_distant, R.render_sweep_figure)
register("fig6", "latency distributions at 10 req/s",
         F.fig6_distribution, R.render_fig6)
register("fig7", "cutoff utilization vs cloud location",
         F.fig7_cutoff_utilizations, R.render_fig7)
register("fig8", "per-site workload under the Azure-like trace",
         F.fig8_azure_workload, R.render_fig8)
register("fig9", "edge vs cloud latency over time (Azure-like trace)",
         F.fig9_azure_latency, R.render_fig9)
register("fig10", "per-site latency box plot (Azure-like trace)",
         F.fig10_azure_per_site, R.render_fig10)
register("validation", "the §4.2 analytic-vs-measured table",
         _run_validation, _render_validation)
register("resilience", "retry storms and breaker+failover recovery under edge outages",
         _run_resilience, _render_resilience)
register("overload", "server-side overload control: disciplines, admission, brownout",
         _run_overload, _render_overload)
register("telemetry", "windowed live telemetry through the E11 admission pulse (E12)",
         _run_telemetry, _render_telemetry)
