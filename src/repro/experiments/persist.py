"""Persist experiment results as JSON.

Every figure runner returns a small dataclass tree (floats, tuples,
NumPy arrays, nested summaries).  :func:`result_to_dict` flattens that
to JSON-safe types, :func:`save_result` / :func:`load_result` handle the
files, and :func:`dump_all_figures` materializes the full evaluation to
a directory — the artifact EXPERIMENTS.md is written from.

Loading returns plain dictionaries, not reconstructed dataclasses: the
persisted artifact is a *record* for comparison and reporting, not a
resumable computation.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.experiments import figures as F
from repro.experiments.config import ExperimentConfig
from repro.workload.service import DNNInferenceModel

__all__ = ["result_to_dict", "save_result", "load_result", "dump_all_figures"]


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
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: result_to_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
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


def save_result(obj: Any, path: str | Path) -> None:
    """Serialize one experiment result to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(obj), indent=2, allow_nan=False))


def load_result(path: str | Path) -> Any:
    """Load a persisted result as plain dictionaries/lists."""
    return json.loads(Path(path).read_text())


#: Internal: figure name -> runner, in paper order.  The registry in
#: :mod:`repro.experiments.result` is the source of truth; this table
#: only drives :func:`dump_all_figures`'s default set and ordering.
_FIGURE_RUNNERS: dict[str, Callable[[ExperimentConfig], Any]] = {
    "fig2": F.fig2_spatial_skew,
    "fig3": F.fig3_mean_typical,
    "fig4": F.fig4_mean_distant,
    "fig5": F.fig5_tail_distant,
    "fig6": F.fig6_distribution,
    "fig7": F.fig7_cutoff_utilizations,
    "fig8": F.fig8_azure_workload,
    "fig9": F.fig9_azure_latency,
    "fig10": F.fig10_azure_per_site,
}


def dump_experiment(name: str, config: ExperimentConfig, path: str | Path) -> Path:
    """Run one registered experiment and persist its full envelope.

    Unlike :func:`dump_all_figures` (raw runner output, the historical
    format) this writes the :class:`~repro.experiments.result.ExperimentResult`
    projection — name, metadata, harvested tables/series and the
    rendered text — one self-describing JSON file per experiment.
    """
    from repro.experiments.result import run_experiment

    return run_experiment(name, config).save(path)


def dump_all_figures(
    config: ExperimentConfig, outdir: str | Path, *, only: list[str] | None = None
) -> dict[str, Path]:
    """Run figure experiments and persist each to ``outdir/<name>.json``.

    Figures run through the experiment registry
    (:mod:`repro.experiments.result`); the persisted JSON remains the
    raw runner output for continuity with previously dumped artifacts.

    Parameters
    ----------
    only:
        Restrict to a subset of figure names (default: all).

    Returns
    -------
    dict
        Figure name → written path.
    """
    from repro.experiments.result import run_experiment

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = list(_FIGURE_RUNNERS) if only is None else list(only)
    unknown = [n for n in names if n not in _FIGURE_RUNNERS]
    if unknown:
        raise ValueError(f"unknown figures: {unknown}")
    written: dict[str, Path] = {}
    for name in names:
        result = run_experiment(name, config)
        path = outdir / f"{name}.json"
        save_result(result.raw, path)
        written[name] = path
    return written
