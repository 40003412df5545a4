"""Tests for the sensitivity sweeps and result persistence."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.scenarios import TYPICAL_CLOUD
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import fig2_spatial_skew
from repro.experiments.result import ExperimentResult, result_to_dict, run_experiment
from repro.experiments.sensitivity import (
    cutoff_vs_cores,
    cutoff_vs_delta_n,
    cutoff_vs_service_cv2,
    cutoff_vs_sites,
)

TINY = ExperimentConfig(requests_per_site=5_000, azure_duration=900.0)


class TestSensitivity:
    def test_more_cores_raise_cutoff(self):
        rows = cutoff_vs_cores(TYPICAL_CLOUD, cores=(1, 4, 16))
        means = [r.mean_cutoff for r in rows]
        assert means[0] < means[1] < means[2]

    def test_cores_one_is_the_paper_base_case(self):
        (row,) = cutoff_vs_cores(TYPICAL_CLOUD, cores=(1,))
        assert row.parameter == "cores"
        assert 0.0 < row.mean_cutoff < 1.0

    def test_service_variability_lowers_cutoff(self):
        rows = cutoff_vs_service_cv2(TYPICAL_CLOUD, cv2s=(0.0, 1.0, 2.0))
        means = [r.mean_cutoff for r in rows]
        assert means[0] > means[-1]

    def test_more_sites_lower_cutoff(self):
        rows = cutoff_vs_sites(TYPICAL_CLOUD, sites=(2, 10, 50))
        means = [r.mean_cutoff for r in rows]
        assert means[0] > means[1] > means[2]

    def test_delta_n_grid_monotone(self):
        rows = cutoff_vs_delta_n(TYPICAL_CLOUD, rtts_ms=(5, 24, 80))
        means = [r.mean_cutoff for r in rows]
        tails = [r.tail_cutoff for r in rows]
        assert means[0] < means[1] < means[2]
        # Tail vs mean come from different approximations; allow a small
        # tolerance at the tiny-delta_n corner (see the E6 benchmark).
        assert all(t <= m + 0.05 for t, m in zip(tails, means, strict=True))

    def test_delta_n_grid_rejects_rtt_below_edge(self):
        with pytest.raises(ValueError):
            cutoff_vs_delta_n(TYPICAL_CLOUD, rtts_ms=(0.5,))


class TestResultToDict:
    def test_scalars_and_arrays(self):
        d = result_to_dict({"a": np.array([1.0, 2.0]), "b": np.float64(3.0), "c": (1, "x")})
        assert d == {"a": [1.0, 2.0], "b": 3.0, "c": [1, "x"]}

    def test_nan_becomes_none(self):
        assert result_to_dict(float("nan")) is None
        assert result_to_dict(np.array([1.0, np.inf])) == [1.0, None]

    def test_dataclass_tree(self):
        res = fig2_spatial_skew(TINY)
        d = result_to_dict(res)
        assert set(d) == {"per_cell_mean_load", "quartiles", "skew"}
        assert isinstance(d["per_cell_mean_load"], list)

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            result_to_dict(object())


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        """save → load keeps the runner's whole result under ``data``."""
        result = run_experiment("fig6", TINY)
        path = result.save(tmp_path / "fig6.json")
        loaded = ExperimentResult.load(path)
        assert loaded.data == result_to_dict(result.raw)
        assert loaded.data["rate"] == 10.0
        assert loaded.data["edge"]["count"] > 0
        # Strict JSON (no bare NaN tokens).
        json.loads(path.read_text(), parse_constant=_reject_constant)

    def test_dump_subset(self, tmp_path, capsys):
        assert main(["dump", "--out", str(tmp_path), "--figures", "fig2"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["fig2.json"]
        loaded = ExperimentResult.load(tmp_path / "fig2.json")
        assert loaded.data["skew"]["cell_cv"] > 0

    def test_dump_unknown_rejected(self, tmp_path):
        for name in ("fig99", "validation"):  # only registered figures dump
            with pytest.raises(ValueError, match=name):
                main(["dump", "--out", str(tmp_path), "--figures", name])

    def test_all_runners_registered(self, tmp_path, monkeypatch, capsys):
        """``dump`` without ``--figures`` saves the nine paper figures."""
        monkeypatch.setattr(
            "repro.cli.run_experiment", lambda name, cfg: ExperimentResult(name, "")
        )
        assert main(["dump", "--out", str(tmp_path)]) == 0
        assert {p.stem for p in tmp_path.iterdir()} == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
        }
