"""Tests for the §4.2 validation table and formula-consistency check."""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_validation
from repro.experiments.validation import (
    PAPER_ANCHORS,
    paper_formula_consistency,
    validation_table,
)


class TestValidationTable:
    @pytest.fixture(scope="class")
    def rows(self, cfg):
        return validation_table(cfg)

    def test_one_row_per_anchor(self, rows):
        assert len(rows) == len(PAPER_ANCHORS)
        assert [r.k_machines for r in rows] == [5, 10]

    def test_measured_crossovers_exist(self, rows):
        for r in rows:
            assert r.our_measured is not None
            assert 0.3 < r.our_measured < 0.98

    def test_our_prediction_close_to_our_measurement(self, rows):
        """The reproduction's own §4.2 claim: model within ~15%."""
        for r in rows:
            assert r.prediction_error is not None
            assert r.prediction_error < 0.15

    def test_measured_in_paper_neighborhood(self, rows):
        """Measured cutoffs within ±0.15 of the paper's measured values."""
        for r in rows:
            assert r.our_measured == pytest.approx(r.paper_measured, abs=0.15)

    def test_k10_cutoff_above_k5(self, rows):
        assert rows[1].our_measured > rows[0].our_measured

    def test_render(self, rows):
        out = render_validation(rows)
        assert "paper pred" in out and "our meas" in out

    def test_honors_workers_checkpoint_and_resume(self, tmp_path):
        from repro.obs import provider

        small = ExperimentConfig(requests_per_site=1000)
        plain = validation_table(small)
        path = str(tmp_path / "v.journal")
        checkpointed = validation_table(dataclasses.replace(small, checkpoint=path))
        with open(path) as fh:
            # A header, then each anchor's sweep points up to its mean
            # crossover, where find_crossover stops: 7 and 10 of 12.
            assert len(fh.read().splitlines()) == 1 + 7 + 10
        resumed = validation_table(
            dataclasses.replace(small, checkpoint=path, resume=True)
        )
        fanned = validation_table(dataclasses.replace(small, workers=2))
        assert checkpointed == plain and resumed == plain and fanned == plain
        # workers=2 really fans out: fan-out is refused under telemetry.
        with provider.installed(lambda: None):
            with pytest.raises(provider.TelemetryFanoutError):
                validation_table(dataclasses.replace(small, workers=2))


class TestFormulaConsistency:
    def test_paper_anchors_imply_one_unit(self):
        """DESIGN.md §6: both §4.2 anchors solve to the same time unit."""
        c = paper_formula_consistency()
        assert c["unit_from_k5_anchor"] == pytest.approx(
            c["unit_from_k10_anchor"], rel=0.03
        )

    def test_cross_prediction(self):
        """Calibrating on one anchor predicts the other within 0.02 rho."""
        c = paper_formula_consistency()
        assert c["k10_cutoff_predicted_from_k5_unit"] == pytest.approx(0.75, abs=0.02)
        assert c["k5_cutoff_predicted_from_k10_unit"] == pytest.approx(0.64, abs=0.02)
