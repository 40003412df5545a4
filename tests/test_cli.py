"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.experiments.result import ExperimentResult, available


class TestCliBasics:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "Regenerate experiments" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for spec in available():
            assert spec.name in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["figure99"])


class TestCutoffCommand:
    def test_basic_query(self, capsys):
        assert main(["cutoff", "--cloud-rtt", "24"]) == 0
        out = capsys.readouterr().out
        assert "mean-latency cutoff" in out
        assert "p95-latency" in out

    def test_requires_cloud_rtt(self):
        with pytest.raises(SystemExit):
            main(["cutoff"])

    def test_machines_option(self, capsys):
        assert main(["cutoff", "--cloud-rtt", "54", "--machines", "2"]) == 0
        assert "k=10 machines" in capsys.readouterr().out


class TestSensitivityCommand:
    def test_runs_and_prints_sweeps(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "cores" in out and "cloud RTT" in out and "p95 cutoff" in out


class TestDumpCommand:
    def test_dump_subset(self, tmp_path, capsys):
        assert main(["dump", "--out", str(tmp_path), "--figures", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert ExperimentResult.load(tmp_path / "fig2.json").name == "fig2"

    def test_dump_unknown_figure(self, tmp_path):
        with pytest.raises(ValueError):
            main(["dump", "--out", str(tmp_path), "--figures", "fig99"])


class TestExperimentCommands:
    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_seed_override(self, capsys):
        assert main(["fig2", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["fig2", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second  # deterministic given seed


class TestFlagNormalization:
    def test_dump_out_is_canonical(self, tmp_path, capsys):
        assert main(["dump", "--out", str(tmp_path), "--figures", "fig2"]) == 0
        assert (tmp_path / "fig2.json").exists()
        assert "deprecated" not in capsys.readouterr().err

    def test_golden_update_golden_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "campaign", "whatever.yaml",
                "--golden", str(tmp_path / "a.json"),
                "--update-golden", str(tmp_path / "b.json"),
            ])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "--golden and --update-golden are mutually exclusive" in message

    def test_telemetry_workers_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "fig2",
                "--telemetry", str(tmp_path / "t.jsonl"),
                "--workers", "4",
            ])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "--telemetry and --workers are mutually exclusive" in message

    def test_campaign_accepts_common_flags(self, capsys):
        # --workers/--checkpoint/--resume/--telemetry all parse on
        # campaign (the normalization contract); a bogus file still
        # fails *after* argparse with the campaign exit code, not 2.
        rc = main(["campaign", "/nonexistent/x.yaml", "--workers", "1"])
        assert rc == 3

    def test_resume_requires_checkpoint_everywhere(self, capsys):
        for command in ("fig2", "campaign x.yaml", "serve"):
            with pytest.raises(SystemExit) as err:
                main([*command.split(), "--resume"])
            assert err.value.code == 2
            assert "--resume requires --checkpoint" in capsys.readouterr().err


class TestValidateCommand:
    """``repro validate`` reads YAML scalars the way PyYAML types them."""

    @pytest.fixture(autouse=True)
    def _needs_yaml(self):
        pytest.importorskip("yaml")

    def _campaign(self, tmp_path, **fields):
        path = tmp_path / "c.yaml"
        lines = "".join(f"    {key}: {value}\n" for key, value in fields.items())
        path.write_text(f"campaign: c\nscenarios:\n  - name: a\n{lines}")
        return path

    def test_binary_integer_validates(self, tmp_path, capsys):
        from repro.campaign import load_campaign

        path = self._campaign(tmp_path, utilization=0.5, sites="0b11")
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert load_campaign(path).scenarios[0].sites == 3

    def test_uppercase_boolean_is_a_schema_error(self, tmp_path, capsys):
        path = self._campaign(tmp_path, utilization="TRUE")
        assert main(["validate", str(path)]) == 4
        assert "scenarios[0].utilization: expected a number, got True" in (
            capsys.readouterr().err)
