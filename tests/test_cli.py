"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "s_min" in out and "4/3" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "bounds hold: True" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "Delta_R" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "Figure 4a" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig2"])

    def test_requires_argument(self):
        with pytest.raises(SystemExit):
            main([])


class TestAnalyze:
    @pytest.fixture
    def taskset_file(self, tmp_path):
        from repro.experiments.table1 import table1_taskset
        from repro.io import save_taskset

        path = tmp_path / "set.json"
        save_taskset(table1_taskset(), path)
        return str(path)

    def test_analyze_report(self, taskset_file, capsys):
        assert main(["analyze", "--taskset", taskset_file, "--speedup", "2"]) == 0
        out = capsys.readouterr().out
        assert "1.33333" in out
        assert "resetting time" in out

    def test_analyze_with_budget(self, taskset_file, capsys):
        assert main(
            ["analyze", "--taskset", taskset_file, "--speedup", "2", "--budget", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "Within recovery budget 6" in out and "True" in out

    def test_analyze_requires_file(self):
        with pytest.raises(SystemExit):
            main(["analyze"])


class TestSubcommandFlags:
    """Each subcommand accepts only its own flags; the rest exit 2."""

    def test_flags_of_other_commands_are_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "fig3", "--tasksets", "/x", "--timeout", "-5",
                "--rules", "XX", "--port", "1",
            ])
        assert excinfo.value.code == 2

    def test_serve_rejects_batch_retry_flags(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--retries", "9", "--timeout", "5"])
        assert excinfo.value.code == 2
