"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_system
from repro.errors import ReproError
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem


class TestParseSystem:
    def test_grid(self):
        system = parse_system("grid:4")
        assert isinstance(system, GridQuorumSystem)
        assert system.k == 4

    def test_majority_kinds(self):
        assert parse_system("majority:simple:2").universe_size == 5
        assert parse_system("majority:bft:2").universe_size == 7
        assert parse_system("majority:qu:2").universe_size == 11

    def test_case_insensitive(self):
        assert isinstance(parse_system("GRID:3"), GridQuorumSystem)
        assert isinstance(
            parse_system("Majority:QU:1"), ThresholdQuorumSystem
        )

    def test_bad_specs(self):
        for spec in ("grid", "grid:2:3", "majority:nope:1", "ring:5"):
            with pytest.raises(ReproError):
                parse_system(spec)


class TestCommands:
    def test_topologies(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "planetlab-50" in out
        assert "daxlist-161" in out

    def test_systems(self, capsys):
        assert main(["systems", "--max-universe", "16"]) == 0
        out = capsys.readouterr().out
        assert "grid:4" in out
        assert "majority:simple:1" in out
        assert "majority:qu:3" in out
        assert "majority:qu:4" not in out  # universe 21 > 16

    def test_plan_grid_lp(self, capsys):
        code = main(
            ["plan", "--system", "grid:3", "--demand", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Grid 3x3" in out
        assert "response time" in out
        assert "crash tolerance" in out
        assert "LP-tuned" in out

    def test_plan_closest_strategy(self, capsys):
        code = main(
            ["plan", "--system", "grid:2", "--strategy", "closest"]
        )
        assert code == 0
        assert "closest" in capsys.readouterr().out

    def test_plan_majority_falls_back_from_lp(self, capsys):
        code = main(["plan", "--system", "majority:simple:2"])
        assert code == 0
        assert "LP unavailable" in capsys.readouterr().out

    def test_plan_many_to_one(self, capsys):
        code = main(
            ["plan", "--system", "grid:3", "--many-to-one", "2.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "many-to-one" in out

    def test_plan_bad_system_spec_errors(self, capsys):
        code = main(["plan", "--system", "ring:7"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_dynamics_replay(self, capsys):
        code = main(
            [
                "dynamics", "--system", "grid:2", "--epochs", "4",
                "--scenario", "diurnal", "--candidates", "5",
                "--policies", "static,threshold:0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dynamics replay: 4 epochs" in out
        assert "clairvoyant" in out
        assert "mean regret" in out

    def test_dynamics_bad_policy_errors(self, capsys):
        code = main(
            ["dynamics", "--epochs", "4", "--policies", "sometimes"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_dynamics_negative_candidates_errors(self, capsys):
        code = main(["dynamics", "--epochs", "4", "--candidates", "-3"])
        assert code == 1
        assert "candidates" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["-1", "nan", "inf"])
    def test_dynamics_bad_simulate_rate_errors(self, capsys, rate):
        code = main(["dynamics", "--epochs", "4", "--simulate-rate", rate])
        assert code == 1
        assert "--simulate-rate must be finite and >= 0" in (
            capsys.readouterr().err
        )

    def test_dynamics_closed_loop(self, capsys):
        code = main(
            [
                "dynamics", "--system", "grid:2", "--epochs", "4",
                "--scenario", "diurnal", "--candidates", "5",
                "--policies", "static,threshold:0.1", "--closed-loop",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "closed_loop: True" in out
        assert "telemetry_noise: 0.05" in out
        assert "mean est err" in out

    def test_dynamics_tune_thresholds(self, capsys):
        code = main(
            [
                "dynamics", "--system", "grid:2", "--epochs", "4",
                "--scenario", "diurnal", "--candidates", "5",
                "--closed-loop", "--tune-thresholds", "0.05,0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold auto-tune: 2 candidate(s)" in out
        assert "best: threshold:" in out

    def test_dynamics_tune_rejects_policies(self, capsys):
        """The sweep's baseline is fixed, so a --policies list alongside
        it is an error rather than silently ignored."""
        code = main(
            [
                "dynamics", "--epochs", "4", "--closed-loop",
                "--tune-thresholds", "0.05", "--policies", "periodic:2",
            ]
        )
        assert code == 1
        assert "--policies" in capsys.readouterr().err

    def test_dynamics_mode_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--epochs", "4", "--mode", "cold"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err

    def test_dynamics_simulate_rate_reports_every_segment(self, capsys):
        code = main(
            [
                "dynamics", "--system", "grid:2", "--epochs", "6",
                "--scenario", "partition-heal", "--candidates", "5",
                "--policies", "static", "--simulate-rate", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 segment(s)" in out
        rows = [line for line in out.splitlines() if "epochs [" in line]
        assert [row.split(":")[0].strip() for row in rows] == [
            "epochs [0,2)", "epochs [2,4)", "epochs [4,6)",
        ]

    def test_dynamics_noise_requires_closed_loop(self, capsys):
        code = main(["dynamics", "--epochs", "4", "--noise", "0.1"])
        assert code == 1
        assert "--closed-loop" in capsys.readouterr().err

    def test_dynamics_tune_requires_closed_loop(self, capsys):
        code = main(
            ["dynamics", "--epochs", "4", "--tune-thresholds", "0.1"]
        )
        assert code == 1
        assert "--closed-loop" in capsys.readouterr().err

    def test_dynamics_bad_tune_list_errors(self, capsys):
        code = main(
            [
                "dynamics", "--epochs", "4", "--closed-loop",
                "--tune-thresholds", "0.1,zap",
            ]
        )
        assert code == 1
        assert "comma-separated numbers" in capsys.readouterr().err


class TestFigureAll:
    class _Result:
        def __init__(self, figure_id):
            self.figure_id = figure_id

        def render_text(self):
            return f"<{self.figure_id}>"

    def test_all_runs_every_figure_in_sorted_order(self, monkeypatch, capsys):
        import repro.cli as cli

        calls = []

        def fake_run_figure(figure_id, **kwargs):
            calls.append((figure_id, kwargs))
            return self._Result(figure_id)

        monkeypatch.setattr(cli, "run_figure", fake_run_figure)
        assert main(["figure", "all", "--fast", "--no-cache"]) == 0
        assert [figure_id for figure_id, _ in calls] == sorted(cli.FIGURES)
        assert all(
            kwargs == {"fast": True, "jobs": 1, "cache": None}
            for _, kwargs in calls
        )
        out = capsys.readouterr().out
        for figure_id in cli.FIGURES:
            assert f"<{figure_id}>" in out

    def test_sim_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig_throughput", "--sim-backend", "fluid"])
        assert exc.value.code == 2
        assert "--sim-backend" in capsys.readouterr().err
