"""CLI coverage for the schedule surface: solve/schedules/validate."""

from __future__ import annotations

from repro.cli import main
from repro.reporting.csvio import read_series_csv_rows


class TestSchedulesCommand:
    def test_lists_all_kinds(self, capsys):
        assert main(["schedules"]) == 0
        out = capsys.readouterr().out
        for kind in ("two", "const", "esc", "geom"):
            assert kind in out
        assert "geom:0.4,1.5,1" in out


class TestSolveCommand:
    def test_plain_solve_matches_paper_optimum(self, capsys):
        assert main(["solve", "--config", "hera-xscale", "--rho", "3"]) == 0
        out = capsys.readouterr().out
        assert "(0.4, 0.4)" in out
        assert "2764" in out

    def test_schedule_solve_end_to_end(self, capsys, tmp_path):
        csv_path = tmp_path / "geom.csv"
        assert main([
            "solve", "--config", "hera-xscale", "--rho", "3",
            "--schedule", "geom:0.4,1.5,1",
            "--simulate", "8000", "--seed", "7",
            "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "schedule" in out
        assert "PASS" in out
        rows = read_series_csv_rows(csv_path)
        assert rows[0]["schedule"] == "geom:0.4,1.5,1"
        # General schedules route to the vectorised batch kernel.
        assert rows[0]["backend"] == "schedule-grid"
        assert float(rows[0]["work"]) > 0

    def test_schedule_axis_batched_solve(self, capsys, tmp_path):
        csv_path = tmp_path / "axis.csv"
        assert main([
            "solve", "--config", "hera-xscale", "--rho", "3",
            "--schedule", "two:0.4,0.6",
            "--schedule", "esc:0.4,0.6,0.8",
            "--schedule", "geom:0.4,1.5,1",
            "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "3 policies" in out
        assert "best" in out
        rows = read_series_csv_rows(csv_path)
        assert [r["schedule"] for r in rows] == [
            "two:0.4,0.6", "esc:0.4,0.6,0.8", "geom:0.4,1.5,1",
        ]
        # Every scheduled row routes to the batch backend (two-speed
        # rows take its scalar fast path).
        assert {r["backend"] for r in rows} == {"schedule-grid"}

    def test_schedule_axis_bad_spec_reports_error(self, capsys):
        assert main([
            "solve", "--schedule", "two:0.4,0.6", "--schedule", "warp:9",
        ]) == 1
        assert "invalid scenario" in capsys.readouterr().out

    def test_schedule_axis_bad_backend_reports_error(self, capsys):
        assert main([
            "solve", "--schedule", "two:0.4,0.6", "--schedule", "esc:0.4,0.6,0.8",
            "--backend", "grid",
        ]) == 1
        assert "bad backend routing" in capsys.readouterr().out
        assert main([
            "solve", "--schedule", "two:0.4,0.6", "--schedule", "esc:0.4,0.6,0.8",
            "--backend", "nope",
        ]) == 1
        assert "bad backend routing" in capsys.readouterr().out

    def test_escalating_schedule_solve(self, capsys):
        assert main([
            "solve", "--schedule", "esc:0.4,0.6,0.8", "--rho", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "esc:0.4,0.6,0.8" in out

    def test_combined_mode_schedule(self, capsys):
        assert main([
            "solve", "--mode", "combined", "--failstop-fraction", "0.5",
            "--schedule", "two:0.4,0.6",
        ]) == 0
        out = capsys.readouterr().out
        assert "f=0.5" in out

    def test_bad_spec_reports_error(self, capsys):
        assert main(["solve", "--schedule", "warp:9"]) == 1
        assert "invalid scenario" in capsys.readouterr().out

    def test_infeasible_bound_reports_error(self, capsys):
        assert main(["solve", "--rho", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "infeasible" in out
        assert "Traceback" not in out

    def test_bad_backend_routing_reports_error(self, capsys):
        assert main(["solve", "--schedule", "two:0.4,0.6", "--backend", "grid"]) == 1
        assert "bad backend routing" in capsys.readouterr().out
        assert main(["solve", "--backend", "nope"]) == 1
        assert "bad backend routing" in capsys.readouterr().out


class TestValidateWithSchedule:
    def test_bad_spec_reports_error(self, capsys):
        assert main(["validate", "--schedule", "esc:0.4@x"]) == 1
        assert "invalid schedule" in capsys.readouterr().out

    def test_schedule_flag_overrides_pair(self, capsys):
        assert main([
            "validate", "--config", "hera-xscale", "--work", "2764",
            "--schedule", "geom:0.4,1.5,1", "--samples", "8000",
        ]) == 0
        out = capsys.readouterr().out
        assert "geom:0.4,1.5,1" in out
        assert "PASS" in out
