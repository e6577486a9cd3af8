"""Integration tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestConfigs:
    def test_lists_eight(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert out.count("lambda=") == 8
        assert "hera-xscale" in out
        assert "coastal-ssd-crusoe" in out


class TestTable:
    def test_default_table(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "2764" in out

    def test_custom_rho(self, capsys):
        assert main(["table", "--rho", "1.775"]) == 0
        out = capsys.readouterr().out
        assert "0.60" in out and "0.80" in out

    def test_csv_export(self, capsys, tmp_path):
        csv = tmp_path / "table.csv"
        assert main(["table", "--csv", str(csv)]) == 0
        assert csv.exists()
        assert "sigma1" in csv.read_text().splitlines()[0]


class TestSweep:
    def test_basic_sweep(self, capsys):
        assert main(["sweep", "--config", "atlas-crusoe", "--axis", "C",
                     "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "axis = C" in out
        assert "energy saving" in out

    def test_sweep_csv(self, capsys, tmp_path):
        csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "V", "--points", "4", "--csv", str(csv)]) == 0
        assert csv.exists()

    def test_invalid_axis_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "bogus"])


class TestFigure:
    def test_single_panel_figure(self, capsys):
        assert main(["figure", "fig2", "--points", "4"]) == 0
        out = capsys.readouterr().out
        assert "axis = C" in out

    def test_figure_csv_dir(self, capsys, tmp_path):
        assert main(["figure", "fig2", "--points", "3",
                     "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig2_C.csv").exists()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestErrorsCommand:
    def test_lists_families_and_grammar(self, capsys):
        assert main(["errors"]) == 0
        out = capsys.readouterr().out
        for kind in ("exp", "weibull", "gamma", "trace"):
            assert kind in out
        assert "failstop=" in out
        assert "--errors" in out


class TestSolveErrors:
    def test_solve_with_weibull_model(self, capsys):
        assert main([
            "solve", "--errors", "weibull:shape=0.7,mtbf=3e5,failstop=0.2",
            "--rho", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "schedule-grid" in out
        assert "weibull" in out
        assert "speed pair" in out

    def test_solve_with_model_and_schedule(self, capsys):
        assert main([
            "solve", "--errors", "gamma:shape=2,mtbf=3e5",
            "--schedule", "geom:0.4,1.5,1", "--rho", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "gamma" in out and "geom" in out

    def test_bad_spec_rejected(self, capsys):
        assert main(["solve", "--errors", "weibull:bogus=1"]) == 1
        assert "invalid scenario" in capsys.readouterr().out

    def test_infeasible_section5_solve_names_rho_min(self, capsys):
        assert main([
            "solve", "--mode", "combined", "--failstop-fraction", "0.5",
            "--rho", "1.01",
        ]) == 1
        assert "rho_min=1.05" in capsys.readouterr().out

    def test_conflicting_mode_rejected(self, capsys):
        assert main([
            "solve", "--errors", "gamma:shape=2,mtbf=3e5", "--mode", "combined",
            "--failstop-fraction", "0.5",
        ]) == 1
        assert "invalid scenario" in capsys.readouterr().out


class TestValidate:
    def test_silent_agreement_passes(self, capsys):
        rc = main(["validate", "--samples", "8000", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_combined_agreement_passes(self, capsys):
        rc = main([
            "validate", "--failstop-fraction", "0.5",
            "--samples", "8000", "--seed", "4",
        ])
        assert rc == 0

    def test_renewal_model_agreement_passes(self, capsys):
        rc = main([
            "validate", "--errors", "gamma:shape=2,mtbf=2000",
            "--work", "1500", "--sigma1", "0.4", "--sigma2", "0.8",
            "--samples", "8000", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "error model     : gamma:shape=2" in out
        assert "PASS" in out

    def test_bad_error_spec_rejected(self, capsys):
        rc = main(["validate", "--errors", "nope:shape=1"])
        assert rc == 1
        assert "invalid error model" in capsys.readouterr().out


class TestTheorem2:
    def test_exponent_reported(self, capsys):
        assert main(["theorem2", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "fitted exponent" in out
        # The fitted exponent must be printed near -2/3.
        import re

        m = re.search(r"fitted exponent: (-\d+\.\d+)", out)
        assert m, out
        assert abs(float(m.group(1)) - (-2 / 3)) < 0.02


class TestPareto:
    def test_frontier_printed_with_knee(self, capsys):
        assert main(["pareto", "--points", "30"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "<- knee" in out

    def test_custom_config(self, capsys):
        assert main(["pareto", "--config", "atlas-crusoe", "--points", "20"]) == 0
        assert "Atlas" in capsys.readouterr().out

    def test_alias_prints_what_frontier_prints(self, capsys):
        args = ["--config", "atlas-crusoe", "--points", "12", "--rho-max", "6"]
        assert main(["pareto", *args]) == 0
        pareto = capsys.readouterr().out
        assert main(["frontier", *args]) == 0
        assert pareto == capsys.readouterr().out
        assert "Pareto frontier with" in pareto
        assert "(0.45, 0.45)" in pareto  # each row names its winning pair


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestBackendsListing:
    def test_batched_column_and_aliases_exposed(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        for column in ("backend", "modes", "schedules", "errors", "batched"):
            assert column in header
        assert "sweep" not in header
        rows = {line.split()[0]: line for line in out.splitlines()[1:9]}
        # Last cell per row: batched.
        assert rows["schedule-grid"].split()[-1] == "yes"
        assert rows["firstorder"].split()[-1] == "yes"
        assert rows["schedule"].split()[-1] == "no"
        assert rows["grid"].split()[1:] == ["alias", "of", "firstorder"]
        for alias in ("combined", "schedule-grid-jit", "schedule-grid-incremental"):
            assert rows[alias].split()[1:] == ["alias", "of", "schedule-grid"]
        assert "sweep-aware" not in out


class TestFrontierCommand:
    def test_basic_frontier_with_knee(self, capsys):
        assert main(["frontier", "--points", "20", "--rho-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "distinct trade-offs" in out
        assert "<- knee" in out

    def test_explain_prints_plan(self, capsys):
        assert main(["frontier", "--points", "6", "--rho-max", "5",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "unique solves" in out

    def test_renewal_model_schedule_frontier(self, capsys):
        # Impossible pre-pipeline: a frontier under a renewal error
        # model and a non-two-speed schedule, batched end to end.
        assert main([
            "frontier", "--points", "6", "--rho-max", "6",
            "--errors", "weibull:shape=0.7,mtbf=3e5",
            "--schedule", "geom:0.4,1.5,1",
        ]) == 0
        out = capsys.readouterr().out
        assert "schedule-grid" in out

    def test_csv_json_export(self, capsys, tmp_path):
        csv = tmp_path / "fr.csv"
        js = tmp_path / "fr.json"
        assert main(["frontier", "--points", "8", "--rho-max", "6",
                     "--csv", str(csv), "--json", str(js)]) == 0
        assert csv.read_text().startswith("rho,")
        import json

        assert json.loads(js.read_text())["x"] == "time_overhead"

    def test_bad_range_rejected(self, capsys):
        assert main(["frontier", "--rho-min", "5", "--rho-max", "2"]) == 1
        assert "rho-min < rho-max" in capsys.readouterr().out

    def test_bad_spec_rejected(self, capsys):
        assert main(["frontier", "--errors", "nope:1"]) == 1
        assert "invalid frontier spec" in capsys.readouterr().out


class TestSavingsCommand:
    def test_two_speed_savings_along_axis(self, capsys):
        assert main(["savings", "--axis", "C", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "savings vs one-speed optimum" in out
        assert "max saving" in out

    def test_error_model_savings(self, capsys):
        assert main([
            "savings", "--config", "hera-xscale", "--axis", "C",
            "--points", "3", "--errors", "gamma:shape=2,mtbf=5e3",
        ]) == 0
        out = capsys.readouterr().out
        assert "best constant-speed schedule" in out

    def test_csv_export(self, capsys, tmp_path):
        csv = tmp_path / "sav.csv"
        assert main(["savings", "--axis", "C", "--points", "4",
                     "--csv", str(csv)]) == 0
        assert csv.read_text().splitlines()[0] == (
            "C,candidate_energy,baseline_energy,savings_percent"
        )

    def test_unknown_backend_rejected_cleanly(self, capsys):
        assert main(["savings", "--axis", "C", "--points", "3",
                     "--backend", "bogus"]) == 1
        assert "invalid savings spec" in capsys.readouterr().out

    def test_unsupported_backend_rejected_cleanly(self, capsys):
        assert main([
            "savings", "--axis", "C", "--points", "3",
            "--errors", "weibull:shape=0.7,mtbf=3e5",
            "--backend", "firstorder",
        ]) == 1
        assert "invalid savings spec" in capsys.readouterr().out


class TestSolveAnalyze:
    @pytest.mark.parametrize(
        "alias", ["combined", "schedule-grid-jit", "schedule-grid-incremental"]
    )
    def test_retired_backend_name_matches_schedule_grid(self, capsys, alias):
        """``--backend <retired tier>`` still runs, and prints exactly
        what ``--backend schedule-grid`` prints (the name is an alias)."""
        outputs = []
        for backend in ("schedule-grid", alias):
            assert main([
                "solve", "--schedule", "esc:0.4,0.6,0.8",
                "--schedule", "geom:0.4,1.5,1", "--backend", backend,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "schedule-grid" in outputs[0]

    def test_schedule_axis_frontier(self, capsys):
        assert main([
            "solve", "--schedule", "two:0.4,0.6", "--schedule", "const:0.5",
            "--schedule", "geom:0.4,1.5,1", "--analyze", "frontier",
        ]) == 0
        out = capsys.readouterr().out
        assert "frontier        :" in out
        assert "knee at" in out

    def test_schedule_axis_savings(self, capsys):
        assert main([
            "solve", "--schedule", "two:0.4,0.6", "--schedule", "const:0.5",
            "--analyze", "savings",
        ]) == 0
        out = capsys.readouterr().out
        assert "savings vs pair enumeration" in out

    def test_single_solve_savings(self, capsys):
        assert main([
            "solve", "--schedule", "geom:0.4,1.5,1", "--analyze", "savings",
        ]) == 0
        out = capsys.readouterr().out
        assert "savings vs pair enumeration" in out
        assert "geom:0.4,1.5,1" in out

    def test_single_solve_frontier_hint(self, capsys):
        assert main(["solve", "--analyze", "frontier"]) == 0
        assert "repro frontier" in capsys.readouterr().out


class TestFraction:
    def test_sweep_printed(self, capsys):
        assert main(["fraction", "--rate", "5e-4", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "fail-stop fraction" in out
        # f = 0, 0.5, 1 rows present.
        assert " 0.00 " in out and " 1.00 " in out

    def test_energy_falls_with_f(self, capsys):
        import re

        assert main(["fraction", "--rate", "5e-4", "--points", "3"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if re.match(r"\s*\d\.\d{2}\s", ln)]
        energies = [float(ln.split()[4]) for ln in rows]
        assert energies[-1] < energies[0]


class TestMultiverif:
    def test_reports_best_q(self, capsys):
        assert main(["multiverif", "--rate", "1e-4", "--max-q", "3"]) == 0
        out = capsys.readouterr().out
        assert "best q" in out
        assert "gain over q = 1" in out

    def test_catalog_rate_gain_negligible(self, capsys):
        # At the real (tiny) Hera rate extra verifications buy almost
        # nothing (q = 2 edges out q = 1 by ~0.15%).
        import re

        assert main(["multiverif", "--max-q", "2"]) == 0
        out = capsys.readouterr().out
        m = re.search(r"gain over q = 1\s*:\s*(-?\d+\.\d+)%", out)
        assert m, out
        assert float(m.group(1)) < 1.0


class TestTrace:
    def test_timeline_and_trace_printed(self, capsys):
        assert main(["trace", "--patterns", "2", "--width", "60",
                     "--rate", "5e-4", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out          # legend
        assert "EXECUTE@" in out            # per-event lines
        assert "patterns" in out

    def test_failstop_trace(self, capsys):
        assert main(["trace", "--patterns", "3", "--rate", "5e-4",
                     "--failstop-fraction", "1.0", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "fail-stop" in out


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "ALL REPRODUCTION GATES PASS" in out
        assert out.count("**match**") == 4

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        assert main(["report", "--out", str(path)]) == 0
        assert path.exists()
        assert "# Reproduction report" in path.read_text()


class TestPool:
    def test_status_without_pool(self, capsys):
        assert main(["pool", "status"]) == 0
        out = capsys.readouterr().out
        assert "not created in this process" in out

    def test_status_start_and_stop(self, capsys):
        from repro.exec import default_pool_or_none

        try:
            assert main(["pool", "status", "--start", "--workers", "2"]) == 0
            out = capsys.readouterr().out
            assert "2/2 worker(s) alive" in out
            assert "2 worker(s)" in out
            assert "healthy" in out
        finally:
            assert main(["pool", "stop"]) == 0
        assert "stopped" in capsys.readouterr().out
        assert default_pool_or_none() is None


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        from repro.api.cache import clear_default_cache

        clear_default_cache()
        yield
        clear_default_cache()

    def test_stats_empty(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "0 entry(ies)" in out
        assert "0 hit(s), 0 miss(es)" in out
        assert "no lookups yet in this process" in out

    def test_stats_after_solves_shows_backend_breakdown(self, capsys):
        from repro.api import Scenario

        scenario = Scenario(config="hera-xscale", rho=3.0)
        scenario.solve()
        scenario.solve()  # replay: one hit
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "1 entry(ies)" in out
        assert "1 hit(s), 1 miss(es)" in out
        backend = scenario.resolve_backend_name(None)
        assert backend in out
        assert "50.0%" in out

    def test_clear_empties_the_cache(self, capsys):
        from repro.api import Scenario
        from repro.api.cache import DEFAULT_CACHE

        Scenario(config="hera-xscale", rho=3.0).solve()
        assert len(DEFAULT_CACHE) == 1
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 entry(ies)" in out
        assert len(DEFAULT_CACHE) == 0
        assert DEFAULT_CACHE.stats() == (0, 0)
        assert DEFAULT_CACHE.stats_by_backend() == {}
