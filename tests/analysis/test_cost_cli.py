"""``python -m repro.analysis``: cost certification under ``check``, the
``calibrate`` and ``ratchet`` subcommands, formats, and the shared
analysis exit-code contract."""

import json
from pathlib import Path

from repro.analysis.cli import check_paths, main

FIXTURES = Path(__file__).with_name("ratchet_fixtures")
BASELINE = FIXTURES / "baseline"
REGRESSED = FIXTURES / "regressed"


class TestCertifyMode:
    def test_affordable_plan_exits_zero(self, clean_plan, capsys):
        assert main(["check", str(clean_plan)]) == 0
        out = capsys.readouterr().out
        assert "cost certification:" in out
        assert "within budget" in out

    def test_over_budget_plan_exits_one(self, over_budget_plan, capsys):
        assert main(["check", str(over_budget_plan)]) == 1
        out = capsys.readouterr().out
        assert "CC005" in out
        assert "OVER BUDGET" in out

    def test_findings_are_reanchored_to_the_plan_module(
        self, over_budget_plan, capsys
    ):
        main(["check", str(over_budget_plan)])
        assert "over_budget_plan.py::" in capsys.readouterr().out

    def test_unknown_path_exits_two(self, capsys):
        assert main(["check", "does/not/exist.py"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_file_without_entry_exits_two(self, tmp_path, capsys):
        # A module-level name that is not callable is no entry point.
        target = tmp_path / "not_a_plan.py"
        target.write_text("build_wrangler = 1\n")
        assert main(["check", str(target)]) == 2
        assert "build_wrangler" in capsys.readouterr().err

    def test_directory_skips_non_plan_modules(self, over_budget_plan,
                                              capsys):
        (over_budget_plan.parent / "helper.py").write_text("x = 1\n")
        assert main(["check", str(over_budget_plan.parent)]) == 1
        err = capsys.readouterr().err
        assert "helper.py" in err and "skipped" in err

    def test_json_report_shape(self, over_budget_plan, capsys):
        assert main(["check", str(over_budget_plan), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (plan,) = payload["plans"]
        assert plan["cost"]["over_budget"] is True
        assert plan["cost"]["budget"] == 0.1
        assert "acquire:shop" in plan["cost"]["nodes"]
        assert payload["summary"]["over_budget"] == [plan["path"]]
        assert any(
            d["rule"] == "CC005" for d in payload["diagnostics"]
        )

    def test_check_paths_counts_and_reports(self, clean_plan):
        result = check_paths([str(clean_plan)])
        assert result.checked_plans == 1
        ((path, report),) = result.reports
        assert path == str(clean_plan)
        assert report.cost.total_access_cost > 0.0

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (f"CC{n:03d}" for n in range(1, 11)):
            assert rule_id in out


class TestRatchetMode:
    def test_passing_ratchet_exits_zero(self, capsys):
        code = main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE)]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, capsys):
        code = main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(REGRESSED)]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_gate(self):
        assert main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(REGRESSED), "--tolerance", "0.25"]
        ) == 0

    def test_missing_baseline_dir_exits_two(self, tmp_path, capsys):
        assert main(
            ["ratchet", "--baseline", str(tmp_path / "nope"),
             "--fresh", str(tmp_path)]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_format(self, capsys):
        main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(REGRESSED), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False

    def test_check_baselines_passes_when_benchmarks_exist(
        self, tmp_path
    ):
        benches = tmp_path / "benchmarks"
        benches.mkdir()
        (benches / "bench_synthetic.py").write_text(
            'emit("BENCH_synthetic", "...")\n', encoding="utf-8"
        )
        assert main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE),
             "--check-baselines", str(benches)]
        ) == 0

    def test_orphan_baseline_fails_the_gate(self, tmp_path, capsys):
        benches = tmp_path / "benchmarks"
        benches.mkdir()  # no bench_*.py mentions BENCH_synthetic
        code = main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE),
             "--check-baselines", str(benches)]
        )
        assert code == 1
        assert "orphan baseline" in capsys.readouterr().out

    def test_orphans_surface_in_json_output(self, tmp_path, capsys):
        benches = tmp_path / "benchmarks"
        benches.mkdir()
        main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE),
             "--check-baselines", str(benches),
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["orphan_baselines"] == ["BENCH_synthetic.json"]

    def test_missing_benchmarks_dir_is_a_usage_error(
        self, tmp_path, capsys
    ):
        assert main(
            ["ratchet", "--baseline", str(BASELINE),
             "--fresh", str(BASELINE),
             "--check-baselines", str(tmp_path / "nowhere")]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestCalibrateMode:
    def test_calibrates_from_a_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "run.telemetry.json"
        snapshot.write_text(json.dumps({
            "dataflow": {"nodes": {
                "resolve": {"stage": "resolution", "runs": 4,
                            "seconds": 2.0},
                "fuse": {"stage": "fusion", "runs": 4, "seconds": 0.4},
            }},
        }))
        assert main(["calibrate", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "resolution" in out
        assert "s/run" in out

    def test_committed_snapshots_calibrate(self, capsys):
        # The repo's own telemetry is always a valid calibration corpus.
        import os
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        cwd = os.getcwd()
        os.chdir(repo)
        try:
            assert main(["calibrate"]) == 0
        finally:
            os.chdir(cwd)
        assert "node observation(s)" in capsys.readouterr().out

    def test_unknown_snapshot_path_exits_two(self, capsys):
        assert main(["calibrate", "no/such/file.telemetry.json"]) == 2
        assert "error:" in capsys.readouterr().err
