"""``python -m repro.analysis check``: structure and type findings,
discovery, formats, and the exit-code contract."""

import json

from repro.analysis.cli import check_paths, main


class TestExitCodes:
    def test_clean_plan_exits_zero(self, clean_plan, capsys):
        assert main(["check", str(clean_plan)]) == 0
        out = capsys.readouterr().out
        assert "found 1 (0 error, 0 warning, 1 info)" in out  # CC006 only
        assert "purity:" in out  # node-coverage line

    def test_gate_errors_exit_one(self, broken_plan, capsys):
        assert main(["check", str(broken_plan)]) == 1
        assert "PV007" in capsys.readouterr().out

    def test_unknown_path_exits_two(self, capsys):
        assert main(["check", "/no/such/path-at-all"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_file_without_entry_exits_two(self, tmp_path, capsys):
        target = tmp_path / "not_a_plan.py"
        target.write_text("VALUE = 1\n")
        assert main(["check", str(target)]) == 2
        assert "build_wrangler" in capsys.readouterr().err

    def test_unimportable_module_exits_two(self, tmp_path, capsys):
        target = tmp_path / "exploding.py"
        target.write_text("raise RuntimeError('boom')\n")
        assert main(["check", str(target)]) == 2
        assert "boom" in capsys.readouterr().err


class TestDiscovery:
    def test_directory_skips_non_plan_modules(self, clean_plan, capsys):
        (clean_plan.parent / "helper.py").write_text("VALUE = 1\n")
        assert main(["check", str(clean_plan.parent)]) == 0
        captured = capsys.readouterr()
        assert "helper.py" in captured.err and "skipped" in captured.err

    def test_check_paths_counts_nodes_and_certificates(self, clean_plan):
        result = check_paths([str(clean_plan)])
        assert result.checked_plans == 1
        assert result.nodes > 0
        assert result.pure_nodes == result.nodes


class TestFormats:
    def test_json_report_shape(self, broken_plan, capsys):
        assert main(["check", str(broken_plan), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 1
        rules = {row["rule"] for row in payload["diagnostics"]}
        assert "PV007" in rules

    def test_findings_reanchored_to_plan_module(self, broken_plan, capsys):
        main(["check", str(broken_plan)])
        assert "broken_plan.py::" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (f"TC{n:03d}" for n in range(1, 11)):
            assert rule_id in out
