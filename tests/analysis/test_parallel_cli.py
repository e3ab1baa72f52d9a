"""``python -m repro.analysis check``: parallel-safety certification,
the node→level table, determinism, and the exit-code contract."""

import json

from repro.analysis.cli import check_paths, main


class TestExitCodes:
    def test_clean_plan_exits_zero(self, clean_plan, capsys):
        assert main(["check", str(clean_plan)]) == 0
        out = capsys.readouterr().out
        assert "certification:" in out
        assert "row_local" in out

    def test_unsafe_node_exits_one(self, unsafe_plan, capsys):
        assert main(["check", str(unsafe_plan)]) == 1
        out = capsys.readouterr().out
        assert "PX001" in out
        assert "UNSAFE:" in out and "hoards" in out

    def test_unknown_path_exits_two(self, clean_plan, capsys):
        # One missing path fails the run even beside a valid plan.
        assert main(["check", str(clean_plan), "/no/such/path-at-all"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_file_without_entry_exits_two(self, clean_plan, capsys):
        # Named explicitly, a helper is misuse even inside a plan directory.
        target = clean_plan.parent / "not_a_plan.py"
        target.write_text("VALUE = 1\n")
        assert main(["check", str(clean_plan.parent), str(target)]) == 2
        assert "build_wrangler" in capsys.readouterr().err

    def test_unimportable_module_exits_two(self, tmp_path, capsys):
        target = tmp_path / "exploding.py"
        target.write_text("def build_wrangler(:\n")
        assert main(["check", str(target)]) == 2
        assert "cannot import" in capsys.readouterr().err


class TestDiscovery:
    def test_directory_skips_non_plan_modules(self, unsafe_plan, capsys):
        (unsafe_plan.parent / "helper.py").write_text("VALUE = 1\n")
        assert main(["check", str(unsafe_plan.parent)]) == 1
        captured = capsys.readouterr()
        assert "helper.py" in captured.err and "skipped" in captured.err
        assert "UNSAFE:" in captured.out

    def test_check_paths_counts_nodes(self, clean_plan):
        result = check_paths([str(clean_plan)])
        assert result.checked_plans == 1
        assert result.nodes > 0
        assert result.unsafe_nodes == ()
        assert result.ok and result.exit_code == 0

    def test_unsafe_nodes_named_per_plan(self, unsafe_plan):
        result = check_paths([str(unsafe_plan)])
        assert result.unsafe_nodes == (f"{unsafe_plan}::hoards",)
        assert not result.ok


class TestFormatsAndDeterminism:
    def test_json_report_shape(self, unsafe_plan, capsys):
        assert main(["check", str(unsafe_plan), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (plan,) = payload["plans"]
        assert payload["summary"]["nodes"] == len(plan["parallel"])
        assert payload["summary"]["unsafe_nodes"] == [
            f"{unsafe_plan}::hoards"
        ]
        node = plan["parallel"]["hoards"]
        assert node["level"] == "unsafe"
        assert node["findings"][0]["rule"] == "PX001"

    def test_findings_reanchored_to_plan_module(self, unsafe_plan, capsys):
        main(["check", str(unsafe_plan)])
        assert "unsafe_plan.py::" in capsys.readouterr().out

    def test_output_is_byte_identical_across_runs(self, clean_plan,
                                                  unsafe_plan, capsys):
        runs = []
        for _round in range(2):
            main(["check", str(clean_plan), str(unsafe_plan),
                  "--format", "json"])
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]

    def test_list_rules(self, capsys):
        # One catalogue: every TC, PX and CC row, in rule-id order.
        assert main(["check", "--list-rules"]) == 0
        rows = capsys.readouterr().out.splitlines()
        ids = [row.split()[0] for row in rows]
        assert ids == sorted(ids)
        assert [i for i in ids if i.startswith("PX")] == [
            f"PX{n:03d}" for n in range(1, 9)
        ]
        assert len(ids) == 10 + 8 + 10
