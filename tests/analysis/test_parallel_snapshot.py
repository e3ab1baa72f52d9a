"""Expected-certification snapshots over the shipped example plans.

``make analysis-check`` and CI run this and ``test_cost_snapshot.py``
over one shared ``check`` of ``examples/``: every bundled plan must
certify with exactly the committed node→level map (no UNSAFE node
anywhere), and the driver must be deterministic — two fresh runs over
the unchanged tree produce byte-identical reports.  Regenerate both
snapshots after a deliberate certification or cost-model change with::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.analysis.cli import check_paths
    result = check_paths(["examples"])
    snapshots = {
        "parallel": {
            path: {n: c.level.value for n, c in report.parallel.items()}
            for path, report in result.reports
        },
        "cost": {
            path: report.cost.to_dict() for path, report in result.reports
        },
    }
    for name, snapshot in snapshots.items():
        with open(f"tests/analysis/{name}_certification.json", "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\\n")
    PY
"""

import json
from pathlib import Path

from repro.analysis.cli import _render_json

SNAPSHOT = Path(__file__).with_name("parallel_certification.json")


class TestExamplesCertification:
    def test_matches_committed_snapshot(self, examples_check):
        expected = json.loads(SNAPSHOT.read_text())
        actual = {
            path: {
                name: certificate.level.value
                for name, certificate in report.parallel.items()
            }
            for path, report in examples_check.reports
        }
        assert actual == expected

    def test_no_unsafe_node_in_bundled_examples(self, examples_check):
        assert examples_check.unsafe_nodes == ()
        assert examples_check.ok

    def test_all_five_plans_certified(self, examples_check):
        assert examples_check.checked_plans == 5
        assert examples_check.nodes >= 100

    def test_reports_are_byte_identical_across_runs(self, examples_check,
                                                    examples_recheck):
        assert _render_json(examples_recheck) == _render_json(examples_check)
