"""Expected plan→cost snapshot over the shipped example plans.

``make analysis-check`` and CI run this: every bundled plan must certify
with exactly the committed per-node estimates (no error-severity CC
finding anywhere), and the driver must be deterministic.  It reads the
same ``check`` of ``examples/`` as ``test_parallel_snapshot.py``, whose
docstring holds the recipe that regenerates both snapshots.
"""

import json
from pathlib import Path

from repro.analysis.cli import _render_text

SNAPSHOT = Path(__file__).with_name("cost_certification.json")


class TestExamplesCostCertification:
    def test_matches_committed_snapshot(self, examples_check):
        expected = json.loads(SNAPSHOT.read_text())
        actual = {
            path: report.cost.to_dict()
            for path, report in examples_check.reports
        }
        assert actual == expected

    def test_no_example_plan_is_refused(self, examples_check):
        assert examples_check.ok
        assert examples_check.over_budget == ()

    def test_all_five_plans_certified(self, examples_check):
        assert examples_check.checked_plans == 5
        assert all(
            report.cost.estimates
            for _, report in examples_check.reports
        )

    def test_estimates_are_grounded_not_assumed(self, examples_check):
        # The preflight probes before certifying, so bundled examples
        # certify from real memoised row counts, not DEFAULT_ROWS guesses.
        for _, report in examples_check.reports:
            translate = report.cost.estimates.get("translate")
            if translate is not None:
                assert translate.confidence == "exact"

    def test_output_is_byte_identical_across_runs(self, examples_check,
                                                  examples_recheck):
        assert _render_text(examples_check) == _render_text(examples_recheck)
