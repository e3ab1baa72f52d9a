"""The pre-execution gate end to end: structure + types + purity as one
report, wired through ``Wrangler.preflight()`` and ``run(validate=True)``.
"""

import pytest

from repro.analysis.typecheck import probe_artifacts, run_preflight
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.planner import WranglePlan
from repro.core.wrangler import Wrangler
from repro.errors import PlanValidationError
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.model.workingdata import WorkingData
from repro.sources.memory import MemorySource

SCHEMA = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
    )
)

ROWS = [
    {"product": "anvil", "price": "$12.00"},
    {"product": "rope", "price": "$3.50"},
]


def make_wrangler(**kwargs):
    user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
    wrangler = Wrangler(user, DataContext(), **kwargs)
    wrangler.add_source(MemorySource("shop", ROWS))
    return wrangler


class TestRunPreflight:
    def test_folds_pv_and_tc_findings_into_one_report(self):
        plan = WranglePlan(
            sources=["shop"],
            matcher_channels=("name",),
            match_threshold=0.6,
            er_threshold=2.0,  # PV005
            fusion_strategy="weighted",
        )
        user = UserContext("u", SCHEMA)
        report = run_preflight(plan=plan, user=user)  # no probes: TC001
        assert {"PV005", "TC001"} <= report.rule_ids()
        assert not report.ok

    def test_reads_probe_artifacts_from_working_data(self):
        working = WorkingData()
        working.put("schema", "probe/shop", Schema.of("product"))
        working.put("schema", "other/ignored", Schema.of("x"))
        schemas, mappings = probe_artifacts(working)
        assert set(schemas) == {"shop"}
        assert mappings == {}

    def test_certification_included_when_dataflow_given(self):
        from repro.core.dataflow import Dataflow

        flow = Dataflow()
        flow.add("leak", lambda inputs: print(inputs))
        plan = WranglePlan(
            sources=[],
            matcher_channels=("name",),
            match_threshold=0.6,
            er_threshold=0.8,
            fusion_strategy="weighted",
        )
        report = run_preflight(plan=plan, dataflow=flow)
        assert "TC010" in report.rule_ids()
        assert flow.purity_map()["leak"] == "impure"

    def test_report_carries_the_evidence_behind_its_findings(self):
        report = make_wrangler().preflight()
        assert set(report.purity) == set(report.parallel)
        assert all(verdict.is_pure for verdict in report.purity.values())
        assert report.cost is not None
        assert set(report.cost.estimates) == set(report.parallel)


class TestWranglerPreflight:
    def test_clean_wrangler_preflights_clean(self):
        report = make_wrangler().preflight()
        assert report.ok, report.render()

    def test_preflight_certifies_every_node(self):
        wrangler = make_wrangler()
        wrangler.preflight()
        purity = wrangler.flow.purity_map()
        assert purity  # the full pipeline graph
        assert all(verdict is not None for verdict in purity.values())
        assert all(verdict == "pure" for verdict in purity.values())

    def test_preflight_does_not_execute_the_pipeline(self):
        wrangler = make_wrangler()
        wrangler.preflight()
        assert not wrangler.flow.is_clean("fuse")

    def test_probe_artifacts_filed_on_the_blackboard(self):
        wrangler = make_wrangler()
        wrangler.flow.pull("probe")
        schemas, mappings = probe_artifacts(wrangler.working)
        assert "shop" in schemas
        assert "price" in schemas["shop"]
        assert mappings["shop"].source_name == "shop"


class TestRunValidateGate:
    def test_impure_node_blocks_a_validated_run(self):
        wrangler = make_wrangler()
        flow = wrangler.flow
        flow.add("leak", lambda inputs: print(inputs), ("fuse",))
        with pytest.raises(PlanValidationError) as failure:
            wrangler.run(validate=True)
        assert any(d.rule == "TC010" for d in failure.value.diagnostics)

    def test_validate_false_overrides_the_standing_flag(self):
        wrangler = make_wrangler()
        wrangler.flow.add("leak", lambda inputs: print(inputs), ("fuse",))
        result = wrangler.run(validate=False)
        assert len(result.table) == 2

    def test_validate_true_rechecks_a_memoised_plan(self):
        wrangler = make_wrangler()
        result = wrangler.run()
        assert len(result.table) == 2
        wrangler.flow.add("leak", lambda inputs: print(inputs), ("fuse",))
        # The plan node is clean, so only the explicit re-gate can see
        # the defective node added after the first run.
        with pytest.raises(PlanValidationError):
            wrangler.run(validate=True)

    def test_default_run_still_gates_fresh_plans(self):
        wrangler = make_wrangler()
        result = wrangler.run()
        assert len(result.table) == 2
        purity = wrangler.flow.purity_map()
        assert purity and all(v == "pure" for v in purity.values())
