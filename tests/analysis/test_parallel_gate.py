"""Folding parallel certificates into the shared diagnostics stream, the
combined preflight report, and its dedupe/ordering guarantees."""

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    dedupe_diagnostics,
)
from repro.analysis.parallel import parallel_diagnostics
from repro.analysis.parallel.certifier import (
    ParallelCertificate,
    ParallelFinding,
    ParallelSafety,
)
from repro.analysis.typecheck import run_preflight
from repro.core.dataflow import Dataflow


def certificate(level, *findings):
    return ParallelCertificate(level, tuple(findings))


def finding(rule, severity, message="boom"):
    return ParallelFinding(rule, message, severity)


class TestParallelDiagnostics:
    CERTS = {
        "zulu": certificate(
            ParallelSafety.UNSAFE,
            finding("PX001", Severity.ERROR, "mutates capture"),
        ),
        "alpha": certificate(
            ParallelSafety.PARTITION_LOCAL,
            finding("PX004", Severity.INFO, "accumulates"),
        ),
        "mike": certificate(ParallelSafety.ROW_LOCAL),
    }

    def test_default_severity_floor_drops_info(self):
        diagnostics = parallel_diagnostics(self.CERTS)
        assert [d.rule for d in diagnostics] == ["PX001"]

    def test_info_floor_includes_advisories(self):
        diagnostics = parallel_diagnostics(
            self.CERTS, min_severity=Severity.INFO
        )
        assert [d.rule for d in diagnostics] == ["PX004", "PX001"]
        # Ordered by node name: alpha before zulu.
        assert [d.location.node for d in diagnostics] == ["alpha", "zulu"]

    def test_messages_name_node_and_level(self):
        (diagnostic,) = parallel_diagnostics(self.CERTS)
        assert "'zulu'" in diagnostic.message
        assert "unsafe" in diagnostic.message
        assert diagnostic.fix_hint  # every PX rule ships a remediation


class TestDedupeDiagnostics:
    def make(self, rule="PX001", line=3, message="m"):
        return Diagnostic(
            rule, Severity.ERROR, Location("f.py", line=line), message, ""
        )

    def test_exact_duplicates_dropped_order_kept(self):
        first, second = self.make(), self.make(rule="PX002")
        assert dedupe_diagnostics(
            [first, second, self.make(), first]
        ) == [first, second]

    def test_near_duplicates_survive(self):
        kept = dedupe_diagnostics(
            [self.make(message="a"), self.make(message="b")]
        )
        assert len(kept) == 2


class TestPreflightFolding:
    def build_flow(self):
        flow = Dataflow()
        hoard: list = []
        flow.add("greedy", lambda inputs: hoard.append(inputs))
        flow.add("tidy", lambda inputs: inputs, ("greedy",))
        return flow

    def test_px_findings_join_the_report(self):
        flow = self.build_flow()
        report = run_preflight(dataflow=flow)
        assert "PX001" in report.rule_ids()
        assert flow.parallel_map()["greedy"] == "unsafe"
        assert flow.parallel_map()["tidy"] == "row_local"

    def test_combined_report_is_deduped_and_stably_ordered(self):
        flow = self.build_flow()
        first = run_preflight(dataflow=flow)
        second = run_preflight(dataflow=flow)
        assert first.diagnostics == second.diagnostics
        assert len(set(first.diagnostics)) == len(first.diagnostics)
        keys = [
            (d.location.file, d.location.line or 0, d.rule)
            for d in first.diagnostics
        ]
        assert keys == sorted(keys)
