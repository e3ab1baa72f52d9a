"""The pre-execution gate: structure + types + purity + parallelism.

``Wrangler.run(validate=True)`` funnels through :func:`run_preflight`,
which folds the plan validator's structural findings (``PV0xx``), the
schema-flow checker's type findings (``TC001``–``TC009``), the purity
certifier's node verdicts (``TC010``), the parallel-safety certifier's
race findings (``PX0xx``), and the cost certifier's budget and
cardinality findings (``CC0xx``) into one :class:`PreflightReport` —
a :class:`~repro.analysis.validator.ValidationReport` that also carries
the verdicts, certificates and cost report behind the findings — so a
plan is refused for a dangling dependency, an untypable mapping, an
uncertifiable node, a racy node body, or an over-budget estimate
through exactly the same machinery.  The combined report is
deduplicated and stably ordered: five gates can flag one node, but each
exact finding appears once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    dedupe_diagnostics,
    sort_diagnostics,
)
from repro.analysis.typecheck.checker import SchemaFlowChecker
from repro.analysis.typecheck.purity import PurityVerdict
from repro.analysis.typecheck.signatures import tc
from repro.analysis.validator import PlanValidator, ValidationReport

if TYPE_CHECKING:
    from repro.analysis.cost import PlanCostReport
    from repro.analysis.parallel import ParallelCertificate

__all__ = [
    "PreflightReport",
    "probe_artifacts",
    "purity_diagnostics",
    "run_preflight",
]

#: WorkingData key prefix under which the wrangler files probe artifacts.
PROBE_PREFIX = "probe/"


@dataclass(frozen=True)
class PreflightReport(ValidationReport):
    """The gate's combined findings plus the evidence behind them.

    ``purity`` maps node name to its
    :class:`~repro.analysis.typecheck.purity.PurityVerdict`, ``parallel``
    node name to its
    :class:`~repro.analysis.parallel.ParallelCertificate` (both empty
    when no dataflow was gated), and ``cost`` is the
    :class:`~repro.analysis.cost.PlanCostReport` (``None`` without a plan
    and a registry).  ``diagnostics`` keeps only warning-or-worse ``PX``
    and ``CC`` findings; the full advisory stream is derivable from the
    certificates and the cost report.
    """

    purity: Mapping[str, PurityVerdict] = field(default_factory=dict)
    parallel: Mapping[str, ParallelCertificate] = field(default_factory=dict)
    cost: PlanCostReport | None = None


def probe_artifacts(
    working: Any,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The per-source probe schemas and mappings filed on a blackboard.

    Reads the ``schema``/``mapping`` categories of a
    :class:`~repro.model.workingdata.WorkingData`, keeping only keys with
    the ``probe/`` prefix (the wrangler's convention for statically
    usable probe artifacts) and stripping it.
    """
    schemas: dict[str, Any] = {}
    mappings: dict[str, Any] = {}
    if working is None or not hasattr(working, "items"):
        return schemas, mappings
    for key, value in working.items("schema"):
        if key.startswith(PROBE_PREFIX):
            schemas[key[len(PROBE_PREFIX):]] = value
    for key, value in working.items("mapping"):
        if key.startswith(PROBE_PREFIX):
            mappings[key[len(PROBE_PREFIX):]] = value
    return schemas, mappings


def purity_diagnostics(
    verdicts: Mapping[str, PurityVerdict],
) -> list[Diagnostic]:
    """``TC010`` findings for the non-pure entries of a verdict map.

    Impure nodes are errors (the engine must not cache or replay them);
    unlocatable (``unknown``) nodes are warnings — no certificate could
    be issued, which is worth hearing about but not fatal.
    """
    findings = []
    for name, verdict in sorted(verdicts.items()):
        if verdict.is_pure:
            continue
        severity = (
            Severity.ERROR if verdict.status == "impure" else Severity.WARNING
        )
        detail = "; ".join(verdict.reasons) or "no reason recorded"
        findings.append(
            tc(
                "TC010",
                "dataflow",
                name,
                f"node {name!r} failed purity certification "
                f"({verdict.status}): {detail}",
                "route side effects through repro.obs or working data",
                severity=severity,
            )
        )
    return findings


def run_preflight(
    plan: Any = None,
    user: Any = None,
    data: Any = None,
    registry: Any = None,
    dataflow: Any = None,
    working: Any = None,
    source_schemas: Mapping[str, Any] | None = None,
    mappings: Mapping[str, Any] | Iterable[Any] | None = None,
    master_key: str | None = None,
    date_attribute: str | None = None,
    comparators: Sequence[Any] = (),
    cost_budget: float | None = None,
    discover_constraints: bool = False,
) -> PreflightReport:
    """Run the full pre-execution gate and fold findings into one report.

    Probe artifacts come from ``source_schemas``/``mappings`` when given
    explicitly, falling back to the ``probe/``-prefixed entries of
    ``working``.  When a dataflow is supplied its nodes are purity- and
    parallel-certified by one shared
    :class:`~repro.analysis.parallel.ParallelAnalyser`, so the run parses
    and indexes each defining file once.  When both a plan and a
    registry are supplied, the cost certifier also runs: per-node
    estimates are propagated through the dataflow (annotating it for
    telemetry) and ``CC`` findings at warning severity or worse — an
    estimate over the ``cost_budget`` declared via ``Wrangler.budget()``
    is an error — join the report.  The verdicts, certificates and cost report behind
    the findings ride along on the returned :class:`PreflightReport`.
    """
    filed_schemas, filed_mappings = probe_artifacts(working)
    if source_schemas is None:
        source_schemas = filed_schemas
    if mappings is None:
        mappings = filed_mappings

    validator_report = PlanValidator().validate(
        plan=plan,
        user=user,
        data=data,
        registry=registry,
        dataflow=dataflow,
        master_key=master_key,
        date_attribute=date_attribute,
    )
    findings: list[Diagnostic] = list(validator_report.diagnostics)

    findings.extend(
        SchemaFlowChecker().check(
            plan=plan,
            user=user,
            dataflow=dataflow,
            source_schemas=source_schemas,
            mappings=mappings,
            registry=registry,
            date_attribute=date_attribute,
            comparators=comparators,
        )
    )

    verdicts: Mapping[str, PurityVerdict] = {}
    certificates: Mapping[str, ParallelCertificate] = {}
    if dataflow is not None:
        from repro.analysis.parallel import (
            ParallelAnalyser,
            parallel_diagnostics,
        )

        # One analyser for both certifiers: a ParallelAnalyser is a
        # PurityAnalyser, so each defining file is parsed and indexed once.
        analyser = ParallelAnalyser()
        if hasattr(dataflow, "certify"):
            verdicts = dataflow.certify(analyser=analyser)
            findings.extend(purity_diagnostics(verdicts))
        if hasattr(dataflow, "certify_parallel"):
            certificates = dataflow.certify_parallel(analyser=analyser)
            findings.extend(parallel_diagnostics(certificates))

    cost_report = None
    if plan is not None and registry is not None:
        from repro.analysis.cost import check_plan_cost

        cost_report = check_plan_cost(
            plan=plan,
            user=user,
            registry=registry,
            dataflow=dataflow,
            budget=cost_budget,
            discover_constraints=discover_constraints,
        )
        findings.extend(
            cost_report.diagnostics(min_severity=Severity.WARNING)
        )

    return PreflightReport(
        tuple(sort_diagnostics(dedupe_diagnostics(findings))),
        purity=verdicts,
        parallel=certificates,
        cost=cost_report,
    )
