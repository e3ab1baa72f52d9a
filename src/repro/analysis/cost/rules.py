"""The cost & cardinality rules: the ``CC`` catalogue.

Each rule names one class of plan that is statically predictable to be
more expensive than it should be — super-linear stages (the quadratic ER
wall), plans whose estimated access cost exceeds a declared budget, and
estimates the certifier could not ground in a real cardinality.  The
certifier in :mod:`repro.analysis.cost.certifier` detects them by
propagating a :class:`~repro.analysis.cost.model.CardinalityEstimate`
through the plan's dataflow topology and emits each finding through the
shared :class:`~repro.analysis.diagnostics.Diagnostic` engine, so
validator, linter, typechecker, purity, parallel, and cost findings
render uniformly.

Severity doubles as admission pressure: ``error`` rules refuse the plan
at the preflight gate (a quadratic resolve at scale, a plan over its
declared budget); ``warning`` rules flag cost smells worth fixing but
admit the plan; ``info`` rules record where the estimate degraded to an
assumption.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.diagnostics import RuleRecord, Severity, rule_catalogue

__all__ = ["COST_RULES"]


#: Rule catalogue for the cost certifier (mirrored in docs/ANALYSIS.md).
COST_RULES: Mapping[str, RuleRecord] = rule_catalogue(
    RuleRecord(
        "CC001",
        "unknown-cardinality",
        Severity.INFO,
        "A selected source advertises no row count (no size hint and no "
        "probe artifact), so downstream estimates fall back to an assumed "
        "default cardinality — the certificate is still issued, but its "
        "confidence is degraded and every derived bound inherits it.",
    ),
    RuleRecord(
        "CC002",
        "quadratic-resolution",
        Severity.ERROR,
        "Entity resolution is on the full-pairs path (no blocking caps "
        "the candidate set) at a scale where the estimated pair count "
        "exceeds the quadratic limit: cost grows as n^2/2 and the stage "
        "will dominate the run even with the vectorised prune kernels "
        "engaged (pruning cuts the per-pair constant, not the n^2 pair "
        "generation).  Token, sorted-neighbourhood, or MinHash-LSH "
        "blocking caps the candidate set to ~linear in rows.",
    ),
    RuleRecord(
        "CC003",
        "degenerate-blocking",
        Severity.WARNING,
        "A blocking configuration that cannot cap candidate-pair growth: "
        "a small-table cutoff at or above the estimated table size, a "
        "sorted-neighbourhood window spanning the table, or a token "
        "block size bound that no block can exceed — blocking is "
        "configured but degenerates to (near-)full pairs.  (MinHash-LSH "
        "has no structural cap to degenerate; its runtime counterpart is "
        "the blocking.dropped_* telemetry counters on oversized "
        "buckets.)",
    ),
    RuleRecord(
        "CC004",
        "cross-source-join",
        Severity.WARNING,
        "Many sources pool their rows into one un-partitioned resolve: "
        "candidate pairs grow with the square of the union, so k sources "
        "cost ~k^2 single-source resolves — partition per source (or by "
        "a blocking key) before resolving.",
    ),
    RuleRecord(
        "CC005",
        "plan-over-budget",
        Severity.ERROR,
        "The plan's estimated total access cost (probes plus full "
        "acquisitions, in cost_per_access units) exceeds the budget "
        "declared via Wrangler.budget(): admission control refuses the "
        "plan before any source is fully accessed.",
    ),
    RuleRecord(
        "CC006",
        "unbounded-budget",
        Severity.INFO,
        "The plan spends access cost but no budget bounds it — neither a "
        "declared plan budget (Wrangler.budget()) nor a finite user-"
        "context budget — so admission control cannot gate this tenant.",
    ),
    RuleRecord(
        "CC007",
        "probe-dominates-budget",
        Severity.WARNING,
        "The fixed probe overhead (every registered source is sampled at "
        "PROBE_COST_FRACTION before selection) consumes at least half the "
        "declared budget: the plan spends its budget learning about "
        "sources instead of acquiring them — trim the registry or raise "
        "the budget.",
    ),
    RuleRecord(
        "CC008",
        "superlinear-repair",
        Severity.WARNING,
        "Constraint discovery is enabled over an estimated fused table "
        "large enough that approximate-FD mining (rows x width^2 "
        "candidate dependencies) dominates the repair stage — mine "
        "constraints offline or cap the discovery scope.",
    ),
    RuleRecord(
        "CC009",
        "unestimable-node",
        Severity.WARNING,
        "A dataflow node's kind has no registered cost signature, so no "
        "estimate can propagate through it: everything downstream of the "
        "node inherits an assumed cardinality.",
    ),
    RuleRecord(
        "CC010",
        "calibration-drift",
        Severity.WARNING,
        "The calibration pass found a stage whose fitted unit cost "
        "predicts observed compute-seconds with a relative error above "
        "the drift limit: the static model and the runtime have diverged "
        "for that operator and its estimates should not be trusted until "
        "re-fitted.",
    ),
)
