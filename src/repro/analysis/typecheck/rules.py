"""The schema-flow type rules: the ``TC`` catalogue.

Each rule names one class of composition defect the type checker can
prove statically — a data shape flowing between pipeline stages that the
receiving stage cannot interpret.  The checker in
:mod:`repro.analysis.typecheck.checker` emits them through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` engine, so validator,
linter, and typechecker findings render uniformly.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.diagnostics import RuleRecord, Severity, rule_catalogue

__all__ = ["TYPECHECK_RULES"]


#: Rule catalogue for the typechecker (mirrored in docs/ANALYSIS.md).
TYPECHECK_RULES: Mapping[str, RuleRecord] = rule_catalogue(
    RuleRecord(
        "TC001",
        "source-schema-unknown",
        Severity.WARNING,
        "A plan-selected source has no statically inferable schema (its "
        "probe failed or never ran): downstream checks for that source "
        "are suppressed rather than guessed.",
    ),
    RuleRecord(
        "TC002",
        "mapping-reads-missing-attribute",
        Severity.ERROR,
        "A mapping reads a source attribute absent from the inferred "
        "input schema: the mapped column would be all-missing.",
    ),
    RuleRecord(
        "TC003",
        "matched-types-never-coercible",
        Severity.ERROR,
        "Matched attributes have DataTypes that can never coerce "
        "(e.g. BOOLEAN into INTEGER): every mapped value is a guaranteed "
        "TypeInferenceError at runtime.",
    ),
    RuleRecord(
        "TC004",
        "transform-type-mismatch",
        Severity.ERROR,
        "A mapping transform is applied to a DataType outside its "
        "declared input domain, or produces a DataType that can never "
        "coerce to the target attribute's type.",
    ),
    RuleRecord(
        "TC005",
        "er-attribute-missing",
        Severity.ERROR,
        "An entity-resolution comparison is keyed on an attribute absent "
        "from the resolved (translated) schema.",
    ),
    RuleRecord(
        "TC006",
        "er-attribute-type-incompatible",
        Severity.ERROR,
        "An entity-resolution comparison is keyed on a type-incompatible "
        "attribute: a transient type (URL/DATE/CURRENCY) used as identity "
        "evidence, or a measure whose domain excludes the attribute's "
        "DataType.",
    ),
    RuleRecord(
        "TC007",
        "fusion-attribute-unproduced",
        Severity.ERROR,
        "Fusion is configured over an attribute (strategy override or "
        "recency attribute) that no upstream mapping of any selected "
        "source produces: the configuration can never take effect.",
    ),
    RuleRecord(
        "TC008",
        "fusion-strategy-unsatisfiable",
        Severity.ERROR,
        "The fusion strategy's type requirement is unsatisfiable: median "
        "fusion with no numeric-capable attribute in scope, or recency "
        "fusion keyed on a non-DATE attribute.",
    ),
    RuleRecord(
        "TC009",
        "required-attribute-unproduced",
        Severity.WARNING,
        "A required target attribute is produced by no mapping of any "
        "selected source: the wrangled column will be entirely missing.",
    ),
    RuleRecord(
        "TC010",
        "node-purity-uncertified",
        Severity.ERROR,
        "A dataflow node failed purity certification (impure: error; "
        "unknown: warning): the engine cannot safely cache or replay its "
        "memoised value.",
    ),
)
