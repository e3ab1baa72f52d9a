"""Static analysis for the repro framework: validate before you run.

Five legs share one diagnostics engine:

* :mod:`repro.analysis.validator` — static validation of wrangle plans,
  dataflow graphs, mappings, and contexts (rule ids ``PV0xx``), wired
  into :class:`~repro.core.wrangler.Wrangler` as a pre-flight check;
* :mod:`repro.analysis.lint` — an AST-based framework linter (rule ids
  ``REP0xx``) run as ``python -m repro.analysis.lint src/repro``;
* :mod:`repro.analysis.typecheck` — a schema-flow type checker and node
  purity certifier (rule ids ``TC0xx``), plus ``run_preflight``, the
  wrangler's combined pre-execution gate;
* :mod:`repro.analysis.parallel` — a parallel-safety certifier (rule
  ids ``PX0xx``) classifying every dataflow node as row-local /
  partition-local / global / unsafe, folded into the same gate;
* :mod:`repro.analysis.cost` — a cost and cardinality certifier (rule
  ids ``CC0xx``) folded into the same gate, plus its calibration and
  benchmark-ratchet loops.

One driver, ``python -m repro.analysis check|calibrate|ratchet`` (see
:mod:`repro.analysis.cli`), runs the gate over plan-building modules,
calibrates the cost model and ratchets benchmark baselines.  All legs
emit :class:`~repro.analysis.diagnostics.Diagnostic` values and render
through :mod:`repro.analysis.report`.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    count_by_severity,
    has_errors,
)
from repro.analysis.report import render, render_json, render_text
from repro.analysis.rules import RULES, LintRule, ModuleContext
from repro.analysis.validator import (
    PlanValidator,
    ValidationReport,
    validate_plan,
)

__all__ = [
    "Diagnostic",
    "Location",
    "Severity",
    "count_by_severity",
    "has_errors",
    "LintResult",
    "lint_paths",
    "lint_source",
    "render",
    "render_json",
    "render_text",
    "RULES",
    "LintRule",
    "ModuleContext",
    "PlanValidator",
    "ValidationReport",
    "validate_plan",
    "PurityAnalyser",
    "PurityVerdict",
    "SchemaFlowChecker",
    "TYPECHECK_RULES",
    "run_preflight",
    "ParallelAnalyser",
    "ParallelCertificate",
    "ParallelSafety",
    "PARALLEL_RULES",
    "certify_parallel",
    "certify_dataflow_parallel",
    "parallel_diagnostics",
]

_LAZY_LINT_EXPORTS = ("LintResult", "lint_paths", "lint_source")
_LAZY_TYPECHECK_EXPORTS = (
    "PurityAnalyser",
    "PurityVerdict",
    "SchemaFlowChecker",
    "TYPECHECK_RULES",
    "run_preflight",
)
_LAZY_PARALLEL_EXPORTS = (
    "ParallelAnalyser",
    "ParallelCertificate",
    "ParallelSafety",
    "PARALLEL_RULES",
    "certify_parallel",
    "certify_dataflow_parallel",
    "parallel_diagnostics",
)


def __getattr__(name: str):
    # The lint, typecheck, and parallel engines are imported lazily so
    # that ``python -m repro.analysis.lint`` does not re-execute an
    # already-imported module (runpy's double-import warning).
    if name in _LAZY_LINT_EXPORTS:
        from repro.analysis import lint

        return getattr(lint, name)
    if name in _LAZY_TYPECHECK_EXPORTS:
        from repro.analysis import typecheck

        return getattr(typecheck, name)
    if name in _LAZY_PARALLEL_EXPORTS:
        from repro.analysis import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
