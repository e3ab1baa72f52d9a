"""Schema-flow type checking and purity certification for wrangle plans.

The third leg of :mod:`repro.analysis`, alongside the plan validator and
the framework linter:

* :mod:`~repro.analysis.typecheck.signatures` — the operator-signature
  registry: what every pipeline stage consumes and produces, schema-wise;
* :mod:`~repro.analysis.typecheck.checker` — propagates
  :class:`~repro.model.schema.Schema` objects through a plan's dataflow
  topology without executing it (rule ids ``TC001``–``TC009``);
* :mod:`~repro.analysis.typecheck.purity` — AST-based certification of
  dataflow node callables as pure (``TC010``), so the engine can refuse
  to cache or replay what it cannot certify;
* :mod:`~repro.analysis.typecheck.gate` — :func:`run_preflight`, the
  combined structure + types + purity + parallel + cost gate behind
  ``Wrangler.run(validate=True)`` and ``python -m repro.analysis check``.
"""

from repro.analysis.typecheck.checker import (
    SchemaFlowChecker,
    check_schema_flow,
)
from repro.analysis.typecheck.gate import (
    PreflightReport,
    probe_artifacts,
    purity_diagnostics,
    run_preflight,
)
from repro.analysis.typecheck.purity import (
    PurityAnalyser,
    PurityVerdict,
    certify_callable,
)
from repro.analysis.typecheck.rules import TYPECHECK_RULES
from repro.analysis.typecheck.signatures import (
    SIGNATURES,
    CheckContext,
    OperatorSignature,
)

__all__ = [
    "PreflightReport",
    "SchemaFlowChecker",
    "check_schema_flow",
    "probe_artifacts",
    "purity_diagnostics",
    "run_preflight",
    "PurityAnalyser",
    "PurityVerdict",
    "certify_callable",
    "TYPECHECK_RULES",
    "SIGNATURES",
    "CheckContext",
    "OperatorSignature",
]
