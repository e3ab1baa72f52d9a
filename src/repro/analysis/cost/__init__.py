"""Cost & cardinality certification: how much will this plan spend?

The sixth leg of the analysis subsystem (after the plan validator, the
framework linter, the schema-flow typechecker, the purity certifier,
and the parallel-safety certifier): a static cost model that propagates
a :class:`~repro.analysis.cost.model.CardinalityEstimate` — rows,
per-stage work, access cost in ``cost_per_access`` units — through a
plan's dataflow topology, flags statically-predictable super-linear
stages (the quadratic ER wall, degenerate blocking, cross-source
joins), and refuses plans whose estimated spend exceeds the budget
declared via ``Wrangler.budget(...)``.  Rule ids are ``CC0xx``;
findings flow through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` engine and into
``run_preflight``.

Two feedback loops keep the model honest: ``python -m repro.analysis
calibrate`` fits per-operator unit costs from committed telemetry
snapshots and reports their prediction error, and ``python -m
repro.analysis ratchet`` gates fresh ``BENCH_*.json`` runs against
committed baselines.

``python -m repro.analysis check examples`` renders every example
plan's per-node estimates next to the other gates' findings.
"""

from repro.analysis.cost.calibration import (
    CalibrationReport,
    StageFit,
    calibrate,
)
from repro.analysis.cost.certifier import (
    CostCertifier,
    PlanCostReport,
    check_plan_cost,
)
from repro.analysis.cost.model import (
    CardinalityEstimate,
    CostSignature,
    ResolutionProfile,
    UNIT_COSTS,
    estimated_pairs,
)
from repro.analysis.cost.ratchet import (
    RatchetEntry,
    RatchetReport,
    run_ratchet,
)
from repro.analysis.cost.rules import COST_RULES

__all__ = [
    "CalibrationReport",
    "CardinalityEstimate",
    "CostCertifier",
    "CostSignature",
    "COST_RULES",
    "PlanCostReport",
    "RatchetEntry",
    "RatchetReport",
    "ResolutionProfile",
    "StageFit",
    "UNIT_COSTS",
    "calibrate",
    "check_plan_cost",
    "estimated_pairs",
    "run_ratchet",
]
