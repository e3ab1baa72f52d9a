"""Parallel-safety certification: may this node fan out, and how far?

The fourth leg of the analysis subsystem (after the plan validator, the
framework linter, and the schema-flow typechecker): a static
partitionability and race analysis that classifies every dataflow node
callable as **ROW_LOCAL / PARTITION_LOCAL / GLOBAL / UNSAFE** by AST and
closure inspection, without executing anything.  Rule ids are ``PX0xx``;
findings flow through the shared :class:`~repro.analysis.diagnostics.
Diagnostic` engine and into ``run_preflight``.

``python -m repro.analysis check examples`` renders every example
plan's node→level table next to the other gates' findings.
"""

from repro.analysis.parallel.certifier import (
    ParallelAnalyser,
    ParallelCertificate,
    ParallelFinding,
    ParallelSafety,
    certify_dataflow_parallel,
    certify_parallel,
    ensure_certified,
)
from repro.analysis.parallel.gate import parallel_diagnostics
from repro.analysis.parallel.rules import PARALLEL_RULES

__all__ = [
    "ParallelAnalyser",
    "ParallelCertificate",
    "ParallelFinding",
    "ParallelSafety",
    "PARALLEL_RULES",
    "certify_dataflow_parallel",
    "certify_parallel",
    "ensure_certified",
    "parallel_diagnostics",
]
