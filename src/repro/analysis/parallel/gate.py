"""Fold parallel-safety certificates into the shared diagnostics stream.

The certifier's native currency is the
:class:`~repro.analysis.parallel.certifier.ParallelCertificate`; this
module translates certificates into ``PX`` :class:`Diagnostic`\\ s so
``run_preflight`` can report them alongside the validator's ``PV``,
the typechecker's ``TC``, and the purity gate's findings — one report,
one sort order, one raise policy.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.parallel.certifier import ParallelCertificate

__all__ = ["parallel_diagnostics"]

#: Per-rule remediation one-liners surfaced as fix hints.
_FIX_HINTS: Mapping[str, str] = {
    "PX001": "pass state in as an argument or return it instead of "
             "mutating a captured object",
    "PX002": "thread state through node inputs or working data, never "
             "module globals",
    "PX003": "snapshot the value into the closure (or a node input) at "
             "build time",
    "PX004": "keep the accumulator: fan out per partition, not per row",
    "PX005": "sort or window inside one partition; do not split ordered "
             "rows across workers",
    "PX006": "construct a seeded random.Random and thread it through "
             "explicitly",
    "PX007": "capture only plain data; open handles and locks inside "
             "the worker",
    "PX008": "make the reducer associative, or accept a single-process "
             "reduce",
}


def parallel_diagnostics(
    certificates: Mapping[str, ParallelCertificate],
    min_severity: Severity = Severity.WARNING,
) -> list[Diagnostic]:
    """``PX`` findings for a node→certificate map.

    Only findings at ``min_severity`` or worse are folded (the default
    keeps advisory INFO notes — "this is partition-local, not row-local"
    — out of the preflight report; ``python -m repro.analysis check``
    shows everything).
    """
    findings: list[Diagnostic] = []
    for name in sorted(certificates):
        certificate = certificates[name]
        for finding in certificate.findings:
            if finding.severity.rank < min_severity.rank:
                continue
            findings.append(
                Diagnostic(
                    finding.rule,
                    finding.severity,
                    Location("dataflow", node=name),
                    f"node {name!r} certified "
                    f"{certificate.level.value}: {finding.message}",
                    _FIX_HINTS.get(finding.rule, ""),
                )
            )
    return findings
