"""The shared diagnostics vocabulary of the analysis subsystem.

Both halves of :mod:`repro.analysis` — the static plan validator and the
AST framework linter — emit the same currency: a :class:`Diagnostic`
carrying a rule id, a severity, a location, a human-readable message, and
(where one exists) a fix hint.  Reporters render collections of them;
callers decide policy from :func:`has_errors` / :func:`worst_severity`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Severity",
    "Location",
    "Diagnostic",
    "RuleRecord",
    "rule_catalogue",
    "count_by_severity",
    "dedupe_diagnostics",
    "has_errors",
    "sort_diagnostics",
    "worst_severity",
]


class Severity(enum.Enum):
    """How bad a finding is — drives exit codes and raise policy.

    ``ERROR`` findings make the lint CLI exit non-zero and make the plan
    validator raise; ``WARNING`` findings are reported but never fatal;
    ``INFO`` findings are advisory style notes.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Numeric badness (higher is worse), for sorting and thresholds."""
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    @classmethod
    def parse(cls, text: str) -> "Severity":
        """The severity named by ``text`` (case-insensitive)."""
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.value for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points.

    For lint findings ``file`` is a path and ``line``/``column`` are
    1-based source coordinates; for plan findings ``file`` names the
    artifact (``"plan"``, ``"dataflow"``, ``"user-context"``, ...) and
    ``node`` the offending element within it.
    """

    file: str
    line: int = 0
    column: int = 0
    node: str = ""

    def render(self) -> str:
        """``file:line:col`` (or ``artifact[node]``) for reports."""
        if self.line:
            return f"{self.file}:{self.line}:{self.column}"
        if self.node:
            return f"{self.file}[{self.node}]"
        return self.file


@dataclass(frozen=True)
class Diagnostic:
    """One finding from either analysis half."""

    rule: str
    severity: Severity
    location: Location
    message: str
    fix_hint: str = ""

    def render(self) -> str:
        """The one-line text form used by the text reporter."""
        hint = f" (fix: {self.fix_hint})" if self.fix_hint else ""
        return (
            f"{self.location.render()}: {self.severity.value} "
            f"[{self.rule}] {self.message}{hint}"
        )

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable form (the JSON reporter's row format)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "file": self.location.file,
            "line": self.location.line,
            "column": self.location.column,
            "node": self.location.node,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


@dataclass(frozen=True)
class RuleRecord:
    """One registered plan-analysis invariant (a ``TC``, ``PX`` or ``CC``
    rule); the checks themselves live in the analysers that emit it."""

    rule_id: str
    name: str
    severity: Severity
    description: str

    def render(self) -> str:
        """The one-line ``--list-rules`` row."""
        return (
            f"{self.rule_id}  {self.name:<32} "
            f"{self.severity.value:<8} {self.description}"
        )


def rule_catalogue(*rules: RuleRecord) -> Mapping[str, RuleRecord]:
    """An id-keyed catalogue of ``rules``."""
    return {r.rule_id: r for r in rules}


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Stable order: by file, line, column, then rule id."""
    return sorted(
        diagnostics,
        key=lambda d: (
            d.location.file,
            d.location.line,
            d.location.column,
            d.rule,
        ),
    )


def dedupe_diagnostics(
    diagnostics: Iterable[Diagnostic],
) -> list[Diagnostic]:
    """Drop exact duplicates, keeping first occurrence order.

    Four gates (``PV``, ``TC``, purity, ``PX``) can legitimately find the
    same defect on the same node; a combined report should say it once.
    Diagnostics are frozen dataclasses, so "exact duplicate" is full
    field equality — two findings differing only in message or hint both
    survive.
    """
    return list(dict.fromkeys(diagnostics))


def count_by_severity(
    diagnostics: Sequence[Diagnostic],
) -> dict[Severity, int]:
    """How many findings of each severity (zero-filled)."""
    counts = {severity: 0 for severity in Severity}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] += 1
    return counts


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    """Whether any finding is error-severity."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


def worst_severity(diagnostics: Sequence[Diagnostic]) -> Severity | None:
    """The most severe finding present, or ``None`` when clean."""
    worst: Severity | None = None
    for diagnostic in diagnostics:
        if worst is None or diagnostic.severity.rank > worst.rank:
            worst = diagnostic.severity
    return worst
