"""The perf ratchet: fresh ``BENCH_*.json`` runs vs committed baselines.

ROADMAP item 2's "benchmark suite becomes a ratchet instead of a
report": every committed ``benchmarks/results/BENCH_<name>.json``
baseline is compared metric-by-metric against a freshly emitted run of
the same benchmark, and any wall-clock or cost metric that regressed by
more than the tolerance fails the gate (exit non-zero from
``python -m repro.analysis ratchet``, wired into ``make bench-gate`` /
``make check`` / CI).

Only *lower-is-better* metrics are ratcheted: the numeric leaves under a
baseline's ``timings_seconds`` and ``costs`` objects plus any top-level
``cost`` field.  Throughput-style numbers (speedups, cluster counts)
are carried in the baselines for the record but are machine-dependent,
so they do not gate.  A baseline whose fresh counterpart is missing
fails the gate too — deleting a benchmark must be an explicit decision,
not a silent skip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import AnalysisError

__all__ = [
    "RatchetEntry",
    "RatchetReport",
    "orphan_baselines",
    "run_ratchet",
]

#: Allowed relative regression before a metric fails the gate.
DEFAULT_TOLERANCE = 0.15

#: Baseline keys whose numeric leaves are lower-is-better and ratcheted.
_RATCHETED_BLOCKS = ("timings_seconds", "costs")
_RATCHETED_SCALARS = ("cost",)


@dataclass(frozen=True)
class RatchetEntry:
    """One compared metric (or one missing-file failure)."""

    benchmark: str
    metric: str
    baseline: float | None
    fresh: float | None
    delta: float | None  # relative change; positive = slower/costlier
    status: str  # "ok" | "improved" | "regressed" | "missing"

    @property
    def failed(self) -> bool:
        return self.status in ("regressed", "missing")

    def render(self) -> str:
        if self.status == "missing":
            return f"{self.benchmark}: no fresh {self.metric}"
        sign = "+" if (self.delta or 0.0) >= 0 else ""
        return (
            f"{self.benchmark}.{self.metric}: "
            f"{self.baseline:.4f} -> {self.fresh:.4f} "
            f"({sign}{100.0 * (self.delta or 0.0):.1f}%) {self.status}"
        )


@dataclass(frozen=True)
class RatchetReport:
    """Every compared metric plus the gate verdict."""

    entries: tuple[RatchetEntry, ...]
    tolerance: float
    baseline_dir: str
    fresh_dir: str

    @property
    def failures(self) -> tuple[RatchetEntry, ...]:
        return tuple(entry for entry in self.entries if entry.failed)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        lines = [
            f"ratchet: {self.fresh_dir} vs baseline {self.baseline_dir} "
            f"(tolerance {100.0 * self.tolerance:.0f}%)"
        ]
        for entry in self.entries:
            lines.append("  " + entry.render())
        verdict = (
            "OK" if self.ok
            else f"FAIL ({len(self.failures)} regression(s))"
        )
        lines.append(
            f"{len(self.entries)} metric(s) compared: {verdict}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tolerance": self.tolerance,
            "baseline_dir": self.baseline_dir,
            "fresh_dir": self.fresh_dir,
            "entries": [
                {
                    "benchmark": e.benchmark,
                    "metric": e.metric,
                    "baseline": e.baseline,
                    "fresh": e.fresh,
                    "delta": None if e.delta is None else round(e.delta, 4),
                    "status": e.status,
                }
                for e in self.entries
            ],
            "ok": self.ok,
        }


def _baseline_files(directory: Path) -> list[Path]:
    return [
        path
        for path in sorted(directory.glob("BENCH_*.json"))
        if not path.name.endswith(".telemetry.json")
    ]


def _load(path: Path) -> Mapping[str, Any]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as failure:
        raise AnalysisError(
            f"cannot read benchmark baseline {path}: {failure}"
        ) from failure
    if not isinstance(payload, Mapping):
        raise AnalysisError(f"{path}: expected a JSON object")
    return payload


def _ratcheted_metrics(payload: Mapping[str, Any]) -> dict[str, float]:
    """The lower-is-better numeric leaves of one benchmark record."""
    metrics: dict[str, float] = {}
    for block in _RATCHETED_BLOCKS:
        leaves = payload.get(block)
        if not isinstance(leaves, Mapping):
            continue
        for key, value in leaves.items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                metrics[f"{block}.{key}"] = float(value)
    for key in _RATCHETED_SCALARS:
        value = payload.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[key] = float(value)
    return metrics


def run_ratchet(
    fresh_dir: str | Path,
    baseline_dir: str | Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RatchetReport:
    """Compare fresh benchmark records against committed baselines.

    Every ``BENCH_*.json`` in ``baseline_dir`` must have a fresh
    counterpart of the same name in ``fresh_dir``; each lower-is-better
    metric present in *both* records is compared, and a fresh value more
    than ``tolerance`` above the baseline is a regression.  Metrics with
    a non-positive baseline are skipped (nothing meaningful to ratchet
    against); having no baselines at all is a usage error.
    """
    baseline_path = Path(baseline_dir)
    fresh_path = Path(fresh_dir)
    if not baseline_path.is_dir():
        raise AnalysisError(f"no such baseline directory: {baseline_dir}")
    baselines = _baseline_files(baseline_path)
    if not baselines:
        raise AnalysisError(
            f"no BENCH_*.json baselines under {baseline_dir}"
        )
    entries: list[RatchetEntry] = []
    for baseline_file in baselines:
        name = baseline_file.stem
        fresh_file = fresh_path / baseline_file.name
        if not fresh_file.is_file():
            entries.append(
                RatchetEntry(name, baseline_file.name, None, None, None,
                             "missing")
            )
            continue
        baseline_metrics = _ratcheted_metrics(_load(baseline_file))
        fresh_metrics = _ratcheted_metrics(_load(fresh_file))
        for metric in sorted(baseline_metrics):
            base = baseline_metrics[metric]
            if base <= 0 or metric not in fresh_metrics:
                continue
            fresh = fresh_metrics[metric]
            delta = (fresh - base) / base
            if delta > tolerance:
                status = "regressed"
            elif delta < 0:
                status = "improved"
            else:
                status = "ok"
            entries.append(
                RatchetEntry(name, metric, base, fresh, delta, status)
            )
    return RatchetReport(
        entries=tuple(entries),
        tolerance=tolerance,
        baseline_dir=str(baseline_dir),
        fresh_dir=str(fresh_dir),
    )


def orphan_baselines(
    baseline_dir: str | Path, benchmarks_dir: str | Path
) -> list[str]:
    """Committed ``BENCH_*.json`` baselines no benchmark can regenerate.

    A baseline whose experiment name appears in no ``bench_*.py`` source
    under ``benchmarks_dir`` is a dead weight the ratchet would keep
    enforcing forever: the gate copies it aside, re-runs the suite, and
    then fails on the guaranteed-missing fresh counterpart — or worse,
    silently compares against a stale record nobody can refresh.  The
    check is textual (the experiment name string must occur in some
    benchmark source), which is exactly the contract the benchmark
    helpers enforce when emitting: every ``BENCH_<name>.json`` is
    written under its literal experiment name.
    """
    baseline_path = Path(baseline_dir)
    benchmarks_path = Path(benchmarks_dir)
    if not benchmarks_path.is_dir():
        raise AnalysisError(
            f"no such benchmarks directory: {benchmarks_dir}"
        )
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(benchmarks_path.glob("bench_*.py"))
    )
    return [
        baseline.name
        for baseline in _baseline_files(baseline_path)
        if baseline.stem not in sources
    ]
