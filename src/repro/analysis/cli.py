"""The analysis driver: ``python -m repro.analysis``.

Three subcommands behind one entry point:

* ``check [paths]`` (default ``examples``) — discovers plan-building
  Python modules (each exposing a zero-argument ``build_wrangler()``),
  builds each plan once and runs its pre-execution gate once through
  ``Wrangler.preflight()``.  From that single pass it renders the
  combined ``PV``/``TC``/``PX``/``CC`` findings (advisory ``PX`` and
  ``CC`` notes folded in, each exact finding once, re-anchored to the
  defining file), the purity line, the node→level parallel-safety table
  and the per-node cost table, as text or JSON.  The probe is the only
  data access — estimates are computed, never measured — so output is
  byte-identical across runs over an unchanged tree.  ``--list-rules``
  prints the TC, PX and CC catalogues.
* ``calibrate [paths]`` — fits per-operator unit costs from committed
  ``*.telemetry.json`` snapshots and reports the prediction error the
  fitted constants achieve (see :mod:`repro.analysis.cost.calibration`).
* ``ratchet`` — compares fresh ``BENCH_*.json`` records against
  committed baselines and fails on any metric regressing past the
  tolerance (see :mod:`repro.analysis.cost.ratchet`).

Exit-code contract (identical to the lint CLI, what CI keys off):

* ``0`` — no error-severity finding, no UNSAFE node, no ratchet
  regression;
* ``1`` — at least one error-severity finding, UNSAFE node, ratchet
  regression or orphan baseline;
* ``2`` — the tool itself was misused (unknown path, unimportable
  module, an explicitly named file without ``build_wrangler()``).
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.analysis.cost import COST_RULES, calibrate
from repro.analysis.cost.ratchet import (
    DEFAULT_TOLERANCE,
    orphan_baselines,
    run_ratchet,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    count_by_severity,
    dedupe_diagnostics,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.parallel import (
    PARALLEL_RULES,
    ParallelSafety,
    parallel_diagnostics,
)
from repro.analysis.report import render_text
from repro.analysis.typecheck import TYPECHECK_RULES, PreflightReport
from repro.errors import AnalysisError

__all__ = ["CheckResult", "ENTRY", "check_module", "check_paths", "main"]

#: The zero-argument function every plan module exposes.
ENTRY = "build_wrangler"

_module_counter = itertools.count(1)


@dataclass(frozen=True)
class CheckResult:
    """Every checked plan's preflight report plus the combined findings.

    Each report comes from ``Wrangler.preflight()``, which always gates a
    plan and a registry, so its ``cost`` report is never ``None``.
    """

    diagnostics: tuple[Diagnostic, ...]
    reports: tuple[tuple[str, PreflightReport], ...]
    skipped: tuple[str, ...]

    @property
    def checked_plans(self) -> int:
        return len(self.reports)

    @property
    def nodes(self) -> int:
        """Dataflow nodes certified across every plan."""
        return sum(len(report.purity) for _, report in self.reports)

    @property
    def pure_nodes(self) -> int:
        return sum(
            verdict.is_pure
            for _, report in self.reports
            for verdict in report.purity.values()
        )

    @property
    def unsafe_nodes(self) -> tuple[str, ...]:
        """``path::node`` for every node certified UNSAFE."""
        return tuple(
            f"{path}::{name}"
            for path, report in self.reports
            for name, certificate in sorted(report.parallel.items())
            if certificate.level is ParallelSafety.UNSAFE
        )

    @property
    def over_budget(self) -> tuple[str, ...]:
        """The plans whose estimated access cost exceeds their budget."""
        return tuple(
            path for path, report in self.reports
            if report.cost.over_budget
        )

    @property
    def ok(self) -> bool:
        """No UNSAFE node and no error-severity finding."""
        return not self.unsafe_nodes and not has_errors(self.diagnostics)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _import_module(path: Path):
    name = f"_repro_analysis_plan_{next(_module_counter)}"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise AnalysisError(f"cannot load module from {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    # Arbitrary user plan modules can fail arbitrarily at import time;
    # every failure becomes the CLI's misuse exit code.
    except Exception as failure:  # repro: noqa[REP002]
        sys.modules.pop(name, None)
        raise AnalysisError(f"cannot import {path}: {failure}") from failure
    return module


def check_module(path: Path) -> PreflightReport | None:
    """Preflight the plan one module builds; ``None`` when it has no
    ``build_wrangler`` callable (not a plan module)."""
    build = getattr(_import_module(path), ENTRY, None)
    if not callable(build):
        return None
    try:
        return build().preflight()
    except AnalysisError:
        raise
    # A user-supplied build_wrangler() can fail arbitrarily; fold it
    # into the CLI's misuse exit code rather than a traceback.
    except Exception as failure:  # repro: noqa[REP002]
        raise AnalysisError(
            f"preflight of {path} failed: {failure}"
        ) from failure


def _findings(report: PreflightReport) -> list[Diagnostic]:
    """The gate's findings plus the advisory PX and CC notes it omits."""
    return [
        *report.diagnostics,
        *parallel_diagnostics(report.parallel, min_severity=Severity.INFO),
        *report.cost.diagnostics(min_severity=Severity.INFO),
    ]


def _reanchor(diagnostic: Diagnostic, path: str) -> Diagnostic:
    """Point a plan-artifact finding at the file that builds the plan."""
    location = diagnostic.location
    return replace(
        diagnostic,
        location=replace(location, file=f"{path}::{location.file}"),
    )


def _discover(paths: Sequence[str]) -> list[tuple[Path, bool]]:
    """``(file, explicitly named)`` for every module under ``paths``;
    explicitly named files come first."""
    explicit: list[tuple[Path, bool]] = []
    discovered: list[tuple[Path, bool]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            discovered.extend(
                (p, False) for p in sorted(path.rglob("*.py"))
                if p.stem != "__init__"
            )
        elif path.is_file():
            explicit.append((path, True))
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
    return explicit + discovered


def check_paths(paths: Sequence[str]) -> CheckResult:
    """Preflight every plan module under the given paths.

    Directory-discovered files without ``build_wrangler`` are skipped
    and listed in ``skipped``; an explicitly named file without one is a
    usage error.
    """
    diagnostics: list[Diagnostic] = []
    reports: list[tuple[str, PreflightReport]] = []
    skipped: list[str] = []
    for path, named in _discover(paths):
        report = check_module(path)
        if report is None:
            if named:
                raise AnalysisError(
                    f"{path} defines no {ENTRY}() entry point"
                )
            skipped.append(str(path))
            continue
        reports.append((str(path), report))
        diagnostics.extend(
            _reanchor(finding, str(path)) for finding in _findings(report)
        )
    return CheckResult(
        tuple(sort_diagnostics(dedupe_diagnostics(diagnostics))),
        tuple(reports),
        tuple(skipped),
    )


def _certification_block(result: CheckResult) -> str:
    """The per-plan node→level table."""
    lines = ["certification:"]
    counts = {level: 0 for level in ParallelSafety}
    for path, report in result.reports:
        lines.append(f"  {path}")
        width = max(map(len, report.parallel), default=0)
        for name, certificate in sorted(report.parallel.items()):
            lines.append(f"    {name:<{width}}  {certificate.level.value}")
            counts[certificate.level] += 1
    summary = ", ".join(
        f"{count} {level.value}" for level, count in counts.items()
    )
    lines.append(f"  {sum(counts.values())} nodes: {summary}")
    return "\n".join(lines)


def _cost_block(result: CheckResult) -> str:
    """The per-plan node→estimate table."""
    lines = ["cost certification:"]
    for path, plan in result.reports:
        report = plan.cost
        budget = (
            "unbounded" if report.budget is None
            else f"{report.budget:.2f}"
        )
        lines.append(f"  {path} (budget {budget})")
        names = sorted(report.estimates)
        width = max(map(len, names), default=0)
        for name in names:
            estimate = report.estimates[name]
            lines.append(
                f"    {name:<{width}}  rows={estimate.rows:>8.1f}  "
                f"work={estimate.work:>10.1f}  "
                f"access={estimate.access_cost:>7.2f}  "
                f"[{estimate.confidence}]"
            )
        verdict = "OVER BUDGET" if report.over_budget else "within budget"
        lines.append(
            f"    total: access={report.total_access_cost:.2f} "
            f"work={report.total_work:.1f} "
            f"predicted={report.predicted_seconds:.4f}s ({verdict})"
        )
    return "\n".join(lines)


def _render_text(result: CheckResult) -> str:
    lines = [
        render_text(result.diagnostics, checked_files=result.checked_plans)
    ]
    if result.nodes:
        lines.append(
            f"purity: {result.pure_nodes}/{result.nodes} dataflow nodes "
            "certified pure"
        )
    lines.append(_certification_block(result))
    lines.extend(f"UNSAFE: {unsafe}" for unsafe in result.unsafe_nodes)
    lines.append(_cost_block(result))
    return "\n".join(lines)


def _render_json(result: CheckResult) -> str:
    counts = count_by_severity(result.diagnostics)
    payload = {
        "plans": [
            {
                "path": path,
                "parallel": {
                    name: certificate.to_dict()
                    for name, certificate in report.parallel.items()
                },
                "cost": report.cost.to_dict(),
            }
            for path, report in result.reports
        ],
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "summary": {
            "checked_plans": result.checked_plans,
            "errors": counts[Severity.ERROR],
            "warnings": counts[Severity.WARNING],
            "infos": counts[Severity.INFO],
            "nodes": result.nodes,
            "pure_nodes": result.pure_nodes,
            "unsafe_nodes": list(result.unsafe_nodes),
            "over_budget": list(result.over_budget),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _rule_catalogue() -> str:
    rules = {**TYPECHECK_RULES, **PARALLEL_RULES, **COST_RULES}
    return "\n".join(rules[rule_id].render() for rule_id in sorted(rules))


def _check(args: argparse.Namespace) -> int:
    if args.list_rules:
        sys.stdout.write(_rule_catalogue() + "\n")
        return 0
    try:
        result = check_paths(args.paths)
    except AnalysisError as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 2
    for path in result.skipped:
        sys.stderr.write(f"note: {path}: no {ENTRY}(), skipped\n")
    render = _render_json if args.format == "json" else _render_text
    sys.stdout.write(render(result) + "\n")
    return result.exit_code


def _calibrate(args: argparse.Namespace) -> int:
    try:
        report = calibrate(args.paths)
    except AnalysisError as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 2
    findings = sort_diagnostics(report.diagnostics())
    if args.format == "json":
        payload = report.to_dict()
        payload["diagnostics"] = [d.to_dict() for d in findings]
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(report.render() + "\n")
        for finding in findings:
            sys.stdout.write(finding.render() + "\n")
    return 1 if has_errors(findings) else 0


def _ratchet(args: argparse.Namespace) -> int:
    try:
        report = run_ratchet(args.fresh, args.baseline, tolerance=args.tolerance)
        orphans = (
            orphan_baselines(args.baseline, args.check_baselines)
            if args.check_baselines is not None
            else []
        )
    except AnalysisError as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 2
    if args.format == "json":
        payload = report.to_dict()
        if args.check_baselines is not None:
            payload["orphan_baselines"] = orphans
            payload["ok"] = report.ok and not orphans
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(report.render() + "\n")
        for orphan in orphans:
            sys.stdout.write(
                f"orphan baseline: {orphan} has no generating "
                f"benchmark under {args.check_baselines}\n"
            )
    if orphans:
        return 1
    return report.exit_code


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repro plan analysis: preflight-check plan modules, calibrate "
            "the cost model, ratchet benchmark baselines"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check",
        help="run the full preflight gate over plan-building modules",
    )
    check.add_argument(
        "paths", nargs="*", default=["examples"],
        help="plan modules or directories to check (default: examples)",
    )
    check.add_argument(
        "--list-rules", action="store_true",
        help="print the TC, PX and CC rule catalogues and exit",
    )

    calibration = commands.add_parser(
        "calibrate",
        help="fit per-operator unit costs from telemetry snapshots",
    )
    calibration.add_argument(
        "paths", nargs="*", default=["benchmarks/results"],
        help=(
            "telemetry snapshots or directories "
            "(default: benchmarks/results)"
        ),
    )

    ratchet = commands.add_parser(
        "ratchet",
        help="compare fresh BENCH_*.json records against baselines",
    )
    ratchet.add_argument(
        "--baseline", default="benchmarks/results",
        help="baseline directory (default: benchmarks/results)",
    )
    ratchet.add_argument(
        "--fresh", default="benchmarks/results",
        help="fresh-results directory (default: benchmarks/results)",
    )
    ratchet.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=(
            "relative regression allowed before the ratchet fails "
            f"(default: {DEFAULT_TOLERANCE})"
        ),
    )
    ratchet.add_argument(
        "--check-baselines", metavar="BENCHMARKS_DIR", default=None,
        help=(
            "additionally fail if any baseline under --baseline has no "
            "generating benchmark (its experiment name appears in no "
            "bench_*.py under BENCHMARKS_DIR)"
        ),
    )

    for command in (check, calibration, ratchet):
        command.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format",
        )
    args = parser.parse_args(argv)
    handlers = {"check": _check, "calibrate": _calibrate, "ratchet": _ratchet}
    return handlers[args.command](args)
