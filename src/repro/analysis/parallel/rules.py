"""The parallel-safety rules: the ``PX`` catalogue.

Each rule names one class of construct that makes fanning a callable out
across rows, partitions, or processes unsafe — or merely narrows *how*
it may be fanned out.  The certifier in
:mod:`repro.analysis.parallel.certifier` detects them by AST and closure
inspection and folds each finding into a
:class:`~repro.analysis.parallel.certifier.ParallelCertificate`; the
gate in :mod:`repro.analysis.parallel.gate` re-emits them through the
shared :class:`~repro.analysis.diagnostics.Diagnostic` engine so
validator, linter, typechecker, and certifier findings render uniformly.

Severity doubles as classification pressure: ``error`` rules demote a
callable to **UNSAFE** (no fan-out, strict consumers refuse it);
``warning`` rules demote to **GLOBAL** (single-process only);
``info`` rules demote to **PARTITION_LOCAL** (per-partition fan-out
stays sound, per-row does not).
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.diagnostics import RuleRecord, Severity, rule_catalogue

__all__ = ["PARALLEL_RULES"]


#: Rule catalogue for the parallel certifier (mirrored in docs/ANALYSIS.md).
PARALLEL_RULES: Mapping[str, RuleRecord] = rule_catalogue(
    RuleRecord(
        "PX001",
        "captured-mutable-mutation",
        Severity.ERROR,
        "The callable mutates a mutable object captured by its closure: "
        "two concurrent invocations race on the shared cell, and under a "
        "process pool each worker mutates a private copy whose updates "
        "are silently lost.",
    ),
    RuleRecord(
        "PX002",
        "module-global-write",
        Severity.ERROR,
        "The callable writes module-global state (a `global`/`nonlocal` "
        "declaration, assignment to a module attribute, or mutation of a "
        "module-level container): a write-write or read-write race under "
        "any fan-out, and divergent per-process copies under a pool.",
    ),
    RuleRecord(
        "PX003",
        "module-global-mutable-read",
        Severity.WARNING,
        "The callable reads module-level *mutable* state (a module dict/"
        "list/set): safe only while nothing writes it, so the node is "
        "pinned GLOBAL — the scheduler must not assume per-partition "
        "copies see a consistent value.",
    ),
    RuleRecord(
        "PX004",
        "cross-row-accumulator",
        Severity.INFO,
        "The callable accumulates state across loop iterations (an "
        "augmented assignment inside a loop): correct per partition, but "
        "splitting the rows of one invocation across workers would split "
        "the accumulator — fan out at partition granularity, not row.",
    ),
    RuleRecord(
        "PX005",
        "order-sensitive-iteration",
        Severity.INFO,
        "The callable's result depends on iteration order (pairwise "
        "`zip(xs, xs[1:])` windows, index-offset reads like `xs[i-1]`, "
        "`itertools.accumulate`): row order inside a partition must be "
        "preserved, so per-row fan-out is unsound.",
    ),
    RuleRecord(
        "PX006",
        "shared-rng",
        Severity.ERROR,
        "The callable draws from the shared module-level RNG (`random.*` "
        "functions or `random.seed`): workers fork divergent or identical "
        "streams nondeterministically — thread an explicitly seeded "
        "`random.Random` instance through instead.",
    ),
    RuleRecord(
        "PX007",
        "unpicklable-capture",
        Severity.ERROR,
        "The callable captures state a process pool cannot ship (an open "
        "file handle, a generator, a lock, a socket) — or its source "
        "cannot be located at all, so no certificate can be issued and "
        "fan-out must be refused.",
    ),
    RuleRecord(
        "PX008",
        "non-associative-reduce",
        Severity.WARNING,
        "A reduce function shows non-associativity hints (subtraction, "
        "division, or exponentiation over its partials; positional "
        "special-casing like `partials[0]`): it must see all partials in "
        "one deterministic order and cannot be tree-combined.",
    ),
)
