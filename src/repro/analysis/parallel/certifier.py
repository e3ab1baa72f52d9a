"""Static partitionability and race certification for node callables.

The purity analyser answers "may the engine replay a memoised value?";
this module answers the second half of the fan-out contract: "may the
scheduler run this callable concurrently, and at what granularity?".
Every verdict is a :class:`ParallelCertificate` carrying one of four
levels, ordered from most to least parallelisable:

* **ROW_LOCAL** — each row (or argument) can be processed independently
  by any worker in any order: free fan-out.
* **PARTITION_LOCAL** — invocations are independent, but one invocation
  must see its whole partition in order (cross-row accumulators,
  order-sensitive iteration): fan out per partition, never per row.
* **GLOBAL** — must run in the single coordinating process (reads
  shared mutable state, writes sanctioned wrangler state through
  ``self``, or shows non-associativity as a reducer).
* **UNSAFE** — races with itself or the coordinator (captured-state
  mutation, module-global writes, shared RNG, unpicklable captures):
  never fan out; strict consumers refuse it outright.

Like the purity analyser it subclasses, the certifier never executes
the callable: it parses the defining source (cached per path), locates
the function's AST via its code object, resolves ``self`` from the
closure, and follows ``self.<method>`` calls one hop.  The only runtime
inspection is of closure *cells* — their contents are type-checked for
process-pool shippability (PX007) without being invoked.

Mutation of the wrangler's own state through ``self`` is sanctioned
exactly as in the purity analyser — the blackboard is the coordinator's
versioned state — but it pins the callable to **GLOBAL**: the node is
correct, it just runs where that state lives.
"""

from __future__ import annotations

import ast
import enum
import inspect
import io
import itertools
import random
import re
import threading
import types
from dataclasses import dataclass, field
from types import CodeType, FunctionType, ModuleType
from typing import Any, Callable, Iterable, Mapping

from repro.analysis.diagnostics import Severity
from repro.analysis.parallel.rules import PARALLEL_RULES
from repro.analysis.typecheck.purity import PurityAnalyser
from repro.errors import ParallelSafetyError

__all__ = [
    "ParallelSafety",
    "ParallelFinding",
    "ParallelCertificate",
    "ParallelAnalyser",
    "certify_parallel",
    "certify_dataflow_parallel",
    "ensure_certified",
]


class ParallelSafety(enum.Enum):
    """How far a callable may be fanned out (higher rank = further)."""

    ROW_LOCAL = "row_local"
    PARTITION_LOCAL = "partition_local"
    GLOBAL = "global"
    UNSAFE = "unsafe"

    @property
    def rank(self) -> int:
        """Numeric parallelisability (higher is safer to fan out)."""
        return {
            "unsafe": 0, "global": 1, "partition_local": 2, "row_local": 3,
        }[self.value]

    @property
    def fan_out_safe(self) -> bool:
        """Whether per-partition fan-out is sound at this level."""
        return self.rank >= ParallelSafety.PARTITION_LOCAL.rank


def _worse(a: ParallelSafety, b: ParallelSafety) -> ParallelSafety:
    return a if a.rank <= b.rank else b


#: The level each rule demotes a callable to when it fires.
_DEMOTION: Mapping[str, ParallelSafety] = {
    "PX001": ParallelSafety.UNSAFE,
    "PX002": ParallelSafety.UNSAFE,
    "PX003": ParallelSafety.GLOBAL,
    "PX004": ParallelSafety.PARTITION_LOCAL,
    "PX005": ParallelSafety.PARTITION_LOCAL,
    "PX006": ParallelSafety.UNSAFE,
    "PX007": ParallelSafety.UNSAFE,
    "PX008": ParallelSafety.GLOBAL,
}


@dataclass(frozen=True)
class ParallelFinding:
    """One rule hit inside a certified callable."""

    rule: str
    message: str
    severity: Severity

    def render(self) -> str:
        return f"{self.rule}: {self.message}"


@dataclass(frozen=True)
class ParallelCertificate:
    """The fan-out verdict (and its evidence) for one callable."""

    level: ParallelSafety
    findings: tuple[ParallelFinding, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def fan_out_safe(self) -> bool:
        return self.level.fan_out_safe

    def render(self) -> str:
        details = [f.render() for f in self.findings] + list(self.notes)
        if not details:
            return self.level.value
        return f"{self.level.value}: " + "; ".join(details)

    def to_dict(self) -> dict[str, object]:
        return {
            "level": self.level.value,
            "fan_out_safe": self.fan_out_safe,
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity.value,
                    "message": f.message,
                }
                for f in self.findings
            ],
            "notes": list(self.notes),
        }


_ROW_LOCAL = ParallelCertificate(ParallelSafety.ROW_LOCAL)

#: Builtins known pure and picklable-by-reference: certified ROW_LOCAL so
#: ``map_reduce(table, n, len, sum)`` keeps working under strict mode.
_SAFE_BUILTINS = frozenset(
    {len, sum, min, max, sorted, any, all, abs, round, repr,
     tuple, list, set, dict, frozenset, str, int, float, bool}
)

#: Captured values a process pool cannot ship to a worker.
_UNPICKLABLE_TYPES: tuple[type, ...] = (
    types.GeneratorType,
    types.CoroutineType,
    types.AsyncGeneratorType,
    types.FrameType,
    types.TracebackType,
    io.IOBase,
    type(threading.Lock()),
    type(threading.RLock()),
)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {"append", "extend", "insert", "remove", "clear", "pop", "popitem",
     "update", "add", "discard", "setdefault", "sort", "reverse", "put",
     "write", "writelines", "push", "send", "seed", "shuffle"}
)

#: Module-level container types whose ambient read pins a node GLOBAL.
_MUTABLE_CONTAINERS = (list, dict, set, bytearray)

#: ALL_CAPS module globals are constants by convention (lookup tables,
#: registries frozen at import time): reading one is not a PX003 race.
#: Writing one still is — PX002 checks values, not names.
_CONSTANT_NAME_RE = re.compile(r"_*[A-Z][A-Z0-9_]*\Z")

#: Operators whose reduce-side use hints non-associativity.
_NON_ASSOCIATIVE_OPS: Mapping[type, str] = {
    ast.Sub: "-", ast.Div: "/", ast.FloorDiv: "//", ast.Pow: "**",
}

_SANCTIONED_SELF_NOTE = (
    "writes wrangler state through self (sanctioned: the blackboard is "
    "coordinator state, so the node runs where that state lives)"
)


def _finding(rule: str, message: str, severity: Severity | None = None
             ) -> ParallelFinding:
    return ParallelFinding(
        rule, message, severity or PARALLEL_RULES[rule].severity
    )


@dataclass
class _CertScan:
    """Mutable state for one certification walk."""

    findings: list[ParallelFinding] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    self_write: bool = False
    visited: set[CodeType] = field(default_factory=set)

    def hit(self, rule: str, message: str,
            severity: Severity | None = None) -> None:
        self.findings.append(_finding(rule, message, severity))


def _param_names(args: ast.arguments) -> set[str]:
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` a ``a.b[c].d`` access chain hangs off, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class ParallelAnalyser(PurityAnalyser):
    """Issue :class:`ParallelCertificate`\\ s without executing callables.

    Shares the purity analyser's AST cache, definition index, ``self``
    resolution, and unwrap machinery; adds its own certificate cache
    keyed ``(code, self type, role)``.  The ``role`` distinguishes how
    the callable will be fanned out:

    * ``"node"`` / ``"map"`` — runs per row or per partition; must be at
      least PARTITION_LOCAL for strict consumers;
    * ``"reduce"`` — runs once over the partials in the coordinator;
      additionally screened for non-associativity hints (PX008), and
      strict consumers refuse only UNSAFE.
    """

    def __init__(self) -> None:
        super().__init__()
        self._certificates: dict[
            tuple[CodeType, type | None, str], ParallelCertificate
        ] = {}

    # -- entry point -----------------------------------------------------

    def certify(
        self, fn: Callable[..., Any], role: str = "node"
    ) -> ParallelCertificate:
        """The parallel-safety certificate for ``fn`` in ``role``."""
        fn = self._unwrap(fn)
        code = getattr(fn, "__code__", None)
        if not isinstance(code, CodeType):
            if fn in _SAFE_BUILTINS:
                return ParallelCertificate(
                    ParallelSafety.ROW_LOCAL,
                    notes=("known-pure builtin: fans out freely",),
                )
            name = getattr(fn, "__name__", None) or repr(type(fn).__name__)
            return ParallelCertificate(
                ParallelSafety.UNSAFE,
                (_finding(
                    "PX007",
                    f"no Python code object for {name!r} (builtin or C "
                    "callable): no certificate can be issued",
                    Severity.WARNING,
                ),),
            )
        self_obj = self._resolve_self(fn)
        key = (code, type(self_obj) if self_obj is not None else None, role)
        cached = self._certificates.get(key)
        if cached is not None:
            return cached
        certificate = self._certify_code(fn, code, self_obj, role)
        self._certificates[key] = certificate
        return certificate

    # -- certification ---------------------------------------------------

    def _certify_code(
        self,
        fn: Callable[..., Any],
        code: CodeType,
        self_obj: Any,
        role: str,
    ) -> ParallelCertificate:
        node = self._locate(code)
        if node is None:
            return ParallelCertificate(
                ParallelSafety.UNSAFE,
                (_finding(
                    "PX007",
                    f"cannot locate source of {code.co_name!r}: no "
                    "certificate can be issued",
                    Severity.WARNING,
                ),),
            )
        scan = _CertScan()
        scan.visited.add(code)
        self._check_closure(fn, code, scan)
        fn_globals = getattr(fn, "__globals__", {}) or {}
        freevars = frozenset(code.co_freevars) - {"self"}
        self._scan_function(
            node, fn_globals, self_obj, freevars, role, scan, self.max_hops
        )
        findings = tuple(dict.fromkeys(scan.findings))
        notes = list(dict.fromkeys(scan.notes))
        level = ParallelSafety.ROW_LOCAL
        for finding in findings:
            level = _worse(level, _DEMOTION[finding.rule])
        if scan.self_write:
            notes.append(_SANCTIONED_SELF_NOTE)
            level = _worse(level, ParallelSafety.GLOBAL)
        return ParallelCertificate(level, findings, tuple(notes))

    @staticmethod
    def _check_closure(
        fn: Callable[..., Any], code: CodeType, scan: _CertScan
    ) -> None:
        """PX007: captured values a process pool cannot pickle across."""
        closure = getattr(fn, "__closure__", None) or ()
        for name, cell in zip(code.co_freevars, closure):
            if name == "self":
                continue  # sanctioned: the node runs with the coordinator
            try:
                value = cell.cell_contents
            except ValueError:
                continue  # empty cell
            if isinstance(value, _UNPICKLABLE_TYPES):
                scan.hit(
                    "PX007",
                    f"captures unpicklable {type(value).__name__} in "
                    f"{name!r}: cannot ship to a worker process",
                )

    # -- the walk ---------------------------------------------------------

    def _scan_function(
        self,
        fnnode: ast.AST,
        fn_globals: dict[str, Any],
        self_obj: Any,
        freevars: frozenset[str],
        role: str,
        scan: _CertScan,
        hops: int,
    ) -> None:
        local_names, global_decls = self._binding_sets(fnnode)
        mutated_globals: set[str] = set()
        global_reads: list[str] = []

        def classify(name: str | None) -> str:
            if name is None:
                return "unknown"
            if name == "self":
                return "self"
            if name in local_names:
                return "local"
            if name in freevars:
                return "captured"
            if name in fn_globals:
                return "global"
            return "unknown"

        def check_target(target: ast.AST, augmented: bool,
                         depth: int) -> None:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    check_target(element, augmented, depth)
                return
            if isinstance(target, ast.Name):
                if augmented and target.id in local_names and depth > 0:
                    scan.hit(
                        "PX004",
                        f"accumulates into {target.id!r} across loop "
                        "iterations",
                    )
                return
            root = _root_name(target)
            kind = classify(root)
            if kind == "self":
                scan.self_write = True
            elif kind == "captured":
                scan.hit(
                    "PX001",
                    f"mutates object captured from the enclosing scope "
                    f"via {root!r}",
                )
            elif kind == "global":
                resolved = fn_globals.get(root)
                what = (
                    f"assigns attribute of module {root!r}"
                    if isinstance(resolved, ModuleType)
                    else f"mutates module-global object {root!r}"
                )
                scan.hit("PX002", what)
                mutated_globals.add(root)
            elif kind == "local" and augmented and depth > 0:
                scan.hit(
                    "PX004",
                    f"accumulates into {root!r} across loop iterations",
                )

        def check_call(node: ast.Call, depth: int) -> None:
            self._check_zip_window(node, scan)
            func = node.func
            if isinstance(func, ast.Name):
                resolved = fn_globals.get(func.id)
                if self._is_shared_rng_fn(resolved):
                    scan.hit(
                        "PX006",
                        f"calls shared module-level RNG via {func.id}()",
                    )
                elif resolved is itertools.accumulate:
                    scan.hit(
                        "PX005",
                        "uses itertools.accumulate (result depends on "
                        "iteration order)",
                    )
                elif isinstance(resolved, FunctionType) and hops > 0:
                    module_name = getattr(resolved, "__module__", "") or ""
                    if module_name.startswith("repro"):
                        self._follow_parallel(
                            resolved, self_obj, role, scan, hops - 1
                        )
                return
            if not isinstance(func, ast.Attribute):
                return
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self":
                if scan.self_write is False and func.attr in _MUTATORS:
                    # self.<mutator>(...) is a direct self-state write.
                    scan.self_write = True
                if self_obj is not None and hops > 0:
                    method = inspect.getattr_static(
                        type(self_obj), func.attr, None
                    )
                    if isinstance(method, FunctionType):
                        self._follow_parallel(
                            method, self_obj, role, scan, hops - 1
                        )
                return
            root = _root_name(func)
            kind = classify(root)
            resolved = fn_globals.get(root) if kind == "global" else None
            module_root = self._module_root(resolved)
            if module_root == "random":
                if func.attr not in {"Random", "SystemRandom"}:
                    scan.hit(
                        "PX006",
                        f"calls shared module-level RNG "
                        f"{root}.{func.attr}()",
                    )
                return
            if module_root == "secrets":
                scan.hit(
                    "PX006",
                    f"draws ambient randomness via {root}.{func.attr}()",
                )
                return
            if module_root == "itertools" and func.attr == "accumulate":
                scan.hit(
                    "PX005",
                    "uses itertools.accumulate (result depends on "
                    "iteration order)",
                )
                return
            if func.attr in _MUTATORS:
                # A mutating method on something the chain hangs off:
                # self.* chains were handled above.
                chain_root = _root_name(base)
                if chain_root == "self":
                    scan.self_write = True
                elif classify(chain_root) == "captured":
                    scan.hit(
                        "PX001",
                        f"calls mutating method "
                        f"{chain_root}.{func.attr}() on a captured object",
                    )
                elif classify(chain_root) == "global" and not isinstance(
                    fn_globals.get(chain_root), ModuleType
                ):
                    scan.hit(
                        "PX002",
                        f"calls mutating method "
                        f"{chain_root}.{func.attr}() on a module-global "
                        "object",
                    )
                    mutated_globals.add(chain_root)

        def check_subscript(node: ast.Subscript) -> None:
            index = node.slice
            if (
                isinstance(index, ast.BinOp)
                and isinstance(index.op, (ast.Add, ast.Sub))
                and isinstance(index.left, ast.Name)
                and isinstance(index.right, ast.Constant)
                and isinstance(index.right.value, int)
            ):
                op = "+" if isinstance(index.op, ast.Add) else "-"
                scan.hit(
                    "PX005",
                    f"reads an order-offset index "
                    f"[{index.left.id}{op}{index.right.value}] (depends "
                    "on row order)",
                )
            if (
                role == "reduce"
                and isinstance(node.value, ast.Name)
                and classify(node.value.id) == "local"
                and isinstance(index, ast.Constant)
                and isinstance(index.value, int)
            ):
                scan.hit(
                    "PX008",
                    f"special-cases partial "
                    f"{node.value.id}[{index.value}] by position "
                    "(assumes one fixed combine order)",
                )

        def visit(node: ast.AST, depth: int) -> None:
            if isinstance(node, ast.Global):
                scan.hit(
                    "PX002",
                    f"declares global {', '.join(node.names)}",
                )
            elif isinstance(node, ast.Nonlocal):
                scan.hit(
                    "PX001",
                    f"rebinds captured variable(s) "
                    f"{', '.join(node.names)} via nonlocal",
                )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    check_target(target, augmented=False, depth=depth)
            elif isinstance(node, ast.AugAssign):
                check_target(node.target, augmented=True, depth=depth)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                check_target(node.target, augmented=False, depth=depth)
            elif isinstance(node, ast.Call):
                check_call(node, depth)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                check_subscript(node)
            elif isinstance(node, ast.BinOp) and role == "reduce":
                op_text = _NON_ASSOCIATIVE_OPS.get(type(node.op))
                if op_text is not None:
                    scan.hit(
                        "PX008",
                        f"combines values with non-associative operator "
                        f"{op_text!r} (cannot be tree-reduced)",
                    )
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                if (
                    classify(node.id) == "global"
                    and isinstance(
                        fn_globals.get(node.id), _MUTABLE_CONTAINERS
                    )
                    and _CONSTANT_NAME_RE.match(node.id) is None
                ):
                    global_reads.append(node.id)
            child_depth = depth
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                child_depth = depth + 1
            for child in ast.iter_child_nodes(node):
                visit(child, child_depth)

        roots: Iterable[ast.AST]
        if isinstance(fnnode, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots = fnnode.body
        elif isinstance(fnnode, ast.Lambda):
            roots = (fnnode.body,)
        else:
            roots = (fnnode,)
        for root in roots:
            visit(root, 0)
        for name in dict.fromkeys(global_reads):
            if name in mutated_globals:
                continue  # the write already fired PX002
            if name in global_decls:
                continue
            scan.hit(
                "PX003",
                f"reads module-global mutable {name!r} (consistent only "
                "in a single process)",
            )

    @staticmethod
    def _binding_sets(fnnode: ast.AST) -> tuple[set[str], set[str]]:
        """(local names, declared-global names) for one function node."""
        local_names: set[str] = set()
        global_decls: set[str] = set()
        if isinstance(
            fnnode, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            local_names |= _param_names(fnnode.args)
        for node in ast.walk(fnnode):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                local_names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fnnode:
                    local_names.add(node.name)
                    local_names |= _param_names(node.args)
            elif isinstance(node, ast.Lambda):
                local_names |= _param_names(node.args)
            elif isinstance(node, ast.ClassDef):
                local_names.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                local_names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    local_names.add(
                        alias.asname or alias.name.split(".", 1)[0]
                    )
            elif isinstance(node, ast.Global):
                global_decls.update(node.names)
        local_names -= global_decls
        return local_names, global_decls

    @staticmethod
    def _check_zip_window(node: ast.Call, scan: _CertScan) -> None:
        """PX005: the pairwise-window idiom ``zip(xs, xs[1:])``."""
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "zip"):
            return
        if len(node.args) < 2:
            return
        first = node.args[0]
        for other in node.args[1:]:
            if not isinstance(other, ast.Subscript):
                continue
            index = other.slice
            if not (
                isinstance(index, ast.Slice)
                and index.upper is None
                and isinstance(index.lower, ast.Constant)
                and index.lower.value == 1
            ):
                continue
            if ast.dump(other.value) == ast.dump(first):
                scan.hit(
                    "PX005",
                    "iterates pairwise windows via zip(xs, xs[1:]) "
                    "(depends on row order)",
                )
                return

    @staticmethod
    def _is_shared_rng_fn(resolved: Any) -> bool:
        """Whether ``resolved`` is a function of the shared module RNG
        (``from random import choice`` binds a bound method of the hidden
        module-level ``Random`` instance)."""
        bound_to = getattr(resolved, "__self__", None)
        return isinstance(bound_to, random.Random)

    def _follow_parallel(
        self,
        fn: FunctionType,
        self_obj: Any,
        role: str,
        scan: _CertScan,
        hops: int,
    ) -> None:
        code = fn.__code__
        if code in scan.visited:
            return
        scan.visited.add(code)
        node = self._locate(code)
        if node is None:
            return  # unreadable callee: the certificate covers one hop
        fn_globals = getattr(fn, "__globals__", {}) or {}
        freevars = frozenset(code.co_freevars) - {"self"}
        self._scan_function(
            node, fn_globals, self_obj, freevars, role, scan, hops
        )


def certify_parallel(
    fn: Callable[..., Any],
    role: str = "node",
    analyser: ParallelAnalyser | None = None,
) -> ParallelCertificate:
    """One-shot certification (creates a throwaway analyser if needed)."""
    return (analyser or ParallelAnalyser()).certify(fn, role=role)


def certify_dataflow_parallel(
    dataflow: Any, analyser: ParallelAnalyser | None = None
) -> dict[str, ParallelCertificate]:
    """Certify every node callable of a dataflow and record the verdicts.

    Works through the dataflow's own :meth:`certify_parallel` hook when
    it has one (so the engine records certificates on its nodes);
    otherwise falls back to analysing ``node_callables()`` if exposed.
    """
    analyser = analyser or ParallelAnalyser()
    if hasattr(dataflow, "certify_parallel"):
        return dict(dataflow.certify_parallel(analyser=analyser))
    callables: Iterable[tuple[str, Callable[..., Any]]] = ()
    if hasattr(dataflow, "node_callables"):
        callables = dataflow.node_callables()
    return {name: analyser.certify(fn) for name, fn in callables}


def ensure_certified(
    fn: Callable[..., Any],
    role: str,
    analyser: ParallelAnalyser | None = None,
    name: str | None = None,
) -> ParallelCertificate:
    """The strict-mode policy: certify ``fn`` or refuse to fan it out.

    Map-side callables (``role`` ``"map"``/``"node"``/``"key"``) must be
    fan-out safe (ROW_LOCAL or PARTITION_LOCAL).  Reduce-side callables
    run once in the coordinator, so only UNSAFE is refused — GLOBAL and
    non-associativity warnings are acceptable there.
    """
    certificate = certify_parallel(fn, role=role, analyser=analyser)
    if role == "reduce":
        acceptable = certificate.level is not ParallelSafety.UNSAFE
    else:
        acceptable = certificate.fan_out_safe
    if not acceptable:
        label = name or getattr(fn, "__name__", None) or repr(fn)
        raise ParallelSafetyError(
            f"refusing to fan out {label!r} as {role}: certified "
            f"{certificate.render()}",
            certificate=certificate,
        )
    return certificate
