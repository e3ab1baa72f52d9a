"""AST-based purity certification for dataflow node callables.

The dataflow engine memoises node values and replays them on pull; that
is only sound when recomputing a node would produce the same value —
i.e. when the node body is *pure* in the engine's sense:

* **no module-global mutation** — no ``global``/``nonlocal`` rebinding,
  no assignment to module attributes;
* **no I/O** — no file, network, or process access (``open``, ``input``,
  ``print``, the ``os``/``subprocess``/``socket``/``urllib`` families);
* **no clock reads outside** :mod:`repro.obs` — wall-clock calls such as
  ``time.time()`` or ``datetime.now()`` make a memoised value a lie; the
  observability layer's injected clock is the sanctioned time source;
* **no ambient randomness** — the ``random``/``secrets`` modules (a
  seeded generator threaded through instance state is fine: it is part
  of the state the engine invalidates on).

Mutation of the wrangler's *own* working state (``self.working.put``,
telemetry counters) is explicitly sanctioned: the blackboard is
versioned, observable, and participates in invalidation, so it is part
of the dataflow's state, not an ambient side channel.

The analyser never executes the callable.  It parses the defining source
file (once per analyser), locates the function's AST node via its code
object, resolves ``self`` from the closure when the body is the usual
``lambda inputs: self._stage(...)`` shape, and follows ``self.<method>``
calls one hop deep.  Verdicts are conservative three-valued:

* ``pure`` — no trigger found in the body or its followed callees;
* ``impure`` — at least one trigger found, with reasons;
* ``unknown`` — the source could not be located or parsed (builtins,
  C extensions, REPL lambdas), so no certificate can be issued.
"""

from __future__ import annotations

import ast
import inspect
import os
from dataclasses import dataclass, field
from types import CodeType, FunctionType, ModuleType
from typing import Any, Callable, Iterable

__all__ = [
    "PurityVerdict",
    "PurityAnalyser",
    "certify_callable",
    "certify_dataflow",
]


#: Builtins whose mere call is I/O (or arbitrary-code evaluation, which
#: subsumes I/O as far as a certificate is concerned).
_IO_BUILTINS = frozenset(
    {"open", "input", "print", "breakpoint", "eval", "exec", "compile",
     "__import__"}
)

#: Modules whose use inside a node body voids the certificate outright.
_IO_MODULE_ROOTS = frozenset(
    {"os", "sys", "subprocess", "socket", "shutil", "urllib", "requests",
     "http", "ftplib", "smtplib", "pathlib", "tempfile", "random",
     "secrets"}
)

#: Attribute calls that read a clock when made on the ``time`` or
#: ``datetime`` modules (or the classes they export).
_CLOCK_ATTRS = frozenset(
    {"time", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns", "process_time", "process_time_ns", "now", "utcnow",
     "today"}
)

#: Module names whose attributes count as clock sources for the check
#: above.  :mod:`repro.obs` is deliberately absent: its injected clock is
#: the sanctioned way for a node to see time.
_CLOCK_MODULES = frozenset({"time", "datetime"})


@dataclass(frozen=True)
class PurityVerdict:
    """The certificate (or refusal) for one callable."""

    status: str  # "pure" | "impure" | "unknown"
    reasons: tuple[str, ...] = ()

    @property
    def is_pure(self) -> bool:
        return self.status == "pure"

    def render(self) -> str:
        if not self.reasons:
            return self.status
        return f"{self.status}: " + "; ".join(self.reasons)


_PURE = PurityVerdict("pure")


def _unknown(reason: str) -> PurityVerdict:
    return PurityVerdict("unknown", (reason,))


#: ``(co_name, first line) -> AST nodes`` for one parsed module.
_DefinitionIndex = dict[tuple[str, int], list[ast.AST]]


@dataclass
class _Scan:
    """Mutable state for one certification walk."""

    reasons: list[str] = field(default_factory=list)
    visited: set[CodeType] = field(default_factory=set)


class PurityAnalyser:
    """Certify callables as pure without executing them.

    One analyser instance may certify many callables.  It parses each
    defining file once, indexes the file's lambdas and functions by
    ``(co_name, first line)`` in one walk, and caches verdicts per
    ``(code, self type)`` pair.  The caches live on the instance and go
    with it: :func:`~repro.analysis.typecheck.gate.run_preflight` makes
    one :class:`~repro.analysis.parallel.ParallelAnalyser` per run and
    hands it to both purity and parallel certification, so a run parses
    and indexes each defining file once; a second run starts afresh.
    """

    #: How many ``self.<method>`` hops to follow from the node lambda.
    max_hops: int = 1

    def __init__(self) -> None:
        self._ast_cache: dict[str, ast.Module | None] = {}
        self._index_cache: dict[str, _DefinitionIndex | None] = {}
        self._verdicts: dict[tuple[CodeType, type | None], PurityVerdict] = {}

    # -- entry point -----------------------------------------------------

    def analyse(self, fn: Callable[..., Any]) -> PurityVerdict:
        """The purity verdict for ``fn``."""
        fn = self._unwrap(fn)
        code = getattr(fn, "__code__", None)
        if not isinstance(code, CodeType):
            return _unknown("no Python code object (builtin or C callable)")
        self_obj = self._resolve_self(fn)
        key = (code, type(self_obj) if self_obj is not None else None)
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        verdict = self._analyse_code(fn, code, self_obj)
        self._verdicts[key] = verdict
        return verdict

    # -- callable plumbing ----------------------------------------------

    @staticmethod
    def _unwrap(fn: Callable[..., Any]) -> Callable[..., Any]:
        while True:
            if hasattr(fn, "func") and not hasattr(fn, "__code__"):
                fn = fn.func  # functools.partial
            elif inspect.ismethod(fn):
                fn = fn.__func__
            else:
                return fn

    @staticmethod
    def _resolve_self(fn: Callable[..., Any]) -> Any:
        """The object ``self`` refers to inside ``fn``, when decidable.

        Node bodies are typically ``lambda inputs: self._stage(...)``
        closures created inside a method, so ``self`` lives in a closure
        cell; bound methods carry it as ``__self__``.
        """
        bound = getattr(fn, "__self__", None)
        if bound is not None:
            return bound
        code = getattr(fn, "__code__", None)
        closure = getattr(fn, "__closure__", None)
        if code is None or not closure:
            return None
        try:
            index = code.co_freevars.index("self")
        except ValueError:
            return None
        try:
            return closure[index].cell_contents
        except ValueError:  # empty cell
            return None

    # -- AST location ----------------------------------------------------

    def _module_tree(self, filename: str) -> ast.Module | None:
        if filename in self._ast_cache:
            return self._ast_cache[filename]
        tree: ast.Module | None = None
        if os.path.isfile(filename):
            try:
                with open(filename, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=filename)
            except (OSError, SyntaxError, ValueError):
                tree = None
        self._ast_cache[filename] = tree
        return tree

    def _module_index(self, filename: str) -> _DefinitionIndex | None:
        """Every lambda and function of ``filename`` by the code-object
        key it can match, built in one walk of the parsed module.

        A lambda is keyed by its own line; a function by its ``def``
        line and, when decorated, also by its first decorator's line
        (``co_firstlineno`` is one or the other across Python versions).
        """
        if filename in self._index_cache:
            return self._index_cache[filename]
        tree = self._module_tree(filename)
        index: _DefinitionIndex | None = None
        if tree is not None:
            index = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Lambda):
                    index.setdefault(("<lambda>", node.lineno), []).append(
                        node
                    )
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    lines = {node.lineno}
                    if node.decorator_list:
                        lines.add(node.decorator_list[0].lineno)
                    for line in lines:
                        index.setdefault((node.name, line), []).append(node)
        self._index_cache[filename] = index
        return index

    def _locate(self, code: CodeType) -> ast.AST | None:
        """The AST node whose compilation produced ``code``, or ``None``."""
        index = self._module_index(code.co_filename)
        if index is None:
            return None
        matches = index.get((code.co_name, code.co_firstlineno), ())
        if len(matches) != 1:
            return None  # ambiguous (two lambdas on one line) or missing
        return matches[0]

    # -- the certification walk -----------------------------------------

    def _analyse_code(
        self, fn: Callable[..., Any], code: CodeType, self_obj: Any
    ) -> PurityVerdict:
        node = self._locate(code)
        if node is None:
            return _unknown(
                f"cannot locate source of {code.co_name!r} "
                f"({code.co_filename}:{code.co_firstlineno})"
            )
        scan = _Scan()
        scan.visited.add(code)
        fn_globals = getattr(fn, "__globals__", {}) or {}
        body = node.body if isinstance(node, ast.Lambda) else node
        self._scan(body, fn_globals, self_obj, scan, hops=self.max_hops)
        if scan.reasons:
            return PurityVerdict("impure", tuple(dict.fromkeys(scan.reasons)))
        return _PURE

    def _scan(
        self,
        root: ast.AST,
        fn_globals: dict[str, Any],
        self_obj: Any,
        scan: _Scan,
        hops: int,
    ) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Global):
                scan.reasons.append(
                    f"declares global {', '.join(node.names)}"
                )
            elif isinstance(node, ast.Nonlocal):
                scan.reasons.append(
                    f"declares nonlocal {', '.join(node.names)}"
                )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self._check_import(node, scan)
            elif isinstance(node, ast.Call):
                self._check_call(node, fn_globals, self_obj, scan, hops)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._check_assignment(node, fn_globals, scan)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                resolved = fn_globals.get(node.id)
                root_name = self._module_root(resolved)
                if root_name in _IO_MODULE_ROOTS:
                    scan.reasons.append(
                        f"touches I/O module {root_name!r} via {node.id!r}"
                    )

    @staticmethod
    def _module_root(obj: Any) -> str | None:
        if isinstance(obj, ModuleType):
            return obj.__name__.split(".", 1)[0]
        return None

    @staticmethod
    def _check_import(
        node: ast.Import | ast.ImportFrom, scan: _Scan
    ) -> None:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""]
        for name in names:
            root = name.split(".", 1)[0]
            if root in _IO_MODULE_ROOTS:
                scan.reasons.append(f"imports I/O module {name!r} in body")

    def _check_assignment(
        self,
        node: ast.Assign | ast.AugAssign,
        fn_globals: dict[str, Any],
        scan: _Scan,
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            base = target.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                resolved = fn_globals.get(base.id)
                if isinstance(resolved, ModuleType):
                    scan.reasons.append(
                        f"assigns attribute of module {base.id!r}"
                    )

    def _check_call(
        self,
        node: ast.Call,
        fn_globals: dict[str, Any],
        self_obj: Any,
        scan: _Scan,
        hops: int,
    ) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _IO_BUILTINS and func.id not in fn_globals:
                scan.reasons.append(f"calls I/O builtin {func.id}()")
                return
            resolved = fn_globals.get(func.id)
            if isinstance(resolved, FunctionType) and hops > 0:
                module_name = getattr(resolved, "__module__", "") or ""
                if module_name.startswith("repro"):
                    self._follow(resolved, self_obj, scan, hops - 1)
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # self.<method>(...): follow the method body one hop.
        if (
            isinstance(base, ast.Name)
            and base.id == "self"
            and self_obj is not None
            and hops > 0
        ):
            method = inspect.getattr_static(type(self_obj), func.attr, None)
            if isinstance(method, FunctionType):
                self._follow(method, self_obj, scan, hops - 1)
            return
        # module.attr(...) where the module is forbidden or a clock.
        root = base
        while isinstance(root, ast.Attribute):
            root = root.value
        if not isinstance(root, ast.Name):
            return
        resolved = fn_globals.get(root.id)
        root_name = self._module_root(resolved)
        if root_name in _IO_MODULE_ROOTS:
            scan.reasons.append(
                f"calls into I/O module {root_name!r} via {root.id!r}"
            )
            return
        if func.attr in _CLOCK_ATTRS:
            if root_name in _CLOCK_MODULES or self._is_clock_class(resolved):
                scan.reasons.append(
                    f"reads the clock via {root.id}.{func.attr}() "
                    "(inject time through repro.obs instead)"
                )

    @staticmethod
    def _is_clock_class(obj: Any) -> bool:
        """Whether ``obj`` is one of datetime's exported classes, so that
        ``date.today()`` / ``datetime.now()`` via from-imports are caught."""
        return (
            isinstance(obj, type)
            and getattr(obj, "__module__", None) == "datetime"
        )

    def _follow(
        self,
        fn: FunctionType,
        self_obj: Any,
        scan: _Scan,
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
        self._scan(node, fn_globals, self_obj, scan, hops)


def certify_callable(
    fn: Callable[..., Any], analyser: PurityAnalyser | None = None
) -> PurityVerdict:
    """One-shot certification (creates a throwaway analyser if needed)."""
    return (analyser or PurityAnalyser()).analyse(fn)


def certify_dataflow(
    dataflow: Any, analyser: PurityAnalyser | None = None
) -> dict[str, PurityVerdict]:
    """Certify every node callable of a dataflow and record the verdicts.

    Works through the dataflow's own :meth:`certify` hook when it has
    one (so the engine records verdicts on its nodes); otherwise falls
    back to analysing ``node_callables()`` if exposed.  Returns the
    verdict map either way.
    """
    analyser = analyser or PurityAnalyser()
    if hasattr(dataflow, "certify"):
        return dict(dataflow.certify(analyser=analyser))
    callables: Iterable[tuple[str, Callable[..., Any]]] = ()
    if hasattr(dataflow, "node_callables"):
        callables = dataflow.node_callables()
    return {name: analyser.analyse(fn) for name, fn in callables}
