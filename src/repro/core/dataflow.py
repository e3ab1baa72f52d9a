"""The incremental dataflow engine behind pay-as-you-go recomputation.

Section 2.4: "It is of paramount importance that these feedback-induced
'reactions' do not trigger a re-processing of all datasets involved in the
computation but rather limit the processing to the strictly necessary
data."

The engine is a DAG of named nodes.  Each node's compute function reads
the values of its dependencies; results are memoised and only recomputed
when a dependency (or the node itself) has been invalidated.  Feedback
handlers invalidate exactly the nodes a feedback type touches, and the
next ``pull`` re-runs only the dirty cone — the recompute counter is what
experiment E6 reports.

Every evaluation is observable: nodes carry hit/run/invalidation counters
and accumulated compute seconds, and a :class:`~repro.obs.Telemetry`
bundle (when attached) receives graph-wide counters, per-node timing
histograms, and one trace span per recomputation.  Reading a dirty node's
memoised value through :meth:`Dataflow.value` raises
:class:`~repro.errors.StaleValueError` unless staleness is explicitly
requested — silent stale reads were a bug, not a feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

import networkx as nx

from repro.errors import DataflowError, StaleValueError
from repro.obs import Telemetry

__all__ = ["Dataflow"]


@dataclass
class _Node:
    name: str
    compute: Callable[[Mapping[str, Any]], Any]
    dependencies: tuple[str, ...]
    stage: str | None = None
    value: Any = None
    clean: bool = False
    runs: int = 0
    hits: int = 0
    invalidations: int = 0
    seconds: float = 0.0
    #: Purity certificate for the compute callable ("pure" / "impure" /
    #: "unknown"), or ``None`` before :meth:`Dataflow.certify` has run.
    purity: str | None = None
    #: Parallel-safety level for the compute callable ("row_local" /
    #: "partition_local" / "global" / "unsafe"), or ``None`` before
    #: :meth:`Dataflow.certify_parallel` has run.
    parallel: str | None = None
    #: Predicted compute-seconds from the static cost model, or ``None``
    #: before :meth:`Dataflow.annotate_costs` has run.  A deterministic
    #: estimate (not a measurement), so telemetry scrubbing keeps it.
    cost: float | None = None


class Dataflow:
    """A pull-based, memoising dataflow DAG."""

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self._nodes: dict[str, _Node] = {}
        self._graph = nx.DiGraph()
        #: Cached topological order; recomputed lazily after ``add``.
        self._order: list[str] | None = None
        #: How many times the topological order was derived (the
        #: regression guard for pull_all's single-sweep contract).
        self.topo_derivations = 0
        self.telemetry = telemetry
        #: When True, the engine refuses to replay memoised values of
        #: nodes not certified ``pure``: every pull recomputes them.
        #: Certify with :meth:`certify` before enabling.
        self.strict_purity = False
        #: Callbacks fired with ``(name, value)`` after a node's compute
        #: lands (inline or worker-absorbed) — the checkpoint layer's
        #: wave-commit hook.  Replays of memoised values do not fire.
        self._observers: list[Callable[[str, Any], None]] = []

    def on_node_computed(self, callback: Callable[[str, Any], None]) -> None:
        """Register a compute observer (idempotent per callback)."""
        if callback not in self._observers:
            self._observers.append(callback)

    # -- construction -----------------------------------------------------

    def add(
        self,
        name: str,
        compute: Callable[[Mapping[str, Any]], Any],
        dependencies: tuple[str, ...] = (),
        stage: str | None = None,
    ) -> str:
        """Add a node; dependencies must already exist (DAG by construction).

        ``stage`` is a free-form pipeline-stage label carried into spans
        and telemetry exports (e.g. ``"extraction"``, ``"fusion"``).
        """
        if name in self._nodes:
            raise DataflowError(f"node {name!r} already defined")
        for dependency in dependencies:
            if dependency not in self._nodes:
                raise DataflowError(
                    f"node {name!r} depends on undefined node {dependency!r}"
                )
        self._nodes[name] = _Node(name, compute, tuple(dependencies), stage)
        self._graph.add_node(name)
        for dependency in dependencies:
            self._graph.add_edge(dependency, name)
        self._order = None  # topology changed; re-derive on next sweep
        return name

    def add_input(self, name: str, value: Any = None) -> str:
        """Add a leaf node holding an externally supplied value."""
        self.add(name, lambda inputs: None, stage="input")
        node = self._nodes[name]
        node.value = value
        node.clean = True
        return name

    def set_input(self, name: str, value: Any) -> None:
        """Replace an input's value, dirtying everything downstream."""
        node = self._require(name)
        node.value = value
        node.clean = True
        self._dirty_descendants(name)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, name: str) -> None:
        """Mark a node (and its downstream cone) as needing recomputation."""
        node = self._require(name)
        if node.clean:
            node.clean = False
            node.invalidations += 1
            self._count("dataflow.invalidations")
        self._dirty_descendants(name)

    def _dirty_descendants(self, name: str) -> None:
        for descendant in nx.descendants(self._graph, name):
            node = self._nodes[descendant]
            if node.clean:
                node.clean = False
                node.invalidations += 1
                self._count("dataflow.invalidations")

    def invalidate_all(self) -> None:
        """Mark every non-input node stale (full recompute on next pull)."""
        for node in self._nodes.values():
            if node.dependencies and node.clean:
                node.clean = False
                node.invalidations += 1
                self._count("dataflow.invalidations")

    # -- evaluation ---------------------------------------------------------

    def _topo_order(self) -> list[str]:
        """The cached topological order (derived once per topology)."""
        if self._order is None:
            self._order = list(nx.topological_sort(self._graph))
            self.topo_derivations += 1
        return self._order

    def _recompute(self, node: _Node) -> None:
        """Run one dirty node's compute function, timed and counted."""
        inputs = {
            dependency: self._nodes[dependency].value
            for dependency in node.dependencies
        }
        if self.telemetry is not None:
            clock = self.telemetry.clock
            with self.telemetry.tracer.span(
                f"dataflow:{node.name}",
                node=node.name,
                stage=node.stage,
            ):
                started = clock.current_time()
                node.value = node.compute(inputs)
                elapsed = clock.current_time() - started
            self.telemetry.metrics.histogram(
                "dataflow.compute_seconds"
            ).observe(elapsed)
            self.telemetry.metrics.counter("dataflow.misses").increment()
        else:
            elapsed = 0.0
            node.value = node.compute(inputs)
        node.seconds += elapsed
        node.clean = True
        node.runs += 1
        for observer in self._observers:
            observer(node.name, node.value)

    def _sweep(self, names: Iterable[str]) -> None:
        """Recompute the dirty nodes among ``names`` (topological order)."""
        for name in names:
            node = self._nodes[name]
            if not (node.clean and self._replayable(node)):
                self._recompute(node)

    def _absorb(self, node: _Node, value: Any, elapsed: float) -> None:
        """Install one worker-computed result, mirroring ``_recompute``.

        Counters, the per-node span, the compute-seconds histogram, and
        the miss counter all behave exactly as an inline recomputation —
        the span is emitted on the coordinator (its own duration is ~0;
        the worker's measured ``elapsed`` lands in the histogram and the
        node's ``seconds``), so a fanned-out sweep exports the same
        telemetry shape as a sequential one.
        """
        if self.telemetry is not None:
            with self.telemetry.tracer.span(
                f"dataflow:{node.name}",
                node=node.name,
                stage=node.stage,
            ):
                pass
            self.telemetry.metrics.histogram(
                "dataflow.compute_seconds"
            ).observe(elapsed)
            self.telemetry.metrics.counter("dataflow.misses").increment()
        else:
            elapsed = 0.0
        node.value = value
        node.seconds += elapsed
        node.clean = True
        node.runs += 1
        for observer in self._observers:
            observer(node.name, node.value)

    def _parallel_sweep(self, names: Iterable[str], executor: Any) -> None:
        """Recompute dirty nodes in dependency waves, fanning out when safe.

        Each wave is the set of still-dirty nodes whose dependencies have
        all been computed.  Within a wave, nodes whose certificate is
        fan-out safe (ROW_LOCAL/PARTITION_LOCAL, recorded by
        :meth:`certify_parallel`) and whose ``(compute, inputs)`` payload
        pickles are shipped as one batch; everything else — GLOBAL,
        UNSAFE, uncertified, or unpicklable — falls back to an inline
        :meth:`_recompute` with a fallback note on the executor.  Results
        are absorbed in wave order, then inline nodes run in topological
        order, so counters and spans come out in a deterministic order
        for any worker count.
        """
        from repro.core.executor import FAN_OUT_LEVELS, _invoke_node

        pending = [
            name
            for name in names
            if not (
                self._nodes[name].clean
                and self._replayable(self._nodes[name])
            )
        ]
        pending_set = set(pending)
        while pending:
            wave = [
                name
                for name in pending
                if all(
                    dependency not in pending_set
                    for dependency in self._nodes[name].dependencies
                )
            ]
            shipped: list[tuple[_Node, Any]] = []
            inline: list[_Node] = []
            for name in wave:
                node = self._nodes[name]
                if node.parallel in FAN_OUT_LEVELS:
                    payload = (
                        node.compute,
                        {
                            dependency: self._nodes[dependency].value
                            for dependency in node.dependencies
                        },
                    )
                    if executor.ship_or_note(
                        f"dataflow:{name}", payload
                    ):
                        shipped.append((node, payload))
                        continue
                else:
                    executor.note_fallback(
                        f"dataflow:{name}",
                        f"certified {node.parallel or 'uncertified'}",
                    )
                inline.append(node)
            if shipped:
                for node, _payload in shipped:
                    executor.note_fan_out(f"dataflow:{node.name}")
                results = executor.map(
                    _invoke_node, [payload for _node, payload in shipped]
                )
                for (node, _payload), (value, elapsed) in zip(
                    shipped, results
                ):
                    self._absorb(node, value, elapsed)
            for node in inline:
                self._recompute(node)
            pending_set.difference_update(wave)
            pending = [name for name in pending if name in pending_set]

    def pull(self, name: str, executor: Any = None) -> Any:
        """The node's current value, recomputing only the dirty cone.

        A clean node is a cache hit and returns immediately.  A dirty
        node derives its ancestor cone **once** and sweeps it in the
        (cached) topological order — not once per ancestor, which is what
        made full refreshes quadratic before.

        With an ``executor`` (see :mod:`repro.core.executor`), the dirty
        cone is swept in dependency waves and independent fan-out-safe
        nodes are computed in worker processes — see
        :meth:`_parallel_sweep` for the gate and the fallback semantics.
        """
        node = self._require(name)
        if node.clean and self._replayable(node):
            node.hits += 1
            self._count("dataflow.hits")
            return node.value
        cone = nx.ancestors(self._graph, name)
        cone.add(name)
        ordered = (n for n in self._topo_order() if n in cone)
        if executor is None:
            self._sweep(ordered)
        else:
            self._parallel_sweep(ordered, executor)
        return node.value

    def pull_all(self, executor: Any = None) -> None:
        """Bring every node up to date in a single topological sweep.

        Equivalent to pulling each node in turn — the per-node ``runs``
        and ``hits`` counters come out identical — but does one pass over
        the cached order instead of re-deriving ancestors and a fresh
        topological sort per node.  ``executor`` fans out as in
        :meth:`pull`.
        """
        dirty: list[str] = []
        for name in self._topo_order():
            node = self._nodes[name]
            if node.clean and self._replayable(node):
                node.hits += 1
                self._count("dataflow.hits")
            else:
                dirty.append(name)
        if executor is None:
            self._sweep(dirty)
        else:
            self._parallel_sweep(dirty, executor)

    def _count(self, metric: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(metric).increment()

    def _replayable(self, node: _Node) -> bool:
        """Whether a clean node's memoised value may be handed out.

        Always, unless :attr:`strict_purity` is on — then only nodes
        certified ``pure`` replay; everything else recomputes on every
        pull.  Input nodes are exempt: they hold externally supplied
        state, there is no computation to re-run.
        """
        if not self.strict_purity or not node.dependencies:
            return True
        return node.purity == "pure"

    # -- purity certification ---------------------------------------------

    def certify(self, analyser: Any = None) -> dict[str, Any]:
        """Certify every node's compute callable and record the verdicts.

        Uses the AST-based
        :class:`~repro.analysis.typecheck.purity.PurityAnalyser`; pass
        an instance to share its parsed files and definition index (the
        preflight gate passes one
        :class:`~repro.analysis.parallel.ParallelAnalyser` to this and
        :meth:`certify_parallel`, so a run parses each file once).
        Each node's ``purity`` field is set to the verdict status, so
        :attr:`strict_purity` and telemetry exports can act on it.
        Returns ``{node name: PurityVerdict}``.
        """
        if analyser is None:
            from repro.analysis.typecheck.purity import PurityAnalyser

            analyser = PurityAnalyser()
        verdicts = {}
        for name, node in self._nodes.items():
            verdict = analyser.analyse(node.compute)
            node.purity = verdict.status
            verdicts[name] = verdict
        return verdicts

    def purity_map(self) -> dict[str, str | None]:
        """Every node's recorded purity verdict (``None`` = uncertified)."""
        return {name: node.purity for name, node in self._nodes.items()}

    # -- parallel-safety certification --------------------------------------

    def certify_parallel(self, analyser: Any = None) -> dict[str, Any]:
        """Certify every node's fan-out safety and record the levels.

        The parallel twin of :meth:`certify`: uses the AST-based
        :class:`~repro.analysis.parallel.ParallelAnalyser` (pass the
        instance :meth:`certify` used to reuse its parsed files and
        definition index instead of building them again), sets each
        node's ``parallel`` field to the certified level, and returns
        ``{node name: ParallelCertificate}`` — the contract a
        partitioned scheduler fans out on.
        """
        if analyser is None:
            from repro.analysis.parallel import ParallelAnalyser

            analyser = ParallelAnalyser()
        certificates = {}
        for name, node in self._nodes.items():
            certificate = analyser.certify(node.compute, role="node")
            node.parallel = certificate.level.value
            certificates[name] = certificate
        return certificates

    def parallel_map(self) -> dict[str, str | None]:
        """Every node's recorded parallel-safety level (``None`` =
        uncertified)."""
        return {name: node.parallel for name, node in self._nodes.items()}

    # -- cost annotation ----------------------------------------------------

    def annotate_costs(self, costs: Mapping[str, float]) -> None:
        """Record predicted per-node compute-seconds from the cost model.

        The cost certifier (see :mod:`repro.analysis.cost`) calls this
        after propagating estimates through the topology, so telemetry
        exports carry the prediction next to the observed ``seconds``
        and the calibration loop can compare them.  Unknown names are
        ignored — a synthetic topology may estimate nodes this graph
        does not carry.
        """
        for name, predicted in costs.items():
            node = self._nodes.get(name)
            if node is not None:
                node.cost = float(predicted)

    def cost_map(self) -> dict[str, float | None]:
        """Every node's predicted seconds (``None`` = unannotated)."""
        return {name: node.cost for name, node in self._nodes.items()}

    def node_callables(self) -> list[tuple[str, Callable[..., Any]]]:
        """Every node's compute callable — the purity analyser's view."""
        return [
            (name, node.compute) for name, node in self._nodes.items()
        ]

    # -- introspection ----------------------------------------------------

    def _require(self, name: str) -> _Node:
        if name not in self._nodes:
            raise DataflowError(f"no node named {name!r}")
        return self._nodes[name]

    def value(self, name: str, allow_stale: bool = False) -> Any:
        """The memoised value; raises on a dirty node unless allowed.

        A dirty node's memoised value predates its latest invalidation:
        handing it out silently was the bug behind stale reads after
        feedback.  Pass ``allow_stale=True`` only where the previous
        run's value is genuinely what is wanted (e.g. "the plan the
        current outputs were computed with").
        """
        node = self._require(name)
        if not node.clean and not allow_stale:
            raise StaleValueError(
                f"node {name!r} is dirty: pull() it first, or pass "
                "allow_stale=True to read the previous run's value"
            )
        return node.value

    def is_clean(self, name: str) -> bool:
        """Whether the node is up to date."""
        return self._require(name).clean

    def runs(self, name: str) -> int:
        """How many times the node has been computed."""
        return self._require(name).runs

    def total_runs(self) -> int:
        """Total node computations across the graph's lifetime."""
        return sum(node.runs for node in self._nodes.values())

    def dirty_nodes(self) -> list[str]:
        """All currently stale nodes."""
        return sorted(
            name for name, node in self._nodes.items() if not node.clean
        )

    def nodes(self) -> list[str]:
        """All node names in topological order."""
        return list(self._topo_order())

    def node_stats(self) -> dict[str, dict[str, Any]]:
        """Per-node observability: the ``dataflow.nodes`` telemetry block."""
        return {
            name: {
                "runs": node.runs,
                "hits": node.hits,
                "invalidations": node.invalidations,
                "seconds": node.seconds,
                "stage": node.stage,
                "clean": node.clean,
                "purity": node.purity,
                "parallel": node.parallel,
                "cost": node.cost,
            }
            for name, node in self._nodes.items()
        }

    def dependency_map(self) -> dict[str, tuple[str, ...]]:
        """Every node's declared dependencies — the static-analysis view.

        The plan validator consumes this to check the graph (dangling
        dependencies, cycles) without executing any node.
        """
        return {
            name: node.dependencies for name, node in self._nodes.items()
        }
