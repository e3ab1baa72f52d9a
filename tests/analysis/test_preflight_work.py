"""The preflight gate's AST work, counted exactly on a cold E6 wrangler.

``Wrangler.preflight()`` certifies every dataflow node for purity and
parallel safety.  Both certifiers read the defining files through one
shared analyser, so a run may parse each file once and walk each parsed
module once (to index its definitions); everything else it visits lies
inside the per-function scans.  The counts are deterministic, so the
bound is exact: a per-code-object re-walk of the module breaks it.
"""

import ast
from collections import Counter

from repro.analysis.parallel import ParallelAnalyser
from repro.analysis.typecheck.purity import PurityAnalyser


class WorkCounter:
    """Counts ``ast.parse`` per file and node visits per analyser phase.

    A visit is one ``ast.iter_child_nodes`` call, which ``ast.walk`` and
    the parallel certifier's own walk make once per node.  Visits are
    charged to the innermost of ``_locate`` (finding a code object's
    node) and the scans (certifying a located body), or to neither.
    """

    def __init__(self, monkeypatch):
        self.parses = Counter()
        self.trees = []
        self.visits = Counter()
        self._phases = []
        parse, children = ast.parse, ast.iter_child_nodes

        def counted_parse(source, filename="<unknown>", *args, **kwargs):
            self.parses[filename] += 1
            tree = parse(source, filename, *args, **kwargs)
            self.trees.append(tree)
            return tree

        def counted_children(node):
            self.visits[self._phases[-1] if self._phases else "other"] += 1
            return children(node)

        monkeypatch.setattr(ast, "parse", counted_parse)
        monkeypatch.setattr(ast, "iter_child_nodes", counted_children)
        for owner, name, phase in (
            (PurityAnalyser, "_locate", "locate"),
            (PurityAnalyser, "_scan", "scan"),
            (ParallelAnalyser, "_scan_function", "scan"),
        ):
            monkeypatch.setattr(owner, name, self._in_phase(
                getattr(owner, name), phase
            ))

    def _in_phase(self, method, phase):
        def wrapper(*args, **kwargs):
            self._phases.append(phase)
            try:
                return method(*args, **kwargs)
            finally:
                self._phases.pop()

        return wrapper

    def module_nodes(self):
        """Nodes in one walk of every module parsed."""
        return sum(len(list(ast.walk(tree))) for tree in self.trees)


def count_preflight(cold_e6_wrangler, monkeypatch):
    wrangler = cold_e6_wrangler()
    counter = WorkCounter(monkeypatch)
    report = wrangler.preflight()
    monkeypatch.undo()
    assert report.purity and report.parallel
    return counter


class TestPreflightWork:
    def test_each_defining_file_is_parsed_once(
        self, cold_e6_wrangler, monkeypatch
    ):
        counter = count_preflight(cold_e6_wrangler, monkeypatch)
        assert counter.parses
        assert max(counter.parses.values()) == 1

    def test_visits_are_one_walk_per_module_plus_the_scans(
        self, cold_e6_wrangler, monkeypatch
    ):
        counter = count_preflight(cold_e6_wrangler, monkeypatch)
        assert counter.visits["scan"] > 0
        assert (
            counter.visits["locate"] + counter.visits["other"]
            <= counter.module_nodes()
        )

    def test_a_per_code_object_rewalk_breaks_the_bound(
        self, cold_e6_wrangler, monkeypatch
    ):
        locate = PurityAnalyser._locate

        def rewalking_locate(analyser, code):
            tree = analyser._module_tree(code.co_filename)
            if tree is not None:
                for _ in ast.walk(tree):
                    pass
            return locate(analyser, code)

        monkeypatch.setattr(PurityAnalyser, "_locate", rewalking_locate)
        counter = count_preflight(cold_e6_wrangler, monkeypatch)
        assert (
            counter.visits["locate"] + counter.visits["other"]
            > counter.module_nodes()
        )
