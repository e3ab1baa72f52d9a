"""AST purity certification: what earns, voids, or withholds a certificate."""

import datetime
import functools
import linecache
import time

from repro.analysis.parallel import ParallelAnalyser
from repro.analysis.typecheck.purity import (
    PurityAnalyser,
    certify_callable,
    certify_dataflow,
)
from repro.core.dataflow import Dataflow

COUNTER = 0


def pure_helper(x):
    return x * 2


def impure_print(inputs):
    print(inputs)
    return inputs


def impure_open(inputs):
    with open("/tmp/x") as handle:
        return handle.read()


def impure_clock(inputs):
    return time.time()


def impure_date(inputs):
    return datetime.date.today()


def impure_global(inputs):
    global COUNTER
    COUNTER += 1
    return COUNTER


def impure_body_import(inputs):
    import os

    return os.getpid()


class Stage:
    """A wrangler-shaped object whose node lambdas call self methods."""

    def _pure_stage(self, value):
        return pure_helper(value)

    def _impure_stage(self, value):
        print(value)
        return value

    def pure_node(self):
        return lambda inputs: self._pure_stage(inputs)

    def impure_node(self):
        return lambda inputs: self._impure_stage(inputs)


def _identity(fn):
    return fn


@_identity
def decorated_impure(inputs):
    print(inputs)
    return inputs


class LeftStage:
    def stage(self, value):
        print(value)
        return value


class RightStage:
    def stage(self, value):
        return value


TWIN_LAMBDAS = (lambda inputs: inputs, lambda inputs: print(inputs))


def compiled_at(filename, source="def ghost(inputs):\n    return inputs\n"):
    """A function whose code object claims to come from ``filename``."""
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["ghost"]


def px_rules(fn):
    return [f.rule for f in ParallelAnalyser().certify(fn).findings]


class TestVerdicts:
    def test_pure_lambda(self):
        assert certify_callable(lambda inputs: inputs).is_pure

    def test_pure_function_calling_repro_helper(self):
        def node(inputs):
            return pure_helper(inputs)

        # pure_helper lives in this test module, not repro.*, so it is
        # not followed — the body itself is trigger-free.
        assert certify_callable(node).is_pure

    def test_print_is_impure(self):
        verdict = certify_callable(impure_print)
        assert verdict.status == "impure"
        assert any("print" in reason for reason in verdict.reasons)

    def test_open_is_impure(self):
        assert certify_callable(impure_open).status == "impure"

    def test_clock_read_is_impure(self):
        verdict = certify_callable(impure_clock)
        assert verdict.status == "impure"
        assert any("clock" in reason for reason in verdict.reasons)

    def test_date_today_is_impure(self):
        assert certify_callable(impure_date).status == "impure"

    def test_global_mutation_is_impure(self):
        verdict = certify_callable(impure_global)
        assert any("global" in reason for reason in verdict.reasons)

    def test_body_import_of_io_module_is_impure(self):
        verdict = certify_callable(impure_body_import)
        assert verdict.status == "impure"

    def test_builtin_is_unknown(self):
        verdict = certify_callable(len)
        assert verdict.status == "unknown"
        assert not verdict.is_pure

    def test_render_includes_reasons(self):
        verdict = certify_callable(impure_print)
        assert verdict.render().startswith("impure: ")


class TestSelfResolution:
    def test_follows_self_method_one_hop_pure(self):
        assert certify_callable(Stage().pure_node()).is_pure

    def test_follows_self_method_one_hop_impure(self):
        verdict = certify_callable(Stage().impure_node())
        assert verdict.status == "impure"

    def test_bound_method_directly(self):
        stage = Stage()
        assert certify_callable(stage._pure_stage).is_pure
        assert certify_callable(stage._impure_stage).status == "impure"

    def test_partial_is_unwrapped(self):
        bound = functools.partial(impure_print, "x")
        assert certify_callable(bound).status == "impure"


class TestLocate:
    """How a code object is matched to the AST node it came from."""

    def test_two_lambdas_on_one_line_are_not_located(self):
        for fn in TWIN_LAMBDAS:
            verdict = certify_callable(fn)
            assert verdict.status == "unknown"
            assert "cannot locate" in verdict.reasons[0]
            assert px_rules(fn) == ["PX007"]

    def test_decorated_function_found_from_its_decorator_line(self):
        code = decorated_impure.__code__
        line = linecache.getline(code.co_filename, code.co_firstlineno)
        assert line.startswith("@_identity")
        assert certify_callable(decorated_impure).status == "impure"

    def test_missing_source_file_is_unknown(self, tmp_path):
        ghost = compiled_at(str(tmp_path / "missing.py"))
        assert certify_callable(ghost).status == "unknown"
        assert px_rules(ghost) == ["PX007"]

    def test_unparsable_source_file_is_unknown(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def ghost(:\n")
        ghost = compiled_at(str(broken))
        assert certify_callable(ghost).status == "unknown"
        assert px_rules(ghost) == ["PX007"]

    def test_same_named_methods_in_two_classes_are_each_located(self):
        assert certify_callable(LeftStage().stage).status == "impure"
        assert certify_callable(RightStage().stage).is_pure


class TestAnalyserCaching:
    def test_verdicts_cached_per_code_and_self_type(self):
        analyser = PurityAnalyser()
        first = analyser.analyse(impure_print)
        second = analyser.analyse(impure_print)
        assert first is second

    def test_ast_cache_survives_across_callables(self):
        analyser = PurityAnalyser()
        analyser.analyse(impure_print)
        analyser.analyse(impure_open)
        # Both live in this file: parsed once.
        assert len([t for t in analyser._ast_cache.values() if t]) == 1


class TestDataflowCertification:
    def build_flow(self):
        flow = Dataflow()
        flow.add("clean", lambda inputs: 1)
        flow.add("dirty", lambda inputs: print(inputs), ("clean",))
        return flow

    def test_certify_records_verdicts_on_nodes(self):
        flow = self.build_flow()
        verdicts = flow.certify()
        assert verdicts["clean"].is_pure
        assert verdicts["dirty"].status == "impure"
        assert flow.purity_map() == {"clean": "pure", "dirty": "impure"}

    def test_certify_dataflow_helper_uses_the_engine_hook(self):
        flow = self.build_flow()
        verdicts = certify_dataflow(flow)
        assert set(verdicts) == {"clean", "dirty"}
        assert flow.purity_map()["dirty"] == "impure"

    def test_node_stats_carry_purity(self):
        flow = self.build_flow()
        flow.certify()
        assert flow.node_stats()["clean"]["purity"] == "pure"

    def test_strict_purity_refuses_to_replay_uncertified_nodes(self):
        flow = Dataflow()
        flow.add("a", lambda inputs: object())
        flow.add("b", lambda inputs: object(), ("a",))
        flow.pull("b")
        runs = flow.total_runs()
        flow.pull("b")  # memoised: no recomputation
        assert flow.total_runs() == runs

        flow.certify()
        flow._nodes["b"].purity = "unknown"  # simulate an uncertifiable node
        flow.strict_purity = True
        flow.pull("b")
        # 'a' is certified pure and replays; 'b' must recompute.
        assert flow.runs("a") == 1
        assert flow.runs("b") == 2

    def test_strict_purity_exempts_input_nodes(self):
        flow = Dataflow()
        flow.add_input("seed", 41)
        flow.add("next", lambda inputs: inputs["seed"] + 1, ("seed",))
        flow.certify()
        flow.strict_purity = True
        assert flow.pull("next") == 42
        assert flow.pull("next") == 42  # the input survived strict mode
