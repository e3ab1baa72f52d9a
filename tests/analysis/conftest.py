"""Plan modules and example-tree runs shared by the analysis-driver tests.

Four fixture plan modules cover the driver's verdicts: a clean plan, a
PV007-broken plan (``master_key`` without master data), a PX-unsafe plan
(a node that hoards rows into a captured list) and a CC-over-budget plan
(``Wrangler.budget`` below the estimated access cost).
"""

import os
from pathlib import Path

import pytest

from repro.analysis.cli import check_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN_PLAN = """\
from repro import DataContext, UserContext, Wrangler
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.sources.memory import MemorySource

SCHEMA = Schema((
    Attribute("product", DataType.STRING, required=True),
    Attribute("price", DataType.CURRENCY),
))

ROWS = [
    {"product": "anvil", "price": "$12.00"},
    {"product": "rope", "price": "$3.50"},
]


def build_wrangler():
    user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
    wrangler = Wrangler(user, DataContext())
    wrangler.add_source(MemorySource("shop", ROWS, cost_per_access=2.0))
    return wrangler
"""

BROKEN_PLAN = CLEAN_PLAN.replace(
    "Wrangler(user, DataContext())",
    'Wrangler(user, DataContext(), master_key="catalog")',
)

UNSAFE_PLAN = CLEAN_PLAN.replace(
    "    return wrangler\n",
    "    hoard = []\n"
    '    wrangler.flow.add("hoards", lambda inputs: hoard.append(inputs))\n'
    "    return wrangler\n",
)

OVER_BUDGET_PLAN = CLEAN_PLAN.replace(
    "    return wrangler\n",
    "    return wrangler.budget(0.1)\n",
)


def _write(directory: Path, name: str, source: str) -> Path:
    target = directory / name
    target.write_text(source)
    return target


@pytest.fixture()
def clean_plan(tmp_path):
    return _write(tmp_path, "clean_plan.py", CLEAN_PLAN)


@pytest.fixture()
def broken_plan(tmp_path):
    return _write(tmp_path, "broken_plan.py", BROKEN_PLAN)


@pytest.fixture()
def unsafe_plan(tmp_path):
    return _write(tmp_path, "unsafe_plan.py", UNSAFE_PLAN)


@pytest.fixture()
def over_budget_plan(tmp_path):
    return _write(tmp_path, "over_budget_plan.py", OVER_BUDGET_PLAN)


def _check_examples():
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return check_paths(["examples"])
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="session")
def examples_check():
    """One ``check`` over the shipped examples, shared by both snapshots."""
    return _check_examples()


@pytest.fixture(scope="session")
def examples_recheck():
    """A second, independent ``check`` over the examples (determinism)."""
    return _check_examples()
