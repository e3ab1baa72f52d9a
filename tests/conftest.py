"""Fixtures shared across test packages: the E6 product world of the
experiments (50 products, 6 retailers, seed 606) and cold wranglers on it."""

import pytest

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, generate_world
from repro.sources.memory import MemorySource


@pytest.fixture(scope="session")
def e6_world():
    return generate_world(50, 6, seed=606)


@pytest.fixture()
def cold_e6_wrangler(e6_world):
    """A factory of fresh, never-run precision-first wranglers on E6."""

    def build():
        user = UserContext.precision_first("bench", TARGET_SCHEMA, budget=60.0)
        data = DataContext("products").with_ontology(product_ontology())
        data.add_master("catalog", e6_world.ground_truth)
        wrangler = Wrangler(user, data, master_key="catalog",
                            join_attribute="product", today=e6_world.today)
        for name in e6_world.source_names:
            wrangler.add_source(MemorySource(
                name, e6_world.source_rows[name],
                cost_per_access=e6_world.specs[name].cost,
            ))
        return wrangler

    return build
