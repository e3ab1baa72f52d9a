"""Tests for mapping generation, execution, and selection."""

import pytest

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, SourceSpec, generate_world
from repro.errors import MappingError
from repro.mapping.mapping import AttributeMap, Mapping
from repro.mapping.selection import MappingSelector
from repro.mapping.transforms import get_transform
from repro.matching.schema_matching import Correspondence, SchemaMatcher
from repro.model.annotations import AnnotationStore, Dimension, QualityAnnotation
from repro.model.provenance import Step
from repro.model.records import Table
from repro.model.schema import DataType, Schema
from repro.model.workingdata import table_fingerprint
from repro.sources.memory import MemorySource
from repro.sources.registry import SourceRegistry


@pytest.fixture(scope="module")
def world():
    return generate_world(
        n_products=30,
        seed=41,
        specs=[
            SourceSpec("clean", coverage=1.0, schema_variant=1,
                       error_rate=0.0, staleness=0.0, missing_rate=0.0,
                       cost=4.0),
            SourceSpec("dirty", coverage=0.9, schema_variant=2,
                       error_rate=0.4, staleness=0.4, missing_rate=0.3,
                       cost=0.5),
        ],
    )


@pytest.fixture(scope="module")
def clean_table(world):
    return Table.from_rows("clean", world.source_rows["clean"])


@pytest.fixture(scope="module")
def clean_mapping(world, clean_table):
    context = DataContext("p").with_ontology(product_ontology())
    matches = SchemaMatcher(context).match(clean_table, TARGET_SCHEMA)
    return Mapping.from_correspondences("clean", TARGET_SCHEMA, matches)


class TestMappingExecution:
    def test_translates_into_target_schema(self, clean_mapping, clean_table):
        mapped = clean_mapping.apply(clean_table)
        assert mapped.schema is TARGET_SCHEMA
        assert len(mapped) == len(clean_table)
        record = mapped[0]
        assert record.raw("product") is not None
        assert isinstance(record.raw("price"), float)

    def test_provenance_gains_mapping_step(self, clean_mapping, clean_table):
        mapped = clean_mapping.apply(clean_table)
        provenance = mapped[0]["price"].provenance
        assert provenance.step is Step.MAPPING
        assert provenance.sources() == {"clean"}

    def test_truth_column_carried(self, clean_mapping, clean_table):
        mapped = clean_mapping.apply(clean_table)
        assert mapped[0].raw("_truth") is not None

    def test_wrong_source_rejected(self, clean_mapping):
        other = Table.from_rows("other", [{"x": 1}])
        with pytest.raises(MappingError):
            clean_mapping.apply(other)

    def test_uncoercible_value_keeps_raw_with_penalty(self):
        schema = Schema.of(("price", DataType.CURRENCY))
        table = Table.from_rows("s", [{"p": "not-a-price"}])
        mapping = Mapping("s", schema, (AttributeMap("price", "p", 0.9),))
        mapped = mapping.apply(table)
        value = mapped[0]["price"]
        assert value.raw == "not-a-price"
        assert value.confidence == pytest.approx(0.9 * 0.5)

    def test_transform_applied(self):
        schema = Schema.of(("price", DataType.CURRENCY))
        table = Table.from_rows("s", [{"pennies": 19900}])
        mapping = Mapping(
            "s", schema,
            (AttributeMap("price", "pennies", transform=lambda v: v / 100),),
        )
        assert mapping.apply(table)[0].raw("price") == pytest.approx(199.0)

    def test_unmapped_attribute_missing(self):
        schema = Schema.of("a", "b")
        table = Table.from_rows("s", [{"x": 1}])
        mapping = Mapping("s", schema, (AttributeMap("a", "x"),))
        record = mapping.apply(table)[0]
        assert record.raw("a") == "1"  # coerced to the declared STRING type
        assert record.get("b").is_missing


class TestMappingMetadata:
    def test_coverage(self, clean_mapping):
        assert clean_mapping.coverage() == 1.0

    def test_covers_required(self):
        partial = Mapping(
            "s", TARGET_SCHEMA, (AttributeMap("brand", "b"),)
        )
        assert not partial.covers_required()

    def test_confidence_penalises_missing_required(self):
        full = Mapping.from_correspondences("s", TARGET_SCHEMA, [])
        assert full.confidence == 0.0

    def test_describe(self, clean_mapping):
        text = clean_mapping.describe()
        assert "clean" in text and "price<-" in text


class TestMappingSelection:
    @pytest.fixture
    def setup(self, world):
        registry = SourceRegistry()
        annotations = AnnotationStore()
        context = DataContext("p").with_ontology(product_ontology())
        mappings = []
        for name in ("clean", "dirty"):
            spec = world.specs[name]
            registry.register(
                MemorySource(name, world.source_rows[name],
                             cost_per_access=spec.cost)
            )
            table = Table.from_rows(name, world.source_rows[name])
            matches = SchemaMatcher(context).match(table, TARGET_SCHEMA)
            mappings.append(
                Mapping.from_correspondences(name, TARGET_SCHEMA, matches)
            )
        return registry, annotations, mappings

    def test_selection_respects_budget(self, setup):
        registry, annotations, mappings = setup
        selector = MappingSelector(registry, annotations)
        rich = UserContext("rich", TARGET_SCHEMA, budget=100.0)
        poor = UserContext("poor", TARGET_SCHEMA, budget=1.0)
        assert len(selector.select(mappings, rich)) == 2
        chosen = selector.select(mappings, poor)
        assert len(chosen) == 1
        assert chosen[0].mapping.source_name == "dirty"  # only affordable one

    def test_annotations_steer_selection(self, setup):
        registry, annotations, mappings = setup
        # Quality analysis has discovered 'dirty' is inaccurate and stale.
        annotations.add(QualityAnnotation("source:dirty", Dimension.ACCURACY, 0.2))
        annotations.add(QualityAnnotation("source:dirty", Dimension.TIMELINESS, 0.2))
        annotations.add(QualityAnnotation("source:clean", Dimension.ACCURACY, 0.95))
        annotations.add(QualityAnnotation("source:clean", Dimension.TIMELINESS, 0.95))
        selector = MappingSelector(registry, annotations)
        precision = UserContext.precision_first("p", TARGET_SCHEMA)
        ranked = selector.select(mappings, precision)
        assert ranked[0].mapping.source_name == "clean"

    def test_floors_exclude(self, setup):
        registry, annotations, mappings = setup
        annotations.add(QualityAnnotation("source:dirty", Dimension.ACCURACY, 0.1))
        strict = UserContext(
            "strict", TARGET_SCHEMA, floors={Dimension.ACCURACY: 0.8}
        )
        selector = MappingSelector(registry, annotations)
        chosen = selector.select(mappings, strict)
        assert all(s.mapping.source_name != "dirty" for s in chosen)

    def test_limit(self, setup):
        registry, annotations, mappings = setup
        selector = MappingSelector(registry, annotations)
        ctx = UserContext("u", TARGET_SCHEMA)
        assert len(selector.select(mappings, ctx, limit=1)) == 1

    def test_topsis_method_runs(self, setup):
        registry, annotations, mappings = setup
        selector = MappingSelector(registry, annotations)
        ctx = UserContext("u", TARGET_SCHEMA, decision_method="topsis")
        assert selector.select(mappings, ctx)

    def test_mapping_missing_required_rejected(self, setup):
        registry, annotations, __ = setup
        partial = Mapping("clean", TARGET_SCHEMA, (AttributeMap("brand", "b"),))
        selector = MappingSelector(registry, annotations)
        ctx = UserContext("u", TARGET_SCHEMA)
        assert selector.select([partial], ctx) == []


class TestContentDerivedIds:
    """Mapping ids are minted from what a mapping does, so provenance
    cites the same mapping by the same id in every run."""

    def test_identical_mappings_share_an_id(self, clean_mapping):
        twin = Mapping(
            clean_mapping.source_name,
            clean_mapping.target_schema,
            clean_mapping.attribute_maps,
        )
        assert twin.mapping_id == clean_mapping.mapping_id
        assert twin.mapping_id.startswith("mapping-")

    def test_every_part_of_the_content_moves_the_id(self):
        price = ("price", DataType.FLOAT)
        schema = Schema.of(price, ("brand", DataType.STRING))

        def mapping_id(source, schema, target, attribute, confidence):
            maps = (AttributeMap(target, attribute, confidence),)
            return Mapping(source, schema, maps).mapping_id

        ids = {
            mapping_id("s", schema, "price", "cost", 0.9),
            mapping_id("t", schema, "price", "cost", 0.9),
            mapping_id("s", Schema.of(price), "price", "cost", 0.9),
            mapping_id("s", schema, "brand", "cost", 0.9),
            mapping_id("s", schema, "price", "p", 0.9),
            mapping_id("s", schema, "price", "cost", 0.8),
        }
        for transform in (
            get_transform("extract_price"),
            get_transform("thousands"),
            str.strip,
        ):
            ids.add(Mapping("s", schema, (
                AttributeMap("price", "cost", 0.9, transform),
            )).mapping_id)
        assert len(ids) == 9

    def test_explicit_id_is_kept(self):
        schema = Schema.of(("price", DataType.FLOAT))
        mapping = Mapping("s", schema, (), mapping_id="mapping-custom")
        assert mapping.mapping_id == "mapping-custom"

    def test_identical_correspondences_compare_equal(self):
        assert Correspondence("p", "price", 0.9) == Correspondence(
            "p", "price", 0.9
        )

    def test_two_cold_wrangles_select_the_same_mapping_ids(
        self, cold_e6_wrangler
    ):
        runs = []
        for _ in range(2):
            wrangler = cold_e6_wrangler()
            result = wrangler.run()
            runs.append((
                wrangler.working.get("mapping", "selected"),
                table_fingerprint(result.table),
                table_fingerprint(wrangler.working.get("table", "translated")),
            ))
        assert runs[0] == runs[1]
        selected, final, translated = runs[0]
        assert len(selected) == len(set(selected)) > 1
        # The fingerprints of counter-minted ids: content ids alias to
        # the same first-occurrence ordinals, so the tables are unchanged.
        assert final == (
            "1e5779ca132d2a0122a5c6411ce24d10a9af4b44c7abb895b402ba377d73cbba"
        )
        assert translated == (
            "b0920bf0b28848aba944a29b66932a3054f85840fd03912c1a156bbd5b798d2e"
        )
