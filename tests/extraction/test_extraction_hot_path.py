"""The extraction hot path against from-scratch oracles, and wrapper ids.

``parse_html`` memoises whole trees and ``DomNode`` keeps its ``text()``
and ``path()`` once computed.  The oracles below are the uncached parse
and the recursive ``text()``/``path()`` the DOM used before; induction,
automatic induction and repair run with them patched in must produce
exactly what the memoised path produces.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context.data_context import DataContext
from repro.datagen.htmlgen import TEMPLATES, annotations_for, random_listings, render_site
from repro.datagen.ontologies import product_ontology
from repro.errors import ExtractionError
from repro.extraction import induction as induction_module
from repro.extraction import wrapper as wrapper_module
from repro.extraction.dom import DomNode, parse_html
from repro.extraction.induction import auto_induce, induce_wrapper
from repro.extraction.repair import WrapperRepairer
from repro.extraction.wrapper import FieldRule, Wrapper
from repro.model.workingdata import table_fingerprint


def oracle_parse(html):
    """A fresh tree on every call: the parse without the memo."""
    return parse_html.__wrapped__(html)


def oracle_text(node):
    if node.is_text:
        return " ".join(node.text_content.split())
    parts = [oracle_text(child) for child in node.children]
    return " ".join(part for part in parts if part)


def oracle_path(node):
    steps = []
    current = node
    while current is not None and current.tag != "#document":
        if not current.is_text:
            steps.append(current.signature)
        current = current.parent
    return tuple(reversed(steps))


def uncached(monkeypatch):
    """Route every parse and every text()/path() read through the oracles."""
    monkeypatch.setattr(DomNode, "text", oracle_text)
    monkeypatch.setattr(DomNode, "path", oracle_path)
    for module in (induction_module, wrapper_module):
        monkeypatch.setattr(module, "parse_html", oracle_parse)


def outcome(build):
    """What one induction (and repair) produced, or the error it raised."""
    try:
        wrapper, table, report = build()
    except ExtractionError as error:
        return ("error", str(error))
    return (
        wrapper.wrapper_id,
        wrapper.record_path,
        wrapper.rules,
        wrapper.confidence,
        report,
        table_fingerprint(table),
    )


def assert_same_as_oracle(build):
    memoised = outcome(build)
    with pytest.MonkeyPatch.context() as monkeypatch:
        uncached(monkeypatch)
        expected = outcome(build)
    assert memoised == expected


CONTEXT = DataContext("products").with_ontology(product_ontology())

sites = st.builds(
    lambda template, n, page_size, seed: render_site(
        f"shop-{seed}", random_listings(n, random.Random(seed)), template,
        page_size=page_size,
    ),
    st.sampled_from(TEMPLATES),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([4, 7, 20]),
    st.integers(min_value=0, max_value=10_000),
)


class TestDomAgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(sites)
    def test_every_node_reads_as_the_recursive_oracle(self, site):
        for __, html in site.pages:
            memoised = parse_html(html)
            fresh = oracle_parse(html)
            pairs = list(zip(memoised.walk(), fresh.walk()))
            assert len(pairs) == sum(1 for __ in fresh.walk())
            for node, oracle in pairs:
                assert (node.tag, node.attrs, node.text_content) == (
                    oracle.tag, oracle.attrs, oracle.text_content
                )
                assert node.text() == oracle_text(oracle)
                assert node.path() == oracle_path(oracle)
                # A second read is served from the node, unchanged.
                assert node.text() == oracle_text(oracle)
                assert node.path() == oracle_path(oracle)

    def test_same_html_is_one_shared_tree(self):
        html = render_site("s", random_listings(3, random.Random(1))).pages[0][1]
        assert parse_html(html) is parse_html(html)
        assert oracle_parse(html) is not oracle_parse(html)

    def test_empty_input_still_raises_every_time(self):
        for __ in range(2):
            with pytest.raises(ExtractionError):
                parse_html("  ")

    def test_cached_reads_stay_out_of_equality_and_repr(self):
        cached = [
            f for f in dataclasses.fields(DomNode)
            if f.name in ("_text", "_path")
        ]
        assert len(cached) == 2
        assert not any(f.compare or f.repr or f.init for f in cached)
        read, unread = DomNode("p"), DomNode("p")
        read.children.append(DomNode("#text", text_content="x"))
        unread.children.append(DomNode("#text", text_content="x"))
        assert (read.text(), read.path()) == ("x", ("p",))
        assert read == unread
        assert repr(read) == repr(unread)


class TestExtractionAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(sites, st.integers(min_value=1, max_value=3), st.data())
    def test_induce_and_repair(self, site, count, data):
        documents = site.documents()
        annotations = annotations_for(site, count)
        examples = data.draw(st.lists(
            st.sampled_from(annotations), min_size=1,
            max_size=len(annotations), unique_by=id,
        ))

        def build():
            wrapper = induce_wrapper(documents, examples, source=site.name)
            return WrapperRepairer(CONTEXT).repair(wrapper, documents)

        assert_same_as_oracle(build)

    @settings(max_examples=25, deadline=None)
    @given(sites)
    def test_auto_induce_and_repair(self, site):
        documents = site.documents()

        def build():
            wrapper = auto_induce(documents, source=site.name)
            return WrapperRepairer(CONTEXT).repair(wrapper, documents)

        assert_same_as_oracle(build)

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_every_template_at_listing_page_size(self, template):
        site = render_site(
            "shop", random_listings(45, random.Random(7)), template
        )
        documents = site.documents()

        def supervised():
            wrapper = induce_wrapper(
                documents, annotations_for(site, 3), source="shop"
            )
            return WrapperRepairer(CONTEXT).repair(wrapper, documents)

        def automatic():
            wrapper = auto_induce(documents, source="shop")
            return WrapperRepairer(CONTEXT).repair(wrapper, documents)

        assert_same_as_oracle(supervised)
        assert_same_as_oracle(automatic)


class TestContentDerivedWrapperIds:
    """Wrapper ids are minted from what a wrapper does, so extracted
    cells cite the same wrapper by the same id in every run."""

    @pytest.fixture
    def site(self):
        return render_site("shop", random_listings(12, random.Random(3)))

    def test_identical_inductions_share_an_id(self, site):
        documents = site.documents()
        examples = annotations_for(site, 3)
        first = induce_wrapper(documents, examples, source="shop")
        second = induce_wrapper(documents, examples, source="shop")
        assert first.wrapper_id == second.wrapper_id
        assert first.wrapper_id.startswith("wrapper-")
        assert auto_induce(documents).wrapper_id == auto_induce(
            documents
        ).wrapper_id

    def test_fingerprints_do_not_depend_on_the_id(self, site):
        documents = site.documents()
        wrapper = induce_wrapper(documents, annotations_for(site, 3))
        numbered = Wrapper(
            wrapper.source, wrapper.record_path, wrapper.rules,
            wrapper.confidence, wrapper_id="wrapper-7",
        )
        assert table_fingerprint(wrapper.extract(documents)) == (
            table_fingerprint(numbered.extract(documents))
        )

    def test_every_part_of_the_content_moves_the_id(self):
        rule = FieldRule("price", ("span.price",))
        ids = {
            Wrapper("s", ("div.product",), (rule,)).wrapper_id,
            Wrapper("t", ("div.product",), (rule,)).wrapper_id,
            Wrapper("s", ("li",), (rule,)).wrapper_id,
            Wrapper("s", ("div.product",), (rule,), 0.5).wrapper_id,
            Wrapper("s", ("div.product",), ()).wrapper_id,
        }
        for changed in (
            FieldRule("cost", ("span.price",)),
            FieldRule("price", ("span",)),
            FieldRule("price", ("span.price",), index=1),
            FieldRule("price", ("span.price",), recogniser_name="price"),
            FieldRule("price", ("span.price",), attr_source="href"),
            FieldRule("price", ("span.price",), confidence=0.5),
        ):
            ids.add(Wrapper("s", ("div.product",), (changed,)).wrapper_id)
        assert len(ids) == 11

    def test_explicit_id_and_copies_keep_their_id(self):
        rule = FieldRule("a", ("span",))
        wrapper = Wrapper("s", ("li",), (rule,), wrapper_id="wrapper-custom")
        assert wrapper.wrapper_id == "wrapper-custom"
        minted = Wrapper("s", ("li",), (rule,))
        assert minted.with_confidence(0.5).wrapper_id == minted.wrapper_id
        assert minted.with_rule(
            FieldRule("b", ("em",))
        ).wrapper_id == minted.wrapper_id
