"""Lightweight domain ontologies for the data context.

Example 4 in the paper: "there are ontologies that describe products, such
as The Product Types Ontology ... a product types ontology could be used to
inform the selection of sources based on their relevance, as an input to
the matching of sources that supplements syntactic matching, and as a guide
to the fusion of property values".

An :class:`Ontology` holds a subclass DAG of concepts, per-concept synonym
sets, and typed properties.  It answers the three questions the wrangler
asks: *do these two terms name the same concept/property?*, *how related
are two concepts?*, and *which concept does this value most plausibly
instantiate?*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import networkx as nx

from repro.errors import ContextError
from repro.model.schema import DataType

__all__ = ["Concept", "Property", "Ontology"]


def _normalise(term: str) -> str:
    return " ".join(term.lower().replace("_", " ").replace("-", " ").split())


@dataclass(frozen=True)
class Concept:
    """A named concept with its synonym set."""

    name: str
    synonyms: frozenset[str] = frozenset()
    description: str = ""

    def labels(self) -> frozenset[str]:
        """All normalised surface forms of the concept."""
        return frozenset({_normalise(self.name)} | {
            _normalise(s) for s in self.synonyms
        })


@dataclass(frozen=True)
class Property:
    """A typed property, attached to a domain concept."""

    name: str
    domain: str
    dtype: DataType = DataType.STRING
    synonyms: frozenset[str] = frozenset()

    def labels(self) -> frozenset[str]:
        """All normalised surface forms of the property."""
        return frozenset({_normalise(self.name)} | {
            _normalise(s) for s in self.synonyms
        })


class Ontology:
    """A subclass DAG of concepts with synonyms and typed properties."""

    def __init__(self, name: str = "ontology") -> None:
        self.name = name
        self._graph = nx.DiGraph()  # edge (child -> parent) = subclass-of
        self._concepts: dict[str, Concept] = {}
        self._properties: dict[str, Property] = {}
        self._label_index: dict[str, str] = {}
        self._property_label_index: dict[str, str] = {}
        #: Depth of every concept, built on first use; :meth:`add_concept`
        #: clears it.
        self._depth_map: dict[str, int] | None = None

    # -- construction --------------------------------------------------

    def add_concept(
        self,
        name: str,
        parent: str | None = None,
        synonyms: Iterable[str] = (),
        description: str = "",
    ) -> Concept:
        """Add a concept, optionally as a subclass of ``parent``."""
        if name in self._concepts:
            raise ContextError(f"concept {name!r} already defined")
        concept = Concept(name, frozenset(synonyms), description)
        self._concepts[name] = concept
        self._depth_map = None
        self._graph.add_node(name)
        if parent is not None:
            if parent not in self._concepts:
                raise ContextError(f"unknown parent concept {parent!r}")
            self._graph.add_edge(name, parent)
            if not nx.is_directed_acyclic_graph(self._graph):
                self._graph.remove_edge(name, parent)
                raise ContextError(
                    f"subclass edge {name!r} -> {parent!r} creates a cycle"
                )
        for label in concept.labels():
            self._label_index.setdefault(label, name)
        return concept

    def add_property(
        self,
        name: str,
        domain: str,
        dtype: DataType = DataType.STRING,
        synonyms: Iterable[str] = (),
    ) -> Property:
        """Add a typed property to concept ``domain``."""
        if domain not in self._concepts:
            raise ContextError(f"unknown domain concept {domain!r}")
        if name in self._properties:
            raise ContextError(f"property {name!r} already defined")
        prop = Property(name, domain, dtype, frozenset(synonyms))
        self._properties[name] = prop
        for label in prop.labels():
            self._property_label_index.setdefault(label, name)
        return prop

    # -- lookups ---------------------------------------------------------

    @property
    def concepts(self) -> Mapping[str, Concept]:
        """All concepts by name."""
        return dict(self._concepts)

    @property
    def properties(self) -> Mapping[str, Property]:
        """All properties by name."""
        return dict(self._properties)

    def concept_of(self, term: str) -> str | None:
        """The concept whose label matches ``term``, if any."""
        return self._label_index.get(_normalise(term))

    def property_of(self, term: str) -> str | None:
        """The property whose label matches ``term``, if any."""
        return self._property_label_index.get(_normalise(term))

    def ancestors(self, concept: str) -> set[str]:
        """All superclasses of ``concept`` (transitively)."""
        self._require(concept)
        return set(nx.descendants(self._graph, concept))

    def descendants(self, concept: str) -> set[str]:
        """All subclasses of ``concept`` (transitively)."""
        self._require(concept)
        return set(nx.ancestors(self._graph, concept))

    def is_a(self, concept: str, ancestor: str) -> bool:
        """Whether ``concept`` is (a subclass of) ``ancestor``."""
        self._require(concept)
        self._require(ancestor)
        return concept == ancestor or ancestor in self.ancestors(concept)

    def _require(self, concept: str) -> None:
        if concept not in self._concepts:
            raise ContextError(f"unknown concept {concept!r}")

    # -- semantic similarity ----------------------------------------------

    def term_similarity(self, term_a: str, term_b: str) -> float:
        """Ontology-backed similarity of two attribute/term names.

        1.0 when both resolve to the same concept or property; otherwise a
        Wu–Palmer-style score over the subclass DAG; 0.0 when either term is
        unknown to the ontology (the ontology then contributes no evidence).
        """
        prop_a, prop_b = self.property_of(term_a), self.property_of(term_b)
        if prop_a is not None and prop_a == prop_b:
            return 1.0
        concept_a, concept_b = self.concept_of(term_a), self.concept_of(term_b)
        if prop_a is not None and prop_b is not None:
            concept_a = self._properties[prop_a].domain
            concept_b = self._properties[prop_b].domain
            if prop_a != prop_b:
                # Distinct properties are distinct even on related domains.
                return 0.25 * self.concept_similarity(concept_a, concept_b)
        if concept_a is None or concept_b is None:
            return 0.0
        return self.concept_similarity(concept_a, concept_b)

    def concept_similarity(self, concept_a: str, concept_b: str) -> float:
        """Wu–Palmer similarity over the subclass DAG."""
        self._require(concept_a)
        self._require(concept_b)
        if concept_a == concept_b:
            return 1.0
        up_a = {concept_a} | self.ancestors(concept_a)
        up_b = {concept_b} | self.ancestors(concept_b)
        common = up_a & up_b
        if not common:
            return 0.0
        depth = self._depths()
        lca_depth = max(depth[c] for c in common)
        return (
            2.0 * lca_depth / (depth[concept_a] + depth[concept_b])
            if (depth[concept_a] + depth[concept_b]) > 0
            else 0.0
        )

    def _depths(self) -> dict[str, int]:
        if self._depth_map is not None:
            return self._depth_map
        depths: dict[str, int] = {}
        for node in nx.topological_sort(self._graph.reverse()):
            parents = list(self._graph.successors(node))
            depths[node] = 1 + max(
                (depths[p] for p in parents), default=0
            )
        self._depth_map = depths
        return depths

    def classify_value(self, value: object) -> str | None:
        """The concept a raw value most plausibly instantiates, by label."""
        if value is None:
            return None
        return self.concept_of(str(value))

    def expected_dtype(self, term: str) -> DataType | None:
        """The declared dtype of the property matching ``term``, if any."""
        prop = self.property_of(term)
        if prop is None:
            return None
        return self._properties[prop].dtype
