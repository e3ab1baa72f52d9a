"""Wrappers: executable extraction programs over DOM trees.

A :class:`Wrapper` turns one source's web pages into a
:class:`~repro.model.records.Table` — "providing syntactically consistent
representations that can then be brought together by the Data Integration
component" (Section 4).  Wrappers are data, not code: a record-node path
plus per-attribute :class:`FieldRule` objects, so they can be induced from
examples, annotated with quality scores, repaired, and stored in the
working data like any other artifact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

from repro.extraction.dom import DomNode, parse_html
from repro.extraction.patterns import Recogniser, recogniser
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import Attribute, DataType, Schema
from repro.model.values import Value
from repro.sources.base import Document

__all__ = ["FieldRule", "Wrapper"]


def _path_ends_with(path: tuple[str, ...], suffix: tuple[str, ...]) -> bool:
    if len(suffix) > len(path):
        return False
    return path[len(path) - len(suffix):] == suffix


def _relative_path(node: DomNode, ancestor: DomNode) -> tuple[str, ...] | None:
    steps: list[str] = []
    current: DomNode | None = node
    while current is not None and current is not ancestor:
        if not current.is_text:
            steps.append(current.signature)
        current = current.parent
    if current is None:
        return None
    return tuple(reversed(steps))


@dataclass(frozen=True)
class FieldRule:
    """How to pull one attribute out of a record node.

    ``rel_path`` is a signature suffix located under the record node;
    ``index`` picks among multiple matches; ``recogniser_name`` optionally
    post-processes the node text (e.g. pull the price out of
    ``"£399 — in stock"``); ``attr_source`` reads an HTML attribute (e.g.
    ``href``) instead of the text.
    """

    attribute: str
    rel_path: tuple[str, ...]
    index: int = 0
    recogniser_name: str | None = None
    attr_source: str | None = None
    dtype: DataType = DataType.STRING
    confidence: float = 1.0

    def select(self, record_node: DomNode) -> DomNode | None:
        """The DOM node this rule reads within ``record_node``."""
        if not self.rel_path:
            return record_node
        matches = []
        for node in record_node.elements():
            if node is record_node:
                continue
            if node.signature != self.rel_path[-1]:
                continue
            rel = _relative_path(node, record_node)
            if rel is not None and _path_ends_with(rel, self.rel_path):
                matches.append(node)
        if self.index < len(matches):
            return matches[self.index]
        return None

    def extract(self, record_node: DomNode) -> object | None:
        """The normalised raw value for this attribute, or ``None``."""
        node = self.select(record_node)
        if node is None:
            return None
        if self.attr_source is not None:
            raw = node.attrs.get(self.attr_source)
            return raw if raw else None
        text = node.text()
        if not text:
            return None
        if self.recogniser_name is not None:
            return recogniser(self.recogniser_name).find(text)
        return text


@dataclass(frozen=True)
class Wrapper:
    """An induced extraction program for one source's page layout."""

    source: str
    record_path: tuple[str, ...]
    rules: tuple[FieldRule, ...]
    confidence: float = 1.0
    wrapper_id: str = ""

    def __post_init__(self) -> None:
        if not self.wrapper_id:
            object.__setattr__(self, "wrapper_id", self._content_id())

    def _content_id(self) -> str:
        """A content-derived id, stable across runs and processes.

        Extracted cells cite their wrapper by id, so an id drawn from a
        process-global counter made two identical runs disagree on it.
        Hashing what the wrapper does — its source, record path, every
        rule and its confidence — gives the same wrapper the same id.
        Copies made by :meth:`with_rule` and :meth:`with_confidence`
        keep the id of the wrapper they were made from.
        """
        content = (
            self.source,
            self.record_path,
            tuple(
                (rule.attribute, rule.rel_path, rule.index,
                 rule.recogniser_name, rule.attr_source, rule.dtype.value,
                 rule.confidence)
                for rule in self.rules
            ),
            self.confidence,
        )
        # The repr of strings, ints, floats and None is the same in every
        # process, and a tuple's repr cannot run two fields together.
        digest = hashlib.sha1(repr(content).encode("utf-8"))
        return f"wrapper-{digest.hexdigest()[:10]}"

    def schema(self) -> Schema:
        """The relational schema this wrapper produces."""
        return Schema(
            tuple(
                Attribute(rule.attribute, rule.dtype) for rule in self.rules
            )
        )

    def record_nodes(self, root: DomNode) -> list[DomNode]:
        """All record nodes in a parsed page."""
        return [
            node
            for node in root.elements()
            if node.signature == self.record_path[-1]
            and _path_ends_with(node.path(), self.record_path)
        ]

    def extract_document(self, document: Document) -> list[Record]:
        """Extract all records from one document."""
        root = parse_html(document.html)
        provenance = Provenance.source(self.source).derive(
            Step.EXTRACTION, self.wrapper_id
        )
        records = []
        for node in self.record_nodes(root):
            cells: dict[str, Value] = {}
            for rule in self.rules:
                raw = rule.extract(node)
                cells[rule.attribute] = Value(
                    raw,
                    rule.dtype,
                    min(self.confidence, rule.confidence),
                    provenance,
                )
            if any(not value.is_missing for value in cells.values()):
                records.append(
                    Record.of(cells, source=self.source)
                )
        return records

    def extract(self, documents: Sequence[Document]) -> Table:
        """Extract a table from a batch of documents."""
        table = Table(self.source, self.schema())
        for document in documents:
            table.extend(self.extract_document(document))
        return table

    def with_rule(self, rule: FieldRule) -> "Wrapper":
        """A copy with the rule for ``rule.attribute`` replaced (or added)."""
        kept = tuple(r for r in self.rules if r.attribute != rule.attribute)
        return replace(self, rules=kept + (rule,))

    def rule_for(self, attribute: str) -> FieldRule | None:
        """The rule extracting ``attribute``, if any."""
        for rule in self.rules:
            if rule.attribute == attribute:
                return rule
        return None

    def with_confidence(self, confidence: float) -> "Wrapper":
        """A copy carrying a revised overall confidence."""
        return replace(self, confidence=confidence)
