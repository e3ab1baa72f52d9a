"""Schema mappings: executable translations into the target schema.

A :class:`Mapping` reshapes one source table into the user context's
target schema — projection, renaming, and type normalisation — while
preserving per-cell provenance (a ``MAPPING`` step is appended) and
discounting confidence by the certainty of the underlying correspondences.
"This is the paper's "tentative ... mappings" made explicit: a mapping is
an uncertain artifact with a confidence, not a trusted program.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import MappingError, TypeInferenceError
from repro.matching.schema_matching import Correspondence
from repro.model.provenance import Step
from repro.model.records import Record, Table
from repro.model.schema import Schema, coerce
from repro.model.values import MISSING, Value

__all__ = ["AttributeMap", "Mapping"]

@dataclass(frozen=True)
class AttributeMap:
    """One target attribute's derivation from a source attribute."""

    target: str
    source: str
    confidence: float = 1.0
    transform: Callable[[object], object] | None = None


@dataclass(frozen=True)
class Mapping:
    """An executable, uncertain schema mapping for one source."""

    source_name: str
    target_schema: Schema
    attribute_maps: tuple[AttributeMap, ...]
    confidence: float = 1.0
    mapping_id: str = ""

    def __post_init__(self) -> None:
        if not self.mapping_id:
            object.__setattr__(self, "mapping_id", self._content_id())

    def _content_id(self) -> str:
        """A content-derived id, stable across runs and processes.

        Provenance cites mappings by id, so an id drawn from a
        process-global counter made two identical runs disagree on it.
        Hashing what the mapping does — its source, the target schema and
        every attribute map — gives the same mapping the same id.
        """
        digest = hashlib.sha1()
        digest.update(self.source_name.encode("utf-8"))
        for name in self.target_schema.names:
            digest.update(f";{name}".encode("utf-8"))
        for m in self.attribute_maps:
            # A registered Transform by its name, a bare callable by its
            # qualified name.
            transform = getattr(m.transform, "name", None) or getattr(
                m.transform, "__qualname__", ""
            )
            line = f"|{m.target}<-{m.source}:{m.confidence!r}:{transform}"
            digest.update(line.encode("utf-8"))
        return f"mapping-{digest.hexdigest()[:10]}"

    @classmethod
    def from_correspondences(
        cls,
        source_name: str,
        target_schema: Schema,
        correspondences: Sequence[Correspondence],
        sample_table: Table | None = None,
    ) -> "Mapping":
        """Build a mapping from matcher output.

        The mapping's confidence is the mean correspondence confidence over
        the *required* target attributes it covers (uncovered required
        attributes pull it down to reflect incompleteness).

        With a ``sample_table``, each attribute map also gets a suggested
        value transform when the source values only fit the target type
        after reshaping (e.g. prices embedded in text) — Variety handled
        at mapping-generation time rather than left as low-confidence
        cells.
        """
        from repro.mapping.transforms import suggest_transform

        maps = []
        for c in correspondences:
            transform = None
            if (
                sample_table is not None
                and c.source_attribute in sample_table.schema
            ):
                samples = sample_table.raw_column(c.source_attribute)[:50]
                target_attribute = target_schema.get(c.target_attribute)
                if target_attribute is not None:
                    transform = suggest_transform(samples, target_attribute)
            maps.append(
                AttributeMap(
                    c.target_attribute,
                    c.source_attribute,
                    c.confidence,
                    transform=transform,
                )
            )
        maps = tuple(maps)
        covered = {m.target for m in maps}
        required = [a.name for a in target_schema if a.required]
        scores = [m.confidence for m in maps]
        for name in required:
            if name not in covered:
                scores.append(0.0)
        confidence = sum(scores) / len(scores) if scores else 0.0
        return cls(source_name, target_schema, maps, confidence)

    def covered_attributes(self) -> frozenset[str]:
        """Target attributes this mapping populates."""
        return frozenset(m.target for m in self.attribute_maps)

    def coverage(self) -> float:
        """Fraction of the target schema this mapping populates."""
        if not len(self.target_schema):
            return 1.0
        return len(self.covered_attributes()) / len(self.target_schema)

    def covers_required(self) -> bool:
        """Whether every required target attribute is populated."""
        covered = self.covered_attributes()
        return all(
            attr.name in covered for attr in self.target_schema if attr.required
        )

    def map_for(self, target: str) -> AttributeMap | None:
        """The attribute map producing ``target``, if any."""
        for attribute_map in self.attribute_maps:
            if attribute_map.target == target:
                return attribute_map
        return None

    def apply_record(self, record: Record) -> Record:
        """Translate one record into the target schema."""
        cells: dict[str, Value] = {}
        for attribute in self.target_schema:
            attribute_map = self.map_for(attribute.name)
            if attribute_map is None:
                cells[attribute.name] = MISSING
                continue
            value = record.get(attribute_map.source)
            if value.is_missing:
                cells[attribute.name] = MISSING
                continue
            raw = value.raw
            if attribute_map.transform is not None:
                raw = attribute_map.transform(raw)
            confidence_penalty = 1.0
            try:
                raw = coerce(raw, attribute.dtype)
            except TypeInferenceError:
                # Keep the raw value but flag it as dubious; the quality
                # component will surface it rather than silently dropping it.
                confidence_penalty = 0.5
            cells[attribute.name] = Value(
                raw,
                attribute.dtype,
                min(
                    1.0,
                    value.confidence
                    * attribute_map.confidence
                    * confidence_penalty,
                ),
                value.provenance.derive(Step.MAPPING, self.mapping_id),
            )
        # Carry evaluation-only lineage columns through untouched.
        for name, value in record.cells.items():
            if name.startswith("_"):
                cells[name] = value
        return Record(record.rid, record.source, cells)

    def apply(self, table: Table) -> Table:
        """Translate a whole table into the target schema."""
        if table.name != self.source_name:
            raise MappingError(
                f"mapping {self.mapping_id} is for source "
                f"{self.source_name!r}, not {table.name!r}"
            )
        return Table(
            self.source_name,
            self.target_schema,
            [self.apply_record(record) for record in table.records],
        )

    def describe(self) -> str:
        """A readable ``target <- source`` summary."""
        parts = ", ".join(
            f"{m.target}<-{m.source}({m.confidence:.2f})"
            for m in self.attribute_maps
        )
        return (
            f"mapping {self.mapping_id} [{self.source_name}] "
            f"confidence={self.confidence:.2f}: {parts}"
        )
