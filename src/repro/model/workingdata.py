"""The working-data store at the centre of the paper's Figure 1.

All intermediate results of the wrangling process — extracted tables,
matches, mappings, wrappers, fused entities — are stored here "for
on-demand recombination, depending on the user context and the potentially
continually evolving data context" (Section 4.2).  The store is a typed
blackboard: artifacts live under ``category/key`` addresses, carry
versions, and changes are observable so the incremental dataflow engine can
invalidate exactly the dependent computations.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.errors import CheckpointError
from repro.model.annotations import AnnotationStore
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import Attribute, DataType, Schema
from repro.model.values import Value

__all__ = [
    "ArtifactKey",
    "SNAPSHOT_VERSION",
    "WorkingData",
    "canonical_bytes",
    "content_digest",
    "decode_table",
    "encode_table",
    "row_digest",
    "table_fingerprint",
    "tag_raw",
    "untag_raw",
]


@dataclass(frozen=True, order=True)
class ArtifactKey:
    """The address of one artifact in the working data."""

    category: str
    key: str

    def __str__(self) -> str:
        return f"{self.category}:{self.key}"


@dataclass
class _Entry:
    value: Any
    version: int = 1


class WorkingData:
    """A versioned blackboard of wrangling artifacts plus quality annotations.

    Categories used by the framework (others are free for applications):

    * ``table`` — extracted / mapped / fused :class:`~repro.model.records.Table`
    * ``match`` — schema correspondences
    * ``mapping`` — schema mappings
    * ``wrapper`` — induced extraction wrappers
    * ``entity`` — resolved/fused entities
    * ``report`` — quality reports
    """

    def __init__(self) -> None:
        self._entries: dict[ArtifactKey, _Entry] = {}
        self.annotations = AnnotationStore()
        self._listeners: list[Callable[[ArtifactKey], None]] = []

    def put(self, category: str, key: str, value: Any) -> ArtifactKey:
        """Store (or overwrite) an artifact; bumps its version and notifies
        change listeners."""
        akey = ArtifactKey(category, key)
        entry = self._entries.get(akey)
        if entry is None:
            self._entries[akey] = _Entry(value)
        else:
            entry.value = value
            entry.version += 1
        for listener in self._listeners:
            listener(akey)
        return akey

    def get(self, category: str, key: str, default: Any = None) -> Any:
        """The artifact at ``category:key``, or ``default``."""
        entry = self._entries.get(ArtifactKey(category, key))
        return default if entry is None else entry.value

    def require(self, category: str, key: str) -> Any:
        """The artifact at ``category:key``; raises ``KeyError`` if absent."""
        akey = ArtifactKey(category, key)
        if akey not in self._entries:
            raise KeyError(f"no artifact at {akey}")
        return self._entries[akey].value

    def version(self, category: str, key: str) -> int:
        """The artifact's version (0 when absent)."""
        entry = self._entries.get(ArtifactKey(category, key))
        return 0 if entry is None else entry.version

    def contains(self, category: str, key: str) -> bool:
        """Whether an artifact exists at ``category:key``."""
        return ArtifactKey(category, key) in self._entries

    def remove(self, category: str, key: str) -> bool:
        """Delete an artifact; returns whether it existed."""
        akey = ArtifactKey(category, key)
        existed = self._entries.pop(akey, None) is not None
        if existed:
            for listener in self._listeners:
                listener(akey)
        return existed

    def keys(self, category: str | None = None) -> list[ArtifactKey]:
        """All artifact keys, optionally restricted to one category."""
        if category is None:
            return sorted(self._entries)
        return sorted(k for k in self._entries if k.category == category)

    def items(self, category: str) -> Iterator[tuple[str, Any]]:
        """Iterate ``(key, value)`` pairs within one category."""
        for akey in self.keys(category):
            yield akey.key, self._entries[akey].value

    def on_change(self, listener: Callable[[ArtifactKey], None]) -> None:
        """Register a callback invoked with the key of every change."""
        self._listeners.append(listener)

    def __len__(self) -> int:
        return len(self._entries)

    def summary(self) -> dict[str, int]:
        """Artifact counts per category."""
        counts: dict[str, int] = {}
        for akey in self._entries:
            counts[akey.category] = counts.get(akey.category, 0) + 1
        return dict(sorted(counts.items()))

    def table_fingerprints(self) -> dict[str, str]:
        """Content fingerprint of every ``table`` artifact.

        The cross-run identity of the working data: two runs whose
        fingerprints match produced logically identical tables, however
        the process-local record ids happened to be minted.  The crash
        recovery suite asserts a resumed run against an uninterrupted
        one through exactly this view.
        """
        return {
            key: table_fingerprint(value)
            for key, value in self.items("table")
            if isinstance(value, Table)
        }


# -- versioned working-data snapshots ------------------------------------
#
# Tables must leave (and re-enter) the process without losing what makes
# them working data: per-cell dtype, confidence, and the full provenance
# tree.  The codec below is exact — ``decode_table(encode_table(t))``
# reproduces every cell byte-for-byte — and content addressing hashes the
# canonical JSON form, so a snapshot id names the data it stores.

#: Version stamp carried by every encoded snapshot payload; bump on any
#: change to the encoding so old stores are detected, not misread.
SNAPSHOT_VERSION = 1

#: Type tag key for raw payloads JSON cannot express natively.
_TAG = "__repro__"


def tag_raw(raw: Any) -> Any:
    """A JSON-able stand-in for one raw payload (cell or cursor value)."""
    if isinstance(raw, _dt.datetime):
        return {_TAG: "datetime", "value": raw.isoformat()}
    if isinstance(raw, _dt.date):
        return {_TAG: "date", "value": raw.isoformat()}
    if isinstance(raw, tuple):
        return {_TAG: "tuple", "items": [tag_raw(item) for item in raw]}
    if isinstance(raw, dict):
        return {_TAG: "dict", "items": {
            str(key): tag_raw(value) for key, value in raw.items()
        }}
    return raw


def untag_raw(payload: Any) -> Any:
    """Invert :func:`tag_raw`."""
    if isinstance(payload, dict):
        kind = payload.get(_TAG)
        if kind == "datetime":
            return _dt.datetime.fromisoformat(payload["value"])
        if kind == "date":
            return _dt.date.fromisoformat(payload["value"])
        if kind == "tuple":
            return tuple(untag_raw(item) for item in payload["items"])
        if kind == "dict":
            return {
                key: untag_raw(value)
                for key, value in payload["items"].items()
            }
    return payload


def canonical_bytes(payload: Any) -> bytes:
    """The canonical JSON serialisation content addressing hashes.

    Sorted keys, minimal separators, ASCII-only: one byte sequence per
    logical payload, on every platform.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def content_digest(payload: Any) -> str:
    """The sha256 content address of a JSON-able payload."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def row_digest(row: Mapping[str, Any]) -> str:
    """Content identity of one raw row (delta-merge and watermark unit).

    Keyed on the tagged raw payloads only — record ids and provenance
    are process-local and must not enter the identity.
    """
    return content_digest({str(k): tag_raw(v) for k, v in row.items()})


def _encode_provenance(node: Provenance) -> dict[str, Any]:
    return {
        "step": node.step.value,
        "ref": node.ref,
        "inputs": [_encode_provenance(child) for child in node.inputs],
    }


def _decode_provenance(payload: Mapping[str, Any]) -> Provenance:
    return Provenance(
        Step(payload["step"]),
        payload["ref"],
        tuple(_decode_provenance(child) for child in payload["inputs"]),
    )


def _encode_value(value: Value) -> dict[str, Any]:
    return {
        "raw": tag_raw(value.raw),
        "dtype": value.dtype.value,
        "confidence": value.confidence,
        "provenance": _encode_provenance(value.provenance),
    }


def _decode_value(payload: Mapping[str, Any]) -> Value:
    return Value(
        untag_raw(payload["raw"]),
        DataType(payload["dtype"]),
        payload["confidence"],
        _decode_provenance(payload["provenance"]),
    )


def encode_table(table: Table) -> dict[str, Any]:
    """The exact, versioned JSON form of a table.

    Record ids, sources, schema, and every cell annotation are preserved
    verbatim: decoding replays the table byte-for-byte.
    """
    return {
        "kind": "table",
        "version": SNAPSHOT_VERSION,
        "name": table.name,
        "schema": [
            {
                "name": attr.name,
                "dtype": attr.dtype.value,
                "required": attr.required,
                "description": attr.description,
            }
            for attr in table.schema
        ],
        "records": [
            {
                "rid": record.rid,
                "source": record.source,
                # Pairs, not an object: canonical JSON sorts object keys,
                # and cell insertion order must survive the round trip.
                "cells": [
                    [name, _encode_value(value)]
                    for name, value in record.cells.items()
                ],
            }
            for record in table
        ],
    }


def decode_table(payload: Mapping[str, Any]) -> Table:
    """Rebuild a table from :func:`encode_table` output."""
    if payload.get("kind") != "table":
        raise CheckpointError(
            f"snapshot payload is not a table: kind={payload.get('kind')!r}"
        )
    if payload.get("version") != SNAPSHOT_VERSION:
        raise CheckpointError(
            f"table snapshot version {payload.get('version')!r} is not the "
            f"supported version {SNAPSHOT_VERSION}"
        )
    schema = Schema(tuple(
        Attribute(
            attr["name"],
            DataType(attr["dtype"]),
            attr["required"],
            attr["description"],
        )
        for attr in payload["schema"]
    ))
    records = [
        Record(
            entry["rid"],
            entry["source"],
            {name: _decode_value(cell) for name, cell in entry["cells"]},
        )
        for entry in payload["records"]
    ]
    return Table(payload["name"], schema, records)


def _normalised(payload: Any, aliases: dict[str, str]) -> Any:
    """Rewrite process-local ids in an encoded table to stable ordinals.

    Record ids come from a process-global counter, so two runs of
    identical logical content disagree on them; first-occurrence aliases
    (``#0``, ``#1``, ...) make the encoding order-stable instead.
    Mapping and wrapper ids are content-derived, but they are aliased the
    same way, so a fingerprint does not depend on how either id is
    minted.
    """

    def alias(kind: str, token: str) -> str:
        key = f"{kind}:{token}"
        if key not in aliases:
            aliases[key] = f"{kind}#{len(aliases)}"
        return aliases[key]

    if isinstance(payload, dict):
        out = {}
        for key, value in payload.items():
            if key == "rid":
                out[key] = alias("rid", value)
            elif key == "ref" and isinstance(value, str) and (
                value.startswith("mapping-") or value.startswith("wrapper-")
            ):
                out[key] = alias("ref", value)
            else:
                out[key] = _normalised(value, aliases)
        return out
    if isinstance(payload, list):
        return [_normalised(item, aliases) for item in payload]
    return payload


def table_fingerprint(table: Table) -> str:
    """Cross-run content identity of a table.

    The digest of the encoded table with run-local ids (record ids,
    ``mapping-``/``wrapper-`` provenance refs) replaced by
    first-occurrence ordinals: equal fingerprints mean logically
    identical tables, whatever process minted them.
    """
    return content_digest(_normalised(encode_table(table), {}))
