"""Schemas, attributes, and data-type inference for the working data layer.

The paper's architecture requires "a uniform representation for the results
of the different components" (Section 4.2).  Tables flowing between
extraction, integration, and cleaning components all carry a
:class:`Schema`, and every cell is typed with a :class:`DataType` inferred
by :func:`infer_type` so that downstream components (matching, fusion,
quality analysis) can reason over heterogeneous sources uniformly.
"""

from __future__ import annotations

import datetime as _dt
import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError, TypeInferenceError

__all__ = [
    "DataType",
    "Attribute",
    "Schema",
    "infer_type",
    "infer_column_type",
    "coerce",
    "Coercibility",
    "static_coercibility",
]


class DataType(str, Enum):
    """The data types recognised by the wrangler's type system.

    ``CURRENCY`` and ``URL`` get first-class treatment because the paper's
    running example is e-commerce price intelligence, where prices and
    product page links dominate the payload.
    """

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"
    CURRENCY = "currency"
    URL = "url"
    GEO = "geo"

    def is_numeric(self) -> bool:
        """Return ``True`` for types on which arithmetic is meaningful."""
        return self in (DataType.INTEGER, DataType.FLOAT, DataType.CURRENCY)


_BOOL_LITERALS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "y": True,
    "n": False,
}

_INT_RE = re.compile(r"^[+-]?\d{1,15}$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_CURRENCY_RE = re.compile(
    r"^\s*(?P<sym>[$€£¥]|USD|EUR|GBP)?\s*"
    r"(?P<amount>[+-]?\d{1,3}(,\d{3})+(\.\d+)?|[+-]?\d+(\.\d+)?)\s*"
    r"(?P<kilo>[kK])?\s*"
    r"(?P<sym2>[$€£¥]|USD|EUR|GBP)?\s*$"
)
_URL_RE = re.compile(r"^https?://[^\s]+$", re.IGNORECASE)
_DATE_FORMATS = (
    "%Y-%m-%d",
    "%d/%m/%Y",
    "%m/%d/%Y",
    "%Y/%m/%d",
    "%d %b %Y",
    "%d %B %Y",
    "%b %d, %Y",
)
_GEO_RE = re.compile(
    r"^\s*[+-]?\d{1,2}(\.\d+)?\s*,\s*[+-]?\d{1,3}(\.\d+)?\s*$"
)


#: A necessary condition for any :data:`_DATE_FORMATS` entry to match:
#: every format holds ``%Y``, which ``strptime`` compiles to
#: ``(?P<Y>\d\d\d\d)``.  ``\d`` here is the same Unicode class, so the
#: gate rejects only strings no format could parse.
_YEAR_RE = re.compile(r"\d\d\d\d")


# A probe sees the same few hundred strings thousands of times, and
# strptime's own format cache holds fewer entries than _DATE_FORMATS, so
# each miss recompiles a regex.  The caches are bounded so a long-lived
# process does not grow with every distinct value it has seen.
@functools.lru_cache(maxsize=4096)
def _parse_date(text: str) -> _dt.date | None:
    if _YEAR_RE.search(text) is None:
        return None
    for fmt in _DATE_FORMATS:
        try:
            return _dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a single raw value.

    Python-native values map directly; strings are probed against literal
    grammars in decreasing order of specificity (URL, geo pair, date,
    currency, boolean, integer, float) and fall back to ``STRING``.
    """
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, (_dt.date, _dt.datetime)):
        return DataType.DATE
    if isinstance(value, tuple) and len(value) == 2 and all(
        isinstance(part, (int, float)) for part in value
    ):
        return DataType.GEO
    if not isinstance(value, str):
        return DataType.STRING
    return _infer_text_type(value.strip())


# Only the text branch is memoised: ``True == 1 == 1.0`` hash alike, so a
# cache keyed by the raw value would hand one of them the other's type.
@functools.lru_cache(maxsize=4096)
def _infer_text_type(text: str) -> DataType:
    if not text:
        return DataType.STRING
    if _URL_RE.match(text):
        return DataType.URL
    if _GEO_RE.match(text):
        return DataType.GEO
    if _parse_date(text) is not None:
        return DataType.DATE
    if text.lower() in _BOOL_LITERALS:
        return DataType.BOOLEAN
    if _INT_RE.match(text):
        return DataType.INTEGER
    if _FLOAT_RE.match(text):
        return DataType.FLOAT
    match = _CURRENCY_RE.match(text)
    if match and (match.group("sym") or match.group("sym2")):
        return DataType.CURRENCY
    return DataType.STRING


def infer_column_type(values: Iterable[Any], threshold: float = 0.8) -> DataType:
    """Infer the type of a whole column by majority vote over non-null cells.

    A specific type is adopted only if at least ``threshold`` of the
    non-null values agree on it (numeric types are pooled: a column that is
    mostly ``INTEGER`` with some ``FLOAT`` becomes ``FLOAT``).  Otherwise
    the column degrades to ``STRING`` — the safe supertype.
    """
    counts: dict[DataType, int] = {}
    total = 0
    for value in values:
        if value is None or (isinstance(value, str) and not value.strip()):
            continue
        total += 1
        dtype = infer_type(value)
        counts[dtype] = counts.get(dtype, 0) + 1
    if total == 0:
        return DataType.STRING
    best = max(counts, key=lambda d: counts[d])
    if counts[best] / total >= threshold:
        return best
    numeric = sum(counts.get(d, 0) for d in (DataType.INTEGER, DataType.FLOAT))
    if numeric / total >= threshold:
        return DataType.FLOAT
    if (numeric + counts.get(DataType.CURRENCY, 0)) / total >= threshold:
        return DataType.CURRENCY
    return DataType.STRING


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` to the Python-native form of ``dtype``.

    ``None`` passes through unchanged (missing stays missing).  Raises
    :class:`TypeInferenceError` when the value cannot represent the type —
    errors never pass silently into the wrangled data.
    """
    if value is None:
        return None
    try:
        if dtype is DataType.STRING:
            return value if isinstance(value, str) else str(value)
        if dtype is DataType.INTEGER:
            if isinstance(value, bool):
                raise ValueError("booleans are not integers")
            return int(str(value).strip())
        if dtype is DataType.FLOAT:
            return float(str(value).strip())
        if dtype is DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            literal = str(value).strip().lower()
            if literal in _BOOL_LITERALS:
                return _BOOL_LITERALS[literal]
            raise ValueError(f"not a boolean literal: {value!r}")
        if dtype is DataType.DATE:
            if isinstance(value, _dt.datetime):
                return value.date()
            if isinstance(value, _dt.date):
                return value
            parsed = _parse_date(str(value).strip())
            if parsed is None:
                raise ValueError(f"not a date: {value!r}")
            return parsed
        if dtype is DataType.CURRENCY:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
            match = _CURRENCY_RE.match(str(value))
            if not match:
                raise ValueError(f"not a currency amount: {value!r}")
            amount = float(match.group("amount").replace(",", ""))
            if match.group("kilo"):
                amount *= 1000.0
            return amount
        if dtype is DataType.URL:
            text = str(value).strip()
            if not _URL_RE.match(text):
                raise ValueError(f"not a URL: {value!r}")
            return text
        if dtype is DataType.GEO:
            if isinstance(value, tuple) and len(value) == 2:
                return (float(value[0]), float(value[1]))
            parts = str(value).split(",")
            if len(parts) != 2:
                raise ValueError(f"not a lat,lon pair: {value!r}")
            return (float(parts[0]), float(parts[1]))
    except (ValueError, TypeError) as exc:
        raise TypeInferenceError(
            f"cannot coerce {value!r} to {dtype.value}"
        ) from exc
    raise TypeInferenceError(f"unknown data type: {dtype!r}")


class Coercibility(str, Enum):
    """How a :func:`coerce` from one :class:`DataType` to another can go.

    The static counterpart of :func:`coerce`'s runtime behaviour, used by
    the schema-flow type checker: ``ALWAYS`` means every well-typed value
    of the source type coerces, ``NEVER`` means no such value can (the
    coercion is a guaranteed :class:`TypeInferenceError`), and ``MAYBE``
    means the outcome depends on the individual value — statically silent.
    """

    ALWAYS = "always"
    MAYBE = "maybe"
    NEVER = "never"


#: Cross-type coercions that succeed for every well-typed source value.
_ALWAYS_COERCIBLE = frozenset(
    {
        (DataType.INTEGER, DataType.FLOAT),
        (DataType.INTEGER, DataType.CURRENCY),
        (DataType.FLOAT, DataType.CURRENCY),
    }
)

#: Cross-type coercions whose outcome depends on the individual value
#: (e.g. a CURRENCY column may hold plain numbers alongside "$1,200").
_MAYBE_COERCIBLE = frozenset(
    {
        (DataType.CURRENCY, DataType.FLOAT),
        (DataType.CURRENCY, DataType.INTEGER),
    }
)


def static_coercibility(src: DataType, dst: DataType) -> Coercibility:
    """Whether values of type ``src`` can :func:`coerce` to ``dst``.

    Identity and coercion *to* STRING always succeed (``str()`` accepts
    anything); coercion *from* STRING is value-dependent; the numeric
    widenings INTEGER→FLOAT/CURRENCY and FLOAT→CURRENCY always succeed.
    Everything else is a guaranteed failure — ``coerce`` raises on e.g.
    BOOLEAN→INTEGER and FLOAT→INTEGER by design, so the type checker can
    report those pairings before a single value flows.
    """
    if src is dst:
        return Coercibility.ALWAYS
    if dst is DataType.STRING:
        return Coercibility.ALWAYS
    if src is DataType.STRING:
        return Coercibility.MAYBE
    if (src, dst) in _ALWAYS_COERCIBLE:
        return Coercibility.ALWAYS
    if (src, dst) in _MAYBE_COERCIBLE:
        return Coercibility.MAYBE
    return Coercibility.NEVER


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a :class:`Schema`.

    ``required`` marks attributes whose absence counts against the
    completeness quality dimension; ``description`` feeds ontology-assisted
    matching with human-readable hints.
    """

    name: str
    dtype: DataType = DataType.STRING
    required: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")

    def renamed(self, name: str) -> "Attribute":
        """Return a copy of this attribute under a new name."""
        return Attribute(name, self.dtype, self.required, self.description)


@dataclass(frozen=True)
class Schema:
    """An ordered collection of uniquely named :class:`Attribute` objects."""

    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [attr.name for attr in self.attributes]
        if len(names) != len(set(names)):
            duplicates = sorted(
                {name for name in names if names.count(name) > 1}
            )
            raise SchemaError(f"duplicate attribute names: {duplicates}")

    @classmethod
    def of(cls, *specs: "Attribute | str | tuple[str, DataType]") -> "Schema":
        """Build a schema from a mix of attribute specs.

        Accepts :class:`Attribute` instances, bare names (typed ``STRING``),
        or ``(name, dtype)`` pairs.
        """
        attrs: list[Attribute] = []
        for spec in specs:
            if isinstance(spec, Attribute):
                attrs.append(spec)
            elif isinstance(spec, str):
                attrs.append(Attribute(spec))
            else:
                name, dtype = spec
                attrs.append(Attribute(name, dtype))
        return cls(tuple(attrs))

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]]) -> "Schema":
        """Infer a schema from raw dict rows using column-level type voting."""
        if not rows:
            return cls(())
        names: list[str] = []
        for row in rows:
            for name in row:
                if name not in names:
                    names.append(name)
        attrs = tuple(
            Attribute(name, infer_column_type(row.get(name) for row in rows))
            for name in names
        )
        return cls(attrs)

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names, in declaration order."""
        return tuple(attr.name for attr in self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, name: object) -> bool:
        return any(attr.name == name for attr in self.attributes)

    def __getitem__(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"no attribute named {name!r}")

    def get(self, name: str) -> Attribute | None:
        """Return the attribute named ``name``, or ``None``."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a schema restricted to ``names``, in the given order."""
        return Schema(tuple(self[name] for name in names))

    def extend(self, *attrs: Attribute) -> "Schema":
        """Return a schema with ``attrs`` appended."""
        return Schema(self.attributes + tuple(attrs))

    def rename(self, renames: Mapping[str, str]) -> "Schema":
        """Return a schema with attributes renamed per ``renames``."""
        return Schema(
            tuple(
                attr.renamed(renames.get(attr.name, attr.name))
                for attr in self.attributes
            )
        )

    def merge(self, other: "Schema") -> "Schema":
        """Union of two schemas; shared names must agree on dtype."""
        attrs = list(self.attributes)
        for attr in other.attributes:
            existing = self.get(attr.name)
            if existing is None:
                attrs.append(attr)
            elif existing.dtype is not attr.dtype:
                raise SchemaError(
                    f"attribute {attr.name!r} has conflicting types: "
                    f"{existing.dtype.value} vs {attr.dtype.value}"
                )
        return Schema(tuple(attrs))
