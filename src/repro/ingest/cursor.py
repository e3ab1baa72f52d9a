"""Per-source cursor/watermark state for incremental acquisition.

The velocity story (E14, ROADMAP item 3): a source that has declared a
monotone *cursor attribute* (an always-increasing column — sequence
number, updated-at timestamp) can be re-read by asking only for rows
whose cursor lies past the last committed :class:`Watermark`.  The
watermark also carries a content fingerprint of the full committed view,
so an unchanged source is recognised for a floor-priced probe and an
out-of-order mutation (a row edited *behind* the cursor) is detected and
degraded to a full refetch rather than silently missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.model.workingdata import content_digest, tag_raw, untag_raw

__all__ = [
    "DELTA_COST_FLOOR",
    "DeltaBatch",
    "Watermark",
    "cursor_after",
    "watermark_for",
]

#: The cheapest a delta fetch can be, as a fraction of ``cost_per_access``.
#: Even an "unchanged" answer had to read the source's current cursor
#: frontier, so it is priced like a probe-sized touch, not free.
DELTA_COST_FLOOR = 0.05


@dataclass(frozen=True)
class Watermark:
    """The committed high-water mark of one source.

    ``cursor`` is the greatest cursor-attribute value the last committed
    fetch observed (``None`` when the source declares no cursor);
    ``fingerprint`` is the content digest of the row-digest sequence of
    the full committed view, in source order; ``rows`` is its length.
    """

    source: str
    cursor: Any
    fingerprint: str
    rows: int

    def to_dict(self) -> dict[str, Any]:
        """Journal-ready JSON form (cursor payload type-tagged)."""
        return {
            "source": self.source,
            "cursor": tag_raw(self.cursor),
            "fingerprint": self.fingerprint,
            "rows": self.rows,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Watermark":
        """Invert :meth:`to_dict`."""
        return cls(
            source=payload["source"],
            cursor=untag_raw(payload["cursor"]),
            fingerprint=payload["fingerprint"],
            rows=payload["rows"],
        )


@dataclass(frozen=True)
class DeltaBatch:
    """What one incremental fetch actually returned.

    ``mode`` is ``"full"`` (no usable watermark — ``table`` holds the
    complete fetch), ``"delta"`` (``rows`` are the raw rows past the
    watermark cursor), or ``"unchanged"`` (fingerprint matched; ``rows``
    empty).  ``order`` always lists the row digests of the source's full
    current view in source order, so a merge can reconstruct the exact
    view from previous-snapshot rows plus the delta rows.  ``fraction``
    is what the fetch charged against ``cost_per_access``.
    """

    source: str
    mode: str
    rows: tuple[dict[str, Any], ...]
    order: tuple[str, ...]
    watermark: Watermark
    fraction: float
    table: Any = None


def cursor_after(value: Any, boundary: Any) -> bool:
    """Whether a row's cursor value lies strictly past the boundary.

    ``None`` boundaries admit everything; ``None`` values never pass.
    Mixed-type cursors (a source that switched from ints to strings)
    fall back to string ordering rather than raising mid-fetch.
    """
    if boundary is None:
        return True
    if value is None:
        return False
    try:
        return bool(value > boundary)
    except TypeError:
        return str(value) > str(boundary)


def watermark_for(
    source: str,
    rows: Sequence[Mapping[str, Any]],
    order: Sequence[str],
    cursor_attribute: str | None,
    previous: Watermark | None = None,
) -> Watermark:
    """The watermark a committed view of ``rows`` establishes.

    ``order`` is the :func:`~repro.model.workingdata.row_digest` of each
    row, in source order — the :attr:`DeltaBatch.order` the fetch
    already computed, so no row is digested twice.  The cursor never
    regresses: it starts from ``previous`` (if any) and advances over
    every row's cursor value under :func:`cursor_after` ordering.  The
    fingerprint digests the row-digest sequence, so it is sensitive to
    edits, deletions, and reordering — not just appends.
    """
    cursor = previous.cursor if previous is not None else None
    if cursor_attribute is not None:
        for row in rows:
            candidate = row.get(cursor_attribute)
            if candidate is not None and cursor_after(candidate, cursor):
                cursor = candidate
    return Watermark(
        source=source,
        cursor=cursor,
        fingerprint=content_digest(list(order)),
        rows=len(rows),
    )
