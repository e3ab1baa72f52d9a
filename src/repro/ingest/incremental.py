"""Delta-merge and durable acquisition: where cursors meet checkpoints.

:func:`merge_delta` rebuilds a source's full current view from the
previously committed rows plus a :class:`~repro.ingest.cursor.DeltaBatch`
— the batch's ``order`` (row digests of the current view, in source
order) is the authority, so edits-behind-the-cursor are *detected* (a
digest nobody can supply) instead of silently missed.

:func:`acquire_durable` is the wrangler's acquisition hook when a
:class:`~repro.ingest.checkpoint.CheckpointStore` is attached: fetch
delta when the committed watermark allows, full otherwise, and commit
the result (payload snapshot + watermark advance) in one checkpoint.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.ingest.checkpoint import RunLog
from repro.ingest.cursor import DeltaBatch, watermark_for
from repro.model.records import Table
from repro.model.workingdata import row_digest
from repro.sources.base import DataSource, DocumentSource

__all__ = ["acquire_durable", "merge_delta"]


def merge_delta(
    previous_rows: Sequence[dict[str, Any]], batch: DeltaBatch
) -> list[dict[str, Any]] | None:
    """Reassemble the source's full current view, or ``None`` if impossible.

    Rows are pooled by content digest from the previous committed view
    and the delta; the batch's ``order`` then dictates exactly which rows
    the current view holds and in what sequence.  Deletions and
    reorderings fall out naturally; a digest neither pool can supply
    means a row changed behind the cursor, and the caller must fall back
    to a full refetch.
    """
    if batch.mode == "full":
        return [dict(row) for row in (batch.rows or ())]
    pool: dict[str, dict[str, Any]] = {}
    for row in previous_rows:
        pool[row_digest(row)] = dict(row)
    for row in batch.rows:
        pool[row_digest(row)] = dict(row)
    merged = []
    for digest in batch.order:
        row = pool.get(digest)
        if row is None:
            return None
        merged.append(dict(row))
    return merged


def _count(telemetry: Any, name: str, amount: int = 1) -> None:
    if telemetry is not None:
        telemetry.metrics.counter(name).increment(amount)


def acquire_durable(
    source: DataSource, log: RunLog, telemetry: Any = None
) -> Any:
    """Fetch one source under the run log and commit the result.

    Document sources are always full fetches.  Structured sources go
    delta when a committed watermark, its snapshot, and a declared
    cursor all line up; an unmergeable delta (edit behind the cursor,
    corrupt previous snapshot) falls back to a full refetch — counted
    on ``ingest.delta.fallbacks`` — so correctness never depends on the
    cursor discipline holding.
    """
    step = f"acquire:{source.name}"
    if isinstance(source, DocumentSource):
        documents = source.fetch()
        log.commit(
            step,
            data={"mode": "full", "rows_fetched": len(documents),
                  "fraction": 1.0},
            payload=documents,
        )
        _count(telemetry, "ingest.full_fetches")
        return documents

    watermark = (
        log.watermark(source.name)
        if source.delta_cursor() is not None
        else None
    )
    previous = (
        log.previous_rows(source.name) if watermark is not None else None
    )
    if watermark is not None and previous is not None:
        batch = source.fetch_delta(watermark)
        merged = merge_delta(previous, batch)
        if merged is None:
            _count(telemetry, "ingest.delta.fallbacks")
            batch = source.fetch_delta(None)
            table = batch.table
            info = {
                "mode": "fallback-full",
                "rows_fetched": len(batch.rows),
                "fraction": batch.fraction,
            }
        else:
            table = Table.from_rows(source.name, merged, source=source.name)
            info = {
                "mode": batch.mode,
                "rows_fetched": len(batch.rows),
                "fraction": batch.fraction,
            }
            _count(telemetry, "ingest.delta.fetches")
            _count(telemetry, "ingest.delta.rows", len(batch.rows))
    elif source.delta_cursor() is not None:
        batch = source.fetch_delta(None)
        table = batch.table
        info = {
            "mode": "full",
            "rows_fetched": len(batch.rows),
            "fraction": batch.fraction,
        }
        _count(telemetry, "ingest.full_fetches")
    else:
        table = source.fetch()
        rows = table.to_rows()
        order = tuple(row_digest(row) for row in rows)
        batch = DeltaBatch(
            source=source.name,
            mode="full",
            rows=tuple(rows),
            order=order,
            watermark=watermark_for(source.name, rows, order, None),
            fraction=1.0,
            table=table,
        )
        info = {"mode": "full", "rows_fetched": len(rows), "fraction": 1.0}
        _count(telemetry, "ingest.full_fetches")
    log.commit(step, data=info, payload=table, watermark=batch.watermark)
    return table
