"""Cursors, watermarks, and the delta-fetch protocol on real sources.

The contract under test: ``fetch_delta(watermark)`` charges the access
ledger for the rows it actually moves (floored at
:data:`~repro.ingest.cursor.DELTA_COST_FLOOR`), ``merge_delta``
reconstructs the full current view byte-for-byte or refuses (returns
``None``) when an edit slipped behind the cursor, and memoised size
hints go stale the moment the backing content changes.
"""

import pytest

from repro.errors import InjectedCrashError
from repro.ingest.cursor import (
    DELTA_COST_FLOOR,
    cursor_after,
    watermark_for,
)
from repro.ingest.incremental import merge_delta
from repro.model.workingdata import row_digest
from repro.resilience.chaos import ChaosSource, FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.resilience.wrap import ResilientStructuredSource
from repro.sources.files import CSVSource, file_token
from repro.sources.memory import MemorySource

BASE_ROWS = [
    {"product": "laptop", "price": 999.0, "seq": 1},
    {"product": "phone", "price": 499.0, "seq": 2},
    {"product": "tablet", "price": 349.0, "seq": 3},
]


def make_source(rows=BASE_ROWS, cursor="seq", cost=1.0):
    return MemorySource("feed", rows, cost_per_access=cost, cursor=cursor)


def digests(rows):
    return [row_digest(row) for row in rows]


class TestCursorPrimitives:
    def test_no_boundary_admits_everything(self):
        assert cursor_after(0, None)
        assert cursor_after(None, 5) is False

    def test_mixed_types_fall_back_to_string_order(self):
        assert cursor_after("b", "a")
        assert cursor_after(2, "11")  # "2" > "11" lexicographically

    def test_watermark_never_regresses(self):
        rows = [{"seq": 5}, {"seq": 3}]
        first = watermark_for("feed", [{"seq": 9}], digests([{"seq": 9}]), "seq")
        second = watermark_for(
            "feed", rows, digests(rows), "seq", previous=first
        )
        assert second.cursor == 9  # the old high-water mark holds
        assert second.rows == 2

    def test_watermark_fingerprint_tracks_content(self):
        same = watermark_for("feed", BASE_ROWS, digests(BASE_ROWS), "seq")
        again = watermark_for(
            "feed", [dict(r) for r in BASE_ROWS], digests(BASE_ROWS), "seq"
        )
        grown = BASE_ROWS + [{"product": "watch", "seq": 4}]
        changed = watermark_for("feed", grown, digests(grown), "seq")
        assert same.fingerprint == again.fingerprint
        assert same.fingerprint != changed.fingerprint

    def test_watermark_dict_round_trip(self):
        mark = watermark_for("feed", BASE_ROWS, digests(BASE_ROWS), "seq")
        from repro.ingest.cursor import Watermark

        assert Watermark.from_dict(mark.to_dict()) == mark


class TestFetchDelta:
    def test_first_fetch_is_full_and_charges_full_price(self):
        source = make_source()
        batch = source.fetch_delta(None)
        assert batch.mode == "full"
        assert batch.fraction == 1.0
        assert batch.table is not None and len(batch.table) == 3
        assert source.accesses == pytest.approx(1.0)
        assert batch.watermark.cursor == 3

    def test_appended_rows_come_back_as_a_delta(self):
        source = make_source()
        mark = source.fetch_delta(None).watermark
        source.replace_rows(
            BASE_ROWS + [{"product": "watch", "price": 199.0, "seq": 4}]
        )
        batch = source.fetch_delta(mark)
        assert batch.mode == "delta"
        assert [r["seq"] for r in batch.rows] == [4]
        assert batch.fraction == pytest.approx(1 / 4)
        assert source.accesses == pytest.approx(1.0 + 1 / 4)
        assert batch.watermark.cursor == 4

    def test_unchanged_source_costs_only_the_floor(self):
        source = make_source()
        mark = source.fetch_delta(None).watermark
        batch = source.fetch_delta(mark)
        assert batch.mode == "unchanged"
        assert batch.rows == ()
        assert batch.fraction == DELTA_COST_FLOOR
        assert source.total_cost == pytest.approx(1.0 + DELTA_COST_FLOOR)

    def test_cursorless_source_always_fetches_full(self):
        source = make_source(cursor=None)
        assert not source.supports_delta()
        batch = source.fetch_delta(None)
        assert batch.mode == "full" and batch.fraction == 1.0


class TestMergeDelta:
    def test_append_reconstructs_the_full_view(self):
        source = make_source()
        first = source.fetch_delta(None)
        previous = [dict(r) for r in BASE_ROWS]
        source.replace_rows(
            BASE_ROWS + [{"product": "watch", "price": 199.0, "seq": 4}]
        )
        batch = source.fetch_delta(first.watermark)
        merged = merge_delta(previous, batch)
        assert merged is not None
        assert [row_digest(r) for r in merged] == list(batch.order)

    def test_edit_behind_cursor_is_refused(self):
        source = make_source()
        first = source.fetch_delta(None)
        previous = [dict(r) for r in BASE_ROWS]
        # Mutate a row *behind* the committed cursor: its digest is new,
        # but its seq does not pass the watermark, so the delta misses it.
        sneaky = [dict(BASE_ROWS[0], price=1.0)] + [
            dict(r) for r in BASE_ROWS[1:]
        ]
        source.replace_rows(sneaky)
        batch = source.fetch_delta(first.watermark)
        assert merge_delta(previous, batch) is None  # caller must refetch

    def test_deletion_behind_cursor_is_visible_in_order(self):
        source = make_source()
        first = source.fetch_delta(None)
        previous = [dict(r) for r in BASE_ROWS]
        source.replace_rows(BASE_ROWS[1:])  # first row deleted upstream
        batch = source.fetch_delta(first.watermark)
        merged = merge_delta(previous, batch)
        assert merged is not None and len(merged) == 2


class TestSizeHintInvalidation:
    def test_csv_size_hint_goes_stale_with_the_file(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("product,price\nlaptop,999\nphone,499\n")
        source = CSVSource("feed", path)
        assert source.size_hint() == 2
        charged = source.accesses
        import os

        path.write_text("product,price\nlaptop,999\nphone,499\ntablet,349\n")
        os.utime(path, ns=(1, 1))  # force a distinct stat token
        assert source.size_hint() == 3  # stale memo dropped, not served
        assert source.accesses == charged  # hints never touch the ledger

    def test_file_token_changes_with_content(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("a,b\n1,2\n")
        before = file_token(path)
        path.write_text("a,b\n1,2\n3,4\n")
        assert file_token(path) != before
        assert file_token(tmp_path / "missing.csv") is None

    def test_memory_size_hint_tracks_generations(self):
        source = make_source()
        assert source.size_hint() == 3
        source.replace_rows(BASE_ROWS + [{"product": "watch", "seq": 4}])
        assert source.size_hint() == 4


class TestWrapperPassthrough:
    def test_resilient_wrapper_forwards_the_delta_protocol(self):
        inner = make_source()
        wrapped = ResilientStructuredSource(inner, RetryPolicy())
        assert wrapped.supports_delta()
        assert wrapped.delta_cursor() == "seq"
        batch = wrapped.fetch_delta(None)
        assert batch.mode == "full"
        mark = batch.watermark
        assert wrapped.fetch_delta(mark).mode == "unchanged"

    def test_chaos_wrapper_forwards_the_cursor(self):
        inner = make_source()
        chaotic = ChaosSource(inner, FaultPlan())
        assert chaotic.supports_delta()
        assert chaotic.delta_cursor() == "seq"

    def test_die_at_step_kills_the_scripted_load(self):
        inner = make_source()
        chaotic = ChaosSource(inner, FaultPlan(die_at_step=2))
        chaotic.fetch()  # load #1 survives
        with pytest.raises(InjectedCrashError):
            chaotic.fetch()  # load #2 is the scripted death
        chaotic.fetch()  # the "restarted process" sails through
