"""The durable run journal: commit, crash anywhere, resume.

One ``journal.json`` per store holds everything that must survive a
process death: how many runs completed, each source's committed
:class:`~repro.ingest.cursor.Watermark` (with the snapshot id of the
view it describes), and the current run's committed steps.  Every commit
rewrites the journal atomically (payload snapshots first, then one
``os.replace``), so at any instant the file on disk describes a
consistent prefix of the run — the recovery invariant the
kill-at-every-checkpoint matrix in ``tests/ingest/test_crash_recovery.py``
proves.

A journal whose checksum does not match its body is *quarantined*, never
trusted: the store restarts from the watermark-free state rather than
resume from corrupt history.

:class:`CrashPlan` is the chaos hook: it names commit steps at which an
:class:`~repro.errors.InjectedCrashError` fires either *before* the
journal write (progress lost, work must redo) or *after* it (progress
durable, resume must not redo) — the two sides of every crash window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import CheckpointError, InjectedCrashError
from repro.ingest.cursor import Watermark
from repro.ingest.snapshots import SnapshotStore, decode_payload, encode_payload
from repro.io import atomic_write_bytes
from repro.model.workingdata import canonical_bytes, content_digest

__all__ = ["CheckpointStore", "CrashPlan", "JOURNAL_VERSION", "RunLog"]

#: Version stamp of the journal layout; bump on any change so old stores
#: are detected, not misread.
JOURNAL_VERSION = 1

_JOURNAL_SCHEMA = "repro.ingest/journal"


@dataclass(frozen=True)
class CrashPlan:
    """Scripted process deaths at named checkpoint steps.

    ``before`` steps die with the commit's journal write still pending
    (the step's work is lost); ``after`` steps die with the write already
    durable (the step must not be redone on resume).  Each step fires at
    most once per plan instance, so a resumed run sails past the point
    that killed its predecessor.
    """

    before: frozenset = frozenset()
    after: frozenset = frozenset()
    _fired: set = field(default_factory=set, compare=False)

    @classmethod
    def at(cls, *steps: str, when: str = "after") -> "CrashPlan":
        """A plan that dies at the named steps (``when``: before/after)."""
        if when not in ("before", "after"):
            raise CheckpointError(f"unknown crash phase {when!r}")
        chosen = frozenset(steps)
        if when == "before":
            return cls(before=chosen)
        return cls(after=chosen)

    def check(self, phase: str, step: str) -> None:
        """Die if this (phase, step) is scripted and has not fired yet."""
        scripted = self.before if phase == "before" else self.after
        key = f"{phase}:{step}"
        if step in scripted and key not in self._fired:
            self._fired.add(key)
            raise InjectedCrashError(
                f"injected crash {phase} checkpoint {step!r}"
            )


def _fresh_body() -> dict[str, Any]:
    return {"runs_completed": 0, "watermarks": {}, "current": None}


class CheckpointStore:
    """Durable per-run progress plus committed per-source watermarks.

    Layout under ``root``: ``journal.json`` (the single mutable file),
    ``objects/`` (content-addressed snapshots), ``quarantine/`` (corrupt
    files moved aside).
    """

    def __init__(
        self,
        root: str | Path,
        telemetry: Any = None,
        crash_plan: CrashPlan | None = None,
    ) -> None:
        self.root = Path(root)
        self.telemetry = telemetry
        self.crash_plan = crash_plan
        self.snapshots = SnapshotStore(self.root)

    # -- journal I/O ------------------------------------------------------

    @property
    def _journal_path(self) -> Path:
        return self.root / "journal.json"

    def _count(self, name: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).increment(amount)

    def _crash(self, phase: str, step: str) -> None:
        if self.crash_plan is not None:
            self.crash_plan.check(phase, step)

    def load_state(self) -> dict[str, Any]:
        """The journal body, or a fresh one (corrupt journals quarantined)."""
        path = self._journal_path
        if not path.exists():
            return _fresh_body()
        data = path.read_bytes()
        try:
            envelope = json.loads(data)
            body = envelope["body"]
            ok = (
                envelope.get("schema") == _JOURNAL_SCHEMA
                and envelope.get("version") == JOURNAL_VERSION
                and envelope.get("checksum") == content_digest(body)
            )
        except (ValueError, KeyError, TypeError):
            ok = False
            body = None
        if not ok:
            quarantined = self.snapshots.quarantine(path)
            self._count("ingest.checkpoint.quarantined")
            raise CheckpointError(
                f"journal failed its integrity check; quarantined at "
                f"{quarantined} — restart ingestion from scratch or "
                f"restore the journal from backup"
            )
        return body

    def _store_state(self, body: Mapping[str, Any], step: str) -> None:
        self._crash("before", step)
        envelope = {
            "schema": _JOURNAL_SCHEMA,
            "version": JOURNAL_VERSION,
            "body": body,
            "checksum": content_digest(body),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(self._journal_path, canonical_bytes(envelope))
        self._count("ingest.commits")
        self._crash("after", step)

    # -- run lifecycle ----------------------------------------------------

    def begin_run(self, signature: str) -> "RunLog":
        """Open (or resume) a run under this store.

        An incomplete current run with a matching plan signature is
        resumed — its committed steps become the :meth:`RunLog.restored`
        set; anything else (no current run, completed, or the plan
        changed) starts fresh.
        """
        body = self.load_state()
        current = body.get("current")
        if (
            current is not None
            and not current.get("complete")
            and current.get("signature") == signature
        ):
            current["resumed"] = int(current.get("resumed", 0)) + 1
            log = RunLog(self, body, resumed=True)
            self._store_state(body, "resume")
            self._count("ingest.resumes")
            return log
        if (
            current is not None
            and not current.get("complete")
            and current.get("signature") != signature
        ):
            self._count("ingest.resume.signature_mismatch")
        run_id = f"run-{int(body.get('runs_completed', 0)) + 1:03d}"
        body["current"] = {
            "run_id": run_id,
            "signature": signature,
            "complete": False,
            "resumed": 0,
            "steps": [],
            "output_snapshot": None,
        }
        log = RunLog(self, body, resumed=False)
        self._store_state(body, "begin")
        return log

    def replay(self, snapshot_id: str) -> Any:
        """Decode any committed snapshot back into its live payload."""
        return decode_payload(self.snapshots.get(snapshot_id))

    def watermarks(self) -> dict[str, Watermark]:
        """Every committed per-source watermark."""
        body = self.load_state()
        return {
            name: Watermark.from_dict(entry["watermark"])
            for name, entry in body.get("watermarks", {}).items()
        }

    def quarantined(self) -> list[Path]:
        """Files the store refused to trust."""
        return self.snapshots.quarantined()


class RunLog:
    """One run's committed progress, bound to its store.

    Commit points are named steps (``probe:<src>``, ``acquire:<src>``,
    ``node:<name>``, ``complete``); :meth:`commit` snapshots the step's
    payload, records its metadata, and rewrites the journal atomically.
    On resume, :meth:`restored` hands back the committed payload so the
    step is *skipped*, not redone — that is what keeps the access ledger
    free of double charges.
    """

    def __init__(
        self, store: CheckpointStore, body: dict[str, Any], resumed: bool
    ) -> None:
        self._store = store
        self._body = body
        self._current = body["current"]
        self.resumed = resumed
        self.resumed_from = (
            self._current["steps"][-1]["step"]
            if resumed and self._current["steps"]
            else None
        )
        self._committed: dict[str, dict[str, Any]] = {
            entry["step"]: entry for entry in self._current["steps"]
        }
        self._restored_steps: list[str] = sorted(self._committed)
        # Snapshot ids of the payloads this run committed, by object
        # identity (the payload is held so its id cannot be reused).
        self._snapshot_ids: dict[int, tuple[Any, str]] = {}

    @property
    def run_id(self) -> str:
        """The deterministic run id (``run-<n>``)."""
        return self._current["run_id"]

    # -- reading committed state -----------------------------------------

    def restored(self, step: str) -> Any:
        """The payload a prior attempt committed for ``step``, or ``None``.

        A committed step whose snapshot fails verification is treated as
        not restored (the object is quarantined; the step reruns).
        """
        entry = self._committed.get(step)
        if entry is None or entry.get("snapshot") is None:
            return None
        try:
            payload = self._store.replay(entry["snapshot"])
        except CheckpointError:
            self._store._count("ingest.restore.corrupt")
            return None
        self._store._count("ingest.restores")
        return payload

    def restored_data(self, step: str) -> dict[str, Any] | None:
        """The metadata a prior attempt committed for ``step``."""
        entry = self._committed.get(step)
        return None if entry is None else dict(entry.get("data") or {})

    def has(self, step: str) -> bool:
        """Whether ``step`` was committed (payload or not)."""
        return step in self._committed

    def watermark(self, source: str) -> Watermark | None:
        """The committed watermark for ``source``, if any."""
        entry = self._body.get("watermarks", {}).get(source)
        return None if entry is None else Watermark.from_dict(entry["watermark"])

    def previous_rows(self, source: str) -> list[dict[str, Any]] | None:
        """The raw rows of the committed view behind the watermark.

        ``None`` when there is no committed view or its snapshot fails
        verification (in which case delta fetching falls back to full).
        """
        entry = self._body.get("watermarks", {}).get(source)
        if entry is None or entry.get("snapshot") is None:
            return None
        try:
            table = self._store.replay(entry["snapshot"])
        except CheckpointError:
            self._store._count("ingest.restore.corrupt")
            return None
        return table.to_rows()

    # -- writing ----------------------------------------------------------

    def _snapshot(self, payload: Any) -> str:
        """Store ``payload`` once per run; returns its snapshot id.

        The run's final output is a table a stage node already committed
        (``node:repair`` or ``node:fuse``), so it is encoded, serialised
        and hashed once.  A committed payload is never mutated: the
        snapshot must keep describing the value handed on.
        """
        known = self._snapshot_ids.get(id(payload))
        if known is not None:
            return known[1]
        snapshot_id = self._store.snapshots.put(encode_payload(payload))
        self._snapshot_ids[id(payload)] = (payload, snapshot_id)
        return snapshot_id

    def commit(
        self,
        step: str,
        data: Mapping[str, Any] | None = None,
        payload: Any = None,
        watermark: Watermark | None = None,
    ) -> str | None:
        """Durably commit one step; returns the payload's snapshot id.

        The snapshot object lands first, then one atomic journal rewrite
        makes the step (and any watermark advance) visible — a crash
        between the two leaves an unreferenced object, never a dangling
        reference.
        """
        snapshot_id = None if payload is None else self._snapshot(payload)
        entry = {
            "step": step,
            "snapshot": snapshot_id,
            "data": dict(data) if data else {},
        }
        if step in self._committed:
            self._current["steps"] = [
                e if e["step"] != step else entry
                for e in self._current["steps"]
            ]
        else:
            self._current["steps"].append(entry)
        self._committed[step] = entry
        if watermark is not None:
            self._body.setdefault("watermarks", {})[watermark.source] = {
                "watermark": watermark.to_dict(),
                "snapshot": snapshot_id,
            }
        if self._store.telemetry is not None:
            with self._store.telemetry.tracer.span(
                "ingest.checkpoint", step=step
            ):
                self._store._store_state(self._body, step)
        else:
            self._store._store_state(self._body, step)
        return snapshot_id

    def complete(self, payload: Any = None) -> str | None:
        """Mark the run complete (one atomic write with the final step).

        A payload this run already committed reuses that snapshot.
        """
        snapshot_id = None if payload is None else self._snapshot(payload)
        entry = {"step": "complete", "snapshot": snapshot_id, "data": {}}
        if "complete" not in self._committed:
            self._current["steps"].append(entry)
            self._committed["complete"] = entry
        self._current["complete"] = True
        self._current["output_snapshot"] = snapshot_id
        self._body["runs_completed"] = int(self._body["runs_completed"]) + 1
        self._store._store_state(self._body, "complete")
        self._store._count("ingest.runs_completed")
        return snapshot_id

    def export(self) -> dict[str, Any]:
        """The run's ingest summary, surfaced on ``WrangleResult``."""
        acquisitions = {
            entry["step"].split(":", 1)[1]: dict(entry["data"])
            for entry in self._current["steps"]
            if entry["step"].startswith("acquire:")
        }
        return {
            "run_id": self.run_id,
            "resumed": self.resumed,
            "resumed_from": self.resumed_from,
            "restored_steps": list(self._restored_steps),
            "steps": [entry["step"] for entry in self._current["steps"]],
            "acquisitions": acquisitions,
            "watermarks": {
                name: dict(entry["watermark"])
                for name, entry in self._body.get("watermarks", {}).items()
            },
            "output_snapshot": self._current["output_snapshot"],
            "root": str(self._store.root),
        }
