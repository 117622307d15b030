"""The campaign service's run queue + results database (sqlite, WAL).

One :class:`ResultsStore` file holds everything the long-running
campaign service needs to survive crashes and answer questions over
time:

* ``runs`` — each submitted campaign (a registry ``grid()`` selection
  serialized as cells) with its execution options;
* ``shards`` — the leasable unit of work: a chunk of matrix cells.
  A shard is ``pending`` → ``leased`` (with an expiry the worker
  heartbeats forward) → ``done``; an expired lease throws the shard
  back to ``pending``, so a SIGKILLed worker loses time, not work;
* ``leases`` — the full lease history (acquire / heartbeat / expire /
  complete / duplicate), for forensics and the status CLI;
* ``cell_verdicts`` — one row per matrix cell executed: runs, steps,
  violation-class fingerprints, the differential verdict, and a
  *cell fingerprint* stable across runs so verdict drift between
  submissions of the same cell is a single indexed query;
* ``violations`` — violation classes found, their replayable payloads,
  and the corpus entry each one was shrunk into;
* ``replay_verdicts`` — corpus replay outcomes (``campaign --replay``
  ingests here), the per-entry trend line across PRs.

Design constraints, in order: every mutation is idempotent (workers
retry, leases get double-delivered, completions race — the first write
wins and the rest are no-ops); the schema sticks to the portable core
(TEXT / INTEGER / REAL, explicit timestamps as unix seconds, no sqlite
autoincrement or partial indexes) so a postgres port is a connection
string away; and reads never block writes (WAL mode, one short
``BEGIN IMMEDIATE`` transaction per mutation).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import ConfigurationError

#: On-disk schema version; the store refuses files written by another
#: version loudly instead of misreading them.
SCHEMA_VERSION = 1

#: Violation lifecycle states (see ``claim_violation`` and
#: ``take_shrink_slot``): found -> shrinking -> shrunk | failed, with
#: ``deferred`` for classes claimed after the per-run shrink cap.
VIOLATION_STATES = ("found", "deferred", "shrinking", "shrunk", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    created_at REAL NOT NULL,
    completed_at REAL,
    status TEXT NOT NULL,
    cells INTEGER NOT NULL,
    shard_size INTEGER NOT NULL,
    selection TEXT NOT NULL,
    options TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS shards (
    run_id TEXT NOT NULL,
    shard_index INTEGER NOT NULL,
    cells TEXT NOT NULL,
    status TEXT NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0,
    lease_id TEXT,
    lease_worker TEXT,
    lease_expires REAL,
    runs INTEGER,
    steps INTEGER,
    elapsed REAL,
    completed_at REAL,
    completed_by TEXT,
    PRIMARY KEY (run_id, shard_index)
);
CREATE INDEX IF NOT EXISTS idx_shards_status ON shards (status, run_id);
CREATE TABLE IF NOT EXISTS leases (
    lease_id TEXT PRIMARY KEY,
    run_id TEXT NOT NULL,
    shard_index INTEGER NOT NULL,
    worker TEXT NOT NULL,
    acquired_at REAL NOT NULL,
    expires_at REAL NOT NULL,
    heartbeats INTEGER NOT NULL DEFAULT 0,
    outcome TEXT NOT NULL DEFAULT 'open'
);
CREATE TABLE IF NOT EXISTS cell_verdicts (
    run_id TEXT NOT NULL,
    cell_index INTEGER NOT NULL,
    label TEXT NOT NULL,
    cell_fingerprint TEXT NOT NULL,
    expected TEXT NOT NULL,
    ok INTEGER NOT NULL,
    violations INTEGER NOT NULL,
    fingerprints TEXT NOT NULL,
    runs INTEGER NOT NULL,
    steps INTEGER NOT NULL,
    incomplete INTEGER NOT NULL,
    elapsed REAL NOT NULL,
    note TEXT NOT NULL,
    worker TEXT NOT NULL,
    recorded_at REAL NOT NULL,
    PRIMARY KEY (run_id, cell_index)
);
CREATE INDEX IF NOT EXISTS idx_verdicts_fingerprint
    ON cell_verdicts (cell_fingerprint, recorded_at);
CREATE TABLE IF NOT EXISTS violations (
    run_id TEXT NOT NULL,
    scenario_label TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    reason TEXT NOT NULL,
    payload TEXT NOT NULL,
    state TEXT NOT NULL,
    corpus_entry TEXT,
    corpus_path TEXT,
    detail TEXT NOT NULL DEFAULT '',
    found_at REAL NOT NULL,
    PRIMARY KEY (run_id, scenario_label, fingerprint)
);
CREATE TABLE IF NOT EXISTS replay_verdicts (
    recorded_at REAL NOT NULL,
    source TEXT NOT NULL,
    entry_id TEXT NOT NULL,
    entry_label TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    ok INTEGER NOT NULL,
    detail TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_replay_entry
    ON replay_verdicts (entry_id, recorded_at);
"""


def default_db_path() -> Path:
    """The repository's local (gitignored) service database.

    Lives under ``benchmarks/_results`` so verdict history accumulates across local runs and PR checkouts of
    the same working tree; installed packages fall back to the current
    directory, where callers should pass an explicit path.
    """
    for parent in Path(__file__).resolve().parents:
        if (parent / "setup.py").exists() or (parent / ".git").exists():
            return parent / "benchmarks" / "_results" / "service.db"
    return Path("service.db")


def _new_id(prefix: str) -> str:
    """A fresh opaque identifier (collision-safe, not deterministic)."""
    return f"{prefix}{os.urandom(6).hex()}"


class ResultsStore:
    """One sqlite-backed queue + results database.

    Open one instance per process (sqlite connections don't cross
    ``fork``); every public mutation is a single short transaction and
    is safe to retry. ``now`` parameters exist so tests can drive the
    lease clock without sleeping; production callers omit them.
    """

    def __init__(self, path: Union[str, Path], timeout: float = 30.0):
        self.path = str(path)
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, isolation_level=None
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
        # executescript issues its own implicit COMMIT, so the schema
        # bootstrap runs outside the explicit-transaction helper.
        self._conn.executescript(_SCHEMA)
        with self._tx() as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            elif int(row["value"]) != SCHEMA_VERSION:
                raise ConfigurationError(
                    f"service database {self.path} has schema version "
                    f"{row['value']}, this store understands "
                    f"{SCHEMA_VERSION}"
                )

    # -- connection plumbing ------------------------------------------
    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        """One mutation transaction: BEGIN IMMEDIATE .. COMMIT/ROLLBACK."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        else:
            self._conn.execute("COMMIT")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- runs and shards ----------------------------------------------
    def create_run(
        self,
        cells: Sequence[Dict[str, Any]],
        shard_size: int = 1,
        selection: Optional[Dict[str, Any]] = None,
        options: Optional[Dict[str, Any]] = None,
        run_id: Optional[str] = None,
        now: Optional[float] = None,
    ) -> str:
        """Enqueue a run: ``cells`` chunked into leasable shards.

        ``cells`` are JSON documents (see ``repro.service.cells``); the
        global matrix position of each cell is recorded alongside it, so
        verdicts keep the submission order however shards interleave.
        Re-creating an existing run id is a no-op (idempotent submit).
        """
        if not cells:
            raise ConfigurationError("a run needs at least one cell")
        if shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")
        now = time.time() if now is None else now
        run_id = run_id or _new_id("r")
        with self._tx() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO runs (run_id, created_at, status, "
                "cells, shard_size, selection, options) "
                "VALUES (?, ?, 'open', ?, ?, ?, ?)",
                (
                    run_id,
                    now,
                    len(cells),
                    shard_size,
                    json.dumps(selection or {}, sort_keys=True),
                    json.dumps(options or {}, sort_keys=True),
                ),
            )
            if cursor.rowcount == 0:
                return run_id  # already submitted
            for shard_index in range(0, len(cells), shard_size):
                chunk = [
                    {"cell_index": index, "cell": cells[index]}
                    for index in range(
                        shard_index, min(shard_index + shard_size, len(cells))
                    )
                ]
                conn.execute(
                    "INSERT OR IGNORE INTO shards (run_id, shard_index, "
                    "cells, status) VALUES (?, ?, ?, 'pending')",
                    (run_id, shard_index // shard_size, json.dumps(chunk)),
                )
        return run_id

    def lease_shard(
        self,
        worker: str,
        ttl: float,
        run_id: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Optional[Dict[str, Any]]:
        """Atomically claim the oldest leasable shard, or ``None``.

        Expired leases are requeued first — inside the same transaction,
        so a shard abandoned by a crashed worker becomes claimable the
        moment its expiry passes, and exactly one caller claims it.
        """
        now = time.time() if now is None else now
        lease_id = _new_id("l")
        run_filter = "" if run_id is None else " AND s.run_id = ?"
        run_args: tuple = () if run_id is None else (run_id,)
        with self._tx() as conn:
            for row in conn.execute(
                "SELECT s.run_id, s.shard_index, s.lease_id FROM shards s "
                "WHERE s.status = 'leased' AND s.lease_expires < ?"
                + run_filter,
                (now,) + run_args,
            ).fetchall():
                conn.execute(
                    "UPDATE shards SET status = 'pending', lease_id = NULL, "
                    "lease_worker = NULL, lease_expires = NULL "
                    "WHERE run_id = ? AND shard_index = ? "
                    "AND status = 'leased' AND lease_id = ?",
                    (row["run_id"], row["shard_index"], row["lease_id"]),
                )
                conn.execute(
                    "UPDATE leases SET outcome = 'expired' "
                    "WHERE lease_id = ? AND outcome = 'open'",
                    (row["lease_id"],),
                )
            row = conn.execute(
                "SELECT s.run_id, s.shard_index, s.cells, r.options "
                "FROM shards s JOIN runs r ON r.run_id = s.run_id "
                "WHERE s.status = 'pending'" + run_filter +
                " ORDER BY r.created_at, s.run_id, s.shard_index LIMIT 1",
                run_args,
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE shards SET status = 'leased', lease_id = ?, "
                "lease_worker = ?, lease_expires = ?, attempts = attempts + 1 "
                "WHERE run_id = ? AND shard_index = ?",
                (lease_id, worker, now + ttl, row["run_id"], row["shard_index"]),
            )
            conn.execute(
                "INSERT INTO leases (lease_id, run_id, shard_index, worker, "
                "acquired_at, expires_at) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    lease_id,
                    row["run_id"],
                    row["shard_index"],
                    worker,
                    now,
                    now + ttl,
                ),
            )
            return {
                "lease_id": lease_id,
                "run_id": row["run_id"],
                "shard_index": row["shard_index"],
                "worker": worker,
                "expires_at": now + ttl,
                "cells": json.loads(row["cells"]),
                "options": json.loads(row["options"]),
            }

    def heartbeat(
        self, lease_id: str, ttl: float, now: Optional[float] = None
    ) -> bool:
        """Extend a live lease; ``False`` means the lease was lost."""
        now = time.time() if now is None else now
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE shards SET lease_expires = ? "
                "WHERE lease_id = ? AND status = 'leased'",
                (now + ttl, lease_id),
            )
            if cursor.rowcount == 0:
                return False
            conn.execute(
                "UPDATE leases SET expires_at = ?, heartbeats = heartbeats + 1 "
                "WHERE lease_id = ?",
                (now + ttl, lease_id),
            )
            return True

    def complete_shard(
        self,
        run_id: str,
        shard_index: int,
        lease_id: str,
        worker: str,
        runs: int,
        steps: int,
        elapsed: float,
        now: Optional[float] = None,
    ) -> bool:
        """Mark a shard done; first completion wins, the rest are no-ops.

        A worker whose lease expired mid-shard may still complete: the
        cells are deterministic, so whichever delivery lands first
        records the (identical) result and later deliveries return
        ``False``. Completing the last shard closes the run.
        """
        now = time.time() if now is None else now
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE shards SET status = 'done', lease_id = NULL, "
                "lease_worker = NULL, lease_expires = NULL, runs = ?, "
                "steps = ?, elapsed = ?, completed_at = ?, completed_by = ? "
                "WHERE run_id = ? AND shard_index = ? AND status != 'done'",
                (runs, steps, elapsed, now, worker, run_id, shard_index),
            )
            first = cursor.rowcount > 0
            conn.execute(
                "UPDATE leases SET outcome = ? "
                "WHERE lease_id = ? AND outcome IN ('open', 'expired')",
                ("completed" if first else "duplicate", lease_id),
            )
            remaining = conn.execute(
                "SELECT COUNT(*) FROM shards "
                "WHERE run_id = ? AND status != 'done'",
                (run_id,),
            ).fetchone()[0]
            if remaining == 0:
                conn.execute(
                    "UPDATE runs SET status = 'complete', "
                    "completed_at = COALESCE(completed_at, ?) "
                    "WHERE run_id = ?",
                    (now, run_id),
                )
            return first

    def drained(
        self, run_id: Optional[str] = None, now: Optional[float] = None
    ) -> bool:
        """True when no open run has work left (pending *or* leased)."""
        run_filter = "" if run_id is None else " AND s.run_id = ?"
        run_args: tuple = () if run_id is None else (run_id,)
        count = self._conn.execute(
            "SELECT COUNT(*) FROM shards s JOIN runs r ON r.run_id = s.run_id "
            "WHERE s.status != 'done' AND r.status = 'open'" + run_filter,
            run_args,
        ).fetchone()[0]
        return count == 0

    # -- verdicts ------------------------------------------------------
    def record_cell_verdict(
        self,
        run_id: str,
        cell_index: int,
        label: str,
        cell_fingerprint: str,
        expected: str,
        ok: bool,
        fingerprints: Sequence[str],
        runs: int,
        steps: int,
        incomplete: int,
        elapsed: float,
        note: str,
        worker: str,
        now: Optional[float] = None,
    ) -> bool:
        """Record one cell's differential verdict (first write wins)."""
        now = time.time() if now is None else now
        with self._tx() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO cell_verdicts (run_id, cell_index, "
                "label, cell_fingerprint, expected, ok, violations, "
                "fingerprints, runs, steps, incomplete, elapsed, note, "
                "worker, recorded_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    cell_index,
                    label,
                    cell_fingerprint,
                    expected,
                    1 if ok else 0,
                    len(fingerprints),
                    json.dumps(sorted(fingerprints)),
                    runs,
                    steps,
                    incomplete,
                    elapsed,
                    note,
                    worker,
                    now,
                ),
            )
            return cursor.rowcount > 0

    def verdict_rows(self, run_id: str) -> List[Dict[str, Any]]:
        """All cell verdicts of a run, in matrix order."""
        rows = self._conn.execute(
            "SELECT * FROM cell_verdicts WHERE run_id = ? ORDER BY cell_index",
            (run_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    def prior_verdict(
        self, cell_fingerprint: str, before_run: str
    ) -> Optional[Dict[str, Any]]:
        """The most recent verdict for the same cell from an *earlier* run.

        "Earlier" orders by run submission time (ties broken by run id),
        which is what verdict drift is measured against.
        """
        row = self._conn.execute(
            "SELECT v.* FROM cell_verdicts v "
            "JOIN runs r ON r.run_id = v.run_id "
            "JOIN runs c ON c.run_id = ? "
            "WHERE v.cell_fingerprint = ? AND v.run_id != ? "
            "AND (r.created_at < c.created_at "
            "     OR (r.created_at = c.created_at AND r.run_id < c.run_id)) "
            "ORDER BY r.created_at DESC, r.run_id DESC LIMIT 1",
            (before_run, cell_fingerprint, before_run),
        ).fetchone()
        return None if row is None else dict(row)

    # -- violations and the shrink pipeline ---------------------------
    def claim_violation(
        self,
        run_id: str,
        scenario_label: str,
        fingerprint: str,
        reason: str,
        payload: Dict[str, Any],
        now: Optional[float] = None,
    ) -> bool:
        """Claim a violation class for this run; ``False`` if already known.

        The claim is the cross-worker dedup point: exactly one worker
        per run owns each (scenario, class) pair and proceeds to the
        shrink pipeline for it.
        """
        now = time.time() if now is None else now
        with self._tx() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO violations (run_id, scenario_label, "
                "fingerprint, reason, payload, state, found_at) "
                "VALUES (?, ?, ?, ?, ?, 'found', ?)",
                (
                    run_id,
                    scenario_label,
                    fingerprint,
                    reason,
                    json.dumps(payload, sort_keys=True),
                    now,
                ),
            )
            return cursor.rowcount > 0

    def take_shrink_slot(
        self,
        run_id: str,
        scenario_label: str,
        fingerprint: str,
        max_classes: int,
    ) -> bool:
        """Move a claimed class to ``shrinking`` if the run has slots left.

        The cap bounds shrink work per run across *all* workers; a class
        refused a slot is marked ``deferred`` (reported, never silently
        dropped).
        """
        with self._tx() as conn:
            active = conn.execute(
                "SELECT COUNT(*) FROM violations WHERE run_id = ? "
                "AND state IN ('shrinking', 'shrunk', 'failed')",
                (run_id,),
            ).fetchone()[0]
            state = "shrinking" if active < max_classes else "deferred"
            conn.execute(
                "UPDATE violations SET state = ? WHERE run_id = ? "
                "AND scenario_label = ? AND fingerprint = ? "
                "AND state = 'found'",
                (state, run_id, scenario_label, fingerprint),
            )
            return state == "shrinking"

    def finish_shrink(
        self,
        run_id: str,
        scenario_label: str,
        fingerprint: str,
        state: str,
        detail: str = "",
        corpus_entry: Optional[str] = None,
        corpus_path: Optional[str] = None,
    ) -> None:
        """Record the shrink pipeline's terminal state for one class."""
        if state not in ("shrunk", "failed"):
            raise ConfigurationError(f"bad terminal shrink state {state!r}")
        with self._tx() as conn:
            conn.execute(
                "UPDATE violations SET state = ?, detail = ?, "
                "corpus_entry = ?, corpus_path = ? WHERE run_id = ? "
                "AND scenario_label = ? AND fingerprint = ?",
                (
                    state,
                    detail,
                    corpus_entry,
                    corpus_path,
                    run_id,
                    scenario_label,
                    fingerprint,
                ),
            )

    def violation_rows(self, run_id: str) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM violations WHERE run_id = ? ORDER BY found_at",
            (run_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    # -- replay trend line --------------------------------------------
    def record_replay_verdict(
        self,
        entry_id: str,
        entry_label: str,
        fingerprint: str,
        ok: bool,
        detail: str = "",
        source: str = "replay",
        now: Optional[float] = None,
    ) -> None:
        """Append one corpus replay outcome (the cross-PR drift query)."""
        now = time.time() if now is None else now
        with self._tx() as conn:
            conn.execute(
                "INSERT INTO replay_verdicts (recorded_at, source, entry_id, "
                "entry_label, fingerprint, ok, detail) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    now,
                    source,
                    entry_id,
                    entry_label,
                    fingerprint,
                    1 if ok else 0,
                    detail,
                ),
            )

    def replay_rows(self, entry_id: Optional[str] = None) -> List[Dict[str, Any]]:
        if entry_id is None:
            rows = self._conn.execute(
                "SELECT * FROM replay_verdicts ORDER BY recorded_at"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM replay_verdicts WHERE entry_id = ? "
                "ORDER BY recorded_at",
                (entry_id,),
            ).fetchall()
        return [dict(row) for row in rows]

    # -- plain queries -------------------------------------------------
    def run_row(self, run_id: str) -> Optional[Dict[str, Any]]:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return None if row is None else dict(row)

    def run_rows(self) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM runs ORDER BY created_at, run_id"
        ).fetchall()
        return [dict(row) for row in rows]

    def latest_run_id(self) -> Optional[str]:
        row = self._conn.execute(
            "SELECT run_id FROM runs ORDER BY created_at DESC, run_id DESC "
            "LIMIT 1"
        ).fetchone()
        return None if row is None else row["run_id"]

    def shard_rows(self, run_id: str) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM shards WHERE run_id = ? ORDER BY shard_index",
            (run_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    def lease_rows(self, run_id: str) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM leases WHERE run_id = ? ORDER BY acquired_at",
            (run_id,),
        ).fetchall()
        return [dict(row) for row in rows]
