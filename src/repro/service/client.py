"""The thin client over the campaign service: status, watch, drift.

Everything here is a *read* of the results database plus one
convenience orchestration:

* :func:`status` — a point-in-time :class:`RunStatus`: shard queue
  depth, live throughput, per-cell verdicts, violation classes, and
  verdict drift against prior runs of the same cells;
* :func:`watch` — poll a run until it completes, emitting each cell
  verdict once as it lands (the live progress view);
* :func:`verdicts_payload` — the machine-comparable verdict document of
  a run, which is how CI asserts that an inline worker and a fleet of
  leasing workers agree cell-for-cell;
* :func:`run_service_campaign` — submit + workers + watch: the one way
  a campaign matrix runs.

Drift is reported, never gated here: a cell whose verdict contradicts
the registry's pinned expectation already fails the run (``ok`` is
false); a cell that *changed against its own history* — violating last
submission, clean now, or a different class set — is exactly the
signal the trend database exists to surface.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.matrix import verdict_line
from repro.errors import ConfigurationError
from repro.service import queue as squeue
from repro.service.queue import DEFAULT_LEASE_TTL
from repro.service.store import ResultsStore


@dataclass(frozen=True)
class CellVerdict:
    """One recorded cell verdict (a ``cell_verdicts`` row, typed)."""

    cell_index: int
    label: str
    cell_fingerprint: str
    expected: str
    ok: bool
    class_fingerprints: Tuple[str, ...]
    runs: int
    steps: int
    incomplete: int
    elapsed: float
    note: str
    worker: str
    recorded_at: float

    def describe(self) -> str:
        """The worker's progress line for this cell, from the row."""
        return verdict_line(
            self.label, self.class_fingerprints, self.ok, self.runs, self.elapsed
        )


@dataclass(frozen=True)
class DriftEntry:
    """One cell whose verdict moved against its own recorded history."""

    label: str
    prior_run: str
    detail: str

    def describe(self) -> str:
        return f"drift {self.label}: {self.detail} (vs run {self.prior_run})"


@dataclass
class RunStatus:
    """A point-in-time view of one run."""

    run_id: str
    status: str
    created_at: float
    completed_at: Optional[float]
    cells: int
    selection: Dict[str, Any]
    shards_pending: int = 0
    shards_leased: int = 0
    shards_done: int = 0
    attempts: int = 0
    verdicts: List[CellVerdict] = field(default_factory=list)
    violations: List[Dict[str, Any]] = field(default_factory=list)
    drift: List[DriftEntry] = field(default_factory=list)
    now: float = 0.0

    @property
    def shards(self) -> int:
        return self.shards_pending + self.shards_leased + self.shards_done

    @property
    def runs(self) -> int:
        return sum(verdict.runs for verdict in self.verdicts)

    @property
    def steps(self) -> int:
        return sum(verdict.steps for verdict in self.verdicts)

    @property
    def elapsed(self) -> float:
        """Wall-clock of the run so far (submission to completion/now)."""
        end = self.completed_at if self.completed_at else self.now
        return max(0.0, end - self.created_at)

    @property
    def runs_per_sec(self) -> float:
        """Live aggregate throughput across all workers."""
        return self.runs / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def mismatched(self) -> List[CellVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.ok]

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def ok(self) -> bool:
        """Every cell executed, recorded, and matching its expectation."""
        return (
            self.complete
            and len(self.verdicts) == self.cells
            and not self.mismatched
        )

    @property
    def corpus_written(self) -> List[str]:
        return [
            row["corpus_path"]
            for row in self.violations
            if row["state"] == "shrunk" and row["detail"] == "written"
        ]

    @property
    def shrink_deferred(self) -> List[str]:
        return [
            row["fingerprint"]
            for row in self.violations
            if row["state"] == "deferred"
        ]

    def summary(self) -> str:
        """One-paragraph rendering for the CLI."""
        matched = len(self.verdicts) - len(self.mismatched)
        shrunk = sum(
            1 for row in self.violations if row["state"] == "shrunk"
        )
        corpus = (
            f"; corpus: {len(self.corpus_written)} new entr"
            f"{'y' if len(self.corpus_written) == 1 else 'ies'}"
            if self.corpus_written
            else ""
        )
        deferred = (
            f" ({len(self.shrink_deferred)} deferred)"
            if self.shrink_deferred
            else ""
        )
        return (
            f"run {self.run_id} [{self.status}]: {matched}/{self.cells} cells "
            f"matched expectations; {self.shards_done}/{self.shards} shards "
            f"done ({self.shards_leased} leased, {self.shards_pending} "
            f"pending); {self.runs} runs, {self.runs_per_sec:.0f} runs/s; "
            f"{shrunk} violation class(es) shrunk{deferred}{corpus}; "
            f"{len(self.drift)} drift(s) vs prior runs"
        )


def _resolve_run_id(store: ResultsStore, run_id: Optional[str]) -> str:
    resolved = run_id or store.latest_run_id()
    if resolved is None:
        raise ConfigurationError(
            f"no runs submitted to {store.path}; submit one first"
        )
    if store.run_row(resolved) is None:
        known = ", ".join(row["run_id"] for row in store.run_rows()) or "none"
        raise ConfigurationError(
            f"unknown run {resolved!r} in {store.path}; known: {known}"
        )
    return resolved


def status(
    store: ResultsStore,
    run_id: Optional[str] = None,
    with_drift: bool = True,
    now: Optional[float] = None,
) -> RunStatus:
    """Build the point-in-time status of ``run_id`` (default: latest run)."""
    run_id = _resolve_run_id(store, run_id)
    run = store.run_row(run_id)
    assert run is not None  # _resolve_run_id validated
    result = RunStatus(
        run_id=run_id,
        status=run["status"],
        created_at=run["created_at"],
        completed_at=run["completed_at"],
        cells=run["cells"],
        selection=json.loads(run["selection"]),
        now=time.time() if now is None else now,
    )
    for shard in store.shard_rows(run_id):
        result.attempts += shard["attempts"]
        if shard["status"] == "pending":
            result.shards_pending += 1
        elif shard["status"] == "leased":
            result.shards_leased += 1
        else:
            result.shards_done += 1
    result.verdicts = [
        CellVerdict(
            cell_index=row["cell_index"],
            label=row["label"],
            cell_fingerprint=row["cell_fingerprint"],
            expected=row["expected"],
            ok=bool(row["ok"]),
            class_fingerprints=tuple(json.loads(row["fingerprints"])),
            runs=row["runs"],
            steps=row["steps"],
            incomplete=row["incomplete"],
            elapsed=row["elapsed"],
            note=row["note"],
            worker=row["worker"],
            recorded_at=row["recorded_at"],
        )
        for row in store.verdict_rows(run_id)
    ]
    result.violations = store.violation_rows(run_id)
    if with_drift:
        result.drift = _drift(store, result)
    return result


def _drift(store: ResultsStore, result: RunStatus) -> List[DriftEntry]:
    """Each cell's verdict vs the latest prior run of the same cell.

    Registry-expectation mismatches are *not* drift — they already fail
    the run through ``ok``. Drift is history moving: the same cell
    (same fingerprint: scenario, engine, budget, seed) that previously
    produced a different verdict or different violation classes.
    """
    entries: List[DriftEntry] = []
    for verdict in result.verdicts:
        prior = store.prior_verdict(verdict.cell_fingerprint, result.run_id)
        if prior is None:
            continue
        prior_classes = tuple(json.loads(prior["fingerprints"]))
        if bool(prior["ok"]) != verdict.ok:
            entries.append(
                DriftEntry(
                    label=verdict.label,
                    prior_run=prior["run_id"],
                    detail=(
                        f"verdict flipped: was "
                        f"{'ok' if prior['ok'] else 'MISMATCH'}, now "
                        f"{'ok' if verdict.ok else 'MISMATCH'}"
                    ),
                )
            )
        elif prior_classes != verdict.class_fingerprints:
            entries.append(
                DriftEntry(
                    label=verdict.label,
                    prior_run=prior["run_id"],
                    detail=(
                        f"violation classes changed: "
                        f"{list(prior_classes)} -> "
                        f"{list(verdict.class_fingerprints)}"
                    ),
                )
            )
    return entries


def verdicts_payload(result: RunStatus) -> Dict[str, Any]:
    """The machine-comparable verdict document of a service run.

    Deliberately excludes anything timing- or worker-dependent, so two
    executions of the same matrix — any worker fleet, any interleaving
    — produce byte-identical JSON.
    """
    return {
        "cells": [
            {
                "label": verdict.label,
                "expected": verdict.expected,
                "ok": verdict.ok,
                "violations": list(verdict.class_fingerprints),
                "runs": verdict.runs,
                "steps": verdict.steps,
                "incomplete": verdict.incomplete,
            }
            for verdict in sorted(result.verdicts, key=lambda v: v.cell_index)
        ]
    }


def watch(
    store: ResultsStore,
    run_id: Optional[str] = None,
    interval: float = 0.5,
    emit: Optional[Callable[[str], None]] = None,
    timeout: Optional[float] = None,
    liveness: Optional[Callable[[], bool]] = None,
) -> RunStatus:
    """Poll a run until it completes, emitting each verdict line once.

    ``liveness`` (when given) is consulted after each poll: if it turns
    false while shards are still outstanding, the watch raises instead
    of spinning forever — :func:`run_service_campaign` wires it to "any
    worker process still alive".
    """
    run_id = _resolve_run_id(store, run_id)
    emit = emit or (lambda line: None)
    seen: set = set()
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        # Drift is computed once on the final status, not per poll.
        result = status(store, run_id, with_drift=False)
        for verdict in result.verdicts:
            if verdict.cell_index not in seen:
                seen.add(verdict.cell_index)
                emit(verdict.describe())
        if result.complete:
            return status(store, run_id)
        if liveness is not None and not liveness():
            raise ConfigurationError(
                f"every worker exited but run {run_id} still has "
                f"{result.shards_pending + result.shards_leased} unfinished "
                f"shard(s)"
            )
        if deadline is not None and time.monotonic() > deadline:
            raise ConfigurationError(
                f"timed out watching run {run_id} after {timeout:.0f}s "
                f"({result.shards_done}/{result.shards} shards done)"
            )
        time.sleep(interval)


def run_service_campaign(
    cells: Sequence[Any],
    workers: Optional[int] = None,
    db: Optional[Union[str, Path]] = None,
    shard_size: int = 1,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    shrink_violations: bool = True,
    max_shrink_replays: int = 400,
    max_shrink_classes: int = 8,
    corpus_dir: Optional[Union[str, Path]] = None,
    corpus_source: str = "service",
    progress: Optional[Callable[[str], None]] = None,
    watch_timeout: Optional[float] = 3600.0,
) -> RunStatus:
    """Run a campaign matrix: submit, drain with workers, report.

    Submit ``cells`` as one run, drain it with ``workers`` leasing
    workers (never more than there are shards; a single worker runs
    inline, without a subprocess), and return the final status. Cell
    verdicts are byte-identical whatever the worker count — every
    worker executes through ``run_cell`` — which is pinned by the
    service test suite and the CI ``service-smoke`` job.

    ``db=None`` uses a throwaway database (submit-shaped scratch runs
    should not pollute the trend history); pass a path to accumulate
    verdict history for drift reporting.
    """
    import tempfile

    from repro.explore.fuzzer import default_shards, pool_context
    from repro.service.worker import run_worker, worker_entry

    worker_count = default_shards() if workers is None else max(1, workers)
    emit = progress or (lambda line: None)
    tempdir: Optional[tempfile.TemporaryDirectory] = None
    if db is None:
        tempdir = tempfile.TemporaryDirectory(prefix="repro-service-")
        db = Path(tempdir.name) / "service.db"
    try:
        store = ResultsStore(db)
        options = {
            "shrink": shrink_violations,
            "corpus_dir": None if corpus_dir is None else str(corpus_dir),
            "max_shrink_replays": max_shrink_replays,
            "max_shrink_classes": max_shrink_classes,
            "source": corpus_source,
        }
        run_id = squeue.submit(
            store,
            cells,
            shard_size=shard_size,
            selection={"submitted_by": "run_service_campaign"},
            options=options,
        )
        # A worker beyond the shard count would only import, poll and exit.
        shard_count = -(-len(cells) // shard_size)
        worker_count = min(worker_count, shard_count)
        emit(
            f"submitted run {run_id}: {len(cells)} cell(s) in "
            f"{shard_count} shard(s), {worker_count} worker(s)"
        )
        if worker_count == 1:
            # Inline: no subprocess, verdict lines stream from the worker.
            run_worker(
                str(db),
                run_id=run_id,
                worker="worker-1",
                lease_ttl=lease_ttl,
                progress=progress,
            )
            final = status(store, run_id)
        else:
            ctx = pool_context()
            procs = [
                ctx.Process(
                    target=worker_entry,
                    args=(str(db), run_id, f"worker-{index + 1}", lease_ttl),
                    daemon=True,
                )
                for index in range(worker_count)
            ]
            for proc in procs:
                proc.start()
            try:
                final = watch(
                    store,
                    run_id,
                    interval=0.2,
                    emit=emit,
                    timeout=watch_timeout,
                    liveness=lambda: any(proc.is_alive() for proc in procs),
                )
            finally:
                for proc in procs:
                    proc.join(timeout=30)
                    if proc.is_alive():
                        proc.terminate()
        store.close()
        return final
    finally:
        if tempdir is not None:
            tempdir.cleanup()
