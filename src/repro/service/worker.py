"""The leasing campaign worker: lease shards, run cells, stream results.

A worker is a loop over :mod:`repro.service.queue`:

1. lease a shard (requeuing any expired leases on the way);
2. execute each cell through :func:`repro.campaign.matrix.run_cell`,
   so a verdict is byte-identical whichever worker computes it, inline
   or in a subprocess;
3. record the cell verdict and every violation class into the results
   store as soon as the cell finishes (streamed, not batched at shard
   completion — a status query mid-run sees live verdicts);
4. shrink + persist claimed violation classes through
   ``repro.campaign.corpus``, deduplicated across workers by the store's claim table and capped
   per run — the campaign's one shrink/claim/cap policy;
5. heartbeat between cells, complete the shard, and exit when the
   queue drains.

Crash safety is entirely the queue's: a worker holds no state the
store doesn't. Kill it at any point and the lease expiry returns its
shard to the pool; completion and verdict writes are idempotent, so a
worker that *appears* dead but finishes late changes nothing.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from repro.campaign.corpus import entry_from_shrunk, save_entry
from repro.campaign.matrix import CampaignCell, CellOutcome, run_cell
from repro.explore.shrink import shrink
from repro.scenarios.registry import Violation
from repro.service import queue as squeue
from repro.service.cells import cell_fingerprint
from repro.service.queue import DEFAULT_LEASE_TTL, Lease
from repro.service.store import ResultsStore

#: Default execution options a run is submitted with; workers read the
#: run's recorded options and fall back to these per key, so old runs
#: stay executable when new options appear.
DEFAULT_OPTIONS = {
    "shrink": True,
    "corpus_dir": None,
    "max_shrink_replays": 400,
    "max_shrink_classes": 8,
    "source": "service",
}


def canonicalize_violation(scenario: object, violation: Violation) -> Violation:
    """Return ``violation`` unchanged: every find is a full-horizon find.

    A residue kept only because ``benchmarks/e2e/layers.py`` wraps this
    name; the worker never calls it, and it goes with that harness's
    next revision (ROADMAP item 1).
    """
    return violation


@dataclass
class WorkerSummary:
    """What one worker's loop accomplished before the queue drained."""

    worker: str
    shards: int = 0
    cells: int = 0
    runs: int = 0
    steps: int = 0
    elapsed: float = 0.0
    violations: int = 0
    corpus_written: List[str] = field(default_factory=list)

    @property
    def runs_per_sec(self) -> float:
        return self.runs / self.elapsed if self.elapsed > 0 else 0.0

    def describe(self) -> str:
        """One line for the worker CLI."""
        corpus = (
            f", {len(self.corpus_written)} corpus entr"
            f"{'y' if len(self.corpus_written) == 1 else 'ies'}"
            if self.corpus_written
            else ""
        )
        return (
            f"worker {self.worker}: {self.shards} shard(s), {self.cells} "
            f"cell(s), {self.runs} runs in {self.elapsed:.1f}s "
            f"({self.runs_per_sec:.0f} runs/s); "
            f"{self.violations} violation class(es) claimed{corpus}"
        )


def run_worker(
    db: Union[str, "os.PathLike[str]"],
    run_id: Optional[str] = None,
    worker: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = 0.1,
    max_shards: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    _crash_after_lease: bool = False,
) -> WorkerSummary:
    """Lease and execute shards until the queue drains; returns a summary.

    ``run_id`` restricts the worker to one run (default: serve every
    open run, oldest first). The worker waits — polling — while other
    workers hold live leases, because any of those may crash and hand
    their shard back; it exits only when everything is ``done``.

    ``max_shards`` bounds how many shards this call executes (useful
    for drip-feeding in tests); ``_crash_after_lease`` is a test hook
    that simulates a SIGKILL between leasing and completing a shard
    (``os._exit``, no cleanup — exactly what the lease protocol must
    absorb).
    """
    worker = worker or f"w{os.getpid()}"
    emit = progress or (lambda line: None)
    summary = WorkerSummary(worker=worker)
    started = time.perf_counter()
    store = ResultsStore(db)
    try:
        while True:
            if max_shards is not None and summary.shards >= max_shards:
                break
            lease = squeue.lease(store, worker=worker, ttl=lease_ttl, run_id=run_id)
            if lease is None:
                if squeue.drained(store, run_id=run_id):
                    break
                time.sleep(poll_interval)
                continue
            if _crash_after_lease:
                os._exit(17)
            _execute_shard(store, lease, lease_ttl, summary, emit)
    finally:
        store.close()
    summary.elapsed = time.perf_counter() - started
    return summary


def _execute_shard(
    store: ResultsStore,
    lease: Lease,
    lease_ttl: float,
    summary: WorkerSummary,
    emit: Callable[[str], None],
) -> None:
    """Run one leased shard's cells and report everything back."""
    shard_runs = 0
    shard_steps = 0
    shard_started = time.perf_counter()
    for cell_index, cell in lease.cells:
        outcome = run_cell(cell)
        shard_runs += outcome.runs
        shard_steps += outcome.steps
        store.record_cell_verdict(
            lease.run_id,
            cell_index,
            label=cell.label(),
            cell_fingerprint=cell_fingerprint(cell),
            expected="violation" if cell.expect_violation else "clean",
            ok=outcome.ok,
            fingerprints=outcome.class_fingerprints,
            runs=outcome.runs,
            steps=outcome.steps,
            incomplete=outcome.incomplete,
            elapsed=outcome.elapsed,
            note=outcome.note,
            worker=lease.worker,
        )
        summary.cells += 1
        emit(outcome.describe())
        _shrink_and_record(store, lease, cell, outcome, summary, emit)
        squeue.heartbeat(store, lease, ttl=lease_ttl)
    squeue.complete(
        store,
        lease,
        runs=shard_runs,
        steps=shard_steps,
        elapsed=time.perf_counter() - shard_started,
    )
    summary.shards += 1
    summary.runs += shard_runs
    summary.steps += shard_steps


def _shrink_and_record(
    store: ResultsStore,
    lease: Lease,
    cell: CampaignCell,
    outcome: CellOutcome,
    summary: WorkerSummary,
    emit: Callable[[str], None],
) -> None:
    """Claim, shrink and persist this cell's violation classes.

    Every find comes from a full-horizon run, so its class is the one
    the shrinker and the corpus replay see. One claim per (scenario,
    class) per run across all workers; a per-run cap on shrink work,
    with refused classes recorded as deferred. Expected and
    *unexpected* violations are both shrunk — an unexpected one is
    exactly the counterexample worth a corpus entry.

    ``shrink``, ``entry_from_shrunk`` and ``save_entry`` are looked up
    as this module's globals at call time, so a tracer can wrap them in
    place.
    """
    options = dict(DEFAULT_OPTIONS, **lease.options)
    for violation in outcome.violations:
        label = cell.scenario.label()
        fingerprint = violation.fingerprint()
        claimed = store.claim_violation(
            lease.run_id,
            label,
            fingerprint,
            reason=violation.reason,
            payload={
                "scenario": violation.scenario,
                "reason": violation.reason,
                "trace": list(violation.trace),
                "schedule": violation.schedule,
                "seed": violation.seed,
            },
        )
        if not claimed:
            continue
        summary.violations += 1
        if not options["shrink"]:
            continue
        if not store.take_shrink_slot(
            lease.run_id, label, fingerprint, options["max_shrink_classes"]
        ):
            emit(f"shrink deferred for {fingerprint} (per-run cap)")
            continue
        try:
            shrunk = shrink(
                cell.scenario,
                violation,
                max_replays=options["max_shrink_replays"],
            )
        except ValueError as exc:
            store.finish_shrink(
                lease.run_id, label, fingerprint, state="failed", detail=str(exc)
            )
            emit(f"shrink failed for {fingerprint}: {exc}")
            continue
        emit(f"  {shrunk.describe()}")
        if options["corpus_dir"] is None:
            store.finish_shrink(
                lease.run_id,
                label,
                fingerprint,
                state="shrunk",
                detail="not persisted (no corpus directory)",
            )
            continue
        entry = entry_from_shrunk(cell.scenario, shrunk, source=options["source"])
        path, written = save_entry(options["corpus_dir"], entry)
        store.finish_shrink(
            lease.run_id,
            label,
            fingerprint,
            state="shrunk",
            detail="written" if written else "already recorded",
            corpus_entry=entry.entry_id,
            corpus_path=str(path),
        )
        if written:
            summary.corpus_written.append(str(path))
            emit(f"  corpus + {path}")
        else:
            emit(f"  corpus = {path} (already recorded)")


def worker_entry(
    db: str,
    run_id: Optional[str],
    worker: str,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> None:
    """Module-level process target for spawned worker fleets."""
    run_worker(db, run_id=run_id, worker=worker, lease_ttl=lease_ttl)


def _payload_to_violation(payload: Union[str, dict]):
    """Rebuild a :class:`repro.scenarios.Violation` from its row."""
    data = json.loads(payload) if isinstance(payload, str) else payload
    return Violation(
        scenario=data["scenario"],
        reason=data["reason"],
        trace=tuple(int(index) for index in data["trace"]),
        schedule=data.get("schedule", ""),
        seed=data.get("seed"),
    )
