"""The leasable run queue: submit a matrix, lease shards, complete them.

This is the typed face of :class:`repro.service.store.ResultsStore`'s
queue tables. A *run* is a submitted sequence of campaign cells (almost
always a registry ``grid()`` selection, which the submitter may record
with the run for provenance); the store chunks it into *shards*,
the unit a worker leases. The lease protocol is the crash-safety story:

* a lease carries an expiry; the worker heartbeats it forward while it
  executes the shard's cells;
* a worker that dies — crash, SIGKILL, powered-off spot node — simply
  stops heartbeating, the lease expires, and the next ``lease()`` call
  by anyone requeues and claims the shard;
* completion is idempotent and first-write-wins, so a double-delivered
  shard (an expired worker finishing late) records nothing twice — the
  cells are deterministic, so the late result is byte-identical anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.matrix import CampaignCell
from repro.service.cells import cell_from_json, cell_to_json
from repro.service.store import ResultsStore

#: Default lease time-to-live, in seconds. Generous relative to a
#: smoke cell (~seconds) so workers only need to heartbeat between
#: cells, while still bounding how long a crashed worker's shard waits.
DEFAULT_LEASE_TTL = 120.0


@dataclass
class Lease:
    """One claimed shard: positioned cells plus the run's options."""

    run_id: str
    shard_index: int
    lease_id: str
    worker: str
    expires_at: float
    #: ``(matrix position, cell)`` pairs, in submission order.
    cells: List[Tuple[int, CampaignCell]] = field(default_factory=list)
    #: The run's execution options (shrink / corpus settings), recorded
    #: at submit time so every worker applies the same policy.
    options: Dict[str, Any] = field(default_factory=dict)


def submit(
    store: ResultsStore,
    cells: Sequence[CampaignCell],
    shard_size: int = 1,
    selection: Optional[Dict[str, Any]] = None,
    options: Optional[Dict[str, Any]] = None,
    run_id: Optional[str] = None,
    now: Optional[float] = None,
) -> str:
    """Enqueue ``cells`` as one run; returns its id."""
    return store.create_run(
        [cell_to_json(cell) for cell in cells],
        shard_size=shard_size,
        selection=selection,
        options=options,
        run_id=run_id,
        now=now,
    )


def lease(
    store: ResultsStore,
    worker: str,
    ttl: float = DEFAULT_LEASE_TTL,
    run_id: Optional[str] = None,
    now: Optional[float] = None,
) -> Optional[Lease]:
    """Claim the oldest leasable shard (requeuing expired leases first)."""
    claimed = store.lease_shard(worker, ttl, run_id=run_id, now=now)
    if claimed is None:
        return None
    return Lease(
        run_id=claimed["run_id"],
        shard_index=claimed["shard_index"],
        lease_id=claimed["lease_id"],
        worker=claimed["worker"],
        expires_at=claimed["expires_at"],
        cells=[
            (entry["cell_index"], cell_from_json(entry["cell"]))
            for entry in claimed["cells"]
        ],
        options=claimed["options"],
    )


def heartbeat(
    store: ResultsStore,
    lease_obj: Lease,
    ttl: float = DEFAULT_LEASE_TTL,
    now: Optional[float] = None,
) -> bool:
    """Extend the lease; ``False`` means it expired and was (or will be)
    requeued — the worker should finish and rely on idempotent completion."""
    alive = store.heartbeat(lease_obj.lease_id, ttl, now=now)
    if alive:
        import time as _time

        lease_obj.expires_at = (now if now is not None else _time.time()) + ttl
    return alive


def complete(
    store: ResultsStore,
    lease_obj: Lease,
    runs: int,
    steps: int,
    elapsed: float,
    now: Optional[float] = None,
) -> bool:
    """Report a shard finished; ``True`` iff this delivery landed first."""
    return store.complete_shard(
        lease_obj.run_id,
        lease_obj.shard_index,
        lease_obj.worker,
        runs=runs,
        steps=steps,
        elapsed=elapsed,
        now=now,
    )


def drained(
    store: ResultsStore,
    run_id: Optional[str] = None,
    now: Optional[float] = None,
) -> bool:
    """True when every shard of every open run (or of ``run_id``) is done."""
    return store.drained(run_id=run_id, now=now)
