"""Crash-safe resume for the campaign service.

A worker that is SIGKILLed between leasing a shard and completing it
(simulated with ``os._exit`` via the ``_crash_after_lease`` hook — no
cleanup, no rollback, exactly what a kill -9 leaves behind) must not
lose work: its lease expires, the next ``lease()`` call requeues the
shard, and a second worker completes the run with verdicts
byte-identical to an uninterrupted inline run.
"""

from __future__ import annotations

import json

from repro.campaign import CampaignCell
from repro.explore import make_scenario
from repro.service import (
    ResultsStore,
    run_service_campaign,
    status,
    verdicts_payload,
)
from repro.service import queue as squeue
from repro.service.client import pool_context
from repro.service.worker import run_worker

NAIVE_ATTACK = make_scenario(
    "register",
    kind="naive-quorum",
    n=4,
    seed=0,
    reader_adversaries=((4, "flipflop"),),
)


def _cells():
    return [
        CampaignCell(
            implementation="naive",
            scenario=NAIVE_ATTACK,
            engine="swarm",
            budget=4,
            expect_violation=True,
        ),
        CampaignCell(
            implementation="verifiable",
            scenario=make_scenario("register", kind="verifiable", n=4, seed=0),
            engine="swarm",
            budget=2,
            expect_violation=False,
        ),
    ]


def test_killed_worker_forfeits_its_shard_and_a_second_worker_finishes(
    tmp_path,
):
    db = tmp_path / "service.db"
    store = ResultsStore(db)
    run_id = squeue.submit(store, _cells(), options={"shrink": False})

    # Worker one leases a shard and dies without a trace. os._exit
    # bypasses finally blocks and atexit — the database only ever
    # learns about the crash through the lease expiry.
    ctx = pool_context()
    crasher = ctx.Process(
        target=run_worker,
        args=(str(db),),
        kwargs={
            "run_id": run_id,
            "worker": "crasher",
            "lease_ttl": 0.5,
            "_crash_after_lease": True,
        },
    )
    crasher.start()
    crasher.join(timeout=30)
    assert crasher.exitcode == 17  # the hook's os._exit code

    leased = [s for s in store.shard_rows(run_id) if s["status"] == "leased"]
    assert leased, "the crashed worker must leave a dangling lease behind"

    # Worker two polls until the 0.5s lease expires, reclaims the
    # abandoned shard, and drains the whole run.
    summary = run_worker(
        db,
        run_id=run_id,
        worker="rescuer",
        lease_ttl=10.0,
        poll_interval=0.05,
    )
    assert summary.shards == 2 and summary.cells == 2

    result = status(store, run_id)
    assert result.complete and result.ok, result.summary()
    # The reclaimed shard records the second attempt...
    shards = store.shard_rows(run_id)
    assert sorted(s["attempts"] for s in shards) == [1, 2]
    assert all(s["completed_by"] == "rescuer" for s in shards)
    assert all(s["lease_worker"] is None for s in shards)

    # ...and the verdicts are still byte-identical to an uninterrupted
    # inline run: deterministic cells make the crash invisible.
    uninterrupted = run_service_campaign(
        _cells(), workers=1, shrink_violations=False
    )
    assert json.dumps(verdicts_payload(result), sort_keys=True) == json.dumps(
        verdicts_payload(uninterrupted), sort_keys=True
    )
    store.close()
