"""Campaign-as-a-service: a persistent run queue, leasing workers, and
a results database.

:mod:`repro.campaign` defines the matrix and how one cell runs;
``repro.service`` is how a matrix runs, and makes campaigns
*operational*: a submitted run outlives any process, workers on any
host lease shards of it and
stream verdicts back, a crashed worker's shard is requeued when its
lease expires, and every verdict lands in a queryable sqlite database
(schema written for an eventual postgres port) alongside the history
of prior runs — which is what turns "did this cell's verdict move?"
into a query instead of an archaeology session.

The layers:

* :mod:`repro.service.store` — the database (runs, shards, leases,
  cell verdicts, violation classes, corpus replay trend);
* :mod:`repro.service.queue` — submit / lease / heartbeat / complete;
* :mod:`repro.service.worker` — the leasing worker loop (executes
  cells through ``repro.campaign.run_cell``, so verdicts are
  byte-identical whichever worker runs them), and the one shrink +
  corpus pipeline;
* :mod:`repro.service.client` — status / watch / drift, and
  :func:`run_service_campaign`: submit + workers + report, the one way
  a matrix runs (one worker runs inline).

Quickstart::

    from repro.campaign import default_matrix
    from repro.service import ResultsStore, queue, run_worker, status

    store = ResultsStore("service.db")
    run_id = queue.submit(store, default_matrix(smoke=True))
    run_worker("service.db", run_id=run_id)      # as many as you like
    print(status(store, run_id).summary())

The CLI front end is ``python -m repro.analysis campaign`` with
``--submit`` / ``--worker`` / ``--status`` / ``--watch``.
"""

from repro.service.cells import cell_fingerprint, cell_from_json, cell_to_json
from repro.service.client import (
    CellVerdict,
    DriftEntry,
    RunStatus,
    run_service_campaign,
    status,
    verdicts_payload,
    watch,
)
from repro.service.queue import DEFAULT_LEASE_TTL, Lease
from repro.service.store import ResultsStore, SCHEMA_VERSION, default_db_path
from repro.service.worker import WorkerSummary, run_worker

__all__ = [
    "CellVerdict",
    "DEFAULT_LEASE_TTL",
    "DriftEntry",
    "Lease",
    "ResultsStore",
    "RunStatus",
    "SCHEMA_VERSION",
    "WorkerSummary",
    "cell_fingerprint",
    "cell_from_json",
    "cell_to_json",
    "default_db_path",
    "run_service_campaign",
    "run_worker",
    "status",
    "verdicts_payload",
    "watch",
]
