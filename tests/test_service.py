"""Campaign-as-a-service (repro.service).

Covers the cell codec (CampaignCell <-> JSON, stable fingerprints),
the sqlite store and lease protocol (submit / lease / expiry-requeue /
heartbeat / idempotent completion), the worker loop's verdicts against
``run_cell`` and a two-worker fleet against the inline worker, the
client layer (status, watch, verdict drift, replay trend), and the
service modes of the campaign CLI. Crash-safe resume — a worker
SIGKILLed mid-shard — lives in ``tests/test_service_crash.py``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignCell, run_cell
from repro.errors import ConfigurationError
from repro.explore import make_scenario
from repro.service import (
    ResultsStore,
    cell_fingerprint,
    cell_from_json,
    cell_to_json,
    run_service_campaign,
    status,
    verdicts_payload,
    watch,
)
from repro.service import queue as squeue
from repro.service.worker import run_worker

#: Same fast known-violating cell as tests/test_campaign.py: the naive
#: strawman under the flip-flop collusion breaks almost every schedule.
NAIVE_ATTACK = make_scenario(
    "register",
    kind="naive-quorum",
    n=4,
    seed=0,
    reader_adversaries=((4, "flipflop"),),
)


def naive_cell(budget=6, expect=True):
    return CampaignCell(
        implementation="naive",
        scenario=NAIVE_ATTACK,
        engine="swarm",
        budget=budget,
        expect_violation=expect,
    )


def clean_cell(budget=2):
    return CampaignCell(
        implementation="verifiable",
        scenario=make_scenario("register", kind="verifiable", n=4, seed=0),
        engine="swarm",
        budget=budget,
        expect_violation=False,
    )


@pytest.fixture
def store(tmp_path):
    with_store = ResultsStore(tmp_path / "service.db")
    yield with_store
    with_store.close()


class TestCellCodec:
    def test_cell_round_trips_through_json(self):
        cell = naive_cell()
        doc = cell_to_json(cell)
        # The document must survive a real JSON round trip (tuples
        # become lists on the wire and must be refrozen on the way in).
        restored = cell_from_json(json.loads(json.dumps(doc)))
        assert restored == cell
        assert restored.scenario.label() == cell.scenario.label()

    def test_fingerprint_is_stable_and_discriminating(self):
        cell = naive_cell()
        restored = cell_from_json(json.loads(json.dumps(cell_to_json(cell))))
        assert cell_fingerprint(restored) == cell_fingerprint(cell)
        assert cell_fingerprint(naive_cell(budget=7)) != cell_fingerprint(cell)
        other_seed = CampaignCell(
            implementation="naive",
            scenario=NAIVE_ATTACK,
            engine="swarm",
            budget=6,
            expect_violation=True,
            seed0=1,
        )
        assert cell_fingerprint(other_seed) != cell_fingerprint(cell)


#: Arbitrary JSON values (no NaN: it is not equal to itself).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _mutations(doc):
    """Every (path, doc') one edit away: a key dropped or a value replaced."""
    paths = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            paths.append(path + (key,))
            if isinstance(child, (dict, list)):
                walk(child, path + (key,))

    walk(doc, ())
    return paths


def _edit(doc, path, value, drop):
    edited = json.loads(json.dumps(doc))
    node = edited
    for key in path[:-1]:
        node = node[key]
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return edited


DPOR_CELL = CampaignCell(
    implementation="test_or_set",
    scenario=make_scenario("theorem29", f=2),
    engine="systematic",
    budget=5,
    expect_violation=True,
    reduction="dpor+symmetry",
    symmetry=((4,), (5, 6)),
)


class TestCellCodecFuzz:
    """The cell codec is a trust boundary: every mutation of a queued
    document round-trips or fails with ``ConfigurationError``."""

    @pytest.mark.parametrize(
        "doc, bad",
        [
            ({"budget": True}, "budget"),
            ({"budget": 2.7}, "budget"),
            ({"budget": 0}, "budget"),
            ({"depth_bound": -1}, "depth_bound"),
            ({"preemption_bound": -1}, "preemption_bound"),
            ({"engine": "warp"}, "engine"),
            ({"reduction": "bogus"}, "reduction"),
            ({"symmetry": [["4"]]}, "symmetry"),
            ({"scenario": {"name": "register", "params": {"kind": "x"}}}, "params"),
        ],
    )
    def test_known_malformations_are_configuration_errors(self, doc, bad):
        with pytest.raises(ConfigurationError, match=bad):
            cell_from_json({**cell_to_json(naive_cell()), **doc})

    def test_missing_key_is_a_configuration_error(self):
        doc = cell_to_json(naive_cell())
        del doc["seed0"]
        with pytest.raises(ConfigurationError, match="seed0"):
            cell_from_json(doc)

    @settings(max_examples=150, deadline=None)
    @given(
        which=st.sampled_from(("naive", "dpor")),
        choice=st.data(),
        value=JSON_VALUES,
        drop=st.booleans(),
    )
    def test_every_mutation_round_trips_or_is_refused(self, which, choice, value, drop):
        cell = naive_cell() if which == "naive" else DPOR_CELL
        doc = cell_to_json(cell)
        path = choice.draw(st.sampled_from(_mutations(doc)))
        try:
            restored = cell_from_json(_edit(doc, path, value, drop))
        except ConfigurationError:
            return
        assert cell_from_json(json.loads(json.dumps(cell_to_json(restored)))) == restored


class TestStoreAndQueue:
    def test_submit_chunks_cells_into_shards(self, store):
        cells = [naive_cell(budget=budget) for budget in range(2, 7)]
        run_id = squeue.submit(store, cells, shard_size=2)
        shards = store.shard_rows(run_id)
        assert len(shards) == 3
        assert [len(json.loads(shard["cells"])) for shard in shards] == [2, 2, 1]
        run = store.run_row(run_id)
        assert run["status"] == "open" and run["cells"] == 5

    def test_submit_is_idempotent(self, store):
        cells = [naive_cell(), clean_cell()]
        run_id = squeue.submit(store, cells, run_id="rfixed")
        again = squeue.submit(store, [naive_cell()], run_id="rfixed")
        assert again == run_id == "rfixed"
        assert len(store.shard_rows(run_id)) == 2  # first submission wins

    def test_empty_run_is_rejected(self, store):
        with pytest.raises(ConfigurationError):
            squeue.submit(store, [])

    def test_leases_are_exclusive_until_expiry(self, store):
        run_id = squeue.submit(store, [naive_cell(), clean_cell()])
        t0 = 1000.0
        first = squeue.lease(store, "w1", ttl=10.0, now=t0)
        second = squeue.lease(store, "w2", ttl=10.0, now=t0)
        assert {first.shard_index, second.shard_index} == {0, 1}
        assert squeue.lease(store, "w3", ttl=10.0, now=t0 + 5) is None
        assert not squeue.drained(store, run_id=run_id)

    def test_expired_lease_is_requeued_and_reclaimed(self, store):
        run_id = squeue.submit(store, [naive_cell()])
        t0 = 1000.0
        lost = squeue.lease(store, "crashed", ttl=10.0, now=t0)
        assert lost is not None
        # Before expiry the shard is untouchable; after it, the next
        # lease call requeues and claims it in one transaction.
        assert squeue.lease(store, "w2", ttl=10.0, now=t0 + 9.9) is None
        reclaimed = squeue.lease(store, "w2", ttl=10.0, now=t0 + 10.1)
        assert reclaimed is not None
        assert reclaimed.shard_index == lost.shard_index
        (shard,) = store.shard_rows(run_id)
        assert shard["attempts"] == 2 and shard["lease_worker"] == "w2"
        outcomes = {
            row["lease_id"]: row["outcome"] for row in store.lease_rows(run_id)
        }
        assert outcomes[lost.lease_id] == "expired"
        assert outcomes[reclaimed.lease_id] == "open"

    def test_heartbeat_extends_and_reports_lost_leases(self, store):
        squeue.submit(store, [naive_cell()])
        t0 = 1000.0
        lease = squeue.lease(store, "w1", ttl=10.0, now=t0)
        assert squeue.heartbeat(store, lease, ttl=10.0, now=t0 + 8)
        # The heartbeat pushed expiry to t0+18, so t0+15 cannot claim.
        assert squeue.lease(store, "w2", ttl=10.0, now=t0 + 15) is None
        stolen = squeue.lease(store, "w2", ttl=10.0, now=t0 + 19)
        assert stolen is not None
        # The original worker's lease is gone; its heartbeat must say so.
        assert not squeue.heartbeat(store, lease, ttl=10.0, now=t0 + 20)

    def test_completion_is_first_write_wins(self, store):
        run_id = squeue.submit(store, [naive_cell()])
        t0 = 1000.0
        lease = squeue.lease(store, "w1", ttl=10.0, now=t0)
        assert squeue.complete(store, lease, runs=3, steps=30, elapsed=0.1)
        # Double delivery (retry, stale worker) must be a no-op.
        assert not squeue.complete(store, lease, runs=3, steps=30, elapsed=0.1)
        (shard,) = store.shard_rows(run_id)
        assert shard["status"] == "done" and shard["runs"] == 3
        assert store.run_row(run_id)["status"] == "complete"
        assert squeue.drained(store, run_id=run_id)

    def test_stale_worker_may_still_complete_first(self, store):
        # Deterministic cells make late delivery byte-identical, so the
        # protocol lets a worker whose lease expired complete the shard
        # — as long as nobody else completed it first.
        run_id = squeue.submit(store, [naive_cell()])
        t0 = 1000.0
        stale = squeue.lease(store, "slow", ttl=1.0, now=t0)
        reclaimed = squeue.lease(store, "fast", ttl=10.0, now=t0 + 2)
        assert squeue.complete(store, stale, runs=1, steps=10, elapsed=0.1)
        assert not squeue.complete(store, reclaimed, runs=1, steps=10, elapsed=0.1)
        (shard,) = store.shard_rows(run_id)
        assert shard["completed_by"] == "slow"

    def test_cell_verdicts_are_idempotent(self, store):
        run_id = squeue.submit(store, [naive_cell()])
        kwargs = dict(
            label="naive/swarm:x",
            cell_fingerprint="f" * 16,
            expected="violation",
            ok=True,
            fingerprints=["class-a"],
            runs=5,
            steps=50,
            incomplete=0,
            elapsed=0.2,
            note="",
            worker="w1",
        )
        assert store.record_cell_verdict(run_id, 0, **kwargs)
        assert not store.record_cell_verdict(
            run_id, 0, **{**kwargs, "runs": 999}
        )
        (row,) = store.verdict_rows(run_id)
        assert row["runs"] == 5  # first write won

    def test_replay_trend_is_append_only(self, store):
        store.record_replay_verdict("e1", "label#e1", "fp", ok=True, now=1.0)
        store.record_replay_verdict(
            "e1", "label#e1", "fp", ok=False, detail="drifted", now=2.0
        )
        rows = store.replay_rows("e1")
        assert [bool(row["ok"]) for row in rows] == [True, False]
        assert rows[1]["detail"] == "drifted"


class TestWorkerParity:
    def test_worker_verdicts_are_the_run_cell_outcomes(self, store, tmp_path):
        cells = [naive_cell(budget=4), clean_cell(budget=2)]
        run_id = squeue.submit(store, cells, options={"shrink": False})
        summary = run_worker(
            tmp_path / "service.db", run_id=run_id, poll_interval=0.01
        )
        assert summary.shards == 2 and summary.cells == 2
        verdicts = status(store, run_id).verdicts
        assert [verdict.cell_index for verdict in verdicts] == [0, 1]
        for verdict, cell in zip(verdicts, cells):
            outcome = run_cell(cell)
            assert verdict.label == cell.label()
            assert verdict.ok == outcome.ok
            assert list(verdict.class_fingerprints) == outcome.class_fingerprints
            assert (verdict.runs, verdict.steps, verdict.incomplete) == (
                outcome.runs,
                outcome.steps,
                outcome.incomplete,
            )

    def test_worker_fleet_matches_the_inline_worker(self, tmp_path):
        cells = [naive_cell(), clean_cell()]
        fleet_corpus = tmp_path / "fleet-corpus"
        inline_corpus = tmp_path / "inline-corpus"
        lines = []
        fleet = run_service_campaign(
            cells,
            workers=2,
            shard_size=1,
            max_shrink_replays=150,
            corpus_dir=fleet_corpus,
            progress=lines.append,
        )
        assert fleet.ok, fleet.summary()
        assert "2 worker(s)" in lines[0]
        assert fleet.attempts >= 2 and fleet.complete
        inline = run_service_campaign(
            cells, workers=1, max_shrink_replays=150, corpus_dir=inline_corpus
        )
        assert inline.ok
        fleet_files = sorted(p.name for p in fleet_corpus.glob("*.json"))
        inline_files = sorted(p.name for p in inline_corpus.glob("*.json"))
        assert fleet_files == inline_files and fleet_files
        assert verdicts_payload(fleet) == verdicts_payload(inline)

    def test_inline_and_watched_verdict_lines_are_identical(self, tmp_path):
        # The inline worker prints each verdict as the cell finishes;
        # watch prints it back from the recorded row. Same renderer, same
        # bytes — for clean, violating and STALLED cells alike.
        stalled = CampaignCell(
            implementation="mp_emulation",
            scenario=make_scenario(
                "mp_register", n=4, f=1, seed=0, faults=(("drop", 1, 0, 1.0),)
            ),
            engine="swarm",
            budget=2,
            expect_violation=True,
        )
        db = tmp_path / "service.db"
        printed = []
        result = run_service_campaign(
            [clean_cell(), naive_cell(budget=4), stalled],
            workers=1,
            db=db,
            shrink_violations=False,
            progress=printed.append,
        )
        assert result.ok, result.summary()
        watched = []
        with ResultsStore(db) as replay_store:
            watch(replay_store, result.run_id, interval=0.01, emit=watched.append)
        assert printed[1:] == watched
        assert "clean (as expected)" in watched[0]
        assert "1 violation class(es) (as expected)" in watched[1]
        assert "stall class(es) (as expected)" in watched[2]

    def test_watch_streams_each_verdict_once(self, store, tmp_path):
        run_id = squeue.submit(
            store, [clean_cell(budget=2)], options={"shrink": False}
        )
        run_worker(tmp_path / "service.db", run_id=run_id, poll_interval=0.01)
        lines = []
        result = watch(store, run_id, interval=0.01, emit=lines.append)
        assert result.complete and len(lines) == 1

    def test_watch_raises_when_workers_die_with_work_left(self, store):
        run_id = squeue.submit(store, [clean_cell()])
        with pytest.raises(ConfigurationError, match="worker"):
            watch(store, run_id, interval=0.01, liveness=lambda: False)


class TestClientStatusAndDrift:
    def _record(self, store, run_id, ok, fingerprints, cell_fp="c" * 16):
        store.record_cell_verdict(
            run_id,
            0,
            label="naive/swarm:x",
            cell_fingerprint=cell_fp,
            expected="violation",
            ok=ok,
            fingerprints=fingerprints,
            runs=1,
            steps=10,
            incomplete=0,
            elapsed=0.1,
            note="",
            worker="w1",
        )

    def test_status_requires_a_known_run(self, store):
        with pytest.raises(ConfigurationError, match="no runs"):
            status(store)
        squeue.submit(store, [naive_cell()])
        with pytest.raises(ConfigurationError, match="unknown run"):
            status(store, "rnope")

    def test_drift_reports_flipped_verdicts_and_changed_classes(self, store):
        first = squeue.submit(store, [naive_cell()], run_id="r1", now=1.0)
        second = squeue.submit(store, [naive_cell()], run_id="r2", now=2.0)
        third = squeue.submit(store, [naive_cell()], run_id="r3", now=3.0)
        self._record(store, first, ok=True, fingerprints=["class-a"])
        # Same verdict, same classes: no drift.
        self._record(store, second, ok=True, fingerprints=["class-a"])
        assert status(store, second).drift == []
        # Changed class set drifts; flipped verdict drifts louder.
        self._record(store, third, ok=False, fingerprints=["class-b"])
        (entry,) = status(store, third).drift
        assert entry.prior_run == second
        assert "flipped" in entry.detail

    def test_prior_verdict_orders_by_submission_time(self, store):
        for run_id, stamp in (("r1", 1.0), ("r2", 2.0), ("r3", 3.0)):
            squeue.submit(store, [naive_cell()], run_id=run_id, now=stamp)
            self._record(store, run_id, ok=True, fingerprints=[])
        prior = store.prior_verdict("c" * 16, "r3")
        assert prior["run_id"] == "r2"
        assert store.prior_verdict("c" * 16, "r1") is None


class TestServiceCli:
    def test_submit_worker_status_round_trip(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        db = str(tmp_path / "service.db")
        verdicts = tmp_path / "verdicts.json"
        assert (
            main(
                [
                    "campaign",
                    "--submit",
                    "--only",
                    "naive",
                    "--budget",
                    "6",
                    "--no-corpus",
                    "--db",
                    db,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "submitted run" in out and "--worker" in out
        assert main(["campaign", "--worker", "--db", db]) == 0
        assert "worker" in capsys.readouterr().out
        assert (
            main(
                [
                    "campaign",
                    "--status",
                    "--db",
                    db,
                    "--verdicts",
                    str(verdicts),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cells matched expectations" in out
        doc = json.loads(verdicts.read_text())
        assert doc["cells"] and all(cell["ok"] for cell in doc["cells"])

    def test_service_modes_are_mutually_exclusive(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--submit", "--worker"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_worker_rejects_matrix_flags(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--worker", "--smoke"])
        assert excinfo.value.code == 2
        assert "--smoke" in capsys.readouterr().err

    def test_replay_records_the_trend(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        db = tmp_path / "service.db"
        run_service_campaign(
            [naive_cell()],
            workers=1,
            corpus_dir=tmp_path / "corpus",
            max_shrink_replays=150,
        )
        assert (
            main(
                [
                    "campaign",
                    "--replay",
                    "--corpus",
                    str(tmp_path / "corpus"),
                    "--db",
                    str(db),
                ]
            )
            == 0
        )
        assert "recorded 1 replay verdict" in capsys.readouterr().out
        replay_store = ResultsStore(db)
        rows = replay_store.replay_rows()
        replay_store.close()
        assert len(rows) == 1 and bool(rows[0]["ok"])

    def test_replay_covers_the_committed_corpus(self, tmp_path, capsys):
        # The committed corpus — including the snapshot freshness-hole
        # counterexample and the broadcast forks — feeds the service
        # replay-trend table: every entry replays ok and is recorded.
        from pathlib import Path

        from repro.analysis.__main__ import main

        db = tmp_path / "service.db"
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        assert (
            main(
                [
                    "campaign",
                    "--replay",
                    "--corpus",
                    str(corpus),
                    "--db",
                    str(db),
                ]
            )
            == 0
        )
        capsys.readouterr()
        replay_store = ResultsStore(db)
        rows = replay_store.replay_rows()
        replay_store.close()
        assert rows and all(bool(row["ok"]) for row in rows)
        labels = [row["entry_label"] for row in rows]
        for family in ("snapshot(", "broadcast(", "reliable_broadcast("):
            assert any(label.startswith(family) for label in labels), labels


class TestExploreRegistryLabels:
    def test_explore_accepts_any_registry_label(self, capsys):
        from repro.analysis.__main__ import main

        code = main(
            [
                "explore",
                "--scenario",
                "test_or_set/swarm:theorem29(f=1)",
                "--budget",
                "40",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "registry record" in out and "PASS" in out

    def test_explore_rejects_unknown_labels(self, capsys):
        from repro.analysis.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--scenario", "no-such-record"])
        assert excinfo.value.code == 2
        assert "unknown scenario record" in capsys.readouterr().err
