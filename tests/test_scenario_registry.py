"""The unified scenario registry (repro.scenarios).

Covers the four contracts the registry owns:

* **one oracle per family** — every registered family has exactly one
  oracle binding, and ``oracle_for`` and ``binding_for_kind`` both
  read it, so there is no second family→oracle map to drift;
* **label round-trips** — every registered record's label resolves back
  to an identical record, and rebuilding a scenario spec from its
  serialized ``(name, params)`` reproduces the same fingerprint-relevant
  structure;
* **corpus stability** — every committed corpus entry's scenario
  resolves through the registry to the exact label its entry id and
  fingerprint were derived from;
* **the grown matrix** — the default campaign contains the app-level
  cells at both fault boundaries with their pinned expectations, the
  historical cell prefix is untouched, and an app cell runs end to end.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import scenarios
from repro.campaign import (
    IMPLEMENTATIONS,
    default_matrix,
    load_corpus,
    oracle_for,
)
from repro.campaign.matrix import CampaignCell
from repro.errors import ConfigurationError
from repro.service import run_service_campaign
from repro.sim import RoundRobinScheduler, System
from repro.scenarios import (
    ScenarioRecord,
    all_records,
    binding_for,
    grid,
    kind_for,
    make_scenario,
    binding_for_kind,
    registered_families,
    resolve,
    resolve_spec,
)
from repro.scenarios.registry import declare_byzantine

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


class TestOracleBindings:
    def test_every_registered_family_has_exactly_one_oracle(self):
        families = registered_families()
        assert families, "catalog registered no families"
        seen = {}
        for family in families:
            binding = binding_for(family)
            assert binding.family == family
            # Exactly one binding (the table is keyed by family), and it
            # renders exactly one spec type.
            assert family not in seen
            seen[family] = type(oracle_for(family))
        # Every record's family resolves — no orphan records.
        for record in all_records():
            binding_for(record.family)

    def test_campaign_families_are_registry_families(self):
        # The campaign covers exactly the families with at least one
        # campaign-consumer record — a subset of the registry, because
        # live-only families (wall-clock engine) can't expand into
        # campaign cells.
        campaign = tuple(IMPLEMENTATIONS)
        assert campaign == registered_families(consumer="campaign")
        assert set(campaign) < set(registered_families())
        assert "net" in registered_families()
        assert "net" not in campaign

    def test_oracle_for_and_binding_for_kind_raise_consistently(self):
        with pytest.raises(ConfigurationError):
            oracle_for("quantum")
        with pytest.raises(ConfigurationError):
            binding_for_kind("quantum")

    def test_app_families_are_bound(self):
        from repro.spec import AssetTransferSpec, BroadcastSpec, SnapshotSpec

        assert isinstance(oracle_for("snapshot"), SnapshotSpec)
        assert isinstance(oracle_for("asset_transfer"), AssetTransferSpec)
        assert kind_for("snapshot") is None
        assert kind_for("asset_transfer") is None
        # Both broadcast families share the one BroadcastSpec (they run
        # the same implementation under two object names).
        assert isinstance(oracle_for("broadcast"), BroadcastSpec)
        assert isinstance(oracle_for("reliable_broadcast"), BroadcastSpec)
        assert kind_for("broadcast") is None
        assert kind_for("reliable_broadcast") is None


class TestRoundTrips:
    def test_every_record_label_resolves_to_an_identical_record(self):
        for record in all_records():
            assert resolve(record.label()) == record
            assert resolve(record.label()).fingerprint() == record.fingerprint()

    def test_spec_round_trips_through_serialization(self):
        for record in all_records():
            spec = record.spec
            rebuilt = resolve_spec(spec.name, spec.params)
            assert rebuilt == spec
            assert rebuilt.label() == spec.label()

    def test_seeded_preserves_identity_at_the_default_seed(self):
        for record in all_records():
            assert record.seeded(0) == record

    def test_seeded_repins_workload_seeds_only(self):
        seeded = [r.seeded(7) for r in all_records()]
        for before, after in zip(all_records(), seeded):
            params_before = dict(before.spec.params)
            params_after = dict(after.spec.params)
            if "seed" in params_before:
                assert params_after["seed"] == 7
                params_after["seed"] = params_before["seed"]
            assert params_after == params_before
            assert after.family == before.family
            assert after.expect_violation is before.expect_violation

    def test_resolve_unknown_label_raises(self):
        with pytest.raises(ConfigurationError):
            resolve("no-such-family/swarm:nothing")

    def test_build_refuses_early_exit(self):
        # Every run is judged at its horizon; the keyword survives only
        # for benchmarks/e2e/layers.py, which passes False through.
        spec = make_scenario("register", kind="verifiable", n=4, seed=0)
        with pytest.raises(ConfigurationError):
            spec.build(RoundRobinScheduler(), early_exit=True)
        assert spec.build(RoundRobinScheduler(), early_exit=False).system

    def test_register_rejects_conflicting_record(self):
        record = all_records()[0]
        conflicting = ScenarioRecord(
            family=record.family,
            n=record.n,
            f=record.f,
            spec=record.spec,
            engine=record.engine,
            expect_violation=not record.expect_violation,
            consumers=record.consumers,
        )
        with pytest.raises(ConfigurationError):
            scenarios.register(conflicting)
        # Identical re-registration is an idempotent no-op.
        assert scenarios.register(record) == record

    def test_grid_filters(self):
        smoke = grid(consumer="smoke")
        assert smoke and all("smoke" in r.consumers for r in smoke)
        apps = grid(families=("snapshot", "asset_transfer"))
        assert {r.family for r in apps} == {"snapshot", "asset_transfer"}
        violating = grid(expect_violation=True)
        assert violating and all(r.expect_violation for r in violating)
        with pytest.raises(ConfigurationError):
            grid(consumer="quantum")


class TestByzantineCast:
    """Every builder validates its cast in one place, before any spawn."""

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"reader_adversaries": ((2, "lying"), (2, "stonewall"))}, "duplicate"),
            ({"reader_adversaries": ((1, "lying"),)}, "cannot be cast"),
            (
                {"writer_adversary": "silent", "reader_adversaries": ((1, "lying"),)},
                "duplicate",
            ),
        ],
        ids=["reader-twice", "correct-writer", "byzantine-writer-twice"],
    )
    def test_register_builder_refuses_a_malformed_cast(self, params, message):
        spec = make_scenario("register", kind="verifiable", n=4, seed=0, **params)
        with pytest.raises(ConfigurationError, match=message):
            spec.build(RoundRobinScheduler())

    def test_app_builder_refuses_a_pid_cast_twice(self):
        spec = make_scenario(
            "snapshot", n=4, f=1, seed=0, byzantine=((4, "stonewall"), (4, "deny"))
        )
        with pytest.raises(ConfigurationError, match="duplicate"):
            spec.build(RoundRobinScheduler())

    def test_a_refused_cast_declares_nothing(self):
        system = System(n=4)
        with pytest.raises(ConfigurationError, match="cannot be cast"):
            declare_byzantine(system, ((2, "lying"), (1, "lying")), eligible=(2, 3, 4))
        assert system.correct == frozenset(system.pids)


class TestCorpusResolution:
    """Historical corpus labels must resolve through the registry unchanged."""

    ENTRIES = load_corpus(CORPUS_DIR)

    @pytest.mark.parametrize(
        "entry", ENTRIES, ids=lambda entry: entry.entry_id
    )
    def test_entry_scenario_resolves_to_its_recorded_label(self, entry):
        from repro.campaign.corpus import entry_id_for

        spec = entry.scenario_spec()
        assert spec.name == entry.scenario
        assert spec.params == entry.params
        # The label is the identity the entry id and fingerprint were
        # minted from; resolving through the registry must not move it.
        assert entry.fingerprint.startswith(f"{spec.label()}:")
        assert entry_id_for(spec, entry.fingerprint) == entry.entry_id


class TestGrownMatrix:
    def test_default_matrix_contains_pinned_app_cells(self):
        cells = {
            (c.implementation, c.scenario.label()): c.expect_violation
            for c in default_matrix()
        }
        expectations = {
            (
                "snapshot",
                "snapshot(byzantine=((4, 'deny'),),f=1,n=4,seed=0)",
            ): False,
            (
                "snapshot",
                "snapshot(byzantine=((3, 'deny'),),f=1,n=3,seed=0)",
            ): False,
            (
                "asset_transfer",
                "asset_transfer(byzantine=((4, 'equivocate'),),f=1,n=4,seed=0)",
            ): False,
            (
                "asset_transfer",
                "asset_transfer(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)",
            ): True,
        }
        for key, expect in expectations.items():
            assert cells[key] is expect, key
        # The smoke matrix carries the app cells too (the CI contract).
        smoke = {
            (c.implementation, c.scenario.label()) for c in default_matrix(smoke=True)
        }
        assert set(expectations) <= smoke

    def test_historical_matrix_prefix_is_untouched(self):
        # The first cells of the default matrix are the pre-registry
        # matrix, cell for cell (labels pinned here; verdict stability
        # follows from cell-spec determinism).
        labels = [
            (c.implementation, c.scenario.label(), c.engine, c.expect_violation)
            for c in default_matrix(smoke=True)
        ]
        assert labels[:2] == [
            (
                "verifiable",
                "register(kind=verifiable,n=4,reader_adversaries=(),"
                "seed=0,writer_adversary=none)",
                "swarm",
                False,
            ),
            (
                "verifiable",
                "register(kind=verifiable,n=4,reader_adversaries=(),"
                "seed=0,writer_adversary=deny)",
                "swarm",
                False,
            ),
        ]
        assert labels[12:14] == [
            ("test_or_set", "theorem29(f=1)", "systematic", True),
            ("test_or_set", "theorem29(extra_correct=True,f=1)", "systematic", False),
        ]

    def test_freshness_boundary_cells_are_pinned(self):
        # The Byzantine-updater snapshot boundary: clean post-fix at
        # both n = 3f and n = 3f + 1, and the pre-fix configuration
        # (verify_freshness=False) pinned VIOLATING — the regression
        # guard for the embedded-scan freshness hole.
        cells = {
            c.scenario.label(): c.expect_violation
            for c in default_matrix()
            if c.implementation == "snapshot"
        }
        assert cells[
            "snapshot(byzantine=((4, 'byzantine_updater'),),f=1,n=4,seed=0)"
        ] is False
        assert cells[
            "snapshot(byzantine=((3, 'byzantine_updater'),),f=1,n=3,seed=0)"
        ] is False
        assert cells[
            "snapshot(byzantine=((4, 'byzantine_updater'),),f=1,n=4,seed=0,"
            "verify_freshness=False)"
        ] is True

    def test_broadcast_cells_are_pinned_at_the_paper_boundary(self):
        # Both broadcast families: clean at n = 3f + 1 under the
        # equivocating sender, violating at n = 3f (the fork), plus the
        # campaign-only stonewall breadth cell.
        for family in ("broadcast", "reliable_broadcast"):
            cells = {
                c.scenario.label(): c.expect_violation
                for c in default_matrix()
                if c.implementation == family
            }
            assert cells == {
                f"{family}(byzantine=((4, 'equivocate'),),f=1,n=4,seed=0)": False,
                f"{family}(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)": True,
                f"{family}(byzantine=((4, 'stonewall'),),f=1,n=4,seed=0)": False,
            }
            smoke = {
                c.scenario.label()
                for c in default_matrix(smoke=True)
                if c.implementation == family
            }
            assert (
                f"{family}(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)"
                in smoke
            )

    def test_new_cells_append_after_the_historical_prefix(self):
        # Registration order is contract: the freshness-boundary,
        # broadcast, and mp-emulation cells must extend the matrix,
        # never reorder it — every pre-existing cell keeps its index.
        labels = [
            (c.implementation, c.scenario.label()) for c in default_matrix()
        ]
        new = [
            index
            for index, (family, label) in enumerate(labels)
            if family in ("broadcast", "reliable_broadcast", "mp_emulation")
            or "byzantine_updater" in label
        ]
        old = [index for index in range(len(labels)) if index not in new]
        assert new and old
        assert min(new) > max(old)

    def test_extra_adversary_grids_are_registered(self):
        # The campaign-growth mixes: appended, campaign-only, clean.
        extras = [
            r
            for r in grid(consumer="campaign")
            if "smoke" not in r.consumers
            and r.family in ("verifiable", "authenticated", "sticky")
            and (
                dict(r.spec.params).get("writer_adversary") == "silent"
                or any(
                    name in ("stonewall", "flipflop")
                    for _pid, name in dict(r.spec.params).get(
                        "reader_adversaries", ()
                    )
                )
            )
        ]
        assert len(extras) >= 4
        assert all(not r.expect_violation for r in extras)

    def test_app_cell_runs_end_to_end(self):
        # One bounded snapshot cell through the campaign runner: the
        # registry record fully determines a runnable, judged cell.
        record = resolve(
            "snapshot/swarm:snapshot(byzantine=((3, 'deny'),),f=1,n=3,seed=0)"
        )
        cell = CampaignCell(
            implementation=record.family,
            scenario=record.spec,
            engine=record.engine,
            budget=3,
            expect_violation=record.expect_violation,
        )
        result = run_service_campaign([cell], workers=1, shrink_violations=False)
        assert result.ok, result.summary()
        assert result.runs == 3

    def test_asset_transfer_violating_cell_finds_the_double_spend(self):
        # The registry's violating boundary cell: the equivocating owner
        # forks its log at n = 3f and two auditors settle different
        # credits. A modest budget reliably exhibits it (the campaign
        # cell stops at the first hit).
        record = resolve(
            "asset_transfer/swarm:asset_transfer"
            "(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)"
        )
        assert record.expect_violation
        cell = CampaignCell(
            implementation=record.family,
            scenario=record.spec,
            engine=record.engine,
            budget=40,
            expect_violation=True,
        )
        result = run_service_campaign([cell], workers=1, shrink_violations=False)
        assert result.ok, result.summary()
        (violation,) = result.violations
        assert "asset-transfer linearizability" in violation["reason"]
