"""The differential conformance campaign layer (repro.campaign).

Covers the matrix builder (all six implementation families, both
engines, differential expectations), the cell runner, whole campaigns
through the service (find / shrink / persist, expectation mismatches,
an inline worker against a fleet of two), the corpus round trip
(save / load / replay / dedupe), and the CLI front end.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.explore import execute_trace, fuzz, make_scenario, shrink
from repro.campaign import (
    CORPUS_VERSION,
    CampaignCell,
    CorpusEntry,
    IMPLEMENTATIONS,
    default_matrix,
    entry_from_shrunk,
    default_corpus_dir,
    entry_id_for,
    load_corpus,
    replay_entry,
    run_cell,
    save_entry,
)
from repro.service import run_service_campaign, verdicts_payload
from repro.spec import (
    AuthenticatedRegisterSpec,
    StickyRegisterSpec,
    TestOrSetSpec,
    VerifiableRegisterSpec,
)

#: A committed corpus entry whose params nest (a fault plan).
COMMITTED_ENTRY = default_corpus_dir() / "mp_register-9bf91604093e.json"
#: Any JSON document.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def _mutated(draw, value):
    """``value`` with one node, the root included, replaced by any JSON."""
    if isinstance(value, dict) and value and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(value)))
        return {**value, key: draw(_mutated(value[key]))}
    if isinstance(value, list) and value and draw(st.integers(0, 3)):
        index = draw(st.integers(0, len(value) - 1))
        return value[:index] + [draw(_mutated(value[index]))] + value[index + 1 :]
    return draw(JSON_VALUES)


#: A fast known-violating cell: the naive strawman under the flip-flop
#: collusion breaks almost every schedule, so tiny budgets suffice.
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


class TestMatrix:
    def test_default_matrix_covers_every_implementation(self):
        cells = default_matrix()
        assert {cell.implementation for cell in cells} == set(IMPLEMENTATIONS)
        assert {cell.engine for cell in cells} == {"swarm", "systematic"}

    def test_matrix_encodes_the_papers_boundary(self):
        cells = default_matrix(smoke=True)
        expectations = {
            (cell.implementation, cell.scenario.label()): cell.expect_violation
            for cell in cells
        }
        # Theorem 29: violating at n = 3f, clean at n = 3f + 1.
        assert expectations[("test_or_set", "theorem29(f=1)")] is True
        assert (
            expectations[("test_or_set", "theorem29(extra_correct=True,f=1)")]
            is False
        )
        # Algorithms 1-3 and the baseline are never expected to violate.
        for (implementation, _label), expect in expectations.items():
            if implementation in (
                "verifiable",
                "authenticated",
                "sticky",
                "signature_baseline",
            ):
                assert expect is False

    def test_implementation_filter_and_validation(self):
        cells = default_matrix(implementations=("naive", "test_or_set"))
        assert {cell.implementation for cell in cells} == {"naive", "test_or_set"}
        with pytest.raises(ConfigurationError):
            default_matrix(implementations=("quantum",))

    def test_oracle_mapping_is_differential(self):
        # The strawman and the signature baseline are judged against the
        # same spec as Algorithm 1 — that is what makes the check
        # differential rather than per-implementation.
        from repro.scenarios import binding_for

        def spec(family):
            return binding_for(family).spec_factory()

        assert isinstance(spec("naive"), VerifiableRegisterSpec)
        assert isinstance(spec("verifiable"), VerifiableRegisterSpec)
        assert isinstance(spec("signature_baseline"), VerifiableRegisterSpec)
        assert isinstance(spec("authenticated"), AuthenticatedRegisterSpec)
        assert isinstance(spec("sticky"), StickyRegisterSpec)
        assert isinstance(spec("test_or_set"), TestOrSetSpec)
        with pytest.raises(ConfigurationError):
            binding_for("quantum")

    def test_oracle_mapping_agrees_with_the_runtime_rules(self):
        # A family's binding names the spec the campaign checks; the
        # register cells are judged under the rules of the binding their
        # kind resolves to. Both read the registry's one family→oracle
        # table (repro.scenarios.bindings), so two implementations share
        # an oracle iff their kinds share rules.
        from repro.scenarios import (
            FAMILY_BINDINGS,
            binding_for,
            binding_for_kind,
            kind_for,
        )

        register_impls = sorted(
            family
            for family, binding in FAMILY_BINDINGS.items()
            if binding.kind is not None
        )
        for a in register_impls:
            for b in register_impls:
                same_oracle = type(binding_for(a).spec_factory()) is type(
                    binding_for(b).spec_factory()
                )
                same_rules = (
                    binding_for_kind(kind_for(a)).rules
                    == binding_for_kind(kind_for(b)).rules
                )
                assert same_oracle == same_rules, (a, b)


class TestServiceCampaign:
    def test_finds_shrinks_and_persists(self, tmp_path):
        result = run_service_campaign(
            [naive_cell()],
            workers=1,
            corpus_dir=tmp_path,
            max_shrink_replays=150,
        )
        assert result.ok, result.summary()
        assert result.runs >= 1 and result.runs_per_sec > 0
        assert [row["state"] for row in result.violations] == ["shrunk"]
        assert len(result.corpus_written) == 1
        (entry,) = load_corpus(tmp_path)
        assert entry.scenario == "register"
        assert replay_entry(entry).ok

    def test_second_campaign_does_not_churn_the_corpus(self, tmp_path):
        first = run_service_campaign(
            [naive_cell()], workers=1, corpus_dir=tmp_path, max_shrink_replays=150
        )
        assert first.corpus_written
        (path,) = [p for p in tmp_path.glob("*.json")]
        before = path.read_text()
        second = run_service_campaign(
            [naive_cell()], workers=1, corpus_dir=tmp_path, max_shrink_replays=150
        )
        assert not second.corpus_written
        (row,) = second.violations
        assert row["detail"] == "already recorded"
        assert row["corpus_path"] == str(path)
        assert path.read_text() == before

    def test_expectation_mismatch_fails_the_campaign(self):
        # A clean scenario expected to violate: 2 runs cannot find a
        # violation in Algorithm 1, so the cell must report a mismatch.
        cell = CampaignCell(
            implementation="verifiable",
            scenario=make_scenario("register", kind="verifiable", n=4, seed=0),
            engine="swarm",
            budget=2,
            expect_violation=True,
        )
        result = run_service_campaign([cell], workers=1, shrink_violations=False)
        assert result.complete and not result.ok
        (mismatch,) = result.mismatched
        assert mismatch.label == cell.label()

    def test_two_workers_match_the_inline_worker(self):
        cells = [
            naive_cell(budget=4),
            CampaignCell(
                implementation="test_or_set",
                scenario=make_scenario("theorem29", f=1, extra_correct=True),
                engine="swarm",
                budget=10,
                expect_violation=False,
            ),
        ]
        lines = []
        inline = run_service_campaign(cells, workers=1, shrink_violations=False)
        fleet = run_service_campaign(
            cells, workers=2, shrink_violations=False, progress=lines.append
        )
        assert "2 worker(s)" in lines[0]
        assert json.dumps(verdicts_payload(fleet), sort_keys=True) == json.dumps(
            verdicts_payload(inline), sort_keys=True
        )

    def test_systematic_engine_cell(self):
        cell = CampaignCell(
            implementation="test_or_set",
            scenario=make_scenario("theorem29", f=1),
            engine="systematic",
            budget=300,
            expect_violation=True,
        )
        result = run_service_campaign([cell], workers=1, shrink_violations=False)
        assert result.ok, result.summary()
        assert result.verdicts[0].class_fingerprints

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            run_service_campaign([], workers=1)

    def test_duplicate_cells_keep_separate_verdicts(self):
        # Equal cells hash equal; the run must still record one verdict
        # per matrix position, across two workers too.
        cells = [naive_cell(budget=3), naive_cell(budget=3)]
        result = run_service_campaign(cells, workers=2, shrink_violations=False)
        assert [verdict.cell_index for verdict in result.verdicts] == [0, 1]
        assert all(verdict.runs >= 1 for verdict in result.verdicts)
        assert result.runs == sum(verdict.runs for verdict in result.verdicts)

    def test_one_shard_runs_inline_whatever_the_worker_count(self, monkeypatch):
        # More workers than shards would only import, poll and exit: a
        # one-cell run takes the inline path and starts no subprocess.
        import repro.service.client

        def no_subprocess():
            raise AssertionError("a one-shard run started a worker process")

        monkeypatch.setattr(repro.service.client, "pool_context", no_subprocess)
        lines = []
        result = run_service_campaign(
            [naive_cell(budget=3)],
            workers=4,
            shrink_violations=False,
            progress=lines.append,
        )
        assert result.ok, result.summary()
        assert lines[0].endswith("1 cell(s) in 1 shard(s), 1 worker(s)")


class TestPinnedStepCounts:
    """The simulated work behind the `campaign-apps` / `campaign-mp`
    benchmark workloads, as counts: a hot-path change to values, done
    predicates or network folds must leave every run step-identical."""

    @staticmethod
    def totals(cells):
        outcomes = [run_cell(cell) for cell in cells]
        assert all(outcome.ok and not outcome.incomplete for outcome in outcomes)
        return (
            sum(outcome.steps for outcome in outcomes),
            sum(outcome.runs for outcome in outcomes),
        )

    def test_clean_app_cells_at_the_resilience_bound(self):
        def at_bound(cell):
            params = dict(cell.scenario.params)
            return params["n"] == 3 * params["f"] + 1

        cells = [
            cell
            for cell in default_matrix(smoke=True, seed0=0, swarm_budget=4)
            if cell.engine == "swarm"
            and not cell.expect_violation
            and cell.implementation
            in ("snapshot", "asset_transfer", "broadcast", "reliable_broadcast")
            and at_bound(cell)
        ]
        assert len(cells) == 5
        assert self.totals(cells) == (300_111, 20)

    def test_clean_mp_emulation_cells(self):
        cells = [
            cell
            for cell in default_matrix(smoke=True, seed0=0, swarm_budget=100)
            if cell.implementation == "mp_emulation" and not cell.expect_violation
        ]
        assert self.totals(cells) == (191_749, 300)


class TestCorpus:
    @pytest.fixture(scope="class")
    def shrunk(self):
        scenario = NAIVE_ATTACK
        report = fuzz(scenario, budget=6, stop_on_violation=True)
        assert report.violations
        return scenario, shrink(scenario, report.violations[0], max_replays=150)

    def test_entry_round_trips_through_json(self, shrunk, tmp_path):
        scenario, minimized = shrunk
        entry = entry_from_shrunk(scenario, minimized, source="unit test")
        path, written = save_entry(tmp_path, entry)
        assert written and path.exists()
        (loaded,) = load_corpus(tmp_path)
        assert loaded == entry
        # Params survive the JSON round trip as hashable tuples, so the
        # scenario label (and with it the fingerprint) is unchanged.
        assert loaded.scenario_spec().label() == scenario.label()

    def test_replay_detects_clean_and_drifted_traces(self, shrunk):
        scenario, minimized = shrunk
        entry = entry_from_shrunk(scenario, minimized)
        assert replay_entry(entry).ok
        drifted = CorpusEntry(
            entry_id=entry.entry_id,
            scenario=entry.scenario,
            params=entry.params,
            trace=entry.trace,
            reason=entry.reason,
            fingerprint="register:not-this-class",
        )
        outcome = replay_entry(drifted)
        assert not outcome.ok and "violation drifted" in outcome.detail
        stale = dataclasses.replace(entry, reason=entry.reason + " (stale)")
        outcome = replay_entry(stale)
        assert not outcome.ok and "reason drifted" in outcome.detail
        assert outcome.violation.reason == entry.reason
        clean = CorpusEntry(
            entry_id="deadbeef0000",
            scenario="theorem29",
            params=(("extra_correct", True), ("f", 1)),
            trace=(),
            reason="never",
            fingerprint="theorem29(extra_correct=True,f=1):never",
        )
        outcome = replay_entry(clean)
        assert not outcome.ok and "no longer violates" in outcome.detail

    def test_entry_ids_are_stable(self, shrunk):
        scenario, minimized = shrunk
        first = entry_from_shrunk(scenario, minimized)
        second = entry_from_shrunk(scenario, minimized)
        assert first.entry_id == second.entry_id
        assert first.entry_id == entry_id_for(scenario, first.fingerprint)

    def test_wrong_version_is_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            json.dumps({"version": CORPUS_VERSION + 1, "scenario": "theorem29"})
        )
        with pytest.raises(ConfigurationError, match="version"):
            load_corpus(tmp_path)

    def test_unknown_scenario_is_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            json.dumps(
                {
                    "version": CORPUS_VERSION,
                    "entry_id": "x",
                    "scenario": "nope",
                    "params": [],
                    "trace": [],
                    "reason": "",
                    "fingerprint": "",
                }
            )
        )
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: [doc],  # a top-level array
            lambda doc: {**doc, "params": doc["params"] + [["faults", {"a": 1}]]},
            lambda doc: {**doc, "params": doc["params"] + [["", 1]]},
            lambda doc: {
                **doc,
                "params": [["n", "4"] if k == "n" else [k, v] for k, v in doc["params"]],
            },
        ],
        ids=["top-level-array", "object-param", "unknown-param", "mistyped-param"],
    )
    def test_malformed_documents_are_refused_naming_the_file(self, tmp_path, mutate):
        doc = json.loads(COMMITTED_ENTRY.read_text())
        (tmp_path / "bad.json").write_text(json.dumps(mutate(doc)))
        with pytest.raises(ConfigurationError, match="bad.json"):
            load_corpus(tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(doc=_mutated(json.loads(COMMITTED_ENTRY.read_text())))
    def test_a_mutated_entry_loads_whole_or_is_refused(self, doc):
        with tempfile.TemporaryDirectory() as directory:
            (Path(directory) / "bad.json").write_text(json.dumps(doc))
            try:
                entries = load_corpus(directory)
            except ConfigurationError as exc:
                assert "bad.json" in str(exc)
                return
        (entry,) = entries
        hash(entry.scenario_spec())
        assert entry.label().startswith(entry.scenario)
        json.dumps(entry.to_json())

    def test_missing_directory_is_an_empty_corpus(self, tmp_path):
        assert load_corpus(tmp_path / "absent") == []


class TestCampaignCli:
    def test_list_mentions_campaign(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--list"]) == 0
        assert "campaign" in capsys.readouterr().out

    def test_campaign_subset_passes_and_writes_corpus(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        code = main(
            [
                "campaign",
                "--only",
                "naive",
                "--budget",
                "8",
                "--corpus",
                str(tmp_path),
                "--db",
                str(tmp_path / "service.db"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out
        entries = load_corpus(tmp_path)
        assert entries, "the naive flip-flop violation must reach the corpus"
        assert all(replay_entry(entry).ok for entry in entries)

    def test_campaign_replay_mode(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        # An empty corpus fails loudly: CI replays the committed corpus,
        # and a lost corpus directory must not pass vacuously.
        db = str(tmp_path / "service.db")
        assert (
            main(["campaign", "--replay", "--corpus", str(tmp_path), "--db", db])
            == 1
        )
        result = run_service_campaign(
            [naive_cell()], workers=1, corpus_dir=tmp_path, max_shrink_replays=150
        )
        assert result.corpus_written
        capsys.readouterr()
        assert (
            main(["campaign", "--replay", "--corpus", str(tmp_path), "--db", db])
            == 0
        )
        out = capsys.readouterr().out
        assert "PASS" in out and "still reproduce" in out

    def test_replay_rejects_matrix_flags(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--replay", "--only", "naive"])
        assert excinfo.value.code == 2
        assert "--replay" in capsys.readouterr().err

    def test_campaign_help_exits_cleanly(self):
        from repro.analysis.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--help"])
        assert excinfo.value.code == 0


def test_committed_corpus_has_the_known_violations():
    """The repo ships a corpus seeded with both paper-expected bugs."""
    from repro.campaign import default_corpus_dir

    entries = load_corpus(default_corpus_dir())
    scenarios = {entry.scenario for entry in entries}
    assert "theorem29" in scenarios, "Theorem 29 relay violation must be recorded"
    assert "register" in scenarios, "naive strawman violation must be recorded"
