"""Self-test of the end-to-end benchmark harness (collected by tier-1).

Checks the arithmetic the reported numbers rest on, that
``BENCHMARK.json`` and the harness agree on every name, and — through a
tiny-budget in-process dry run — that a traced round produces what the
summary expects.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import one_round  # noqa: E402
import run  # noqa: E402
from spans import Tracer, percentile, self_times, supported_tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def span(id, start, end, parent=None, name="s"):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_nested_children_once():
    spans = [span(0, 0, 10), span(1, 1, 5, parent=0), span(2, 2, 4, parent=1)]
    own = self_times(spans)
    assert own == {0: 6, 1: 2, 2: 2}
    assert sum(own.values()) == 10


def test_self_time_counts_overlapping_children_once():
    # Two concurrent children cover [1, 6] between them; one sticks out
    # past the parent's end and is clipped to it.
    spans = [
        span(0, 0, 10),
        span(1, 1, 4, parent=0),
        span(2, 3, 6, parent=0),
        span(3, 9, 12, parent=0),
    ]
    assert self_times(spans)[0] == 10 - 5 - 1


def test_tracer_links_spans_to_the_innermost_open_one():
    tracer = Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    assert all(s["run"] == "t" and s["end"] >= s["start"] for s in tracer.spans)


@pytest.mark.parametrize(
    "samples, expected",
    [(10, 0.5), (40, 0.5), (41, 0.75), (200, 0.90), (201, 0.95), (1000, 0.95), (1001, 0.99)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(samples, expected):
    q = supported_tail(samples)
    assert q == expected
    if q > 0.5:
        assert len(range(samples)[int(q * samples) + 1:]) >= 10


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert percentile(ordered, 0.5) == 51
    assert percentile(ordered, 0.95) == 96
    assert percentile([7.0], 0.99) == 7.0


def test_benchmark_json_names_are_well_formed_and_the_harness_knows_them():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(name.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    for pooled in (run.POOLED_P50, run.POOLED_P95, *run.RAW):
        assert pooled in {m["name"] for m in SPEC["per_layer"]}


def test_dry_run_of_a_sim_workload_prints_every_declared_metric():
    size = {"swarm_budget": 2}
    rounds = [
        one_round.run_round("campaign-registers", 5, 0, traced, size=size)
        for traced in (True, False)
    ]
    assert all(r["failed"] == 0 and r["counts"]["campaign.runs"] == 20 for r in rounds)

    timed = run.summarise(SPEC, "campaign-registers", rounds, trace=False)
    assert timed["correct"] and timed["failed"] == 0
    assert list(timed["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(row["value"] > 0 and row["n"] == 2 for row in timed["metrics"].values())

    traced = run.summarise(SPEC, "campaign-registers", rounds, trace=True)
    assert traced["correct"], traced["problems"]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    crossed = {name for name, row in traced["metrics"].items() if row["n"]}
    assert {"sim.us_per_step", "spec.check_s", "campaign.cell_s.sticky",
            "service.overhead_s", "trace.overhead_share"} <= crossed
    assert not any(name.startswith("net.") for name in crossed)
    assert traced["metrics"]["campaign.runs"]["value"] == 20
    assert sum(traced["shares"].values()) == pytest.approx(1.0)
    assert (one_round.OUT_DIR / "trace-campaign-registers.jsonl").exists()

    result = json.loads(run.result_line([timed], prefix=False))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]["wall_s"]) == {"value", "unit"}


def test_rounds_that_disagree_on_a_count_fail_the_run():
    round_ = one_round.run_round("campaign-registers", 5, 0, False, size={"swarm_budget": 1})
    other = dict(round_, counts=dict(round_["counts"], **{"campaign.steps": 1}))
    summary = run.summarise(SPEC, "campaign-registers", [round_, other], trace=False)
    assert not summary["correct"]
    assert summary["failed"] == 1
    assert "counts differ" in summary["problems"][0]


def scripted_rounds(name, outcomes, trace=False):
    """``run.run_rounds`` over rounds that end as ``outcomes`` says, in turn."""
    asked = []

    def spawn(name, seed, index, traced):
        asked.append((index, traced))
        outcome = outcomes[min(len(asked), len(outcomes)) - 1]
        if outcome == "crash":
            raise run.RoundLost("exited 1")
        return {"problems": [outcome] if outcome else [], "raw_wall_s": 1.0}

    rounds, discarded = run.run_rounds(name, 3, 2.5, trace, spawn=spawn)
    return rounds, discarded, asked


@pytest.mark.parametrize("bad", ["crash", "verdict STALLED"])
def test_a_live_workload_may_lose_one_round_and_moves_to_the_next_sub_seed(bad):
    rounds, discarded, asked = scripted_rounds("net-lossy", [bad, ""])
    assert [r["problems"] for r in rounds] == [[], []]
    assert len(discarded) == 1 and discarded[0].startswith("round 0: ")
    assert asked == [(0, False), (1, False), (2, False)]


def test_a_discarded_traced_round_is_traced_again():
    _rounds, discarded, asked = scripted_rounds("net-lossy", ["crash", ""], trace=True)
    assert len(discarded) == 1 and discarded[0].startswith("round 0 (traced): ")
    assert asked == [(0, True), (1, True), (1, False)]


def test_a_second_bad_round_of_a_live_workload_fails_the_run():
    rounds, discarded, _asked = scripted_rounds("net-lossy", ["late", "", "stalled"])
    assert len(discarded) == 1
    assert [r["problems"] for r in rounds] == [[], ["stalled"]]
    with pytest.raises(run.RoundLost):
        scripted_rounds("net-lossy", ["late", "crash"])


def test_a_simulated_workload_may_lose_no_round():
    rounds, discarded, _asked = scripted_rounds("campaign-mp", ["cell not ok", ""])
    assert not discarded and rounds[0]["problems"] == ["cell not ok"]
    with pytest.raises(run.RoundLost):
        scripted_rounds("campaign-mp", ["crash"])
