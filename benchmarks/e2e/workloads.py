"""The seven workloads: inputs from a seed, one timed public call, a verdict check.

Every workload goes through the entry point a user would hit —
``repro.service.run_service_campaign``, ``repro.explore.explore`` or
``repro.net.run_live`` — with inputs generated from the seed by the
repo's own generators (``default_matrix(seed0=…)``, ``LiveProfile(seed=…,
fault_seed=…)``). ``prepare`` is set-up (untimed, reported as
``setup_s``), ``execute`` is the timed section, ``judge`` checks the
outcome and counts what was attempted and what failed.

All are closed loops driven from one process: the campaign and explore
workloads are single-threaded calls, the net workloads run two load
clients (= ``nproc`` on the sizing host) that each wait for a reply
before sending the next operation.

``repro`` is imported inside the functions, so that importing this
module costs nothing and the import lands in ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping

REGISTER_FAMILIES = (
    "verifiable",
    "authenticated",
    "sticky",
    "signature_baseline",
    "naive",
    "test_or_set",
)
APP_FAMILIES = ("snapshot", "asset_transfer", "broadcast", "reliable_broadcast")

#: net-lossy's chaos plan: the PR 8 fault vocabulary on every link.
LOSSY_FAULTS = (
    ("drop", 0, 0, 0.2),
    ("dup", 0, 0, 0.1),
    ("delay", 0, 0, 0.15, 9),
)
NET_CLIENTS = 2
NET_ROUNDS = 4
#: Seconds without progress before the live monitor says STALLED. The
#: default, 2 s, is a verdict on the host as much as on the cluster: a
#: net-lossy round spends half its wall waiting on retransmit timers,
#: and when the process is held for longer than the window while it
#: waits (SIGSTOP for 2.4 s: 2 rounds of 20; a paused or starved guest
#: does the same) the monitor wakes before any frame does and reports a
#: stall. A real stall still ends the round well inside ROUND_TIMEOUT_S.
NET_STALL_WINDOW_S = 20.0


@dataclass
class Judgement:
    """What one round did, as the parent aggregates it."""

    #: Work items completed; ``items_per_s`` is this over the timed wall
    #: (over the load phase for net-*).
    items: int
    attempted: int
    failed: int
    #: Counts that must repeat exactly across rounds of one seed.
    counts: Dict[str, int]
    problems: List[str] = field(default_factory=list)
    #: Seconds ``items`` were produced in, when not the whole timed wall.
    items_seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    size: Mapping[str, int]
    #: (seed, round index, size) -> inputs
    prepare: Callable[[int, int, Mapping[str, int]], Any]
    execute: Callable[[Any, Path], Any]
    judge: Callable[[Any, Any], Judgement]
    note: str = ""


# ----------------------------------------------------------------------
# campaign-*: a filtered smoke matrix through the campaign service
# ----------------------------------------------------------------------
@dataclass
class CampaignInputs:
    cells: List[Any]
    max_shrink_replays: int


def _is_clean_swarm(cell: Any) -> bool:
    return cell.engine == "swarm" and not cell.expect_violation


def _registers(cell: Any) -> bool:
    return _is_clean_swarm(cell) and cell.implementation in REGISTER_FAMILIES


def _apps(cell: Any) -> bool:
    params = dict(cell.scenario.params)
    return (
        _is_clean_swarm(cell)
        and cell.implementation in APP_FAMILIES
        and params["n"] == 3 * params["f"] + 1
    )


def _mp(cell: Any) -> bool:
    return cell.implementation == "mp_emulation" and not cell.expect_violation


def _violating(cell: Any) -> bool:
    # Two kinds of violation-expecting smoke cells are left out. The
    # naive flip-flop cell: whether its seeded operation script can
    # violate at all depends on the seed (6 of seeds 0..39 never do in
    # 150 runs), and a benchmark workload may not fail at any seed. The
    # two dpor broadcast systematic cells: 159 find-runs each (~4 s
    # together) for classes their swarm twins already claimed, which
    # would leave room for a single round per run.
    if not cell.expect_violation or cell.implementation == "naive":
        return False
    return cell.engine == "swarm" or cell.implementation == "test_or_set"


def _prepare_campaign(select: Callable[[Any], bool]):
    def prepare(seed: int, index: int, size: Mapping[str, int]) -> CampaignInputs:
        # Every round of a seed gets the same matrix, so the counts the
        # campaign reports must repeat exactly from round to round.
        from repro.campaign import default_matrix

        matrix = default_matrix(
            smoke=True, seed0=seed, swarm_budget=size["swarm_budget"]
        )
        return CampaignInputs(
            cells=[cell for cell in matrix if select(cell)],
            max_shrink_replays=size.get("max_shrink_replays", 400),
        )

    return prepare


def _run_campaign(inputs: CampaignInputs, scratch: Path) -> Any:
    from repro.service import run_service_campaign

    return run_service_campaign(
        inputs.cells,
        workers=1,
        db=scratch / "service.db",
        corpus_dir=scratch / "corpus",
        max_shrink_replays=inputs.max_shrink_replays,
    )


def _judge_campaign(count_shrunk: bool):
    def judge(inputs: CampaignInputs, status: Any) -> Judgement:
        problems = [
            f"cell {verdict.label}: ok={verdict.ok} incomplete={verdict.incomplete}"
            for verdict in status.verdicts
            if not verdict.ok or verdict.incomplete
        ]
        if len(status.verdicts) != len(inputs.cells) or not status.complete:
            problems.append(
                f"{len(status.verdicts)}/{len(inputs.cells)} verdicts recorded, "
                f"run {status.status}"
            )
        shrunk = 0
        for row in status.violations:
            if row["state"] == "shrunk" and row["detail"] == "written":
                shrunk += 1
            else:
                problems.append(
                    f"class {row['fingerprint'][:60]}: {row['state']} ({row['detail']})"
                )
        return Judgement(
            items=shrunk if count_shrunk else status.runs,
            attempted=len(inputs.cells) + len(status.violations),
            failed=len(problems),
            counts={
                "campaign.cells": len(status.verdicts),
                "campaign.runs": status.runs,
                "campaign.steps": status.steps,
                "explore.shrink.classes": shrunk,
            },
            problems=problems,
        )

    return judge


# ----------------------------------------------------------------------
# explore-certify: the n = 3f+1 certification under both reductions
# ----------------------------------------------------------------------
@dataclass
class ExploreInputs:
    scenario: Any
    symmetry: Any
    depth_bound: int
    budget: int


def _prepare_explore(seed: int, index: int, size: Mapping[str, int]) -> ExploreInputs:
    # Seed-free: the certification scenario has no seeded input; the
    # explorer enumerates its bounded schedule tree.
    from repro.explore import make_scenario, theorem29_symmetry

    return ExploreInputs(
        scenario=make_scenario("theorem29", f=2, extra_correct=True),
        symmetry=theorem29_symmetry(f=2, extra_correct=True),
        depth_bound=size["depth_bound"],
        budget=size["budget"],
    )


def _run_explore(inputs: ExploreInputs, scratch: Path) -> Any:
    from repro.explore import explore

    dpor = explore(
        inputs.scenario,
        reduction="dpor+symmetry",
        symmetry=inputs.symmetry,
        depth_bound=inputs.depth_bound,
        preemption_bound=2,
        budget=inputs.budget,
        prefix_sharing="replay",
    )
    # The sleep baseline gets exactly the runs dpor needed to exhaust
    # the tree, so both modes execute the same number of schedules.
    sleep = explore(
        inputs.scenario,
        reduction="sleep",
        depth_bound=inputs.depth_bound,
        preemption_bound=2,
        budget=dpor.runs,
        prefix_sharing="replay",
    )
    return dpor, sleep


def _judge_explore(inputs: ExploreInputs, outcome: Any) -> Judgement:
    dpor, sleep = outcome
    problems = []
    if not dpor.exhausted:
        problems.append(f"dpor did not exhaust the tree in {dpor.runs} runs")
    if sleep.runs != dpor.runs:
        problems.append(f"sleep ran {sleep.runs} of {dpor.runs} schedules")
    for report in (dpor, sleep):
        if report.violations or report.incomplete:
            problems.append(
                f"{report.reduction}: {len(report.violations)} violation(s), "
                f"{report.incomplete} incomplete"
            )
    return Judgement(
        items=dpor.runs + sleep.runs,
        attempted=2,
        failed=len(problems),
        counts={
            "explore.dpor.runs": dpor.runs,
            "explore.dpor.states": dpor.states,
            "explore.sleep.runs": sleep.runs,
            "explore.sleep.states": sleep.states,
        },
        problems=problems,
    )


# ----------------------------------------------------------------------
# net-*: a live localhost cluster under closed-loop load
# ----------------------------------------------------------------------
def _prepare_net(faults: tuple):
    def prepare(seed: int, index: int, size: Mapping[str, int]) -> Any:
        from repro.net import LiveProfile, run_live

        # Each round of a seed draws its own operation sequence and fault
        # pattern. A round is a few hundred operations, and how many of
        # them are (slow) transfers swings its wall by a tenth from one
        # draw to the next; the median over a run's rounds averages that
        # out, where repeating one draw would report it as the seed's.
        # Nothing a live run counts repeats exactly anyway.
        seed = seed * 1000 + index
        # Untimed warm-up cluster: first-use costs of asyncio, the
        # codec and the oracle are set-up, not load.
        run_live(
            LiveProfile(
                n=4,
                f=1,
                clients=NET_CLIENTS,
                rounds=1,
                ops_per_client=20,
                seed=seed,
                window=NET_STALL_WINDOW_S,
            )
        )
        return LiveProfile(
            n=4,
            f=1,
            clients=NET_CLIENTS,
            rounds=NET_ROUNDS,
            ops_per_client=size["ops_per_client"],
            seed=seed,
            faults=faults,
            fault_seed=seed + 7,
            window=NET_STALL_WINDOW_S,
        )

    return prepare


def _run_net(profile: Any, scratch: Path) -> Any:
    from repro.net import run_live

    return run_live(profile)


def _judge_net(profile: Any, report: Any) -> Judgement:
    from repro.net import check_evidence, evidence_bytes

    expected = profile.clients * profile.rounds * profile.ops_per_client
    done = report.load["ops"]
    problems = []
    if report.verdict != "CLEAN":
        problems.append(f"verdict {report.verdict}: {report.diagnosis}")
    if done != expected:
        problems.append(f"{done} of {expected} operations completed")
    latencies = []
    for doc in report.windows:
        if not doc["verdict"]["ok"]:
            problems.append(f"window {doc['window']}/{doc['object']} not linearizable")
        if evidence_bytes(check_evidence(doc)) != evidence_bytes(doc):
            problems.append(
                f"window {doc['window']}/{doc['object']} re-checks differently offline"
            )
        latencies.extend(
            (record["responded_at"] - record["invoked_at"]) / 1e6
            for record in doc["records"]
        )
    if not profile.faults and report.chaos["proxies"]:
        problems.append("chaos proxies present on the fault-free workload")
    return Judgement(
        items=done,
        items_seconds=report.load["duration_s"],
        attempted=expected + len(report.windows),
        failed=len(problems),
        # Not the window count: a round's draw may leave an object untouched.
        counts={"net.ops": done},
        problems=problems,
        latencies_ms=latencies,
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="campaign-registers",
            why=(
                "The paper's own algorithms (Alg. 1-3, baselines, test-or-set): "
                "sim + core + swarm scheduler + spec do all the work, ~2k steps "
                "per run, no explorer, no shrink."
            ),
            family="campaign",
            size={"swarm_budget": 24},
            prepare=_prepare_campaign(_registers),
            execute=_run_campaign,
            judge=_judge_campaign(count_shrunk=False),
        ),
        Workload(
            name="campaign-apps",
            why=(
                "Same code path, opposite shape: ~20k steps per run of nested "
                "scans over many backing registers; an app-only gain shows here "
                "and must not move campaign-registers."
            ),
            family="campaign",
            size={"swarm_budget": 4},
            prepare=_prepare_campaign(_apps),
            execute=_run_campaign,
            judge=_judge_campaign(count_shrunk=False),
        ),
        Workload(
            name="campaign-mp",
            why=(
                "mp + faults under virtual time (reliable, fair-lossy with "
                "retransmit, crash-stop): the sim-side twin of net-*; guards "
                "the one-protocol-core refactor."
            ),
            family="campaign",
            size={"swarm_budget": 100},
            prepare=_prepare_campaign(_mp),
            execute=_run_campaign,
            judge=_judge_campaign(count_shrunk=False),
        ),
        Workload(
            name="campaign-violating",
            why=(
                "Find, canonicalise, shrink, corpus write on the "
                "violation-expecting cells: explore.shrink is most of the wall "
                "here and none of it anywhere else."
            ),
            family="campaign",
            size={"swarm_budget": 150, "max_shrink_replays": 6},
            prepare=_prepare_campaign(_violating),
            execute=_run_campaign,
            judge=_judge_campaign(count_shrunk=True),
            note="items are counterexamples shrunk and written to the corpus",
        ),
        Workload(
            name="explore-certify",
            why=(
                "The n = 3f+1 certification to exhaustion under dpor+symmetry, "
                "then the same schedules' worth under sleep sets: a dpor gain "
                "that taxes sleep mode shows. Seed-free."
            ),
            family="explore",
            size={"depth_bound": 6, "budget": 4000},
            prepare=_prepare_explore,
            execute=_run_explore,
            judge=_judge_explore,
            note="seed-free: the scenario has no seeded input",
        ),
        Workload(
            name="net-clean",
            why=(
                "Live stack, CPU-bound: wire codec, node protocol, ack-only "
                "channel path, online oracle; no faults, so latency is "
                "processor time."
            ),
            family="net",
            size={"ops_per_client": 100},
            prepare=_prepare_net(()),
            execute=_run_net,
            judge=_judge_net,
            note=(
                "injected delay: none (loopback TCP, no chaos proxies); "
                "latency is processor time"
            ),
        ),
        Workload(
            name="net-lossy",
            why=(
                "Same channel layer used the other way: drop/dup/delay proxies, "
                "retransmit and dedup; latency is set by the 50 ms retransmit "
                "timer, so codec gains must not move it."
            ),
            family="net",
            size={"ops_per_client": 18},
            prepare=_prepare_net(LOSSY_FAULTS),
            execute=_run_net,
            judge=_judge_net,
            note=(
                "injected per link (loopback TCP): drop p=0.2, dup p=0.1, "
                "delay p=0.15 of 9 ms; retransmit timer 50 ms"
            ),
        ),
    )
}
