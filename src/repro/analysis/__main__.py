"""Run the experiment suite or the schedule explorer from the command line.

Usage::

    python -m repro.analysis                 # every experiment, full tables
    python -m repro.analysis E5 E11          # a subset, by experiment id
    python -m repro.analysis --list          # experiment ids and titles
    python -m repro.analysis explore         # schedule-space exploration
    python -m repro.analysis explore --budget 200 --f 2
    python -m repro.analysis campaign --smoke   # differential campaign
    python -m repro.analysis campaign --submit --smoke   # enqueue a run...
    python -m repro.analysis campaign --worker           # ...lease + execute it
    python -m repro.analysis campaign --status           # ...verdicts + drift
    python -m repro.analysis scenarios --list   # unified scenario registry
    python -m repro.analysis net --clients 50   # live socket cluster + load
    python -m repro.analysis net --cell <label> # a pinned live smoke cell
    python -m repro.analysis net --check ev.json  # offline evidence re-check

Each experiment of ``repro.analysis.experiments.EXPERIMENTS`` prints its
table and a PASS/FAIL verdict on the qualitative expectation it
reproduces (the table entry's ``holds``; ``tests/test_experiments.py``
asserts the same predicate).

The ``explore`` subcommand drives ``repro.explore`` end to end: bounded
systematic search plus a swarm fuzzing campaign over the Theorem 29
scenario at ``n = 3f`` (where it must find a Byzantine-linearizability
violation and shrink it to a ScriptedScheduler script) and at
``n = 3f + 1`` (where the same bounds must come back clean). Exit code
0 means the theorem's shape reproduced.

The ``campaign`` subcommand drives ``repro.campaign``: a differential
conformance matrix over every ``repro.core`` implementation family,
with discovered violations shrunk and persisted into the replayable
``corpus/`` regression corpus. Exit code 0 means every cell matched
the paper's expectation (and, with ``--replay``, that every committed
corpus entry still reproduces). The one-shot default runs on the
``repro.service`` substrate (submit + N workers + report, verdicts
recorded in the results database); ``--submit`` / ``--worker`` /
``--status`` / ``--watch`` expose the persistent queue directly, so a
long campaign survives worker crashes and can be drained by workers on
any host sharing the database.

Performance is not measured here: the benchmark of record is
``benchmarks/e2e`` (``BENCHMARK.json``).

The ``net`` subcommand drives ``repro.net``, the live-network runtime:
an n-process cluster on localhost TCP sockets with socket-layer chaos
injection, wall-clock retransmit channels, a stall-to-verdict progress
monitor, and online linearizability checking of sampled history
windows (``--serve`` / ``--probe`` / ``--check`` for the remote and
offline paths).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.reporting import render_table

if TYPE_CHECKING:  # subcommands import their layer when they run
    from repro.service import RunStatus

ALL_IDS = tuple(EXPERIMENTS)


def _list_experiments() -> int:
    """Print every experiment id with its title; exit code 0."""
    for exp_id, experiment in EXPERIMENTS.items():
        print(f"{exp_id:4} {experiment.title}")
    print("explore  schedule-space exploration (see `explore --help`)")
    print("campaign differential conformance campaign (see `campaign --help`)")
    print("scenarios unified scenario registry listing (see `scenarios --help`)")
    return 0


def _scenarios_main(argv: Sequence[str]) -> int:
    """The ``scenarios`` subcommand: enumerate the unified registry."""
    import json

    from repro import scenarios as registry

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis scenarios",
        description=(
            "List the unified scenario registry: every record's "
            "coordinates (family, n, f, engine, adversary/workload "
            "params), its pinned differential expectation, and which "
            "consumers (campaign / explore / smoke / net) include it."
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the registry table (the default action)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the records as JSON instead of a table",
    )
    parser.add_argument(
        "--consumer",
        choices=registry.CONSUMERS,
        default=None,
        help="only records a given consumer includes",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="FAMILY",
        help="restrict to an implementation family (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.family:
        known = registry.registered_families()
        for family in args.family:
            if family not in known:
                parser.error(
                    f"unknown family {family!r}; known: {', '.join(known)}"
                )
    records = registry.grid(consumer=args.consumer, families=args.family)

    if args.json:
        print(
            json.dumps(
                [
                    {
                        "label": record.label(),
                        "family": record.family,
                        "n": record.n,
                        "f": record.f,
                        "scenario": record.spec.name,
                        "params": dict(record.spec.params),
                        "engine": record.engine,
                        "expect_violation": record.expect_violation,
                        "consumers": list(record.consumers),
                        "fingerprint": record.fingerprint(),
                    }
                    for record in records
                ],
                indent=2,
                sort_keys=True,
                default=repr,
            )
        )
        return 0

    headers = (
        "family",
        "scenario",
        "n",
        "f",
        "engine",
        "expected",
        "consumers",
        "fingerprint",
    )
    rows = [
        (
            record.family,
            record.spec.label(),
            record.n,
            record.f,
            record.engine,
            "violation" if record.expect_violation else "clean",
            ",".join(record.consumers),
            record.fingerprint(),
        )
        for record in records
    ]
    print(
        render_table(
            headers,
            rows,
            title=f"Scenario registry — {len(records)} record(s)",
        )
    )
    print()
    families = registry.registered_families()
    print(
        f"{len(records)} record(s) across {len(families)} famil"
        f"{'y' if len(families) == 1 else 'ies'}; resolve one with "
        f"repro.scenarios.resolve(label)"
    )
    return 0


def _explore_main(argv: Sequence[str]) -> int:
    """The ``explore`` subcommand: systematic search + swarm + shrink."""
    from repro.explore import adversary_grid, explore, fuzz, make_scenario, shrink
    from repro.scenarios import REDUCTIONS

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis explore",
        description=(
            "Search the schedule space of a scenario with the bounded "
            "systematic explorer and a swarm fuzzing campaign; shrink the "
            "first violation to a ScriptedScheduler script."
        ),
    )
    parser.add_argument(
        "--scenario",
        default="theorem29",
        help="what to explore: the Theorem 29 race (default), 'register' "
        "(randomized register workloads with adversary combinations), or "
        "any scenario-registry record label — see `scenarios --list`",
    )
    parser.add_argument("--f", type=int, default=1, help="fault bound (theorem29)")
    parser.add_argument(
        "--budget",
        type=int,
        default=600,
        help="runs per engine per phase (default 600)",
    )
    parser.add_argument("--depth", type=int, default=14, help="systematic depth bound")
    parser.add_argument(
        "--preempt", type=int, default=2, help="systematic preemption bound"
    )
    parser.add_argument("--mode", choices=("dfs", "bfs"), default="dfs")
    parser.add_argument(
        "--reduction",
        choices=REDUCTIONS,
        default=None,
        help="systematic pruning strategy: sleep-set baseline, source-set "
        "dynamic partial-order reduction, or dpor plus interchangeable-"
        "process symmetry folding (default: what the registry record "
        "pins, else sleep)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, help="fuzzer processes (default: cores, <=4)"
    )
    parser.add_argument("--seed", type=int, default=0, help="first fuzzing seed")
    parser.add_argument(
        "--kind",
        default="verifiable",
        choices=("verifiable", "authenticated", "sticky"),
        help="register kind (register scenario)",
    )
    parser.add_argument("--n", type=int, default=4, help="processes (register scenario)")
    parser.add_argument("--no-shrink", action="store_true", help="skip shrinking")
    parser.add_argument(
        "--no-control",
        action="store_true",
        help="skip the n = 3f + 1 control phase (theorem29)",
    )
    args = parser.parse_args(argv)
    if args.f < 1:
        parser.error("--f must be >= 1")
    if args.budget < 1:
        parser.error("--budget must be >= 1")

    headers = ("phase", "engine", "runs", "runs/s", "states/s", "violations", "note")
    rows: List[Tuple] = []

    def run_phase(
        phase: str,
        scenarios,
        expect_violation: bool,
        reduction: str = "sleep",
        symmetry=(),
    ) -> bool:
        """Run both engines over ``scenarios``; returns found-violation."""
        target = scenarios[0] if len(scenarios) == 1 else None
        found = []
        if target is not None:
            sys_report = explore(
                target,
                depth_bound=args.depth,
                preemption_bound=args.preempt,
                budget=args.budget,
                mode=args.mode,
                reduction=reduction,
                symmetry=symmetry,
            )
            print(sys_report.summary())
            rows.append(
                (
                    phase,
                    f"systematic/{args.mode}/{reduction}",
                    sys_report.runs,
                    round(sys_report.runs_per_sec),
                    round(sys_report.states_per_sec),
                    len(sys_report.violations),
                    "exhausted" if sys_report.exhausted else "budget",
                )
            )
            found.extend(sys_report.violations)
        fuzz_report = fuzz(
            scenarios, budget=args.budget, shards=args.shards, seed0=args.seed
        )
        print(fuzz_report.summary())
        rows.append(
            (
                phase,
                f"swarm x{fuzz_report.shards}",
                fuzz_report.runs,
                round(fuzz_report.runs_per_sec),
                "-",
                len(fuzz_report.violations),
                f"{sum(fuzz_report.violation_counts.values())} violating runs",
            )
        )
        known = {v.fingerprint() for v in found}
        found.extend(
            v for v in fuzz_report.violations if v.fingerprint() not in known
        )
        for violation in found:
            print(f"  -> {violation.describe()}")
        if found and expect_violation and not args.no_shrink and target is not None:
            shrunk = shrink(target, found[0])
            print(f"  {shrunk.describe()}")
            print()
            print(shrunk.script_source())
        return bool(found)

    if args.scenario == "theorem29":
        from repro.explore import theorem29_symmetry

        reduction = args.reduction or "sleep"
        n = 3 * args.f
        print(f"== phase 1: theorem29 at n = 3f = {n} (violation expected) ==")
        found_at_bound = run_phase(
            f"n=3f={n}",
            [make_scenario("theorem29", f=args.f)],
            expect_violation=True,
            reduction=reduction,
            symmetry=theorem29_symmetry(f=args.f),
        )
        clean_control = True
        if not args.no_control:
            print()
            print(f"== phase 2: control at n = 3f + 1 = {n + 1} (must be clean) ==")
            control_found = run_phase(
                f"n=3f+1={n + 1}",
                [make_scenario("theorem29", f=args.f, extra_correct=True)],
                expect_violation=False,
                reduction=reduction,
                symmetry=theorem29_symmetry(f=args.f, extra_correct=True),
            )
            clean_control = not control_found
        print()
        print(render_table(headers, rows, title="Schedule exploration — Theorem 29"))
        ok = found_at_bound and clean_control
        print()
        if ok:
            print(
                "PASS: violation found and shrunk at n = 3f"
                + ("" if args.no_control else "; n = 3f + 1 clean within the same bounds")
            )
        else:
            if not found_at_bound:
                print("FAIL: no violation found at n = 3f within the budget")
            if not clean_control:
                print("FAIL: violation found at n = 3f + 1 (control should be clean)")
        return 0 if ok else 1

    if args.scenario == "register":
        # register scenario: fuzz adversary behaviour combinations; the
        # paper's algorithms must hold, so any violation is a failure.
        scenarios = adversary_grid(
            kind=args.kind, n=args.n, seeds=(args.seed, args.seed + 1)
        )
        print(
            f"== swarm over {len(scenarios)} {args.kind} register scenario(s), "
            f"n={args.n} =="
        )
        found = run_phase(
            f"{args.kind} n={args.n}",
            scenarios,
            expect_violation=False,
            reduction=args.reduction or "sleep",
        )
        print()
        print(
            render_table(headers, rows, title="Schedule exploration — register workloads")
        )
        print()
        print("PASS: no violations" if not found else "FAIL: violations found")
        return 0 if not found else 1

    # Anything else is a scenario-registry record label: one record
    # pins both the scenario spec and the differential expectation to
    # judge the findings by, so any registered cell is explorable
    # without growing this parser.
    from repro import scenarios as registry
    from repro.errors import ConfigurationError

    try:
        record = registry.resolve(args.scenario)
    except ConfigurationError as exc:
        parser.error(str(exc))
    expectation = "violation expected" if record.expect_violation else "must be clean"
    print(f"== registry record {record.label()} ({expectation}) ==")
    found = run_phase(
        record.label(),
        [record.spec],
        expect_violation=record.expect_violation,
        # An explicit --reduction wins; otherwise the record's pin (the
        # deferred broadcast systematic cells require a dpor mode).
        reduction=args.reduction or record.reduction,
        symmetry=record.symmetry,
    )
    print()
    print(
        render_table(
            headers, rows, title=f"Schedule exploration — {record.label()}"
        )
    )
    print()
    ok = found == record.expect_violation
    if ok:
        print(
            "PASS: findings match the registry's pinned expectation "
            f"({expectation})"
        )
    else:
        print(
            f"FAIL: {'no violation found' if record.expect_violation else 'violation found'} "
            f"but the registry pins {expectation!r} for {record.label()}"
        )
    return 0 if ok else 1


def _render_status(result: RunStatus) -> str:
    """Full status rendering: verdict table + summary + drift lines."""
    headers = (
        "cell",
        "label",
        "runs",
        "runs/s",
        "violations",
        "expected",
        "ok",
        "worker",
    )
    rows = [
        (
            verdict.cell_index,
            verdict.label,
            verdict.runs,
            round(verdict.runs / verdict.elapsed) if verdict.elapsed else 0,
            len(verdict.class_fingerprints),
            verdict.expected,
            verdict.ok,
            verdict.worker,
        )
        for verdict in result.verdicts
    ]
    parts = [
        render_table(
            headers,
            rows,
            title=(
                f"Campaign service run {result.run_id} — "
                f"{len(result.verdicts)}/{result.cells} cell verdicts"
            ),
        ),
        "",
        result.summary(),
    ]
    parts.extend(f"  {entry.describe()}" for entry in result.drift)
    return "\n".join(parts)


def _campaign_main(argv: Sequence[str]) -> int:
    """The ``campaign`` subcommand: differential matrix + corpus + service."""
    import json
    from pathlib import Path

    from repro.campaign import (
        IMPLEMENTATIONS,
        default_corpus_dir,
        load_corpus,
        replay_entry,
    )
    from repro.errors import ConfigurationError
    from repro.service import (
        DEFAULT_LEASE_TTL,
        ResultsStore,
        default_db_path,
        run_service_campaign,
        verdicts_payload,
    )
    from repro.service import client as service_client
    from repro.service import queue as service_queue
    from repro.service.worker import run_worker

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis campaign",
        description=(
            "Run a differential conformance campaign: every repro.core "
            "implementation family x scenario x engine, checked against the "
            "repro.spec oracles, with violations shrunk into the replayable "
            "corpus. The default runs one-shot (submit + workers + report "
            "on the service substrate); --submit/--worker/--status/--watch "
            "drive the persistent run queue directly."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="bounded budgets and adversary grids (the CI matrix)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the swarm budget per cell (systematic cells get 4x)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="worker processes (default: cores, <=4)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="first fuzzing seed (default 0)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=IMPLEMENTATIONS,
        help="restrict to an implementation family (repeatable)",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        help="corpus directory (default: the repo's corpus/)",
    )
    parser.add_argument(
        "--no-corpus",
        action="store_true",
        help="do not persist shrunk violations",
    )
    parser.add_argument("--no-shrink", action="store_true", help="skip shrinking")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--replay",
        action="store_true",
        help="replay every committed corpus entry instead of running the "
        "matrix (verdicts are recorded in the service database's trend "
        "table)",
    )
    mode.add_argument(
        "--submit",
        action="store_true",
        help="enqueue the selected matrix as a persistent run and exit; "
        "workers pick it up with --worker",
    )
    mode.add_argument(
        "--worker",
        action="store_true",
        help="run one leasing worker until the queue drains (start as many "
        "as you like, on any host sharing the database)",
    )
    mode.add_argument(
        "--status",
        action="store_true",
        help="print a run's live status: shard/lease state, per-cell "
        "verdicts, throughput, and drift vs prior runs",
    )
    mode.add_argument(
        "--watch",
        action="store_true",
        help="follow a run, streaming each cell verdict once, until it "
        "completes",
    )
    parser.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="service database (default: benchmarks/_results/service.db)",
    )
    parser.add_argument(
        "--run",
        default=None,
        metavar="RUN_ID",
        help="run id for --worker/--status/--watch (default: latest)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help=f"shard lease expiry; a worker dead longer than this forfeits "
        f"its shard back to the queue (default {DEFAULT_LEASE_TTL:.0f})",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=1,
        metavar="CELLS",
        help="cells per leasable shard (default 1)",
    )
    parser.add_argument(
        "--verdicts",
        default=None,
        metavar="PATH",
        help="write the machine-comparable cell-verdict JSON here "
        "(one-shot, --status and --watch)",
    )
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 1:
        parser.error("--budget must be >= 1")
    if args.shard_size < 1:
        parser.error("--shard-size must be >= 1")

    matrix_flags = (
        ("--smoke", args.smoke),
        ("--budget", args.budget is not None),
        ("--shards", args.shards is not None),
        ("--seed", args.seed is not None),
        ("--only", bool(args.only)),
        ("--no-corpus", args.no_corpus),
        ("--no-shrink", args.no_shrink),
    )

    def reject_flags(mode_name: str, flags) -> None:
        given = [flag for flag, on in flags if on]
        if given:
            parser.error(
                f"{mode_name} does not select a matrix; drop {', '.join(given)}"
            )

    db_path = Path(args.db) if args.db else default_db_path()
    corpus_dir = args.corpus or default_corpus_dir()

    if args.replay:
        reject_flags("--replay (it replays the whole corpus)", matrix_flags)
        entries = load_corpus(corpus_dir)
        if not entries:
            # Loud by design: CI replays the committed corpus, and a
            # lost/ignored corpus directory must fail the step, not
            # pass vacuously.
            print(f"FAIL: corpus {corpus_dir} is empty; nothing to replay")
            return 1
        # One shared CheckContext across the whole batch: entries of the
        # same scenario shape share spec.apply transitions and repeated
        # replays share whole verdicts.
        from repro.spec import CheckContext

        replay_ctx = CheckContext()
        store = ResultsStore(db_path)
        failures = 0
        for entry in entries:
            outcome = replay_entry(entry, ctx=replay_ctx)
            verdict = "ok" if outcome.ok else f"FAIL ({outcome.detail})"
            print(f"replay {entry.label()}: {verdict}")
            # Every replay appends to the trend table, pass or fail:
            # "when did this entry last reproduce?" needs both.
            store.record_replay_verdict(
                entry_id=entry.entry_id,
                entry_label=entry.label(),
                fingerprint=entry.fingerprint,
                ok=outcome.ok,
                detail=outcome.detail,
                source="campaign --replay",
            )
            failures += 0 if outcome.ok else 1
        store.close()
        print()
        print(f"recorded {len(entries)} replay verdict(s) in {db_path}")
        if failures:
            print(f"FAIL: {failures}/{len(entries)} corpus entries regressed")
            return 1
        print(f"PASS: all {len(entries)} corpus entries still reproduce")
        return 0

    if args.submit:
        seed0 = 0 if args.seed is None else args.seed
        store = ResultsStore(db_path)
        run_id = service_queue.submit_matrix(
            store,
            smoke=args.smoke,
            seed0=seed0,
            swarm_budget=args.budget,
            systematic_budget=4 * args.budget if args.budget else None,
            implementations=args.only,
            shard_size=args.shard_size,
            options={
                "shrink": not args.no_shrink,
                "corpus_dir": None if args.no_corpus else str(corpus_dir),
                "source": (
                    f"campaign{' --smoke' if args.smoke else ''} "
                    f"--seed {seed0}"
                ),
            },
        )
        result = service_client.status(store, run_id, with_drift=False)
        store.close()
        print(
            f"submitted run {run_id}: {result.cells} cell(s) in "
            f"{result.shards} shard(s) -> {db_path}"
        )
        print(
            f"next: python -m repro.analysis campaign --worker --db {db_path}"
        )
        return 0

    if args.worker:
        reject_flags("--worker (the run pins its matrix)", matrix_flags)
        try:
            summary = run_worker(
                db_path,
                run_id=args.run,
                lease_ttl=args.lease_ttl,
                progress=print,
            )
        except ConfigurationError as exc:
            parser.error(str(exc))
        print(summary.describe())
        return 0

    if args.status or args.watch:
        reject_flags(
            "--watch" if args.watch else "--status",
            matrix_flags,
        )
        store = ResultsStore(db_path)
        try:
            if args.watch:
                result = service_client.watch(store, args.run, emit=print)
            else:
                result = service_client.status(store, args.run)
        except ConfigurationError as exc:
            parser.error(str(exc))
        store.close()
        print(_render_status(result))
        if args.verdicts:
            Path(args.verdicts).write_text(
                json.dumps(verdicts_payload(result), indent=2, sort_keys=True)
                + "\n"
            )
            print(f"wrote {args.verdicts}")
        if result.mismatched:
            return 1
        # An in-flight run without mismatches is healthy so far; a
        # complete one must also have every cell recorded.
        return 0 if (not result.complete or result.ok) else 1

    # One-shot: the classic campaign, re-expressed as submit + N inline
    # workers + report on the service substrate. Verdicts are
    # byte-identical to the old run_campaign path (both execute through
    # run_cell); the difference is that they also land in the database,
    # so the next run can report drift.
    from repro.campaign import default_matrix

    seed0 = 0 if args.seed is None else args.seed
    cells = default_matrix(
        smoke=args.smoke,
        seed0=seed0,
        swarm_budget=args.budget,
        systematic_budget=4 * args.budget if args.budget else None,
        implementations=args.only,
    )
    print(
        f"== differential campaign: {len(cells)} cells over "
        f"{len({cell.implementation for cell in cells})} implementation "
        f"family(ies) =="
    )
    result = run_service_campaign(
        cells,
        workers=args.shards,
        db=db_path,
        shard_size=args.shard_size,
        lease_ttl=args.lease_ttl,
        progress=print,
        shrink_violations=not args.no_shrink,
        corpus_dir=None if args.no_corpus else corpus_dir,
        corpus_source=f"campaign{' --smoke' if args.smoke else ''} --seed {seed0}",
    )

    headers = (
        "implementation",
        "scenario",
        "engine",
        "runs",
        "runs/s",
        "violations",
        "expected",
        "ok",
    )
    rows = []
    for verdict in result.verdicts:
        implementation, rest = verdict.label.split("/", 1)
        engine, scenario = rest.split(":", 1)
        rate = verdict.runs / verdict.elapsed if verdict.elapsed > 0 else 0.0
        rows.append(
            (
                implementation,
                scenario,
                engine,
                verdict.runs,
                round(rate),
                len(verdict.class_fingerprints),
                verdict.expected,
                verdict.ok,
            )
        )
    print()
    print(render_table(headers, rows, title="Differential conformance campaign"))
    print()
    print(result.summary())
    for row in result.violations:
        if row["state"] == "failed":
            print(
                f"  shrink failure: {row['scenario_label']}"
                f"#{row['fingerprint']}: {row['detail']}"
            )
    for drift in result.drift:
        print(f"  {drift.describe()}")
    if args.verdicts:
        Path(args.verdicts).write_text(
            json.dumps(verdicts_payload(result), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote {args.verdicts}")
    print()
    if result.ok:
        print("PASS: every cell matched the paper's expectation")
        return 0
    for verdict in result.mismatched:
        print(f"FAIL: {verdict.describe()}")
    return 1


def main(argv: Sequence[str]) -> int:
    """Entry point; returns a process exit code."""
    if argv and argv[0] in ("--list", "-l"):
        return _list_experiments()
    if argv and argv[0].lower() == "explore":
        return _explore_main(list(argv[1:]))
    if argv and argv[0].lower() == "campaign":
        return _campaign_main(list(argv[1:]))
    if argv and argv[0].lower() == "scenarios":
        return _scenarios_main(list(argv[1:]))
    if argv and argv[0].lower() == "net":
        from repro.analysis.net import main as net_main

        return net_main(list(argv[1:]))
    wanted = [arg.upper() for arg in argv] or list(ALL_IDS)
    failures: List[str] = []
    for exp_id in wanted:
        if exp_id not in EXPERIMENTS:
            print(f"unknown experiment id {exp_id!r}; known: {', '.join(ALL_IDS)}")
            return 2
        title, driver, holds = EXPERIMENTS[exp_id]
        started = time.time()
        headers, rows = driver()
        elapsed = time.time() - started
        print()
        print(render_table(headers, rows, title=title))
        ok = holds(headers, rows)
        print(f"[{exp_id}] {'PASS' if ok else 'FAIL'}  ({elapsed:.1f}s)")
        if not ok:
            failures.append(exp_id)
    print()
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    print(f"All {len(wanted)} experiments reproduce their expected shapes.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
