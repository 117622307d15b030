"""Run the experiment suite, a campaign or the live cluster from the shell.

Usage::

    python -m repro.analysis                 # every experiment, full tables
    python -m repro.analysis E5 E11          # a subset, by experiment id
    python -m repro.analysis --list          # experiment ids and titles
    python -m repro.analysis campaign --smoke   # differential campaign
    python -m repro.analysis campaign --cell <label> --cell <fingerprint>
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

The ``campaign`` subcommand drives ``repro.campaign``: a differential
conformance matrix over every ``repro.core`` implementation family,
with discovered violations shrunk and persisted into the replayable
``corpus/`` regression corpus. ``--cell`` keeps only the named
registry records' cells (a label or the short fingerprint
``scenarios --list`` prints), which is how one record — the Theorem 29
``n = 3f`` / ``n = 3f + 1`` pair, a pinned fault-injection cell — is
explored and judged; ``--reduction`` runs the systematic cells under
another partial-order reduction. Exit code 0 means every cell matched
the paper's expectation (and, with ``--replay``, that every committed
corpus entry still reproduces). The default run goes through
``repro.service`` (submit + N workers + report, verdicts recorded in
the results database); ``--submit`` / ``--worker`` /
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
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.reporting import render_table

if TYPE_CHECKING:  # subcommands import their layer when they run
    from repro.service import RunStatus

ALL_IDS = tuple(EXPERIMENTS)


def _list_experiments() -> int:
    """Print every experiment id with its title; exit code 0."""
    for exp_id, experiment in EXPERIMENTS.items():
        print(f"{exp_id:4} {experiment.title}")
    for name, (_run, summary) in SUBCOMMANDS.items():
        print(f"{name:9} {summary} (see `{name} --help`)")
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
            "consumers (campaign / smoke / net) include it."
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
    from dataclasses import replace
    from pathlib import Path

    from repro import scenarios as registry
    from repro.campaign import (
        IMPLEMENTATIONS,
        default_corpus_dir,
        default_matrix,
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
            "corpus. The default submits the matrix, drains it with "
            "workers and reports; --submit/--worker/--status/--watch "
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
        help="workers (default: cores, <=4; never more than shards; "
        "1 runs inline)",
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
        "--cell",
        action="append",
        default=None,
        metavar="LABEL",
        help="keep only this registry record's cell of the matrix: its "
        "label or the short fingerprint `scenarios --list` prints "
        "(repeatable)",
    )
    parser.add_argument(
        "--reduction",
        choices=registry.CELL_REDUCTIONS,
        default=None,
        help="run the systematic cells under this reduction instead of "
        "the one their records pin: sleep sets or source-set dynamic "
        "partial-order reduction (cells carry no symmetry groups, so "
        "dpor+symmetry is not offered)",
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
        "(default run, --status and --watch)",
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
        ("--cell", bool(args.cell)),
        ("--reduction", args.reduction is not None),
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
    seed0 = 0 if args.seed is None else args.seed
    source = f"campaign{' --smoke' if args.smoke else ''} --seed {seed0}"

    def selected_cells():
        """The matrix, cut to the ``--cell`` records, under ``--reduction``."""
        cells = default_matrix(
            smoke=args.smoke,
            seed0=seed0,
            swarm_budget=args.budget,
            systematic_budget=4 * args.budget if args.budget else None,
            implementations=args.only,
        )
        if args.cell:
            wanted = {}
            for name in args.cell:
                try:
                    record = registry.resolve(name)
                except ConfigurationError as exc:
                    parser.error(str(exc))
                wanted[record.seeded(seed0).label()] = name
            cells = [cell for cell in cells if cell.label() in wanted]
            found = {cell.label() for cell in cells}
            for label, name in wanted.items():
                if label not in found:
                    parser.error(
                        f"--cell {name!r} is not a cell of the selected "
                        f"matrix ({label})"
                    )
        if args.reduction:
            cells = [
                replace(cell, reduction=args.reduction)
                if cell.engine == "systematic"
                else cell
                for cell in cells
            ]
        return cells

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
        cells = selected_cells()
        store = ResultsStore(db_path)
        run_id = service_queue.submit(
            store,
            cells,
            shard_size=args.shard_size,
            # What was asked for, kept in the run row for provenance.
            selection={
                "matrix": "smoke" if args.smoke else "campaign",
                "seed0": seed0,
                "swarm_budget": args.budget,
                "systematic_budget": 4 * args.budget if args.budget else None,
                "implementations": args.only,
                "cells": args.cell,
                "reduction": args.reduction,
            },
            options={
                "shrink": not args.no_shrink,
                "corpus_dir": None if args.no_corpus else str(corpus_dir),
                "source": source,
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

    # The default: submit + N workers + report on the service. The
    # verdicts land in the database, so the next run can report drift.
    cells = selected_cells()
    under = f", systematic cells under {args.reduction}" if args.reduction else ""
    print(
        f"== differential campaign: {len(cells)} cells over "
        f"{len({cell.implementation for cell in cells})} implementation "
        f"family(ies){under} =="
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
        corpus_source=source,
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


def _net_main(argv: Sequence[str]) -> int:
    """The ``net`` subcommand: the live-network runtime (``repro.net``)."""
    from repro.analysis.net import main as net_main

    return net_main(list(argv))


#: Every subcommand ``main`` dispatches, with its ``--list`` summary.
SUBCOMMANDS: Dict[str, Tuple[Callable[[Sequence[str]], int], str]] = {
    "campaign": (_campaign_main, "differential conformance campaign"),
    "scenarios": (_scenarios_main, "unified scenario registry listing"),
    "net": (_net_main, "live localhost cluster under load, checked online"),
}


def main(argv: Sequence[str]) -> int:
    """Entry point; returns a process exit code."""
    if argv and argv[0] in ("--list", "-l"):
        return _list_experiments()
    if argv and argv[0].lower() in SUBCOMMANDS:
        run, _summary = SUBCOMMANDS[argv[0].lower()]
        return run(list(argv[1:]))
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
