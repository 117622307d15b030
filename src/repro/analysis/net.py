"""The ``net`` subcommand: drive the live-network runtime from the CLI.

Modes (mutually exclusive; ``--load`` is the default):

* ``--load`` — deploy an in-process localhost cluster, drive the load
  generator through it round by round, judge every sampled window with
  the online oracle, and print the report. ``--chaos`` applies a fault
  plan at the socket layer (a preset name or a Python-literal plan
  spec); ``--cell`` resolves a pinned registry record
  (``scenarios --list --consumer net``) into the exact profile and
  checks its expected verdict; ``--expect`` pins the verdict directly.
  Exit 0 iff the verdict matches the expectation (default: ``CLEAN``).
* ``--serve`` — boot the cluster, print the node address map as JSON,
  and keep serving for ``--duration`` seconds so external clients (or
  ``--probe``) can drive it over the remote request protocol.
* ``--probe HOST:PORT`` — connect to a serving node as a remote client
  and run an info / write / read round trip (the remote protocol's
  smoke test).
* ``--check FILE`` — offline re-check of evidence written by
  ``--evidence``: rebuild each window from its JSON, re-run the
  unmodified Wing–Gong search, and require the re-emitted document to
  be **byte-identical** to the stored one. Exit 0 iff every window
  round-trips.

The verdict vocabulary matches the conformance matrix: ``CLEAN``,
``VIOLATING`` (some window fails linearization — the evidence document
pinpoints it), ``STALLED`` (the wall-clock progress monitor converted a
hang into a diagnosis).
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError

#: Named chaos presets (mirroring the catalog's pinned plans).
CHAOS_PRESETS: Dict[str, Tuple[Tuple[Any, ...], ...]] = {
    "lossy": (
        ("drop", 0, 0, 0.2),
        ("dup", 0, 0, 0.1),
        ("delay", 0, 0, 0.15, 9),
    ),
    "quorum-split": (("partition", ((1, 2), (3, 4)), 0, None),),
}


def _parse_chaos(text: str) -> Tuple[Tuple[Any, ...], ...]:
    """A preset name or a Python-literal fault-plan spec, validated."""
    from repro.faults.plan import FaultPlan

    preset = CHAOS_PRESETS.get(text)
    if preset is not None:
        return preset
    try:
        spec = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise ConfigurationError(
            f"--chaos must be a preset ({', '.join(sorted(CHAOS_PRESETS))}) "
            f"or a literal fault-plan spec: {exc}"
        )
    return FaultPlan.from_spec(spec).spec


def _build_profile(args: argparse.Namespace) -> Tuple[Any, Optional[bool]]:
    """(profile, expect_violation) from ``--cell`` or the flag set."""
    from repro.net import LiveProfile

    if args.cell:
        from repro.scenarios.net_live import profile_for_record
        from repro.scenarios.registry import resolve

        record = resolve(args.cell)
        return profile_for_record(record), record.expect_violation
    faults: Tuple[Tuple[Any, ...], ...] = ()
    if args.chaos:
        faults = _parse_chaos(args.chaos)
    profile = LiveProfile(
        n=args.n,
        f=args.f,
        seed=args.seed,
        clients=args.clients,
        rounds=args.rounds,
        ops_per_client=args.ops,
        faults=faults,
        fault_seed=args.fault_seed,
        retransmit=not args.no_retransmit,
        window=args.window,
        label=args.label,
    )
    return profile, None


def _expected_verdicts(
    expect_flag: Optional[str], expect_violation: Optional[bool]
) -> Tuple[str, ...]:
    """Which verdicts exit 0. ``--expect`` wins over the cell's pin."""
    from repro.net import CLEAN, STALLED, VIOLATING

    if expect_flag is not None:
        return (expect_flag.upper(),)
    if expect_violation:
        # A pinned live cell expecting a violation stalls (liveness) or
        # fails a window (safety); either is the expected failure shape.
        return (STALLED, VIOLATING)
    return (CLEAN,)


def _write_evidence(path: Path, windows: List[Dict[str, Any]]) -> None:
    from repro.net.oracle import evidence_bytes

    body = b"[" + b",".join(evidence_bytes(doc) for doc in windows) + b"]"
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(body)
    tmp.replace(path)


def _load_main(args: argparse.Namespace) -> int:
    from repro.net import run_live

    profile, expect_violation = _build_profile(args)
    report = run_live(profile)
    print(report.describe())
    if args.json:
        payload = json.dumps(report.to_json(), sort_keys=True, indent=2)
        Path(args.json).write_text(payload + "\n")
        print(f"wrote {args.json}")
    if args.evidence:
        _write_evidence(Path(args.evidence), report.windows)
        print(f"wrote {args.evidence} ({len(report.windows)} window(s))")
    expected = _expected_verdicts(args.expect, expect_violation)
    if report.verdict in expected:
        print(f"PASS: verdict {report.verdict} (expected {'/'.join(expected)})")
        return 0
    print(f"FAIL: verdict {report.verdict}, expected {'/'.join(expected)}")
    return 1


def _check_main(args: argparse.Namespace) -> int:
    from repro.net.oracle import check_evidence, evidence_bytes
    from repro.spec import CheckContext

    raw = Path(args.check).read_text()
    loaded = json.loads(raw)
    docs = loaded if isinstance(loaded, list) else [loaded]
    ctx = CheckContext()
    failures = 0
    for index, doc in enumerate(docs):
        stored = evidence_bytes(doc)
        rebuilt = evidence_bytes(check_evidence(doc, ctx=ctx))
        verdict = "ok" if doc["verdict"]["ok"] else "violating"
        if rebuilt == stored:
            print(
                f"window {index} [{doc['label']} r{doc['window']} "
                f"{doc['object']}]: {verdict}, byte-identical"
            )
        else:
            failures += 1
            print(
                f"window {index} [{doc['label']} r{doc['window']} "
                f"{doc['object']}]: RE-CHECK DIVERGED"
            )
    if failures:
        print(f"FAIL: {failures}/{len(docs)} window(s) diverged offline")
        return 1
    print(f"PASS: {len(docs)} window(s) re-checked byte-identically offline")
    return 0


async def _serve_async(profile: Any, duration: float) -> None:
    from repro.net import LiveCluster

    cluster = LiveCluster(profile)
    await cluster.start()
    try:
        print(
            json.dumps(
                {
                    "host": profile.host,
                    "nodes": {
                        str(node.pid): node.port for node in cluster.nodes
                    },
                    "registers": sorted(cluster.registers),
                    "accounts": list(cluster.accounts),
                },
                sort_keys=True,
            ),
            flush=True,
        )
        await asyncio.sleep(duration)
    finally:
        await cluster.stop()


def _serve_main(args: argparse.Namespace) -> int:
    profile, _expect = _build_profile(args)
    asyncio.run(_serve_async(profile, args.duration))
    return 0


async def _probe_async(host: str, port: int) -> int:
    from repro.net import wire

    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(wire.encode(wire.hello(0)))
        await writer.drain()

        async def request(req_id: int, op: str, args: Tuple[Any, ...]) -> Any:
            writer.write(
                wire.encode(
                    {"t": "req", "id": req_id, "op": op, "args": list(args)}
                )
            )
            await writer.drain()
            doc = await wire.read_doc(reader)
            if doc is None or doc.get("t") != "res" or doc.get("id") != req_id:
                raise ReproError(f"bad probe response: {doc!r}")
            if not doc.get("ok"):
                raise ReproError(f"probe {op} failed: {doc.get('value')!r}")
            return doc.get("value")

        info = await request(1, "info", ())
        pid = info["pid"]
        register = f"reg:{pid}"
        await request(2, "write", (register, 424242))
        value = await request(3, "read", (register,))
        print(
            json.dumps(
                {"info": info, "wrote": 424242, "read": value}, sort_keys=True
            )
        )
        if value != 424242:
            print("FAIL: read did not return the probed write")
            return 1
        print("PASS: remote write/read round trip")
        return 0
    finally:
        writer.close()


def _probe_main(args: argparse.Namespace) -> int:
    host, _sep, port = args.probe.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigurationError(f"--probe needs HOST:PORT, got {args.probe!r}")
    return asyncio.run(_probe_async(host, int(port)))


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis net",
        description=(
            "Deploy the live-network runtime: an n-process register / "
            "asset-transfer cluster on localhost TCP sockets, with "
            "socket-layer chaos injection, wall-clock retransmit "
            "channels, a stall-to-verdict progress monitor, and online "
            "linearizability checking of sampled history windows."
        ),
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--load",
        action="store_true",
        help="run the in-process load harness (the default mode)",
    )
    mode.add_argument(
        "--serve",
        action="store_true",
        help="boot a cluster, print its address map, serve for --duration",
    )
    mode.add_argument(
        "--probe",
        metavar="HOST:PORT",
        help="remote-client write/read round trip against a serving node",
    )
    mode.add_argument(
        "--check",
        metavar="FILE",
        help="offline byte-identical re-check of an --evidence file",
    )
    parser.add_argument("--n", type=int, default=4, help="cluster size")
    parser.add_argument("--f", type=int, default=1, help="fault bound")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--clients", type=int, default=100, help="concurrent load clients"
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="load rounds (= sampled windows)"
    )
    parser.add_argument(
        "--ops", type=int, default=4, help="operations per client per round"
    )
    parser.add_argument(
        "--chaos",
        metavar="PRESET|SPEC",
        default=None,
        help=(
            "fault plan: a preset "
            f"({', '.join(sorted(CHAOS_PRESETS))}) or a Python-literal "
            "spec like \"(('drop',0,0,0.2),)\""
        ),
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="chaos determinism seed"
    )
    parser.add_argument(
        "--no-retransmit",
        action="store_true",
        help="run bare TCP without the wall-clock channel layer",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=2.0,
        help="progress-monitor stall window, seconds",
    )
    parser.add_argument(
        "--label", default="net", help="report and evidence label"
    )
    parser.add_argument(
        "--cell",
        metavar="LABEL",
        default=None,
        help=(
            "run a pinned registry cell (see `scenarios --list "
            "--consumer net`); overrides the profile flags"
        ),
    )
    parser.add_argument(
        "--expect",
        choices=("clean", "violating", "stalled"),
        default=None,
        help="verdict required for exit 0 (default: clean, or the cell's pin)",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None, help="write the run report"
    )
    parser.add_argument(
        "--evidence",
        metavar="FILE",
        default=None,
        help="write the sampled windows' evidence documents (JSON array)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="--serve lifetime in seconds",
    )
    args = parser.parse_args(argv)

    try:
        if args.check:
            return _check_main(args)
        if args.probe:
            return _probe_main(args)
        if args.serve:
            return _serve_main(args)
        return _load_main(args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
