"""Per-layer numbers for a traced round, measured from outside the program.

Two instruments, both owned by the harness:

* **spans** — for the duration of the timed call, public functions at
  the layer seams are replaced by span-recording wrappers (module
  attributes are swapped and restored; nothing under ``src/`` changes).
  ``Scenario.build`` is wrapped so every run's build / drive / check is
  a span, which also hands the harness the run's ``System`` (step and
  register-op counts) and ``CheckContext`` (memo hits);
* **probes** — short micro-loops over one layer's public functions, run
  after the timed call with the wrappers removed.

Layer names are module names: ``sim``, ``spec``, ``mp``, ``explore``,
``campaign``, ``service``, ``net``.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from spans import Tracer, duration, totals_by_name

#: Cell spans are named ``campaign.cell.<family>``.
CELL_SPAN = "campaign.cell."

#: Forced prefixes kept for the bare-replay probe.
REPLAY_SAMPLE = 200


class Observed:
    """What the span wrappers saw pass by during a traced round."""

    def __init__(self) -> None:
        self.register_ops = 0
        #: scenario label -> [runs, steps, drive seconds, messages sent]
        self.by_label: Dict[str, List[float]] = {}
        #: every CheckContext a run was built with, by identity
        self.contexts: Dict[int, Any] = {}
        #: forced prefixes of the first explorer runs
        self.prefixes: List[Tuple[int, ...]] = []
        #: every ShrunkViolation the shrinker returned
        self.shrunk: List[Any] = []

    @property
    def runs(self) -> int:
        return sum(row[0] for row in self.by_label.values())

    @property
    def steps(self) -> int:
        return sum(row[1] for row in self.by_label.values())

    def after_drive(self, label: str, system: Any, seconds: float) -> None:
        self.register_ops += system.metrics.reads + system.metrics.writes
        row = self.by_label.setdefault(label, [0, 0, 0.0, 0])
        row[0] += 1
        row[1] += system.clock
        row[2] += seconds
        row[3] += system.metrics.messages_sent


@contextmanager
def swapped(owner: Any, name: str, replacement: Any) -> Iterator[None]:
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def traced_build(tracer: Tracer, observed: Observed, original: Any) -> Any:
    """A ``Scenario.build`` whose build, drive and check are spans."""
    from repro.sim.scheduler import TraceScheduler

    def build(self: Any, scheduler: Any, ctx: Any = None, early_exit: bool = False):
        with tracer.span("sim.build"):
            built = original(self, scheduler, ctx=ctx, early_exit=early_exit)
        if ctx is not None:
            observed.contexts[id(ctx)] = ctx
        if (
            isinstance(scheduler, TraceScheduler)
            and len(observed.prefixes) < REPLAY_SAMPLE
        ):
            observed.prefixes.append(tuple(scheduler.prefix))
        label = self.label()
        drive, check = built.drive, built.check

        def traced_drive() -> None:
            try:
                with tracer.span("sim.drive") as span:
                    drive()
            finally:
                observed.after_drive(label, built.system, duration(span))

        built.drive = traced_drive
        built.check = tracer.wrap(check, "spec.check")
        return built

    return build


@contextmanager
def tracing(family: str, tracer: Tracer, observed: Observed) -> Iterator[None]:
    """Install the span wrappers for one workload family."""
    with ExitStack() as stack:
        swap = lambda owner, name, new: stack.enter_context(swapped(owner, name, new))
        if family in ("campaign", "explore"):
            from repro.scenarios.registry import Scenario

            swap(Scenario, "build", traced_build(tracer, observed, Scenario.build))
        if family == "campaign":
            from repro.service import worker

            run_cell, shrink = worker.run_cell, worker.shrink

            def traced_run_cell(cell: Any) -> Any:
                with tracer.span(CELL_SPAN + cell.implementation):
                    return run_cell(cell)

            def traced_shrink(*args: Any, **kwargs: Any) -> Any:
                with tracer.span("explore.shrink"):
                    result = shrink(*args, **kwargs)
                observed.shrunk.append(result)
                return result

            swap(worker, "run_cell", traced_run_cell)
            swap(worker, "shrink", traced_shrink)
            for name, span_name in (
                ("canonicalize_violation", "campaign.canonicalize"),
                ("entry_from_shrunk", "campaign.corpus_save"),
                ("save_entry", "campaign.corpus_save"),
            ):
                swap(worker, name, tracer.wrap(getattr(worker, name), span_name))
        if family == "explore":
            import repro.explore

            explore = repro.explore.explore

            def traced_explore(*args: Any, **kwargs: Any) -> Any:
                mode = "dpor" if kwargs["reduction"].startswith("dpor") else "sleep"
                with tracer.span(f"explore.{mode}"):
                    return explore(*args, **kwargs)

            swap(repro.explore, "explore", traced_explore)
        if family == "net":
            from repro.net import cluster

            for name in ("start", "run", "stop"):
                swap(
                    cluster.LiveCluster,
                    name,
                    tracer.wrap_async(
                        getattr(cluster.LiveCluster, name), f"net.cluster.{name}"
                    ),
                )
            swap(
                cluster,
                "window_evidence",
                tracer.wrap(cluster.window_evidence, "net.oracle.check"),
            )
        yield


# ----------------------------------------------------------------------
# Metrics from the spans and the outcome of the traced call
# ----------------------------------------------------------------------
def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


Totals = Dict[str, Dict[str, float]]


def span_seconds(totals: Totals, name: str) -> float:
    """Summed duration of the spans called ``name`` (0 if there were none)."""
    return totals[name]["total"] if name in totals else 0.0


def layer_metrics(
    family: str,
    tracer: Tracer,
    observed: Observed,
    inputs: Any,
    outcome: Any,
    cpu_s: float,
    scratch: Path,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """This family's per-layer metrics, and self-time shares by span name.

    The root span (``round``) is the timed call, so the shares sum to 1;
    the root's own share is what no child span covers — the unattributed
    remainder.
    """
    totals = totals_by_name(tracer.spans)
    wall = totals["round"]["total"]
    shares = {name: row["self"] / wall for name, row in totals.items()}
    metrics: Dict[str, float] = {
        "trace.spans": len(tracer.spans),
        "trace.overhead_share": len(tracer.spans) * probe_span_cost() / wall,
        "trace.unattributed_share": shares["round"],
    }
    if family == "net":
        metrics.update(net_metrics(totals, outcome, cpu_s))
        metrics.update(probe_wire())
        return metrics, shares
    hits = sum(ctx.hits for ctx in observed.contexts.values())
    misses = sum(ctx.misses for ctx in observed.contexts.values())
    metrics.update(
        {
            "sim.build_s": span_seconds(totals, "sim.build"),
            "sim.drive_s": span_seconds(totals, "sim.drive"),
            "sim.steps": observed.steps,
            "sim.steps_per_run": ratio(observed.steps, observed.runs),
            "sim.us_per_step": ratio(
                span_seconds(totals, "sim.drive") * 1e6, observed.steps
            ),
            "sim.register_ops": observed.register_ops,
            "spec.check_s": span_seconds(totals, "spec.check"),
            "spec.share": span_seconds(totals, "spec.check") / wall,
            "spec.memo_hits": hits,
            "spec.memo_misses": misses,
            "spec.memo_hit_ratio": ratio(hits, hits + misses),
        }
    )
    if family == "campaign":
        metrics.update(campaign_metrics(totals, observed, outcome))
        metrics.update(probe_round_robin(inputs.cells))
        metrics.update(probe_queue(scratch, inputs.cells))
    else:
        metrics.update(explore_metrics(totals, outcome))
        metrics.update(probe_fingerprint(inputs.scenario))
        replay_ms = probe_replay(inputs.scenario, observed.prefixes)
        metrics["explore.replay_ms_per_run"] = replay_ms
        metrics["explore.dpor.overhead_ratio"] = ratio(
            metrics["explore.dpor.ms_per_run"], replay_ms
        )
    return metrics, shares


def campaign_metrics(
    totals: Totals, observed: Observed, status: Any
) -> Dict[str, float]:
    wall = totals["round"]["total"]
    cells = {
        name[len(CELL_SPAN):]: row["total"]
        for name, row in totals.items()
        if name.startswith(CELL_SPAN)
    }
    shrunk = observed.shrunk
    shrink_s = span_seconds(totals, "explore.shrink")
    replays = sum(result.replays for result in shrunk)
    out = {f"campaign.cell_s.{family}": seconds for family, seconds in cells.items()}
    out.update(
        {
            "campaign.cells": len(status.verdicts),
            "campaign.runs": status.runs,
            "campaign.steps": status.steps,
            "campaign.corpus_save_s": span_seconds(
                totals, "campaign.corpus_save"
            ),
            "explore.find_s": sum(cells.values()),
            "explore.shrink.s": shrink_s,
            "explore.shrink.share": shrink_s / wall,
            "explore.shrink.classes": len(shrunk),
            "explore.shrink.replays": replays,
            "explore.shrink.ms_per_replay": ratio(shrink_s * 1e3, replays),
            "explore.shrink.steps_in": sum(len(r.original.trace) for r in shrunk),
            "explore.shrink.steps_out": sum(len(r.trace) for r in shrunk),
            # What run_service_campaign did outside the cells, the
            # shrinker and the corpus: queue, store, status queries.
            "service.overhead_s": totals["round"]["self"],
        }
    )
    mp_drives = [
        (label, row)
        for label, row in observed.by_label.items()
        if label.startswith("mp_register")
    ]
    if mp_drives:
        out["mp.msgs_per_run"] = ratio(
            sum(row[3] for _label, row in mp_drives),
            sum(row[0] for _label, row in mp_drives),
        )
    for label, (_runs, steps, seconds, _messages) in mp_drives:
        if "faults=" not in label:
            out["mp.us_per_step.reliable"] = ratio(seconds * 1e6, steps)
        elif "'drop'" in label and "retransmit=True" in label:
            out["mp.us_per_step.lossy"] = ratio(seconds * 1e6, steps)
    return out


def explore_metrics(totals: Totals, outcome: Any) -> Dict[str, float]:
    dpor, sleep = outcome
    dpor_s = span_seconds(totals, "explore.dpor")
    sleep_s = span_seconds(totals, "explore.sleep")
    return {
        "explore.dpor.s": dpor_s,
        "explore.dpor.runs": dpor.runs,
        "explore.dpor.states": dpor.states,
        "explore.dpor.ms_per_run": dpor_s * 1e3 / dpor.runs,
        "explore.dpor.races": dpor.races_detected,
        "explore.dpor.pruned_dpor": dpor.pruned_dpor,
        "explore.dpor.pruned_symmetry": dpor.pruned_symmetry,
        "explore.dpor.replayed_steps": dpor.replayed_steps,
        "explore.sleep.s": sleep_s,
        "explore.sleep.runs": sleep.runs,
        "explore.sleep.states": sleep.states,
        "explore.sleep.ms_per_run": sleep_s * 1e3 / sleep.runs,
        "explore.sleep.pruned_fingerprint": sleep.pruned_fingerprint,
        "explore.sleep.pruned_sleep": sleep.pruned_sleep,
    }


def net_metrics(totals: Totals, report: Any, cpu_s: float) -> Dict[str, float]:
    wall = totals["round"]["total"]
    oracle_s = span_seconds(totals, "net.oracle.check")
    ops = report.load["ops"]
    channels = [node["channels"] for node in report.nodes]
    proxies = report.chaos["proxies"].values()
    out = {
        "net.cluster.start_s": span_seconds(totals, "net.cluster.start"),
        "net.cluster.stop_s": span_seconds(totals, "net.cluster.stop"),
        "net.oracle.check_s": oracle_s,
        "net.oracle.share": oracle_s / wall,
        "net.oracle.records_per_window": ratio(
            sum(len(doc["records"]) for doc in report.windows), len(report.windows)
        ),
        "net.node.delivered_per_op": ratio(
            sum(node["delivered"] for node in report.nodes), ops
        ),
        "net.load.last_over_first": last_over_first(report.windows),
        "net.cpu_share": cpu_s / wall,
    }
    for key in ("sent", "retransmitted", "acked", "duplicates_dropped", "exhausted"):
        out[f"net.channels.{key}"] = sum(row[key] for row in channels)
    out["net.channels.retransmit_ratio"] = ratio(
        out["net.channels.retransmitted"], out["net.channels.sent"]
    )
    out["net.node.msgs_per_op"] = ratio(out["net.channels.sent"], ops)
    for key in ("forwarded", "dropped", "duplicated", "delayed"):
        out[f"net.chaos.{key}"] = sum(proxy[key] for proxy in proxies)
    for kind, row in report.load["kinds"].items():
        out[f"net.load.op_ms_p50.{kind}"] = row["p50_ms"]
    return out


def last_over_first(windows: List[Dict[str, Any]]) -> float:
    """Last round's ops/s over the first round's, from evidence times.

    Each window document rebases its times to its own first invocation,
    and every object is touched within a few operations of the barrier,
    so a round lasted about as long as its longest document. A ratio
    drifting below 1 as rounds are added is the canary for per-peer
    state that grows with the run (the channels' ``seen`` sets).
    """
    rounds: Dict[int, List[int]] = {}
    for doc in windows:
        row = rounds.setdefault(doc["window"], [0, 0])
        row[0] += len(doc["records"])
        row[1] = max(row[1], max(r["responded_at"] for r in doc["records"]))
    rates = [ops / nanos for _index, (ops, nanos) in sorted(rounds.items())]
    return rates[-1] / rates[0]


# ----------------------------------------------------------------------
# Probes: one layer's public functions in a micro-loop, wrappers removed
# ----------------------------------------------------------------------
def probe_span_cost(calls: int = 5000) -> float:
    """Seconds one span-recording wrapper adds to the call it wraps."""
    wrapped = Tracer("probe").wrap(lambda: None, "probe")
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - started) / calls


def probe_round_robin(cells: List[Any], runs: int = 2) -> Dict[str, float]:
    """The swarm cells' scenarios driven under plain round robin.

    ``sim.us_per_step`` minus this is what the swarm schedulers' pick
    costs per step.
    """
    from repro.errors import StepLimitExceeded
    from repro.sim.scheduler import RoundRobinScheduler

    steps = 0
    seconds = 0.0
    for cell in cells:
        if cell.engine != "swarm":
            continue
        for _ in range(runs):
            built = cell.scenario.build(RoundRobinScheduler())
            started = time.perf_counter()
            try:
                built.drive()
            except StepLimitExceeded:
                pass
            seconds += time.perf_counter() - started
            steps += built.system.clock
            built.system.release_coroutines()
    return {"sim.us_per_step_rr": ratio(seconds * 1e6, steps)}


def probe_fingerprint(
    scenario: Any, builds: int = 5, steps: int = 600
) -> Dict[str, float]:
    """Cost of one incremental ``System.fingerprint()`` after a step."""
    from repro.sim.scheduler import RoundRobinScheduler

    def loop(fingerprint: bool) -> Tuple[float, int]:
        seconds, taken = 0.0, 0
        for _ in range(builds):
            system = scenario.build(RoundRobinScheduler()).system
            started = time.perf_counter()
            for _ in range(steps):
                if not system.step():
                    break
                if fingerprint:
                    system.fingerprint()
                taken += 1
            seconds += time.perf_counter() - started
            system.release_coroutines()
        return seconds, taken

    bare, _taken = loop(False)
    printed, taken = loop(True)
    return {"sim.fingerprint_us": ratio((printed - bare) * 1e6, taken)}


def probe_replay(scenario: Any, prefixes: List[Tuple[int, ...]]) -> float:
    """ms per bare ``execute_trace`` of schedules the explorer ran."""
    from repro.explore import execute_trace

    started = time.perf_counter()
    for prefix in prefixes:
        execute_trace(scenario, prefix)
    return ratio((time.perf_counter() - started) * 1e3, len(prefixes))


def probe_queue(scratch: Path, cells: List[Any], copies: int = 40) -> Dict[str, float]:
    """Store mutations per second of the queue protocol, cells not run."""
    from repro.service import ResultsStore, cell_fingerprint
    from repro.service import queue as squeue

    batch = [cells[index % len(cells)] for index in range(copies)]
    store = ResultsStore(scratch / "queue-probe.db")
    try:
        started = time.perf_counter()
        run_id = squeue.submit(store, batch)
        ops = 1
        while True:
            lease = squeue.lease(store, "probe", ttl=60.0)
            if lease is None:
                break
            for cell_index, cell in lease.cells:
                store.record_cell_verdict(
                    run_id,
                    cell_index,
                    label=cell.label(),
                    cell_fingerprint=cell_fingerprint(cell),
                    expected="clean",
                    ok=True,
                    fingerprints=[],
                    runs=1,
                    steps=1,
                    incomplete=0,
                    elapsed=0.0,
                    note="",
                    worker="probe",
                )
            squeue.heartbeat(store, lease, ttl=60.0)
            squeue.complete(store, lease, runs=1, steps=1, elapsed=0.0)
            ops += 3 + len(lease.cells)
        seconds = time.perf_counter() - started
        if not squeue.drained(store, run_id=run_id):
            raise RuntimeError("queue probe did not drain its run")
    finally:
        store.close()
    return {"service.queue_ops_per_s": ops / seconds}


def probe_wire(frames: int = 2000) -> Dict[str, float]:
    """Codec and channel cost per protocol frame, no sockets.

    The payloads have the quorum protocol's WRITE / ECHO / ACK / READ /
    VALUE shapes, framed by ``WallClockChannels.frame`` as a node frames
    them.
    """
    from repro.net import WallClockChannels, wire

    shapes = (
        ("WRITE", "reg:1", 7, 1000007),
        ("ECHO", "reg:1", 7, 1000007),
        ("ACK", "reg:1", 7),
        ("READ", "reg:2", 41),
        ("VALUE", "led:3", 41, 5, ((2, 1), (4, 3))),
    )
    sender, receiver = WallClockChannels(1), WallClockChannels(2)
    docs = []
    started = time.perf_counter()
    for index in range(frames):
        framed = sender.frame(2, shapes[index % len(shapes)], 0.0)
        _inner, acks = receiver.on_receive(1, framed)
        for ack in acks:
            sender.on_receive(2, ack)
        docs.append(framed)
    frame_s = time.perf_counter() - started
    if sender.acked != frames or sender.pending_count():
        raise RuntimeError("channel probe lost frames")

    started = time.perf_counter()
    encoded = [wire.encode(wire.msg(framed)) for framed in docs]
    encode_s = time.perf_counter() - started
    started = time.perf_counter()
    for frame in encoded:
        wire.freeze(json.loads(frame[4:].decode())["m"])
    decode_s = time.perf_counter() - started
    return {
        "net.channels.frame_us": frame_s * 1e6 / frames,
        "net.wire.encode_us": encode_s * 1e6 / frames,
        "net.wire.decode_us": decode_s * 1e6 / frames,
        "net.wire.bytes_per_frame": sum(map(len, encoded)) / frames,
    }
