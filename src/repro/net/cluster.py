"""Live cluster orchestration: deploy, load, fault, monitor, judge.

:class:`LiveCluster` composes the whole runtime:

1. boot ``n`` :class:`~repro.net.node.NetNode` servers on localhost
   (each with a :class:`~repro.net.channels.WallClockChannels` layer
   when retransmission is on);
2. if the profile declares faults, stand a
   :class:`~repro.net.chaos.ChaosProxy` in front of every node and
   route all peer traffic through the proxies; crash faults are
   additionally *enacted* — a scheduler task stops the node process at
   the crash time and (for crash-recovery windows) restarts it through
   its recovery protocol;
3. drive the :class:`~repro.net.loadgen.LoadGenerator` round by round,
   racing every round against the
   :class:`~repro.net.monitor.WallClockProgressMonitor`'s stall event;
4. at each round barrier, hand the round's history window to the
   online oracle (:mod:`repro.net.oracle`) and fold the verdicts.

The run verdict vocabulary is the conformance matrix's: ``CLEAN`` (all
sampled windows linearizable), ``VIOLATING`` (some window is not — the
evidence document pinpoints it), ``STALLED`` (progress stopped; the
diagnosis names the stuck operations and what the chaos layer cut).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.net.chaos import ChaosClock, ChaosProxy, describe_suppression
from repro.net.channels import WallClockChannels
from repro.net.loadgen import LoadGenerator
from repro.net.monitor import WallClockProgressMonitor
from repro.net.node import NetNode
from repro.net.oracle import LiveHistory, window_evidence, window_slices
from repro.spec import CheckContext
from repro.spec.sequential import AssetTransferSpec, AtomicRegisterSpec

CLEAN = "CLEAN"
VIOLATING = "VIOLATING"
STALLED = "STALLED"


@dataclass(frozen=True)
class LiveProfile:
    """Everything that shapes one live run (hashable, JSON-friendly).

    Attributes:
        n: Cluster size.
        f: Fault bound (requires ``n > 2f`` for quorum intersection —
            ``n > 3f`` is not needed here: the live runtime injects
            crash/network faults, not Byzantine replicas).
        seed: Workload seed (client op sequences).
        clients: Concurrent load clients.
        rounds: Barrier-delimited rounds (= sampled windows).
        ops_per_client: Operations per client per round.
        mix: Op mix weights, or ``None`` for the default.
        assets: Also emulate the asset-transfer object (ledger
            registers + transfer/balance ops in the default mix).
        initial_balance: Starting balance per account.
        faults: Fault-plan spec tuple (PR 8 vocabulary; times in ms
            since cluster epoch). Empty = no chaos proxies.
        fault_seed: Chaos determinism seed.
        retransmit: Frame peer traffic through wall-clock channels.
        base_timeout: Channel first-retransmit timeout (seconds).
        max_backoff: Channel backoff cap (seconds).
        max_retries: Channel retry budget per frame.
        window: Progress-monitor stall window (seconds).
        requery: Node-side pacing base for blocking waits (seconds).
        label: Report/evidence label.
        host: Interface for every listener.
    """

    n: int = 4
    f: int = 1
    seed: int = 0
    clients: int = 100
    rounds: int = 3
    ops_per_client: int = 4
    mix: Optional[Tuple[Tuple[str, float], ...]] = None
    assets: bool = True
    initial_balance: int = 10
    faults: Tuple[Tuple[Any, ...], ...] = ()
    fault_seed: int = 0
    retransmit: bool = True
    base_timeout: float = 0.05
    max_backoff: float = 0.4
    max_retries: int = 10
    window: float = 2.0
    requery: float = 0.05
    label: str = "net"
    host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.n < 2 or self.f < 0 or self.n <= 2 * self.f:
            raise ConfigurationError(
                f"live cluster needs n > 2f with n >= 2, got n={self.n}, f={self.f}"
            )
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")


@dataclass
class LiveRunReport:
    """The outcome of one :func:`run_live` invocation."""

    label: str
    verdict: str
    diagnosis: Optional[str]
    rounds_completed: int
    windows: List[Dict[str, Any]] = field(default_factory=list)
    load: Dict[str, Any] = field(default_factory=dict)
    nodes: List[Dict[str, Any]] = field(default_factory=list)
    chaos: Dict[str, Any] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return self.verdict == CLEAN

    def to_json(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "verdict": self.verdict,
            "diagnosis": self.diagnosis,
            "rounds_completed": self.rounds_completed,
            "windows": self.windows,
            "load": self.load,
            "nodes": self.nodes,
            "chaos": self.chaos,
        }

    def describe(self) -> str:
        lines = [f"{self.label}: {self.verdict}"]
        if self.diagnosis:
            lines.append(f"  {self.diagnosis}")
        ok = sum(1 for w in self.windows if w["verdict"]["ok"])
        lines.append(
            f"  windows: {ok}/{len(self.windows)} clean over "
            f"{self.rounds_completed} completed round(s)"
        )
        if self.load:
            lines.append(
                f"  load: {self.load.get('ops', 0)} ops in "
                f"{self.load.get('duration_s', 0)}s "
                f"({self.load.get('ops_per_s', 0)} ops/s)"
            )
            for kind, stats in sorted(self.load.get("kinds", {}).items()):
                lines.append(
                    f"    {kind}: n={stats['count']} p50={stats['p50_ms']}ms "
                    f"p90={stats['p90_ms']}ms p99={stats['p99_ms']}ms "
                    f"max={stats['max_ms']}ms"
                )
        return "\n".join(lines)


class LiveCluster:
    """One deployed localhost cluster plus its chaos/monitoring plumbing."""

    def __init__(self, profile: LiveProfile):
        self.profile = profile
        self.plan = FaultPlan.from_spec(profile.faults, seed=profile.fault_seed)
        self.clock = ChaosClock()
        self.history = LiveHistory()
        self.ctx = CheckContext()
        self.registers: Dict[str, Tuple[int, Any]] = {
            f"reg:{pid}": (pid, 0) for pid in range(1, profile.n + 1)
        }
        self.accounts: Tuple[int, ...] = ()
        if profile.assets:
            self.accounts = tuple(range(1, profile.n + 1))
            for pid in self.accounts:
                self.registers[f"led:{pid}"] = (pid, ())
        self.nodes: List[NetNode] = []
        self.proxies: Dict[int, ChaosProxy] = {}
        self._fault_tasks: List[asyncio.Task] = []

    # ------------------------------------------------------------------
    async def start(self) -> None:
        profile = self.profile
        for pid in range(1, profile.n + 1):
            channels = None
            if profile.retransmit:
                channels = WallClockChannels(
                    pid,
                    base_timeout=profile.base_timeout,
                    max_backoff=profile.max_backoff,
                    max_retries=profile.max_retries,
                    seed=profile.fault_seed,
                )
            node = NetNode(
                pid,
                profile.n,
                profile.f,
                self.registers,
                history=self.history,
                channels=channels,
                accounts=self.accounts or None,
                initial_balance=profile.initial_balance,
                requery=profile.requery,
                host=profile.host,
            )
            await node.start()
            self.nodes.append(node)
        routes: Dict[int, Tuple[str, int]] = {}
        if profile.faults:
            for node in self.nodes:
                proxy = ChaosProxy(
                    self.plan,
                    node.pid,
                    (profile.host, node.port),
                    self.clock,
                    host=profile.host,
                )
                await proxy.start()
                self.proxies[node.pid] = proxy
                routes[node.pid] = (profile.host, proxy.port)
        else:
            routes = {node.pid: (profile.host, node.port) for node in self.nodes}
        for node in self.nodes:
            node.set_routes(routes)
        for crash in self.plan.crashes:
            self._fault_tasks.append(
                asyncio.ensure_future(self._enact_crash(crash))
            )

    async def _enact_crash(self, crash: Any) -> None:
        """Stop the node at its crash time; restart-and-recover if planned."""
        node = self.nodes[crash.pid - 1]
        await asyncio.sleep(max(0.0, crash.at - self.clock.now()) / 1000.0)
        await node.stop()
        if crash.recover_at is None:
            return
        await asyncio.sleep(max(0.0, crash.recover_at - self.clock.now()) / 1000.0)
        await node.restart()

    async def stop(self) -> None:
        for task in self._fault_tasks:
            task.cancel()
        for task in self._fault_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._fault_tasks = []
        for proxy in self.proxies.values():
            await proxy.stop()
        for node in self.nodes:
            await node.stop()

    # ------------------------------------------------------------------
    def _signals(self) -> Tuple:
        """Progress = completed operations + protocol-state versions.

        Deliberately *not* raw frame counts: retransmissions and deduped
        duplicates churn the transport without advancing anything, and
        counting them would let a dead cluster look alive.
        """
        return (
            self.history.responses,
            len(self.history),
            sum(node.version for node in self.nodes),
        )

    def _build_monitor(self, loadgen: LoadGenerator) -> WallClockProgressMonitor:
        suppression = None
        if self.proxies:
            suppression = lambda: describe_suppression(
                self.plan, self.proxies, self.clock.now()
            )
        return WallClockProgressMonitor(
            self._signals,
            window=self.profile.window,
            describe_pending=loadgen.describe_pending,
            describe_suppression=suppression,
            channels=[n.channels for n in self.nodes if n.channels is not None],
        )

    # ------------------------------------------------------------------
    async def run(self) -> LiveRunReport:
        """Drive the full load; return the judged report."""
        profile = self.profile
        loadgen = LoadGenerator(
            self.nodes,
            registers=[f"reg:{pid}" for pid in range(1, profile.n + 1)],
            clients=profile.clients,
            ops_per_client=profile.ops_per_client,
            mix=dict(profile.mix) if profile.mix is not None else None,
            seed=profile.seed,
        )
        monitor = self._build_monitor(loadgen)
        monitor.start()

        anchors: Dict[str, Any] = {
            name: initial
            for name, (_writer, initial) in self.registers.items()
            if name.startswith("reg:")
        }
        balances: List[int] = [profile.initial_balance] * len(self.accounts)
        boundaries: List[int] = []
        windows: List[Dict[str, Any]] = []
        verdict = CLEAN
        diagnosis: Optional[str] = None
        rounds_completed = 0

        try:
            for round_index in range(profile.rounds):
                round_task = asyncio.ensure_future(loadgen.run_round())
                stall_task = asyncio.ensure_future(monitor.stalled_event.wait())
                done, _pending = await asyncio.wait(
                    {round_task, stall_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if round_task not in done:
                    round_task.cancel()
                    try:
                        await round_task
                    except (asyncio.CancelledError, Exception):
                        pass
                    verdict = STALLED
                    diagnosis = monitor.stalled
                    break
                stall_task.cancel()
                await round_task  # propagate real load errors loudly
                rounds_completed += 1
                boundaries.append(len(self.history.history))
                round_windows = self._check_window(
                    round_index, boundaries, anchors, balances
                )
                windows.extend(round_windows)
                if any(not w["verdict"]["ok"] for w in round_windows):
                    verdict = VIOLATING
                    break
        finally:
            loadgen.stats.end()
            await monitor.stop()

        return LiveRunReport(
            label=profile.label,
            verdict=verdict,
            diagnosis=diagnosis,
            rounds_completed=rounds_completed,
            windows=windows,
            load=loadgen.stats.summary(),
            nodes=[node.metrics() for node in self.nodes],
            chaos={
                "plan": self.plan.describe(),
                "proxies": {
                    str(pid): proxy.metrics()
                    for pid, proxy in sorted(self.proxies.items())
                },
            },
        )

    def _check_window(
        self,
        round_index: int,
        boundaries: List[int],
        anchors: Dict[str, Any],
        balances: List[int],
    ) -> List[Dict[str, Any]]:
        """Judge the just-completed round's window; advance the anchors."""
        records = window_slices(self.history.history, boundaries)[-1]
        by_obj: Dict[str, List] = {}
        for record in records:
            by_obj.setdefault(record.obj, []).append(record)
        out: List[Dict[str, Any]] = []
        for obj, obj_records in sorted(by_obj.items()):
            if obj.startswith("reg:"):
                spec: Any = AtomicRegisterSpec(initial=anchors[obj])
            elif obj == "assets":
                spec = AssetTransferSpec(
                    accounts=self.accounts, initial=tuple(balances)
                )
            else:  # pragma: no cover - ledger ops are never recorded
                continue
            out.append(
                window_evidence(
                    self.profile.label,
                    round_index,
                    obj,
                    spec,
                    obj_records,
                    ctx=self.ctx,
                )
            )
        # Re-anchor for the next window: registers at their last written
        # value, balances at the effect of this round's "ok" transfers
        # (order-independent, so no linearization order is needed).
        for record in records:
            if record.obj.startswith("reg:") and record.op == "write":
                anchors[record.obj] = record.args[0]
            elif (
                record.obj == "assets"
                and record.op == "transfer"
                and record.result == "ok"
            ):
                owner, to, amount = record.args
                balances[self.accounts.index(owner)] -= amount
                balances[self.accounts.index(to)] += amount
        return out


async def _run_live(profile: LiveProfile) -> LiveRunReport:
    cluster = LiveCluster(profile)
    await cluster.start()
    try:
        return await cluster.run()
    finally:
        await cluster.stop()


def run_live(profile: LiveProfile) -> LiveRunReport:
    """Deploy, load, and judge one live cluster (blocking entry point)."""
    return asyncio.run(_run_live(profile))
