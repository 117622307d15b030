"""Round-based load generation for live clusters.

Hundreds of concurrent clients, each pinned to a home node, drive a
weighted operation mix (register ``read``/``write``, asset
``transfer``/``balance``) in rounds. ``asyncio.gather`` over the round's
client coroutines is the barrier: a round ends only when *every* client
finished its quota, which is what makes the per-round history windows
self-contained for the online oracle (no operation spans a barrier).

Per-client determinism: client *c* draws from
``random.Random(f"load:{seed}:{c}")``, so the op sequence each client
*attempts* is a pure function of ``(seed, c)`` — wall-clock
interleaving stays real (that is the point of the live runtime), but
the workload itself replays.

The generator also owns the latency/throughput bookkeeping (per-kind
p50/p90/p99/max plus ops/s) and a ``describe_pending`` view of in-flight
operations — the half of the STALLED diagnosis that names *what* is
stuck, complementing the chaos layer's account of *why*.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default operation mix (weights, not probabilities; renormalized).
DEFAULT_MIX: Dict[str, float] = {"read": 5.0, "write": 3.0}
#: Default mix when the cluster has an asset-transfer object.
DEFAULT_ASSET_MIX: Dict[str, float] = {
    "read": 4.0,
    "write": 2.0,
    "transfer": 2.0,
    "balance": 1.0,
}

_KINDS = ("read", "write", "transfer", "balance")


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample: the value at
    1-based rank ``ceil(q * N)``, for ``0 < q <= 1``."""
    if not sorted_values:
        return 0.0
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


class LoadStats:
    """Latency and throughput counters for one load run."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {kind: [] for kind in _KINDS}
        self.started = 0
        self.finished = 0
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None

    def begin(self) -> None:
        if self._t0 is None:
            self._t0 = time.monotonic()

    def end(self) -> None:
        self._t1 = time.monotonic()

    def observe(self, kind: str, seconds: float) -> None:
        self.latencies[kind].append(seconds)
        self.finished += 1

    @property
    def duration(self) -> float:
        if self._t0 is None:
            return 0.0
        return (self._t1 or time.monotonic()) - self._t0

    def summary(self) -> Dict[str, Any]:
        """Per-kind latency percentiles (ms) plus aggregate throughput."""
        out: Dict[str, Any] = {
            "ops": self.finished,
            "duration_s": round(self.duration, 4),
            "ops_per_s": (
                round(self.finished / self.duration, 2) if self.duration else 0.0
            ),
            "kinds": {},
        }
        for kind, values in self.latencies.items():
            if not values:
                continue
            ordered = sorted(values)
            out["kinds"][kind] = {
                "count": len(ordered),
                "p50_ms": round(_percentile(ordered, 0.50) * 1000, 3),
                "p90_ms": round(_percentile(ordered, 0.90) * 1000, 3),
                "p99_ms": round(_percentile(ordered, 0.99) * 1000, 3),
                "max_ms": round(ordered[-1] * 1000, 3),
            }
        return out


class LoadGenerator:
    """Drive a weighted op mix through the cluster's nodes, in rounds.

    Args:
        nodes: The cluster's :class:`~repro.net.node.NetNode` list
            (client *c*'s home node is ``nodes[c % len(nodes)]``).
        registers: Register names clients read; node *P*'s clients
            write only the registers *P* owns (SWMR discipline).
        clients: Concurrent client count.
        ops_per_client: Operations per client per round.
        mix: ``kind -> weight``; kinds without a backing object are
            rejected loudly.
        seed: Workload seed.
    """

    def __init__(
        self,
        nodes: Sequence[Any],
        registers: Sequence[str],
        clients: int = 100,
        ops_per_client: int = 5,
        mix: Optional[Dict[str, float]] = None,
        seed: int = 0,
    ):
        if not nodes:
            raise ConfigurationError("load generator needs at least one node")
        if clients < 1 or ops_per_client < 1:
            raise ConfigurationError(
                f"bad load shape: clients={clients}, ops_per_client={ops_per_client}"
            )
        self.nodes = list(nodes)
        self.registers = list(registers)
        accounts = self.nodes[0].accounts
        if mix is None:
            mix = DEFAULT_ASSET_MIX if accounts else DEFAULT_MIX
        for kind, weight in mix.items():
            if kind not in _KINDS:
                raise ConfigurationError(f"unknown op kind {kind!r}")
            if weight < 0:
                raise ConfigurationError(f"negative weight for {kind!r}")
            if kind in ("transfer", "balance") and not accounts:
                raise ConfigurationError(
                    f"mix includes {kind!r} but the cluster has no asset object"
                )
            if kind in ("read", "write") and not self.registers:
                raise ConfigurationError(
                    f"mix includes {kind!r} but no registers were declared"
                )
        self.mix = {kind: weight for kind, weight in mix.items() if weight > 0}
        if not self.mix:
            raise ConfigurationError("operation mix has no positive weights")
        self.clients = clients
        self.ops_per_client = ops_per_client
        self.seed = seed
        self.stats = LoadStats()
        self._rngs = [
            random.Random(f"load:{seed}:{c}") for c in range(clients)
        ]
        self._write_counters = [0] * clients
        #: client -> (kind, target, started_at) while an op is in flight.
        self._in_flight: Dict[int, Tuple[str, str, float]] = {}

    # ------------------------------------------------------------------
    def _pick_kind(self, rng: random.Random) -> str:
        kinds = list(self.mix)
        weights = [self.mix[k] for k in kinds]
        return rng.choices(kinds, weights=weights, k=1)[0]

    def _home(self, client: int) -> Any:
        return self.nodes[client % len(self.nodes)]

    def _writable(self, client: int) -> List[str]:
        home = self._home(client)
        return [
            name
            for name in self.registers
            if home.registers[name][0] == home.pid
        ]

    async def _one_op(self, client: int) -> None:
        rng = self._rngs[client]
        home = self._home(client)
        kind = self._pick_kind(rng)
        if kind == "write":
            writable = self._writable(client)
            if not writable:
                kind = "read"
        started = time.monotonic()
        if kind == "read":
            target = rng.choice(self.registers)
            self._in_flight[client] = (kind, target, started)
            await home.read(target)
        elif kind == "write":
            target = rng.choice(writable)
            self._write_counters[client] += 1
            value = client * 1_000_000 + self._write_counters[client]
            self._in_flight[client] = (kind, target, started)
            await home.write(target, value)
        elif kind == "transfer":
            others = [a for a in home.accounts if a != home.pid] or list(home.accounts)
            to = rng.choice(others)
            amount = rng.randint(1, 3)
            self._in_flight[client] = (kind, f"->p{to}", started)
            await home.transfer(to, amount)
        else:  # balance
            account = rng.choice(list(home.accounts))
            self._in_flight[client] = (kind, f"p{account}", started)
            await home.balance(account)
        del self._in_flight[client]
        self.stats.observe(kind, time.monotonic() - started)

    async def _client_round(self, client: int) -> None:
        for _ in range(self.ops_per_client):
            self.stats.started += 1
            await self._one_op(client)

    async def run_round(self) -> None:
        """One barrier-delimited round: every client runs its full quota."""
        self.stats.begin()
        await asyncio.gather(
            *[self._client_round(c) for c in range(self.clients)]
        )

    # ------------------------------------------------------------------
    def describe_pending(self) -> str:
        """In-flight operations, oldest first (the STALLED 'what')."""
        if not self._in_flight:
            return "none"
        now = time.monotonic()
        entries = sorted(self._in_flight.items(), key=lambda item: item[1][2])
        parts = [
            f"c{client} {kind}({target}) {now - started:.1f}s"
            for client, (kind, target, started) in entries[:6]
        ]
        if len(entries) > 6:
            parts.append(f"... +{len(entries) - 6} more")
        return f"{len(entries)} in flight: " + ", ".join(parts)
