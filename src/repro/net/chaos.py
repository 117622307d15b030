"""Socket-layer chaos: the fault vocabulary applied to real TCP.

A :class:`ChaosProxy` fronts one destination node: every peer dials the
proxy's port instead of the node's, the handshake identifies the
sender, and each payload of every ``msg`` document is then judged, in
order, by the :class:`repro.faults.plan.FaultJudge` that
:class:`repro.faults.FaultyNetwork` drives in virtual time: the
submission checkpoint decides its copies and delay, and the delivery
checkpoint runs on each copy as it is forwarded (a delayed copy after
its sleep, so a window that opened meanwhile cuts it). A node batches a
tick's payloads into one document; the proxy forwards the undelayed
survivors of one inbound document as one document, and each delayed
copy as a one-payload document of its own. Faulting at the socket layer
(rather than inside the node) keeps the node code honest: a dropped
payload really never arrives, a duplicated one really arrives twice, a
delayed one really overtakes its successors.

Draw source: each link rule draws from its own ``random.Random`` stream
seeded with ``(plan.seed, destination pid, rule index)``, once per
payload it matches, so identical plans over identical per-link payload
sequences make identical decisions, per rule, however the sender
happened to batch them (the simulator gives all rules one stream).

Plan times (partition windows, crash windows) are interpreted as
**milliseconds since the cluster epoch** on the shared
:class:`ChaosClock`; all processes live on one host, so one monotonic
clock is genuinely global. Crash faults are suppressed here (nothing
reaches a crashed node, nothing a crashed node sends is forwarded) and
*enacted* by the cluster orchestrator, which stops the node process and
— for crash-recovery windows — restarts it through the node's recovery
protocol.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.faults.plan import FaultJudge, FaultPlan
from repro.net import wire


class ChaosClock:
    """Milliseconds since the cluster epoch — the plan's time axis."""

    def __init__(self) -> None:
        self._epoch = time.monotonic()

    def now(self) -> int:
        return int((time.monotonic() - self._epoch) * 1000)


class ChaosProxy:
    """A faulting TCP proxy in front of one node.

    Args:
        plan: The parsed fault plan (shared by every proxy of a run).
        dest: Pid of the node this proxy fronts.
        backend: ``(host, port)`` of the real node.
        clock: The run's shared :class:`ChaosClock`.
        host: Interface to listen on.
    """

    def __init__(
        self,
        plan: FaultPlan,
        dest: int,
        backend: Tuple[str, int],
        clock: ChaosClock,
        host: str = "127.0.0.1",
    ):
        self.plan = plan
        self.dest = dest
        self.backend = backend
        self.clock = clock
        self.host = host
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self.judge = FaultJudge(
            plan,
            [
                random.Random(f"chaos:{plan.seed}:{dest}:{index}")
                for index in range(len(plan.link_rules))
            ],
        )
        self.forwarded = 0
        #: Inbound connections closed for a malformed frame.
        self.bad_frames = 0
        self._delay_tasks: set = set()
        self._connections: set = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._serve, self.host, 0)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and drop every connection.

        Accepted connections are closed *before* awaiting
        ``wait_closed()``: since Python 3.12.1 that call waits for them.
        """
        if self._server is not None:
            self._server.close()
        for task in list(self._delay_tasks):
            task.cancel()
        self._delay_tasks.clear()
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One inbound peer connection: handshake, then fault every frame."""
        backend_writer: Optional[asyncio.StreamWriter] = None
        write_lock = asyncio.Lock()
        self._connections.add(writer)
        wire.cap_reads(writer.transport)
        splitter = wire.Splitter()
        try:
            opening = await wire.read_hello(reader, splitter)
            if opening is None:
                return
            hello, docs = opening
            sender = hello.get("pid", 0)
            backend_writer = await self._dial(hello)
            while docs is not None:
                for doc in docs:
                    if doc["t"] != "msg":
                        await self._forward(backend_writer, write_lock, doc)
                        continue
                    survivors: List[Any] = []
                    for payload in doc["m"]:
                        self._apply(sender, payload, survivors, backend_writer, write_lock)
                    if survivors:
                        await self._forward(
                            backend_writer, write_lock, wire.msg(*survivors)
                        )
                        self.forwarded += len(survivors)
                docs = await wire.read_docs(reader, splitter)
        except NetworkError:
            # A malformed frame: close the connection, keep the count.
            self.bad_frames += 1
        except (ConnectionError, OSError):
            return
        except asyncio.CancelledError:
            # Absorbed so loop teardown doesn't report cancelled
            # connection handlers as callback errors.
            return
        finally:
            self._connections.discard(writer)
            for stream in (writer, backend_writer):
                if stream is not None:
                    stream.close()

    async def _dial(self, hello_doc: Dict[str, Any]) -> asyncio.StreamWriter:
        host, port = self.backend
        _reader, backend_writer = await asyncio.open_connection(host, port)
        backend_writer.write(wire.encode(hello_doc))
        await backend_writer.drain()
        return backend_writer

    async def _forward(
        self,
        backend_writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        doc: Dict[str, Any],
    ) -> None:
        async with lock:
            backend_writer.write(wire.encode(doc))
            await backend_writer.drain()

    def _apply(
        self,
        sender: int,
        payload: Any,
        survivors: List[Any],
        backend_writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        """Judge one protocol payload: append its undelayed copies that
        pass delivery to ``survivors``, schedule its delayed ones."""
        now = self.clock.now()
        copies, delay_ms = self.judge.submit(sender, self.dest, now)
        for _ in range(copies):
            if delay_ms:
                task = asyncio.ensure_future(
                    self._deliver_late(sender, payload, backend_writer, lock, delay_ms)
                )
                self._delay_tasks.add(task)
                task.add_done_callback(self._delay_tasks.discard)
            elif self.judge.deliverable(sender, self.dest, now):
                survivors.append(payload)

    async def _deliver_late(
        self,
        sender: int,
        payload: Any,
        backend_writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        delay_ms: int,
    ) -> None:
        await asyncio.sleep(delay_ms / 1000.0)
        if not self.judge.deliverable(sender, self.dest, self.clock.now()):
            return
        try:
            await self._forward(backend_writer, lock, wire.msg(payload))
            self.forwarded += 1
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, int]:
        return {
            "forwarded": self.forwarded,
            **self.judge.metrics(),
            "bad_frames": self.bad_frames,
        }


def describe_suppression(
    plan: FaultPlan, proxies: Dict[int, ChaosProxy], now: int
) -> str:
    """One-line cluster-wide suppression summary (the STALLED diagnosis).

    :meth:`repro.faults.FaultPlan.describe_suppression` over the links
    of every proxy, so the diagnosis names the starved links regardless
    of which destination they starve.
    """
    links: Dict[Tuple[int, int], int] = {}
    for proxy in proxies.values():
        for key, count in proxy.judge.suppressed_links.items():
            links[key] = links.get(key, 0) + count
    return plan.describe_suppression(now, links)
