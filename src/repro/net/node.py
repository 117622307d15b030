"""One live cluster process: replica, client API, and TCP server.

:class:`NetNode` is the socket driver of the quorum protocol. The
protocol itself — replica state, the ``WRITE`` / ``ECHO`` / ``ACK`` /
``READ`` / ``VALUE`` / ``PULL`` / ``PULL-ACK`` handler, the ``f + 1``
confirmation rule, and what a write, a read or a recovery round does
with them — is :class:`repro.mp.swmr_emulation.ReplicaCore` and the ops
of :mod:`repro.mp.client_ops`, the same objects
:class:`repro.mp.RegisterEmulation` drives under the cooperative
scheduler, so what the simulator explores is what runs here. This
module adds what a real process needs around it:

* **Transport.** The core returns ``(destination, payload)`` pairs; the
  node puts each (framed by its :class:`WallClockChannels` when
  retransmission is on) into a per-peer link buffer, and one flush per
  peer per event-loop tick hands the tick's payloads to the peer's TCP
  transport as one ``msg`` document in a single ``write`` — same
  payloads, same order, one JSON document and one length prefix per
  tick rather than per payload. A link is lossy the way a crashed peer
  is: payloads offered while it is down (no route, a dial that just
  failed, a closing transport) are dropped, never hoarded; payloads
  offered *during* a dial are sent, in order, when it succeeds. The
  channel layer's retransmission is what rebuilds reliability on top.
  Back-pressure is the transport's own unbounded write buffer.
* **Retransmission.** No task polls for lost frames: one
  ``loop.call_at`` timer per node is armed at the earliest pending
  deadline (by :meth:`NetNode._send` when the deadline the channel
  core set for a fresh frame is sooner than the armed one), and each
  firing resends what is due and re-arms from
  :meth:`WallClockChannels.next_due`. A deadline is one measured RTO
  after the send (``base_timeout`` until a round trip to that peer has
  been timed, which starts at the node's first resend), jittered
  downward, doubling per resend up to
  ``max_backoff``. Inbound payloads are unframed at the
  ``time.monotonic()`` their chunk arrived, so a first-copy ack times
  its round trip.
* **Inbound.** Each accepted connection is one small
  :class:`asyncio.Protocol`, not a task: every chunk the socket
  delivers goes through the connection's frame splitter from
  :mod:`repro.net.wire`, and a peer's payloads are fed into the core in
  order inside that callback; a remote client's requests each run as a
  task that writes its response straight to the transport. A malformed
  frame — a payload holding a JSON object included — closes its
  connection and is counted in ``bad_frames``.
* **Waiting.** A client operation is an op of
  :mod:`repro.mp.client_ops`, the generator the simulator polls; each
  of its waits parks on a plain future in the node's waiter list. Every
  delivered frame resolves and clears that list, and each woken
  operation asks the current core again for its own quorum. A read's
  waits also re-send, paced from ``requery`` seconds: the protocol
  asking again, above the channel layer's resending of lost frames.
* **Write-back on by default.** ``read`` runs the [11] write-back round
  unless told otherwise; :func:`repro.mp.client_ops.read` says why the
  simulator's default differs.
* ``transfer`` / ``balance``: the asset-transfer object derived from
  one append-only ledger register per account (``led:P``, written only
  by its owner): ``balance(a) = initial + credits(a) - debits(a)`` over
  quorum-read ledgers, transfers solvency-checked under a per-owner
  lock. The ledgers are read as one op of
  :func:`repro.mp.client_ops.read`: one ``READ`` and one write-back
  ``PULL``, each carrying an entry per ledger, and no task. Debits
  depend on the credits that funded them, so per-register
  regular+write-back semantics make the derived object linearizable —
  which is exactly what the sampled-window oracle verifies live.

Crash faults: :meth:`stop` drops all connection state, cancels the
retransmit timer (a crashed node stays silent) and closes the server
(frames in flight are genuinely lost); :meth:`restart` models a
*lose-state* restart — the core is replaced by a fresh one and rebuilt
by one recovery round, a single ``READ`` with an entry per register,
that collects ``VALUE`` reports from ``n - f - 1`` *other* replicas on
every register and adopts the newest per register
(:func:`repro.mp.client_ops.recover`; with no Byzantine processes in
the live runtime, ``n - f - 1 > f`` reporters always include one that
saw every completed write). Until recovery finishes
the core is flagged ``recovering`` and answers no ``READ``\\ s —
silence is indistinguishable from slowness, so rejoining is safe;
channel sequence counters survive the restart so the retransmit layer's
dedup stays sound.

Processes trust the connection handshake to identify the sender — the
authenticated-channels assumption, discharged on localhost. The live
runtime injects crash and network faults, not Byzantine replicas.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, NetworkError
from repro.mp import client_ops
from repro.mp.client_ops import ClientOp
from repro.mp.swmr_emulation import ALL, EmulatedRegisterSpec, Outgoing, ProgressCount
from repro.mp.swmr_emulation import ReplicaCore
from repro.net import wire
from repro.net.channels import WallClockChannels

#: How long a link stays down (dropping frames) after a failed dial.
_RECONNECT_PAUSE = 0.02


class _Link:
    """Outbound state for one peer: the tick's payloads and where they go."""

    __slots__ = ("dst", "frames", "transport", "dial", "retry_at")

    def __init__(self, dst: int):
        self.dst = dst
        #: Payloads not yet handed to a transport. Non-empty only while
        #: a flush is scheduled or a dial is in progress.
        self.frames: List[Any] = []
        self.transport: Optional[asyncio.WriteTransport] = None
        self.dial: Optional[asyncio.Task] = None
        #: ``time.monotonic()`` before which a failed dial is not retried.
        self.retry_at = 0.0


class _Connection(asyncio.Protocol):
    """One accepted connection: every chunk through its splitter, then
    each payload delivered (a peer) or each request served (a client)."""

    def __init__(self, node: NetNode):
        self.node = node
        self.splitter = wire.Splitter()
        self.transport: Optional[asyncio.Transport] = None
        #: The handshake's pid; ``None`` until the ``hello`` arrived.
        self.sender: Optional[int] = None
        #: Client requests in flight, cancelled when the connection goes.
        self.requests: Set[asyncio.Task] = set()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        wire.cap_reads(transport)
        self.node._connections.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.node._connections.discard(self.transport)
        for task in self.requests:
            task.cancel()

    def data_received(self, data: bytes) -> None:
        node = self.node
        try:
            docs = self.splitter.feed(data)
        except NetworkError:
            # A malformed frame: the stream cannot be trusted past it.
            # Closing is the whole response; the count keeps it visible.
            node.bad_frames += 1
            self.transport.close()
            return
        sender = self.sender
        if sender is None:
            if not docs:
                return
            if docs[0]["t"] != "hello":
                self.transport.close()
                return
            sender = self.sender = docs[0].get("pid", 0)
            docs = docs[1:]
        if sender >= 1:
            deliver, now = node._deliver, time.monotonic()
            for doc in docs:
                if doc["t"] == "msg":
                    for payload in doc["m"]:
                        deliver(sender, payload, now)
            return
        for doc in docs:
            if doc["t"] == "req":
                task = asyncio.ensure_future(node._serve_request(self.transport, doc))
                self.requests.add(task)
                task.add_done_callback(self.requests.discard)


class NetNode:
    """One process of the live cluster.

    Args:
        pid: This node's pid (``1..n``).
        n: Cluster size.
        f: Fault bound (quorums are ``n - f``, confirmations ``f + 1``).
        registers: ``name -> (writer pid, initial value)`` for every
            emulated register (identical on every node).
        history: Optional :class:`repro.net.oracle.LiveHistory`; client
            operations record invocation/response events into it.
        channels: Optional :class:`WallClockChannels` — frame all
            protocol traffic with ACK + dedup + retransmission.
        accounts: Account pids of the asset-transfer object (each must
            have a ``led:P`` ledger register), or ``None``.
        initial_balance: Starting balance of every account.
        requery: Base pacing interval (seconds) for blocking waits.
        host: Interface to serve on.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        registers: Dict[str, Tuple[int, Any]],
        history: Optional[Any] = None,
        channels: Optional[WallClockChannels] = None,
        accounts: Optional[Tuple[int, ...]] = None,
        initial_balance: int = 0,
        requery: float = 0.05,
        host: str = "127.0.0.1",
    ):
        if not 1 <= pid <= n:
            raise ConfigurationError(f"pid {pid} outside 1..{n}")
        for name, (writer, _initial) in registers.items():
            if not 1 <= writer <= n:
                raise ConfigurationError(f"register {name!r} writer {writer} outside 1..{n}")
        if accounts:
            for account in accounts:
                if f"led:{account}" not in registers:
                    raise ConfigurationError(
                        f"account {account} has no ledger register led:{account}"
                    )
        self.pid = pid
        self.n = n
        self.f = f
        self.registers = dict(registers)
        self._specs = {
            name: EmulatedRegisterSpec(name, writer, wire.freeze(initial))
            for name, (writer, initial) in registers.items()
        }
        self.history = history
        self.channels = channels
        self.accounts = tuple(accounts) if accounts else ()
        self.initial_balance = initial_balance
        self.requery = requery
        self.host = host
        self.port: Optional[int] = None
        self._routes: Dict[int, Tuple[str, int]] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._serving = False
        #: The one retransmit deadline timer, and when it fires
        #: (``time.monotonic()``; ``inf`` while none is armed).
        self._retransmit_timer: Optional[asyncio.TimerHandle] = None
        self._retransmit_at = math.inf
        self._links: Dict[int, _Link] = {}
        self._connections: Set[asyncio.Transport] = set()
        #: Futures of the operations parked in :meth:`_drive`.
        self._waiters: List[asyncio.Future] = []
        self._write_locks = {name: asyncio.Lock() for name in registers}
        self._transfer_lock = asyncio.Lock()
        #: Protocol frames delivered to this node (post-dedup traffic
        #: included; duplicates are dropped before this counts).
        self.delivered = 0
        #: Inbound connections closed for a malformed frame.
        self.bad_frames = 0
        #: Protocol-state changes of every core this node builds.
        self.progress = ProgressCount()
        #: The protocol state machine. A lose-state restart replaces it
        #: wholesale; :meth:`_drive` hands each op the current one.
        self.replica = ReplicaCore(pid, n, f, self._specs, self.progress)

    @property
    def version(self) -> int:
        """The monotone count of protocol-state changes, across
        restarts — the progress signal the wall-clock monitor watches."""
        return self.progress.value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the server (on a fresh port, or the old one on restart)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port or 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._serving = True
        if self.channels is not None:
            self._arm(self.channels.next_due())

    def set_routes(self, routes: Dict[int, Tuple[str, int]]) -> None:
        """Where to dial each peer (a chaos proxy front, or the node itself)."""
        self._routes = dict(routes)

    async def stop(self) -> None:
        """Crash-stop: drop every connection and link, cancel the
        retransmit timer, close the server.

        Frames in flight are lost. Accepted connections are closed
        *before* awaiting ``wait_closed()``: since Python 3.12.1 that
        call waits for them, so the other order never returns.
        """
        self._serving = False
        if self._server is not None:
            self._server.close()
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer, self._retransmit_at = None, math.inf
        tasks: List[asyncio.Task] = []
        for link in self._links.values():
            link.frames.clear()
            if link.dial is not None:
                tasks.append(link.dial)
            if link.transport is not None:
                link.transport.close()
        self._links.clear()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for transport in list(self._connections):
            transport.close()
        self._connections.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def restart(self) -> None:
        """Lose-state restart: reset, rejoin, recover before serving reads.

        The channel layer's sequence counters survive (so peers' dedup
        state stays consistent), but its pending frames do not — they
        were volatile.
        """
        self.replica = ReplicaCore(self.pid, self.n, self.f, self._specs, self.progress)
        self.replica.recovering = True
        if self.channels is not None:
            self.channels.drop_pending()
        await self.start()
        await self._drive(client_ops.recover(self.replica))
        self.replica.recovering = False
        self._notify()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _emit(self, outgoing: List[Outgoing]) -> None:
        """Put the core's outgoing pairs on the wire, in order."""
        for dst, payload in outgoing:
            if dst is ALL:
                self._broadcast(payload)
            else:
                self._send(dst, payload)

    def _send(self, dst: int, payload: Any) -> None:
        if dst == self.pid:
            self._deliver(self.pid, payload, None)
            return
        channels = self.channels
        if channels is not None:
            payload = channels.frame(dst, payload, time.monotonic())
            due = channels.deadline(dst, payload[1])
            if due < self._retransmit_at:  # the common case skips the call
                self._arm(due)
        self._enqueue(dst, payload)

    def _send_raw(self, dst: int, payload: Any) -> None:
        """Send outside the channel layer (channel ACKs must not recurse)."""
        if dst == self.pid:
            return
        self._enqueue(dst, payload)

    def _broadcast(self, payload: Any) -> None:
        for dst in range(1, self.n + 1):
            self._send(dst, payload)

    def _enqueue(self, dst: int, payload: Any) -> None:
        if not self._serving:
            return
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = _Link(dst)
        if not link.frames and link.dial is None:
            asyncio.get_running_loop().call_soon(self._flush, link)
        link.frames.append(payload)

    def _flush(self, link: _Link) -> None:
        """Hand the payloads buffered this tick to the peer as one
        ``msg`` document, in one write.

        Two rules decide what happens to a payload that finds no open
        transport. Payloads offered while the link is *down* — no route,
        inside the ``_RECONNECT_PAUSE`` after a failed dial, or on a
        transport that is closing — are dropped and the buffer cleared:
        that gives bare TCP the lossy-link semantics a crashed peer
        implies and keeps a dead peer's buffer empty. Payloads offered
        while a dial is *in progress* stay buffered; :meth:`_dial` sends
        them when it succeeds. Back-pressure is the transport's write
        buffer, unbounded as the queue it replaces was.
        """
        frames = link.frames
        if not frames:  # the link was stopped under this callback
            return
        transport = link.transport
        if transport is not None:
            link.frames = []
            if not transport.is_closing():
                transport.write(wire.encode_batch(frames))
            else:
                link.transport = None
            return
        route = self._routes.get(link.dst)
        if route is None or time.monotonic() < link.retry_at:
            frames.clear()
            return
        link.dial = asyncio.ensure_future(self._dial(link, route))

    async def _dial(self, link: _Link, route: Tuple[str, int]) -> None:
        """Connect, then send ``hello`` and whatever buffered meanwhile.

        The payloads offered during the dial go out in order behind the
        handshake as one document, in the same write. A failed dial
        drops them and takes the link down for ``_RECONNECT_PAUSE``.
        """
        try:
            transport, _protocol = await asyncio.get_running_loop().create_connection(
                asyncio.Protocol, *route
            )
        except (ConnectionError, OSError):
            link.retry_at = time.monotonic() + _RECONNECT_PAUSE
        else:
            transport.write(
                wire.encode(wire.hello(self.pid)) + wire.encode_batch(link.frames)
            )
            link.transport = transport
        finally:
            link.frames.clear()
            link.dial = None

    def _arm(self, at: Optional[float]) -> None:
        """Have the retransmit timer fire at ``at`` (``time.monotonic()``)
        unless it already fires sooner; ``None`` (nothing pending) and a
        node that is not serving arm nothing."""
        if at is None or not self._serving or at >= self._retransmit_at:
            return
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
        self._retransmit_at = at
        # The loop's clock is time.monotonic(), so ``at`` needs no rebase.
        self._retransmit_timer = asyncio.get_running_loop().call_at(at, self._retransmit)

    def _retransmit(self) -> None:
        """The deadline timer: resend what is due, re-arm for the next."""
        assert self.channels is not None
        # Everything due by the armed deadline is due, even if the loop
        # woke a hair early.
        now = max(time.monotonic(), self._retransmit_at)
        self._retransmit_timer, self._retransmit_at = None, math.inf
        for dst, payload in self.channels.due_retransmits(now):
            self._enqueue(dst, payload)
        self._arm(self.channels.next_due())

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def _deliver(self, sender: int, payload: Any, received_at: Optional[float]) -> None:
        """Handle one payload: off the wire in a chunk that arrived at
        ``received_at`` (``time.monotonic()``), or ``None`` for the
        node's own message to itself, which is not framed."""
        if received_at is not None and self.channels is not None:
            inner, acks = self.channels.on_receive(sender, payload, received_at)
            for ack in acks:
                self._send_raw(sender, ack)
            if inner is None:
                return
            payload = inner
        self.delivered += 1
        self._emit(self.replica.handle(sender, payload))
        self._notify()

    async def _serve_request(
        self, transport: asyncio.WriteTransport, doc: Dict[str, Any]
    ) -> None:
        """Run one remote client request and write its response."""
        op = doc.get("op")
        try:
            args = wire.freeze(doc.get("args", ()))
            if op == "read":
                value = await self.read(args[0])
            elif op == "write":
                value = await self.write(args[0], args[1])
            elif op == "transfer":
                value = await self.transfer(args[0], args[1])
            elif op == "balance":
                value = await self.balance(args[0])
            elif op == "info":
                value = {
                    "pid": self.pid,
                    "n": self.n,
                    "f": self.f,
                    "registers": sorted(self.registers),
                    "accounts": list(self.accounts),
                }
            else:
                raise ConfigurationError(f"unknown client op {op!r}")
            response = {"t": "res", "id": doc.get("id"), "ok": True, "value": value}
        except Exception as exc:  # surfaced to the client, not swallowed
            response = {
                "t": "res",
                "id": doc.get("id"),
                "ok": False,
                "value": f"{type(exc).__name__}: {exc}",
            }
        if not transport.is_closing():
            transport.write(wire.encode(response))

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def _notify(self) -> None:
        """Wake every parked operation; each re-checks its own predicate."""
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result(None)

    def _unpark(self, waiter: asyncio.Future) -> None:
        """Take ``waiter`` off the list (its timer fired, or its
        operation was cancelled) unless a delivery already did."""
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass
        if not waiter.done():
            waiter.set_result(None)

    async def _drive(self, op: ClientOp, invocation: Optional[tuple] = None) -> Any:
        """Run ``op`` on this node's core; returns its result.

        A wait parks until it is ready on the current core, re-sending
        its message on the pacing if it asks to and, whatever it asks,
        once the node serves again after a restart replaced the core.
        ``invocation`` ``(obj, op, args)`` is recorded once the op has
        opened (a refused op records nothing)."""
        loop = asyncio.get_running_loop()
        message, ready, requery = next(op)
        op_id = self._invoke(*invocation) if invocation else None
        while True:
            self._emit([message])
            core, gaps = self.replica, client_ops.pacing(self.requery)
            deadline = loop.time() + next(gaps) if requery else math.inf
            while not ready(self.replica):
                if self.replica is not core and self._serving:
                    core = self.replica
                    self._emit([message])
                elif loop.time() >= deadline:
                    self._emit([message])
                    deadline = loop.time() + next(gaps)
                else:
                    waiter = loop.create_future()
                    self._waiters.append(waiter)
                    timer = requery and loop.call_at(deadline, self._unpark, waiter)
                    try:
                        await waiter
                    except asyncio.CancelledError:
                        self._unpark(waiter)
                        raise
                    finally:
                        if timer:
                            timer.cancel()
            try:
                message, ready, requery = op.send(self.replica)
            except StopIteration as stop:
                self._respond(op_id, stop.value)
                return stop.value

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def _invoke(self, obj: str, op: str, args: Tuple[Any, ...]) -> Optional[int]:
        if self.history is None:
            return None
        return self.history.invoke(self.pid, obj, op, args)

    def _respond(self, op_id: Optional[int], result: Any) -> None:
        if op_id is not None and self.history is not None:
            self.history.respond(op_id, result)

    async def write(self, name: str, value: Any, record: bool = True) -> str:
        """Emulated ``write``; returns once ``n - f`` replicas acked."""
        # An unknown register gets a lock of its own; the op refuses it.
        async with self._write_locks.get(name) or asyncio.Lock():
            op = client_ops.write(self.replica, name, wire.freeze(value))
            return await self._drive(op, (name, "write", (value,)) if record else None)

    async def read(
        self, name: str, record: bool = True, write_back: bool = True
    ) -> Any:
        """Emulated ``read`` of one register, one ``READ`` entry; a pair
        confirmed by ``f + 1``, written back unless told otherwise (see
        :func:`repro.mp.client_ops.read`)."""
        op = client_ops.read_one(self.replica, name, write_back)
        return await self._drive(op, (name, "read", ()) if record else None)

    # ------------------------------------------------------------------
    # Asset transfer over ledger registers
    # ------------------------------------------------------------------
    @staticmethod
    def _ledger(account: int) -> str:
        return f"led:{account}"

    def _require_account(self, account: Any) -> None:
        if account not in self.accounts:
            raise ConfigurationError(
                f"unknown account {account!r}; tracked: {self.accounts}"
            )

    async def _ledgers(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """Every account's ledger, read (and written back) as one op: one
        ``READ`` and one ``PULL`` carrying an entry per ledger."""
        names = tuple(self._ledger(account) for account in self.accounts)
        values = await self._drive(client_ops.read(self.replica, names, True))
        return dict(zip(self.accounts, values))

    def _balance_from(
        self, ledgers: Dict[int, Tuple[Tuple[int, int], ...]], account: int
    ) -> int:
        balance = self.initial_balance
        for owner, entries in ledgers.items():
            for to, amount in entries:
                if owner == account:
                    balance -= amount
                if to == account:
                    balance += amount
        return balance

    async def transfer(self, to: int, amount: int) -> str:
        """Move ``amount`` from this node's account; ``"ok"``/``"rejected"``."""
        if not self.accounts:
            raise ConfigurationError("no asset-transfer object configured")
        self._require_account(self.pid)
        self._require_account(to)
        if not isinstance(amount, int) or isinstance(amount, bool) or amount <= 0:
            raise ConfigurationError(f"bad transfer amount {amount!r}")
        async with self._transfer_lock:
            op_id = self._invoke("assets", "transfer", (self.pid, to, amount))
            ledgers = await self._ledgers()
            if self._balance_from(ledgers, self.pid) < amount:
                result = "rejected"
            else:
                updated = ledgers[self.pid] + ((to, amount),)
                await self.write(self._ledger(self.pid), updated, record=False)
                result = "ok"
            self._respond(op_id, result)
        return result

    async def balance(self, account: int) -> int:
        """The account's balance derived from quorum-read ledgers."""
        if not self.accounts:
            raise ConfigurationError("no asset-transfer object configured")
        self._require_account(account)
        op_id = self._invoke("assets", "balance", (account,))
        ledgers = await self._ledgers()
        balance = self._balance_from(ledgers, account)
        self._respond(op_id, balance)
        return balance

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "pid": self.pid,
            "delivered": self.delivered,
            "bad_frames": self.bad_frames,
            "version": self.version,
        }
        if self.channels is not None:
            out["channels"] = self.channels.metrics()
        return out
