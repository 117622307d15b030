"""SWMR register emulation over message passing, n > 3f, no signatures.

The paper closes by noting that its registers also exist in
message-passing systems with ``n > 3f``, because SWMR registers can be
emulated there without signatures (Mostéfaoui, Petrolia, Raynal & Jard
[11]). This module provides such an emulation over the ``repro.mp``
network so experiment E9 can run Algorithm 1 end-to-end on top of
messages.

Protocol (echo-amplified quorum replication, in the spirit of [11]):

* Every process acts as a *replica* holding the highest timestamped
  ``(seq, value)`` pair it has accepted for each emulated register.
* ``write(v)``: the writer increments its sequence number, broadcasts
  ``WRITE(reg, seq, v)``, and waits for ``n - f`` ``ACK``\\ s.
* Replicas accept a WRITE only from the register's true writer (channels
  are authenticated), adopt it if newer, **echo** it to all replicas,
  and also adopt pairs confirmed by ``f + 1`` matching echoes — so every
  correct replica eventually converges even if the writer's own sends
  race with reads.
* ``read()``: the reader broadcasts ``READ`` with a ``(reg, rid)``
  entry per register it reads and collects ``VALUE`` replies, one
  ``(reg, rid, seq, v)`` entry per register. It returns ``v`` once some
  pair ``(seq, v)`` is *confirmed* — reported identically by ``f + 1``
  distinct replicas (at least one correct) — choosing the confirmed pair
  with the highest ``seq``. It re-broadcasts the query until confirmation
  arrives. A read of several registers is one such round whatever their
  number; a read of one is the one-entry case.

Mailbox discipline: each process's **replica daemon is the sole consumer
of its mailbox**; it parses every inbound message and records
client-relevant responses (ACKs, VALUE reports) into the process's
:class:`ReplicaCore`. Client operations (the :meth:`RegisterEmulation.write`
/ :meth:`RegisterEmulation.read` generators) never touch the mailbox —
they broadcast, then poll the shared core, which eliminates the classic
two-readers-one-mailbox race.

Guarantees (with at most ``f`` Byzantine replicas and a correct writer):
**regular-register** semantics — a read returns a value at least as new
as the last write completed before it began (never a fabricated one,
because fabrication needs ``f + 1`` matching liars). Regular is weaker
than atomic in one way: two non-overlapping reads that both overlap a
write may return the new value and then the old one. Keeping writes
non-overlapping does not make the two coincide: that new/old inversion
needs only one write and two reads, so E9's layered experiment, whose
low-level writes never overlap, still runs over regular base registers
unless its reads write back. The reader write-back round of [11]
(``read(write_back=True)``) is what closes the window: a read returns
only once ``n - f`` replicas acknowledge holding a pair at least as new
as the one it returns.

One protocol, two drivers: the replica — its state, the message handler,
the confirmation rule and the bookkeeping that opens a write, a read or
a write-back — is :class:`ReplicaCore`, and the client half is
:mod:`repro.mp.client_ops`. Neither sends nor waits; *how* a message
reaches its destination and *how* a client waits are the driver's.
:class:`RegisterEmulation` (below) drives them under the cooperative
scheduler on virtual time; :class:`repro.net.NetNode` drives one core
over TCP sockets on wall-clock time.

Substitution notes (the assumptions this module *substitutes* for the
paper's model, and where each one is discharged):

* **Reliable channels** — [11] assumes them; the default network
  (:class:`repro.mp.RandomDelayNetwork`) provides them. Over a
  fair-lossy :class:`repro.faults.FaultyNetwork` the assumption is
  rebuilt by passing ``channels=`` a
  :class:`repro.faults.RetransmitChannels`: every protocol message is
  then framed ``("CH", seq, payload)`` with ACK + seqno dedup +
  backoff retransmission, and the replica daemon doubles as the
  channel pump (unframing inbound traffic, emitting due retransmits
  each loop). Without channels over a lossy network, liveness is
  forfeit — exactly what the campaign's pinned ``STALLED`` cells
  measure.
* **Read termination** — a read's waits re-query, paced from
  ``requery_every`` polls (:mod:`repro.mp.client_ops` says why), so
  withheld replies cannot stall it and an unconfirmable read does not
  flood the network.
* **SWSR restrictions / atomicity vs regularity** — unchanged from the
  original notes above (enforced by callers; write-back optional).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.mp import client_ops
from repro.mp.client_ops import ClientOp
from repro.sim.effects import Broadcast, Pause, ReceiveAll, Send
from repro.sim.process import Program
from repro.sim.system import System
from repro.sim.values import freeze

#: Destination of an outgoing pair meaning "every process ``1..n``".
ALL = None

#: One outgoing message of a core: ``(destination pid or ALL, payload)``.
Outgoing = Tuple[Optional[int], Any]


@dataclass
class EmulatedRegisterSpec:
    """Static description of one emulated register."""

    name: str
    writer: int
    initial: Any = None


class ProgressCount:
    """A monotone count of protocol-state changes, shared by the cores of
    one emulation so that its progress signal is one attribute read."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _is_seq(value: Any) -> bool:
    """A sequence number: an ``int`` (never a ``bool``) of at least 0."""
    return type(value) is int and value >= 0


class ReplicaCore:
    """One process's side of the protocol, with no clock and no transport.

    Args:
        pid: The process this core belongs to.
        n: System size.
        f: Fault bound (quorums are ``n - f``, confirmations ``f + 1``).
        specs: Every emulated register (identical at every process).
        progress: The count this core's changes bump: shared by every
            core of a :class:`RegisterEmulation`, and by every core a
            :class:`repro.net.NetNode` builds across its restarts.

    Values handed to :meth:`begin_write` must already be hashable and
    immutable; freezing is the driver's (each transport has its own
    notion of it).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        specs: Dict[str, EmulatedRegisterSpec],
        progress: ProgressCount,
    ):
        self.pid = pid
        self.n = n
        self.f = f
        self.specs = specs
        #: Last sequence number this process used, per register it writes.
        self.write_seq: Dict[str, int] = {
            name: 0 for name, spec in specs.items() if spec.writer == pid
        }
        self._last_id = 0
        #: While set, READs go unanswered. A replica rebuilding lost
        #: state must stay silent: its reset pairs could otherwise
        #: confirm a stale value for some reader, whereas silence is
        #: indistinguishable from slowness.
        self.recovering = False
        #: Highest accepted (seq, value) per register.
        self.accepted: Dict[str, Tuple[int, Any]] = {
            name: (0, freeze(spec.initial)) for name, spec in specs.items()
        }
        #: Echo tallies: (register, seq, value) -> pids that echoed it.
        self.echo_votes: Dict[Tuple[str, int, Any], Set[int]] = {}
        #: Pairs this replica has itself echoed (echo at most once).
        self.echoed: Set[Tuple[str, int, Any]] = set()
        #: ACKs recorded for this process's own writes: (reg, seq) -> pids.
        #: A write-back's acks are keyed ``(reg, -wb_id)``.
        self.acks: Dict[Tuple[str, int], Set[int]] = {}
        #: VALUE reports for this process's reads: (reg, rid) -> per-sender.
        self.value_reports: Dict[Tuple[str, int], Dict[int, Tuple[int, Any]]] = {}
        #: Counts this core's *changes* (adoptions, fresh votes, fresh
        #: acks, changed reports) — a progress signal; duplicate or
        #: stale messages leave it untouched.
        self.progress = progress

    def _changed(self) -> None:
        self.progress.value += 1

    def maybe_adopt(self, name: str, seq: int, value: Any) -> bool:
        """Adopt ``(seq, value)`` if strictly newer; returns adoption."""
        if seq > self.accepted[name][0]:
            self.accepted[name] = (seq, value)
            self._changed()
            return True
        return False

    # ------------------------------------------------------------------
    # Replica: one inbound message
    # ------------------------------------------------------------------
    def handle(self, sender: int, payload: Any) -> List[Outgoing]:
        """Process one inbound message; returns what to send, in order.

        ``sender`` is trusted (authenticated channels); everything in
        ``payload`` is not — malformed messages are ignored.
        ``WRITE`` / ``ECHO`` / ``ACK`` name one register. ``READ``,
        ``VALUE``, ``PULL`` and ``PULL-ACK`` carry a tuple of
        per-register entries — ``(name, rid)``, ``(name, rid, seq,
        value)``, ``(name, seq, value, wb_id)``, ``(name, wb_id)`` — so
        one message serves a read of several registers, and a one-entry
        tuple a read of one. Only the first entry per known register
        with a well-formed id counts, and a tuple longer than the
        register count is dropped whole: a reply answers each register
        at most once.
        """
        out: List[Outgoing] = []
        if not isinstance(payload, tuple) or not payload:
            return out
        kind = payload[0]
        if kind == "WRITE" and len(payload) == 4:
            _k, name, seq, value = payload
            spec = self.specs.get(name)
            if spec is not None and sender == spec.writer and _is_seq(seq) and seq > 0:
                self.maybe_adopt(name, seq, value)
                self._echo_once(name, seq, value, out)
                out.append((spec.writer, ("ACK", name, seq)))
        elif kind == "ECHO" and len(payload) == 4:
            _k, name, seq, value = payload
            if name in self.specs and _is_seq(seq) and seq > 0:
                votes = self.echo_votes.setdefault((name, seq, value), set())
                if sender not in votes:
                    votes.add(sender)
                    self._changed()
                if len(votes) >= self.f + 1:
                    self.maybe_adopt(name, seq, value)
                    self._echo_once(name, seq, value, out)
        elif kind == "READ" and len(payload) == 2:
            if not self.recovering:
                accepted = self.accepted
                answers = [
                    (name, rid) + accepted[name]
                    for name, rid in self._entries(payload[1], 2, 1)
                ]
                if answers:
                    out.append((sender, ("VALUE", tuple(answers))))
        elif kind == "PULL" and len(payload) == 2:
            # Acknowledge only what this replica genuinely holds; a
            # Byzantine reader cannot make a replica adopt anything
            # through PULL (adoption still requires the writer or
            # f + 1 echoes), so write-back is abuse-proof.
            accepted = self.accepted
            held = [
                (name, wb_id)
                for name, seq, _value, wb_id in self._entries(payload[1], 4, 3)
                if _is_seq(seq) and accepted[name][0] >= seq
            ]
            if held:
                out.append((sender, ("PULL-ACK", tuple(held))))
        elif kind == "PULL-ACK" and len(payload) == 2:
            for name, wb_id in self._entries(payload[1], 2, 1):
                self._record_ack(name, -wb_id, sender)
        elif kind == "ACK" and len(payload) == 3:
            _k, name, seq = payload
            if name in self.specs and isinstance(seq, int):
                self._record_ack(name, seq, sender)
        elif kind == "VALUE" and len(payload) == 2:
            for name, rid, seq, value in self._entries(payload[1], 4, 1):
                if _is_seq(seq):
                    reports = self.value_reports.setdefault((name, rid), {})
                    if reports.get(sender) != (seq, value):
                        reports[sender] = (seq, value)
                        self._changed()
        return out

    def _entries(self, entries: Any, arity: int, id_at: int) -> List[Tuple[Any, ...]]:
        """The entries of a multi-register message worth reading: tuples
        of ``arity`` fields naming a known register, with a read or
        write-back id at ``id_at`` (an ``int``, never a ``bool``, of at
        least 1), the first per register. A non-tuple, or more entries
        than registers (more than any correct peer sends), yields none."""
        specs = self.specs
        if type(entries) is not tuple or len(entries) > len(specs):
            return []
        kept: List[Tuple[Any, ...]] = []
        names: List[str] = []  # at most one per register: a scan is cheap
        for entry in entries:
            if type(entry) is tuple and len(entry) == arity:
                name, entry_id = entry[0], entry[id_at]
                if (
                    type(name) is str
                    and name in specs
                    and name not in names
                    and type(entry_id) is int
                    and entry_id > 0
                ):
                    names.append(name)
                    kept.append(entry)
        return kept

    def _echo_once(
        self, name: str, seq: int, value: Any, out: List[Outgoing]
    ) -> None:
        key = (name, seq, value)
        if key not in self.echoed:
            self.echoed.add(key)
            out.append((ALL, ("ECHO", name, seq, value)))

    def _record_ack(self, name: str, key: int, sender: int) -> None:
        acks = self.acks.setdefault((name, key), set())
        if sender not in acks:
            acks.add(sender)
            self._changed()

    # ------------------------------------------------------------------
    # Client: open an operation, then ask whether its quorum is in
    # ------------------------------------------------------------------
    def check_register(self, name: str, writing: bool = False) -> None:
        """Raise unless ``name`` is emulated (and, to write, this
        process's own)."""
        spec = self.specs.get(name)
        if spec is None:
            raise ConfigurationError(f"unknown emulated register {name!r}")
        if writing and spec.writer != self.pid:
            raise ConfigurationError(
                f"p{self.pid} is not the writer of emulated register {name!r}"
            )

    def begin_write(self, name: str, value: Any) -> Tuple[int, Outgoing]:
        """Open ``write(value)``: ``(seq, the WRITE to broadcast)``.

        The writer is also a replica: it adopts and self-acks first.
        Complete once :meth:`acked` ``(name, seq)``.
        """
        self.write_seq[name] += 1
        seq = self.write_seq[name]
        self.maybe_adopt(name, seq, value)
        self.acks.setdefault((name, seq), set()).add(self.pid)
        return seq, (ALL, ("WRITE", name, seq, value))

    def finish_write(self, name: str, seq: int) -> None:
        """Close a write. A core that replaced a crashed one mid-write
        may have recovered a counter below this in-flight ``seq``;
        completing below it would let the next write collide."""
        self.write_seq[name] = max(self.write_seq[name], seq)

    def begin_read(self, names: Tuple[str, ...]) -> Tuple[int, Outgoing]:
        """Open ``read()`` of every register in ``names``: ``(rid, the
        READ to broadcast)``, one entry per register.

        Complete once :meth:`confirmed_read` ``(names, rid)`` is a tuple.
        """
        self._last_id += 1
        rid = self._last_id
        accepted, reports = self.accepted, self.value_reports
        for name in names:
            reports.setdefault((name, rid), {})[self.pid] = accepted[name]
        return rid, (ALL, ("READ", tuple((name, rid) for name in names)))

    def confirmed_read(
        self, names: Tuple[str, ...], rid: int
    ) -> Optional[Tuple[Tuple[int, Any], ...]]:
        """The pair read ``rid`` may return per register of ``names``, in
        order, or ``None`` while any is still unconfirmed."""
        pairs = []
        for name in names:
            reports = self.value_reports.setdefault((name, rid), {})
            # Refresh own report — the local replica may have adopted a
            # newer pair since the read began.
            if self.accepted[name][0] > reports.get(self.pid, (0, None))[0]:
                reports[self.pid] = self.accepted[name]
            pair = self.best_confirmed(reports)
            if pair is None:
                return None
            pairs.append(pair)
        return tuple(pairs)

    def begin_write_back(
        self, held: Tuple[Tuple[str, int, Any], ...]
    ) -> Tuple[int, Outgoing]:
        """Open the write-back of a read's ``(name, seq, value)`` pairs:
        ``(key, the PULL to broadcast)``, one entry per pair. Complete
        once :meth:`acked` ``(name, key)`` for every name."""
        self._last_id += 1
        wb_id = self._last_id
        for name, _seq, _value in held:
            self.acks.setdefault((name, -wb_id), set()).add(self.pid)
        pull = tuple((name, seq, value, wb_id) for name, seq, value in held)
        return -wb_id, (ALL, ("PULL", pull))

    def acked(self, name: str, key: int) -> bool:
        """Have ``n - f`` replicas acknowledged write / write-back ``key``?"""
        return len(self.acks.get((name, key), ())) >= self.n - self.f

    def best_confirmed(
        self, reports: Dict[int, Tuple[int, Any]]
    ) -> Optional[Tuple[int, Any]]:
        """The highest-seq pair reported identically by ``f + 1`` replicas."""
        tally: Dict[Tuple[int, Any], int] = {}
        for pair in reports.values():
            tally[pair] = tally.get(pair, 0) + 1
        confirmed = [pair for pair, count in tally.items() if count >= self.f + 1]
        if not confirmed:
            return None
        return max(confirmed, key=lambda pair: pair[0])

    # ------------------------------------------------------------------
    # Recovery: rebuild lost state from the other replicas
    # ------------------------------------------------------------------
    def recover_from(self, names: Tuple[str, ...], rid: int) -> bool:
        """Once ``n - f - 1`` *other* replicas have reported to read
        ``rid`` on every register of ``names``, adopt the newest of
        their pairs per register (and never reuse its sequence number);
        ``False`` until then. With no Byzantine replicas, that many
        reporters include one that saw every completed write."""
        others = []
        for name in names:
            reports = self.value_reports.get((name, rid), {})
            pairs = [pair for sender, pair in reports.items() if sender != self.pid]
            if len(pairs) < self.n - self.f - 1:
                return False
            others.append((name, pairs))
        for name, pairs in others:
            seq, value = max(pairs, key=lambda pair: pair[0])
            self.maybe_adopt(name, seq, value)
            if name in self.write_seq:
                self.finish_write(name, seq)
        return True


class RegisterEmulation:
    """A set of SWMR registers emulated over the system's network.

    The simulator's driver of :class:`ReplicaCore` and of
    :mod:`repro.mp.client_ops`: one core per process, outgoing pairs
    become kernel effects, and client operations wait by polling their
    core, one ``Pause`` per poll.

    Args:
        system: A system with a network installed (``system.network``);
            its ``f`` is the fault bound the emulation is configured for.
        channels: Optional :class:`repro.faults.RetransmitChannels`.
            When given, every protocol message travels channel-framed
            (ACK + dedup + retransmit) and the replica daemons pump the
            channel layer — restoring the reliable-channel assumption
            over a fair-lossy network. ``None`` keeps bare
            ``Send``/``Broadcast`` (correct over reliable networks).

    Usage: declare registers with :meth:`add_register`, spawn
    :meth:`replica_program` on every correct process, then run the
    :meth:`write` / :meth:`read` generators from client coroutines of the
    same processes.
    """

    def __init__(self, system: System, channels: Optional[Any] = None):
        if system.network is None:
            raise ConfigurationError("RegisterEmulation requires a network")
        self.system = system
        self.f = system.f
        self.n = system.n
        self.channels = channels
        self._specs: Dict[str, EmulatedRegisterSpec] = {}
        self._states: Dict[int, ReplicaCore] = {}
        #: Monotone count of protocol-state changes across all replicas,
        #: bumped by their cores: adoptions, fresh echo votes, fresh
        #: ACKs and changed VALUE reports — the "accepted" side of the
        #: progress signals a :class:`repro.faults.ProgressMonitor`
        #: watches. Retransmissions and duplicate messages do not move it.
        self.progress = ProgressCount()

    def _effects(self, pid: int, outgoing: List[Outgoing]) -> List[Any]:
        """Kernel effects that put ``pid``'s outgoing pairs on the wire,
        bare or channel-framed, in the order the core returned them."""
        channels = self.channels
        effects: List[Any] = []
        for dst, payload in outgoing:
            if channels is None:
                effects.append(Broadcast(payload) if dst is ALL else Send(dst, payload))
            elif dst is ALL:
                effects.extend(channels.broadcast_effects(pid, payload))
            else:
                effects.extend(channels.send_effects(pid, dst, payload))
        return effects

    # ------------------------------------------------------------------
    def add_register(self, name: str, writer: int, initial: Any = None) -> None:
        """Declare an emulated register before replicas start."""
        if name in self._specs:
            raise ConfigurationError(f"emulated register {name!r} already exists")
        if self._states:
            raise ConfigurationError("cannot add registers after replicas started")
        self._specs[name] = EmulatedRegisterSpec(name, writer, freeze(initial))

    def state_of(self, pid: int) -> ReplicaCore:
        """The replica core of ``pid`` (created on first use)."""
        if pid not in self._states:
            self._states[pid] = ReplicaCore(
                pid, self.n, self.f, self._specs, self.progress
            )
        return self._states[pid]

    # ------------------------------------------------------------------
    # Replica daemon — sole mailbox consumer of its process
    # ------------------------------------------------------------------
    def replica_program(self, pid: int) -> Program:
        """The message-handling daemon every correct process runs.

        With channels installed it is also the channel pump: each loop
        emits the process's due retransmits, and inbound traffic is
        unframed (acked / deduped) before protocol handling.
        """
        core = self.state_of(pid)
        channels = self.channels
        while True:
            messages = yield ReceiveAll()
            if channels is not None:
                for effect in channels.due_retransmits(pid, self.system.clock):
                    yield effect
            if not messages:
                yield Pause()
                continue
            for sender, payload in messages:
                if channels is not None:
                    payload, ack_effects = channels.on_receive(pid, sender, payload)
                    for effect in ack_effects:
                        yield effect
                    if payload is None:
                        continue
                for effect in self._effects(pid, core.handle(sender, payload)):
                    yield effect

    # ------------------------------------------------------------------
    # Client operations — the ops of repro.mp.client_ops, polled
    # ------------------------------------------------------------------
    def write(self, pid: int, name: str, value: Any) -> Program:
        """Emulated ``write(value)``; returns when ``n - f`` replicas acked."""
        op = client_ops.write(self.state_of(pid), name, freeze(value))
        return self._drive(pid, op)

    def read(
        self,
        pid: int,
        name: str,
        requery_every: int = 64,
        write_back: bool = False,
    ) -> Program:
        """Emulated ``read()`` of one register, one ``READ`` entry;
        returns a value confirmed by ``f + 1`` (see
        :func:`repro.mp.client_ops.read`, ``write_back`` included). Its
        re-queries are paced from ``requery_every`` polls."""
        op = client_ops.read_one(self.state_of(pid), name, write_back)
        return self._drive(pid, op, requery_every)

    def _drive(self, pid: int, op: ClientOp, requery_every: int = 0) -> Program:
        """Run ``op`` on ``pid``'s core: one ``Pause`` per poll until a
        wait is ready, re-sending its message on the pacing from
        ``requery_every`` polls if it asks to (a write's never does)."""
        core = self.state_of(pid)
        message, ready, requery = next(op)
        while True:
            for effect in self._effects(pid, [message]):
                yield effect
            gaps = client_ops.pacing(requery_every)
            next_requery = next(gaps) if requery else math.inf
            polls = 0
            while not ready(core):
                polls += 1
                if polls >= next_requery:
                    next_requery = polls + next(gaps)
                    for effect in self._effects(pid, [message]):
                        yield effect
                yield Pause()
            try:
                message, ready, requery = op.send(core)
            except StopIteration as stop:
                return stop.value
