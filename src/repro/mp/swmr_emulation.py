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
* ``read()``: the reader broadcasts ``READ(reg, rid)`` and collects
  ``VALUE(reg, rid, seq, v)`` replies. It returns ``v`` once some pair
  ``(seq, v)`` is *confirmed* — reported identically by ``f + 1``
  distinct replicas (at least one correct) — choosing the confirmed pair
  with the highest ``seq``. It re-broadcasts the query until confirmation
  arrives.

Mailbox discipline: each process's **replica daemon is the sole consumer
of its mailbox**; it parses every inbound message and records
client-relevant responses (ACKs, VALUE reports) into the process's
:class:`ReplicaState`. Client operations (the :meth:`RegisterEmulation.write`
/ :meth:`RegisterEmulation.read` generators) never touch the mailbox —
they broadcast, then poll the shared state, which eliminates the classic
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

One core, two drivers: the protocol itself — replica state, the message
handler, the confirmation rule and the bookkeeping that opens a write,
a read or a write-back — is :class:`ReplicaCore`, which neither sends
nor waits. It returns ``(destination, payload)`` pairs and answers
"has this operation's quorum arrived yet?"; *how* a pair reaches its
destination and *how* a client waits are the driver's.
:class:`RegisterEmulation` (below) drives cores under the cooperative
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
* **Read termination** — the read loop re-queries so withheld replies
  cannot stall it; the re-query is *paced* (interval doubles from
  ``requery_every`` up to 16x) so an unconfirmable read does not flood
  the network while it waits.
* **SWSR restrictions / atomicity vs regularity** — unchanged from the
  original notes above (enforced by callers; write-back optional).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
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


class ReplicaState:
    """Per-process replica + client bookkeeping for all emulated registers."""

    def __init__(self, specs: Dict[str, EmulatedRegisterSpec]):
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
        #: Monotone count of state *changes* (adoptions, fresh votes,
        #: fresh acks, changed reports) — a progress signal; duplicate
        #: or stale messages leave it untouched.
        self.version = 0

    def maybe_adopt(self, name: str, seq: int, value: Any) -> bool:
        """Adopt ``(seq, value)`` if strictly newer; returns adoption."""
        if seq > self.accepted[name][0]:
            self.accepted[name] = (seq, value)
            self.version += 1
            return True
        return False


def _is_seq(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class ReplicaCore(ReplicaState):
    """One process's side of the protocol, with no clock and no transport.

    Args:
        pid: The process this core belongs to.
        n: System size.
        f: Fault bound (quorums are ``n - f``, confirmations ``f + 1``).
        specs: Every emulated register (identical at every process).

    Values handed to :meth:`begin_write` must already be hashable and
    immutable; freezing is the driver's (each transport has its own
    notion of it).
    """

    def __init__(
        self, pid: int, n: int, f: int, specs: Dict[str, EmulatedRegisterSpec]
    ):
        super().__init__(specs)
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

    # ------------------------------------------------------------------
    # Replica: one inbound message
    # ------------------------------------------------------------------
    def handle(self, sender: int, payload: Any) -> List[Outgoing]:
        """Process one inbound message; returns what to send, in order.

        ``sender`` is trusted (authenticated channels); everything in
        ``payload`` is not — malformed messages are ignored.
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
                    self.version += 1
                if len(votes) >= self.f + 1:
                    self.maybe_adopt(name, seq, value)
                    self._echo_once(name, seq, value, out)
        elif kind == "READ" and len(payload) == 3:
            _k, name, rid = payload
            if name in self.specs and not self.recovering:
                seq, value = self.accepted[name]
                out.append((sender, ("VALUE", name, rid, seq, value)))
        elif kind == "PULL" and len(payload) == 5:
            _k, name, seq, value, wb_id = payload
            if name in self.specs and _is_seq(seq) and isinstance(wb_id, int):
                # Acknowledge only what this replica genuinely holds; a
                # Byzantine reader cannot make a replica adopt anything
                # through PULL (adoption still requires the writer or
                # f + 1 echoes), so write-back is abuse-proof.
                if self.accepted[name][0] >= seq:
                    out.append((sender, ("PULL-ACK", name, wb_id)))
        elif kind == "PULL-ACK" and len(payload) == 3:
            _k, name, wb_id = payload
            if name in self.specs and isinstance(wb_id, int):
                self._record_ack(name, -wb_id, sender)
        elif kind == "ACK" and len(payload) == 3:
            _k, name, seq = payload
            if name in self.specs and isinstance(seq, int):
                self._record_ack(name, seq, sender)
        elif kind == "VALUE" and len(payload) == 5:
            _k, name, rid, seq, value = payload
            if name in self.specs and isinstance(rid, int) and _is_seq(seq):
                reports = self.value_reports.setdefault((name, rid), {})
                if reports.get(sender) != (seq, value):
                    reports[sender] = (seq, value)
                    self.version += 1
        return out

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
            self.version += 1

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

    def begin_read(self, name: str) -> Tuple[int, Outgoing]:
        """Open ``read()``: ``(rid, the READ to broadcast)``.

        Complete once :meth:`confirmed_read` ``(name, rid)`` is a pair.
        """
        self._last_id += 1
        rid = self._last_id
        self.value_reports.setdefault((name, rid), {})[self.pid] = self.accepted[name]
        return rid, (ALL, ("READ", name, rid))

    def confirmed_read(self, name: str, rid: int) -> Optional[Tuple[int, Any]]:
        """The pair read ``rid`` may return, or ``None`` to keep waiting."""
        reports = self.value_reports.setdefault((name, rid), {})
        # Refresh own report — the local replica may have adopted a
        # newer pair since the read began.
        if self.accepted[name][0] > reports.get(self.pid, (0, None))[0]:
            reports[self.pid] = self.accepted[name]
        return self.best_confirmed(reports)

    def begin_write_back(
        self, name: str, seq: int, value: Any
    ) -> Tuple[int, Outgoing]:
        """Open the write-back of a read's pair: ``(key, the PULL to
        broadcast)``. Complete once :meth:`acked` ``(name, key)``."""
        self._last_id += 1
        wb_id = self._last_id
        self.acks.setdefault((name, -wb_id), set()).add(self.pid)
        return -wb_id, (ALL, ("PULL", name, seq, value, wb_id))

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
    def recover_from(self, name: str, rid: int) -> bool:
        """Once ``n - f - 1`` *other* replicas have reported to read
        ``rid``, adopt the newest of their pairs (and never reuse its
        sequence number); ``False`` until then. With no Byzantine
        replicas, that many reporters include one that saw every
        completed write."""
        reports = self.value_reports.get((name, rid), {})
        others = [pair for sender, pair in reports.items() if sender != self.pid]
        if len(others) < self.n - self.f - 1:
            return False
        seq, value = max(others, key=lambda pair: pair[0])
        self.maybe_adopt(name, seq, value)
        if name in self.write_seq:
            self.finish_write(name, seq)
        return True


class RegisterEmulation:
    """A set of SWMR registers emulated over the system's network.

    The simulator's driver of :class:`ReplicaCore`: one core per process,
    outgoing pairs become kernel effects, and client operations wait by
    polling their core, one ``Pause`` per poll.

    Args:
        system: A system with a network installed (``system.network``).
        f: Fault bound the emulation is configured for.
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

    def __init__(
        self,
        system: System,
        f: Optional[int] = None,
        channels: Optional[Any] = None,
    ):
        if system.network is None:
            raise ConfigurationError("RegisterEmulation requires a network")
        self.system = system
        self.f = system.f if f is None else f
        self.n = system.n
        self.channels = channels
        self._specs: Dict[str, EmulatedRegisterSpec] = {}
        self._states: Dict[int, ReplicaCore] = {}

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

    def progress_version(self) -> int:
        """Monotone counter of protocol-state changes across all replicas.

        Bumped by adoptions, fresh echo votes, fresh ACKs, and changed
        VALUE reports — the "accepted" side of the progress signals a
        :class:`repro.faults.ProgressMonitor` watches. Retransmissions
        and duplicate messages do not move it.
        """
        return sum(state.version for state in self._states.values())

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
            self._states[pid] = ReplicaCore(pid, self.n, self.f, self._specs)
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
    # Client operations — broadcast, then poll the core
    # ------------------------------------------------------------------
    def write(self, pid: int, name: str, value: Any) -> Program:
        """Emulated ``write(value)``; returns when ``n - f`` replicas acked."""
        core = self.state_of(pid)
        core.check_register(name, writing=True)
        seq, message = core.begin_write(name, freeze(value))
        for effect in self._effects(pid, [message]):
            yield effect
        while not core.acked(name, seq):
            yield Pause()
        return "done"

    def read(
        self,
        pid: int,
        name: str,
        requery_every: int = 64,
        write_back: bool = False,
    ) -> Program:
        """Emulated ``read()``; returns a value confirmed by ``f + 1``.

        Re-broadcasts the query so replies withheld by Byzantine
        replicas or raced by timing cannot stall it. The re-query is
        *paced*: the first fires after ``requery_every`` polls and the
        interval doubles up to ``16 * requery_every``, so an
        unconfirmable read (e.g. under a partition) backs off instead
        of flooding the network.

        With ``write_back=True`` the reader additionally performs the
        [11]-style write-back round before returning: it broadcasts a
        ``PULL`` for the selected pair and waits until ``n - f``
        replicas acknowledge holding at least the selected sequence
        number (replicas acknowledge only what they genuinely hold, so
        a Byzantine reader cannot use ``PULL`` to plant a value). This
        closes the new/old-inversion window between two non-overlapping
        reads, strengthening regular semantics toward atomicity.

        Write-back defaults **off** here and **on** in
        :meth:`repro.net.NetNode.read`. The virtual-time scenarios pin
        step counts that an extra round would move (keeping their
        low-level writes non-overlapping does not rule the inversion
        out: one write and two reads suffice); the live load
        generator's concurrent clients do hit the inversion window. Aligning the defaults is left to the follow-up
        on the seed-246 / 79203 new/old-inversion finding.
        """
        core = self.state_of(pid)
        core.check_register(name)
        rid, query = core.begin_read(name)
        seq, value = yield from self._poll(
            pid, query, lambda: core.confirmed_read(name, rid), requery_every
        )
        if write_back and seq > 0:
            key, pull = core.begin_write_back(name, seq, value)
            yield from self._poll(
                pid, pull, lambda: core.acked(name, key), requery_every
            )
        return value

    def _poll(
        self,
        pid: int,
        message: Outgoing,
        ready: Callable[[], Any],
        requery_every: int,
    ) -> Program:
        """Send ``message``, then ``Pause`` until ``ready()`` is truthy
        (and return that), re-sending on the doubling pacing described
        in :meth:`read`."""
        for effect in self._effects(pid, [message]):
            yield effect
        polls = 0
        interval = requery_every
        next_requery = requery_every
        while True:
            result = ready()
            if result:
                return result
            polls += 1
            if polls >= next_requery:
                interval = min(interval * 2, requery_every * 16)
                next_requery = polls + interval
                for effect in self._effects(pid, [message]):
                    yield effect
            yield Pause()
