"""Retransmission channels: reliable links rebuilt over fair-lossy ones.

The paper (and the [11] emulation in :mod:`repro.mp.swmr_emulation`)
assumes reliable authenticated channels. Over a fair-lossy link — the
simulator's :class:`repro.faults.FaultyNetwork` or a live socket behind
a :class:`repro.net.ChaosProxy` — that assumption breaks; this module
rebuilds it with the classic mechanism, written once as
:class:`ChannelCore`, one endpoint's clock- and transport-agnostic
state machine:

* every protocol payload is framed as ``("CH", seq, payload)`` with a
  per-destination sequence number;
* the receiver **always acknowledges** a frame (``("CH-ACK", seq)``)
  and delivers the inner payload at most once (seqno dedup absorbs
  duplication and retransmit races);
* the sender keeps unacknowledged frames pending and retransmits on a
  per-destination timeout (:meth:`ChannelCore.rto`: ``base_timeout``
  here, a measured one in the wall-clock driver) with exponential
  backoff capped at ``max_backoff``, up to
  ``max_retries`` attempts; exhaustion is surfaced in
  :attr:`ChannelCore.exhausted` (a metric, not an exception — over a
  fair-lossy link exhaustion means the retry budget was too small; over
  a partition it is the expected prelude to a ``STALLED`` verdict).

The core never reads a clock: callers pass ``now``, an ``int`` of
virtual steps or a ``float`` of wall-clock seconds, and the timing
parameters are in the same unit. It never sends either: it returns
payloads, and its two drivers put them on their transport —
:class:`RetransmitChannels` (below) as simulator ``Send`` effects,
:class:`repro.net.WallClockChannels` through a node's sockets.

Fair-lossy links deliver any message retransmitted infinitely often, so
with an adequate retry budget the framed channel is reliable and the
emulation's quorum arguments go through unchanged. With ``jitter=0``
(the simulator's setting) nothing is randomized: retransmit timing is a
pure function of the caller's clock, so faulty runs stay replayable.

Unframed payloads pass through :meth:`ChannelCore.on_receive`
untouched, which lets channel-framed and bare traffic coexist (and
keeps Byzantine senders free to ignore the framing).
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.sim.effects import Send

_COUNTERS = ("sent", "retransmitted", "acked", "duplicates_dropped", "exhausted")


def _metrics(channels: Any) -> Dict[str, int]:
    out = {key: getattr(channels, key) for key in _COUNTERS}
    out["pending"] = channels.pending_count()
    return out


class _PendingFrame:
    """Sender-side bookkeeping for one unacknowledged frame."""

    __slots__ = ("dest", "seq", "payload", "due", "attempts", "sent_at")

    def __init__(self, dest: int, seq: int, payload: Any, due: float, sent_at: float):
        self.dest = dest
        self.seq = seq
        self.payload = payload
        self.due = due
        self.attempts = 0
        #: When the first copy left: an ack of that copy is a round trip.
        self.sent_at = sent_at


class DedupWindow:
    """Sequence numbers delivered from one peer, in bounded space.

    A peer numbers its frames ``1, 2, 3, …``, so what has been delivered
    is a contiguous prefix ``1..low`` plus the few numbers that arrived
    ahead of a gap; only those are stored, and they fold into ``low`` as
    the gap fills. Decisions are exactly those of an ever-growing set.
    """

    __slots__ = ("low", "above")

    def __init__(self) -> None:
        self.low = 0
        self.above: Set[int] = set()

    def admit(self, seq: int) -> bool:
        """Record ``seq``; ``False`` if it had been delivered already."""
        if 1 <= seq <= self.low or seq in self.above:
            return False
        self.above.add(seq)
        while self.low + 1 in self.above:
            self.low += 1
            self.above.remove(self.low)
        return True


class ChannelCore:
    """Reliable per-destination channels of one endpoint.

    Args:
        pid: The owning process (jitter seeding and diagnostics).
        base_timeout: Time before the first retransmit of a frame, in
            the caller's unit; should comfortably exceed the network
            round trip. A driver that measures round trips uses it only
            until its first measurement (see :meth:`rto`).
        max_backoff: Cap on the doubling retransmit interval. Jitter is
            applied downward, so no retransmit gap ever exceeds the cap
            — which is what a stall window is validated against (see
            :class:`repro.faults.monitor.StallWindow`).
        max_retries: Retransmit attempts before a frame is abandoned
            (counted in :attr:`exhausted`).
        jitter: Fraction of each interval randomly shaved off, from a
            ``random.Random`` seeded with ``(seed, pid)`` — retransmit
            storms from n endpoints desynchronize deterministically.
            ``0`` draws no random numbers and keeps ``int`` times ``int``.
        seed: Jitter seed.
    """

    def __init__(
        self,
        pid: int,
        base_timeout: float,
        max_backoff: float,
        max_retries: int,
        jitter: float = 0,
        seed: int = 0,
    ):
        if base_timeout <= 0 or max_backoff < base_timeout or max_retries < 0:
            raise ConfigurationError(
                f"bad channel timing: base_timeout={base_timeout}, "
                f"max_backoff={max_backoff}, max_retries={max_retries}"
            )
        if not 0.0 <= jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {jitter}")
        self.pid = pid
        self.base_timeout = base_timeout
        self.max_backoff = max_backoff
        self.max_retries = max_retries
        self.jitter = jitter
        self._rng = random.Random(f"net-channels:{seed}:{pid}")
        #: Next sequence number per destination.
        self._next_seq: Dict[int, int] = {}
        #: Unacked frames: (dst, seq) -> _PendingFrame.
        self._pending: Dict[Tuple[int, int], _PendingFrame] = {}
        #: A lower bound on every pending frame's ``due``: exact after a
        #: scan, lowered by each new frame, left stale-low by acks. Below
        #: it, :meth:`due_retransmits` has nothing to scan for.
        self._due_floor: float = math.inf
        #: Receiver-side dedup, per sender.
        self._seen: Dict[int, DedupWindow] = defaultdict(DedupWindow)
        #: Per destination: the RTO a driver measured (see :meth:`rto`).
        self._rto: Dict[int, float] = {}
        self.sent = 0
        self.retransmitted = 0
        self.acked = 0
        self.duplicates_dropped = 0
        self.exhausted = 0

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def frame(self, dst: int, payload: Any, now: float) -> Any:
        """Frame ``payload`` for ``dst``; registers it for retransmission."""
        seq = self._next_seq.get(dst, 0) + 1
        self._next_seq[dst] = seq
        due = now + self._interval(dst, 0)
        self._pending[(dst, seq)] = _PendingFrame(dst, seq, payload, due, now)
        if due < self._due_floor:
            self._due_floor = due
        self.sent += 1
        return ("CH", seq, payload)

    def due_retransmits(self, now: float) -> List[Tuple[int, Any]]:
        """``(dst, wire_payload)`` for every overdue frame, in the order
        the frames were first sent; abandons at cap."""
        out: List[Tuple[int, Any]] = []
        if now < self._due_floor:
            return out
        abandoned: List[Tuple[int, int]] = []
        floor = math.inf
        for key, frame in self._pending.items():
            if frame.due > now:
                if frame.due < floor:
                    floor = frame.due
                continue
            frame.attempts += 1
            if frame.attempts > self.max_retries:
                abandoned.append(key)
                continue
            self.retransmitted += 1
            frame.due = now + self._interval(frame.dest, frame.attempts)
            if frame.due < floor:
                floor = frame.due
            out.append((frame.dest, ("CH", frame.seq, frame.payload)))
        self._due_floor = floor
        for key in abandoned:
            del self._pending[key]
            self.exhausted += 1
        return out

    def deadline(self, dst: int, seq: int) -> float:
        """When pending frame ``seq`` to ``dst`` is next due for a resend."""
        return self._pending[(dst, seq)].due

    def next_due(self) -> Optional[float]:
        """The earliest deadline among unacked frames (``None`` if none)."""
        return min((frame.due for frame in self._pending.values()), default=None)

    def rto(self, dst: int) -> float:
        """The timeout before the first retransmit of a frame to ``dst``:
        ``base_timeout`` until a driver that measures round trips has set
        one from :meth:`_round_trip` (only the wall-clock driver does)."""
        return self._rto.get(dst, self.base_timeout)

    def _round_trip(self, dst: int, sample: float) -> None:
        """A frame to ``dst`` was acked ``sample`` after its only copy
        left (Karn's rule: a retransmitted frame gives no sample)."""

    def _interval(self, dst: int, attempts: int) -> float:
        rto = self._rto.get(dst, self.base_timeout)  # rto(dst), inlined
        backoff = min(rto * (2 ** attempts), self.max_backoff)
        if self.jitter:
            backoff *= 1.0 - self.jitter * self._rng.random()
        return backoff

    def drop_pending(self) -> None:
        """Forget every unacked frame (a lose-state restart: they were
        volatile). Sequence counters and dedup state survive, so peers'
        view of this endpoint stays consistent."""
        self._pending.clear()
        self._due_floor = math.inf

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_receive(
        self, sender: int, payload: Any, now: Optional[float] = None
    ) -> Tuple[Optional[Any], List[Any]]:
        """Unframe one inbound payload received at ``now``.

        Returns ``(inner, acks)``: ``inner`` is the deliverable protocol
        payload (``None`` for duplicates and pure acks), ``acks`` the
        raw payloads to send back to ``sender`` *outside* the channel
        layer. Non-channel payloads pass through untouched. Both drivers
        pass ``now``; without it (the channel probe of
        ``benchmarks/e2e/layers.py``, which times the bare state machine)
        an ack still clears its frame but times no round trip.
        """
        if isinstance(payload, tuple) and len(payload) == 3 and payload[0] == "CH":
            _k, seq, inner = payload
            # A bool, a float, a string... or a number no sender issues
            # (they start at 1): it could never fold into the dedup
            # window's prefix, so it would be stored forever.
            if type(seq) is not int or seq < 1:
                return None, []
            # Always ack — the previous ack may have been the lost leg.
            acks: List[Any] = [("CH-ACK", seq)]
            if not self._seen[sender].admit(seq):
                self.duplicates_dropped += 1
                return None, acks
            return inner, acks
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "CH-ACK":
            _k, seq = payload
            if type(seq) is not int:  # True / 2.0 would hash like a real seq
                return None, []
            frame = self._pending.pop((sender, seq), None)
            if frame is not None:
                self.acked += 1
                if frame.attempts == 0 and now is not None:
                    self._round_trip(sender, now - frame.sent_at)
            return None, []
        return payload, []

    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Frames sent but not yet acknowledged or abandoned."""
        return len(self._pending)

    def metrics(self) -> Dict[str, int]:
        """Plain-dict channel counters for reports and tests."""
        return _metrics(self)


class RetransmitChannels:
    """The simulator's driver: every process's :class:`ChannelCore`.

    One instance serves every process of a system (mirroring
    :class:`repro.mp.RegisterEmulation`'s per-pid state maps); all entry
    points take the acting pid explicitly, read the system's virtual
    clock, and return ``Send`` effects for the acting process to yield.
    The counters (``sent``, ``retransmitted``, ``acked``,
    ``duplicates_dropped``, ``exhausted``) read as attributes, summed
    over the processes.

    Args:
        system: The system whose clock paces retransmission.
        base_timeout: Steps before the first retransmit of a frame.
        max_backoff: Cap on the doubling retransmit interval.
        max_retries: Retransmit attempts before a frame is abandoned.
    """

    def __init__(
        self,
        system: Any,
        base_timeout: int = 24,
        max_backoff: int = 384,
        max_retries: int = 12,
    ):
        self.system = system
        self.base_timeout = base_timeout
        self.max_backoff = max_backoff
        self.max_retries = max_retries
        self._cores: Dict[int, ChannelCore] = {
            pid: ChannelCore(pid, base_timeout, max_backoff, max_retries)
            for pid in range(1, system.n + 1)
        }

    def send_effects(self, src: int, dst: int, payload: Any) -> List[Any]:
        """Effects that send ``payload`` reliably from ``src`` to ``dst``."""
        return [Send(dst, self._cores[src].frame(dst, payload, self.system.clock))]

    def broadcast_effects(self, src: int, payload: Any) -> List[Any]:
        """Reliable broadcast: one channel send per destination ``1..n``."""
        core, now = self._cores[src], self.system.clock
        return [
            Send(dst, core.frame(dst, payload, now))
            for dst in range(1, self.system.n + 1)
        ]

    def due_retransmits(self, src: int, now: int) -> List[Any]:
        """Effects re-sending every overdue unacked frame of ``src``."""
        resends = self._cores[src].due_retransmits(now)
        return [Send(dst, framed) for dst, framed in resends]

    def on_receive(
        self, pid: int, sender: int, payload: Any
    ) -> Tuple[Optional[Any], List[Any]]:
        """Unframe one message ``pid`` received from ``sender``.

        Returns ``(inner_payload, effects)``: ``inner_payload`` is the
        deliverable protocol payload (``None`` for duplicates and pure
        acks), ``effects`` the acknowledgement sends to emit.
        """
        inner, acks = self._cores[pid].on_receive(sender, payload, self.system.clock)
        return inner, [Send(sender, ack) for ack in acks]

    def pending_count(self, src: Optional[int] = None) -> int:
        """Unacked frames of ``src`` (or of every process when omitted)."""
        if src is not None:
            return self._cores[src].pending_count()
        return sum(core.pending_count() for core in self._cores.values())

    def metrics(self) -> Dict[str, int]:
        """The processes' counters summed, same keys as one core's."""
        return _metrics(self)

    def __getattr__(self, name: str) -> int:
        if name in _COUNTERS:
            return sum(getattr(core, name) for core in self._cores.values())
        raise AttributeError(name)
