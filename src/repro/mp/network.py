"""Asynchronous message-passing network for the simulator.

Models the standard asynchronous, reliable, authenticated-channel
network of [11] and [13]:

* **Asynchrony** — every message suffers an arbitrary finite delay, realized
  as a seeded random delay in virtual-time steps (so runs reproduce).
* **Reliability** — messages between correct processes are never lost;
  the network delivers every submitted message eventually.
* **Authenticated channels** — the receiver learns the true sender pid;
  a Byzantine process cannot spoof another's identity. This is a
  property of the kernel (the ``Send`` effect carries the stepping
  process's pid), not of this module.

The network plugs into ``System.network``; the kernel submits outgoing
messages and ticks the delivery queue once per step. Tests that need
adversarial message *ordering* use :class:`ScriptedNetwork`, which holds
every message until the test explicitly releases it.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import NetworkError
from repro.sim.fingerprint import digest64


@runtime_checkable
class Network(Protocol):
    """The kernel's network hook contract (``System.network``).

    Every network — :class:`RandomDelayNetwork`, :class:`ScriptedNetwork`,
    :class:`repro.faults.FaultyNetwork` — implements exactly this
    surface toward the kernel: the kernel calls :meth:`submit` for each
    outgoing ``Send``/``Broadcast`` destination and :meth:`tick` once
    per step before resuming the chosen coroutine; :meth:`pending`
    reports in-flight messages for drain checks and progress metrics.
    ``tests/test_network_protocol.py`` drives every implementation
    through one conformance driver against this protocol.
    """

    def submit(self, sender: int, dest: int, payload: Any, now: int) -> None:
        """Accept one outgoing message at clock ``now``."""
        ...

    def tick(self, now: int, system: Any) -> None:
        """Deliver whatever is due at clock ``now`` via ``system.deliver``."""
        ...

    def pending(self) -> int:
        """Messages accepted but not yet delivered (or suppressed)."""
        ...


@dataclass(order=True)
class _QueuedMessage:
    """Heap entry: ``(due_time, tiebreak)`` orders deliveries."""

    due: int
    tiebreak: int
    sender: int = field(compare=False)
    dest: int = field(compare=False)
    payload: Any = field(compare=False)


def _queued_digest(message: _QueuedMessage) -> int:
    """Fingerprint digest of one in-flight message.

    Unlike the rest of :meth:`repro.sim.System.fingerprint`, the due
    time and tiebreak *are* folded in: both determine future delivery
    order, so two states differing only there must not collapse in the
    explorer's memo table.
    """
    return digest64(
        f"net\x00{message.due}\x00{message.tiebreak}\x00{message.sender}"
        f"\x00{message.dest}\x00{message.payload!r}"
    )


class _InFlight:
    """Messages in flight, popped in ``(due, tiebreak)`` order: the delay
    queue of :class:`RandomDelayNetwork` and of
    :class:`repro.faults.FaultyNetwork`'s delay rules.

    Eager two-XOR maintenance of the fingerprint fold only starts once
    someone has asked for it (the explorer does, every step; fuzzing and
    campaign runs never do) — until then push/pop digest nothing. Same
    gate as ``History._fp_eager``.
    """

    def __init__(self) -> None:
        self._heap: List[_QueuedMessage] = []
        self._tiebreak = itertools.count()
        self._fold = 0
        self._fp_eager = False

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, due: int, sender: int, dest: int, payload: Any) -> None:
        message = _QueuedMessage(due, next(self._tiebreak), sender, dest, payload)
        heapq.heappush(self._heap, message)
        if self._fp_eager:
            self._fold ^= _queued_digest(message)

    def pop_due(self, now: int) -> Iterator[_QueuedMessage]:
        """Pop every message due by clock ``now``, earliest first."""
        heap = self._heap
        while heap and heap[0].due <= now:
            message = heapq.heappop(heap)
            if self._fp_eager:
                self._fold ^= _queued_digest(message)
            yield message

    def fold(self, full: bool = False) -> int:
        """XOR fold of the queue (see ``System.fingerprint``). The first
        call rebuilds it and turns on incremental maintenance; ``full=True``
        recomputes from the heap and leaves the gate alone (the oracle the
        incremental path is pinned against)."""
        if full:
            fold = 0
            for message in self._heap:
                fold ^= _queued_digest(message)
            return fold
        if not self._fp_eager:
            self._fold = self.fold(full=True)
            self._fp_eager = True
        return self._fold


class RandomDelayNetwork:
    """Reliable network with seeded random per-message delays.

    Args:
        seed: RNG seed; identical seeds give identical delivery orders.
        min_delay / max_delay: Inclusive bounds (in steps) on each
            message's delay. ``min_delay >= 1`` keeps sends asynchronous
            (a message is never receivable in the same step it was sent).
    """

    def __init__(self, seed: int = 0, min_delay: int = 1, max_delay: int = 24):
        if not 1 <= min_delay <= max_delay:
            raise NetworkError(
                f"need 1 <= min_delay <= max_delay, got {min_delay}, {max_delay}"
            )
        self._rng = random.Random(seed)
        self._min = min_delay
        self._max = max_delay
        self._queue = _InFlight()
        #: Total messages ever submitted (metrics).
        self.submitted = 0
        #: Total messages delivered into mailboxes (metrics).
        self.delivered = 0

    def submit(self, sender: int, dest: int, payload: Any, now: int) -> None:
        """Queue a message for future delivery (kernel hook)."""
        delay = self._rng.randint(self._min, self._max)
        self._queue.push(now + delay, sender, dest, payload)
        self.submitted += 1

    def tick(self, now: int, system: Any) -> None:
        """Deliver every message whose due time has arrived (kernel hook)."""
        for message in self._queue.pop_due(now):
            system.deliver(message.sender, message.dest, message.payload)
            self.delivered += 1

    def pending(self) -> int:
        """Messages queued but not yet delivered."""
        return len(self._queue)

    def fingerprint_fold(self, full: bool = False) -> int:
        """XOR fold of the in-flight queue (see :meth:`_InFlight.fold`)."""
        return self._queue.fold(full)


class ScriptedNetwork:
    """A network whose deliveries are explicitly released by the test.

    Every submitted message is held in an inbox visible through
    :meth:`held`; the orchestrator calls :meth:`release` (or
    :meth:`release_matching`) to let specific messages through on the
    next tick. This gives message-level adversarial scheduling — the
    message-passing analogue of :class:`ScriptedScheduler`.
    """

    def __init__(self) -> None:
        self._held: List[Tuple[int, int, int, Any]] = []  # (id, sender, dest, payload)
        self._release_queue: List[Tuple[int, int, Any]] = []
        self._next_id = itertools.count()
        self._held_fold = 0
        self._queue_fold = 0
        #: Nothing is digested until the first ``fingerprint_fold()``
        #: (see ``_InFlight``).
        self._fp_eager = False
        self.submitted = 0
        self.delivered = 0

    @staticmethod
    def _held_digest(entry: Tuple[int, int, int, Any]) -> int:
        # Held messages are unordered (the id is the identity; release
        # picks by id or filter), so the entry digest alone suffices.
        return digest64(f"scripted-held\x00{entry!r}")

    @staticmethod
    def _queue_digest(index: int, entry: Tuple[int, int, Any]) -> int:
        # Released-but-undelivered messages deliver in queue order, so
        # the position must distinguish otherwise-equal queues.
        return digest64(f"scripted-queue\x00{index}\x00{entry!r}")

    def _enqueue_release(self, held: Tuple[int, int, int, Any]) -> None:
        """Move one entry (already removed from ``_held``) to the queue."""
        entry = held[1:]
        if self._fp_eager:
            self._held_fold ^= self._held_digest(held)
            self._queue_fold ^= self._queue_digest(len(self._release_queue), entry)
        self._release_queue.append(entry)

    def submit(self, sender: int, dest: int, payload: Any, now: int) -> None:
        """Hold the message until the test releases it."""
        entry = (next(self._next_id), sender, dest, payload)
        self._held.append(entry)
        if self._fp_eager:
            self._held_fold ^= self._held_digest(entry)
        self.submitted += 1

    def tick(self, now: int, system: Any) -> None:
        """Deliver everything previously released."""
        queue, self._release_queue = self._release_queue, []
        self._queue_fold = 0
        for sender, dest, payload in queue:
            system.deliver(sender, dest, payload)
            self.delivered += 1

    # ------------------------------------------------------------------
    def held(self) -> List[Tuple[int, int, int, Any]]:
        """Snapshot of held messages as ``(id, sender, dest, payload)``."""
        return list(self._held)

    def release(self, message_id: int) -> None:
        """Release one held message by id."""
        for index, entry in enumerate(self._held):
            if entry[0] == message_id:
                del self._held[index]
                self._enqueue_release(entry)
                return
        raise NetworkError(f"no held message with id {message_id}")

    def release_matching(
        self,
        sender: Optional[int] = None,
        dest: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> int:
        """Release held messages matching the filters; returns the count."""
        released = 0
        remaining: List[Tuple[int, int, int, Any]] = []
        for entry in self._held:
            _mid, msg_sender, msg_dest, _payload = entry
            matches = (sender is None or msg_sender == sender) and (
                dest is None or msg_dest == dest
            )
            if matches and (limit is None or released < limit):
                self._enqueue_release(entry)
                released += 1
            else:
                remaining.append(entry)
        self._held = remaining
        return released

    def release_all(self) -> int:
        """Release everything currently held."""
        return self.release_matching()

    def pending(self) -> int:
        """Held plus released-but-undelivered message count."""
        return len(self._held) + len(self._release_queue)

    def fingerprint_fold(self, full: bool = False) -> int:
        """XOR fold of held + released-undelivered messages.

        Rebuilt on the first call, incremental afterwards; ``full=True``
        is the from-scratch oracle and leaves the gate alone.
        """
        if full:
            held_fold, queue_fold = self._folds()
            return held_fold ^ queue_fold
        if not self._fp_eager:
            self._held_fold, self._queue_fold = self._folds()
            self._fp_eager = True
        return self._held_fold ^ self._queue_fold

    def _folds(self) -> Tuple[int, int]:
        """From-scratch ``(held, release queue)`` folds."""
        held_fold = queue_fold = 0
        for entry in self._held:
            held_fold ^= self._held_digest(entry)
        for index, entry in enumerate(self._release_queue):
            queue_fold ^= self._queue_digest(index, entry)
        return held_fold, queue_fold
