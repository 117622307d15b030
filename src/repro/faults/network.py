"""FaultyNetwork: apply a :class:`FaultPlan` to any existing network.

The wrapper implements the same :class:`repro.mp.network.Network`
protocol (``submit`` / ``tick`` / ``pending``) as the networks it wraps,
so it plugs into ``System.network`` unchanged and composes with
:class:`repro.mp.RandomDelayNetwork` (fair-lossy asynchronous runs) and
:class:`repro.mp.ScriptedNetwork` (adversarial message ordering under
faults).

Fault application has two checkpoints:

* **submit-side** — crash of the sender, active partitions, and the
  probabilistic link rules (drop / dup / delay) are applied before the
  wrapped network ever sees the message. Draws come from the plan-seeded
  RNG in a fixed order (drop rules, then dup, then delay, in plan
  order), so a plan's decisions are a pure function of the submission
  sequence.
* **delivery-side** — when the wrapped network decides a message is
  due, it delivers through a sieve that re-checks crashes and partition
  windows at *delivery* time, so a window that opened while the message
  was in flight still cuts it.

Every suppression is counted (``dropped`` / ``partitioned`` /
``suppressed_crash`` …) and attributed to its link in
:attr:`FaultyNetwork.suppressed_links`, which is what the progress
monitor folds into a ``STALLED`` diagnosis.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Dict, List, Tuple

from repro.faults.plan import FaultPlan
from repro.mp.network import _QueuedMessage, _queued_digest


class _DeliverySieve:
    """System proxy handed to the wrapped network's ``tick``.

    Intercepts :meth:`deliver` to apply delivery-time suppression
    (crashed endpoints, active partition windows) before the message
    reaches the real mailboxes.
    """

    __slots__ = ("_system", "_net", "_now")

    def __init__(self, system: Any, net: "FaultyNetwork", now: int):
        self._system = system
        self._net = net
        self._now = now

    def deliver(self, sender: int, dest: int, payload: Any) -> None:
        net = self._net
        plan = net.plan
        now = self._now
        if plan.crashed(dest, now) or plan.crashed(sender, now):
            net.suppressed_crash += 1
            net._note_suppressed(sender, dest)
            return
        if plan.partitioned(sender, dest, now):
            net.partitioned += 1
            net._note_suppressed(sender, dest)
            return
        net.delivered += 1
        self._system.deliver(sender, dest, payload)


class FaultyNetwork:
    """Wrap an inner network with a seeded, replayable fault plan."""

    def __init__(self, inner: Any, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self._rng = random.Random(plan.seed ^ 0x5FA17B1A)
        #: Messages held back by a delay rule, re-submitted when due.
        self._held: List[_QueuedMessage] = []
        self._tiebreak = itertools.count()
        self._held_fold = 0
        #: The delay buffer's fold is digested only once somebody has
        #: asked for it (see ``RandomDelayNetwork._fp_eager``).
        self._fp_eager = False
        # Metrics — suppressions are *not* counted in the inner
        # network's counters (it never sees a suppressed submit).
        self.submitted = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.partitioned = 0
        self.suppressed_crash = 0
        #: (sender, dest) -> suppression count, for diagnoses.
        self.suppressed_links: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def _note_suppressed(self, sender: int, dest: int) -> None:
        key = (sender, dest)
        self.suppressed_links[key] = self.suppressed_links.get(key, 0) + 1

    def submit(self, sender: int, dest: int, payload: Any, now: int) -> None:
        """Apply submit-side faults, then hand surviving copies inward."""
        self.submitted += 1
        plan = self.plan
        if plan.crashed(sender, now):
            self.suppressed_crash += 1
            self._note_suppressed(sender, dest)
            return
        if plan.partitioned(sender, dest, now):
            self.partitioned += 1
            self._note_suppressed(sender, dest)
            return
        copies = 1
        extra_delay = 0
        # Fixed draw order: every matching rule draws exactly once, in
        # plan order, even after the message's fate is sealed — so the
        # RNG stream (and with it every later decision) depends only on
        # the submission sequence, not on which faults happened to fire.
        dropped = False
        for rule in plan.link_rules:
            if not rule.matches(sender, dest):
                continue
            draw = self._rng.random()
            if rule.kind == "drop":
                if draw < rule.prob:
                    dropped = True
            elif rule.kind == "dup":
                if draw < rule.prob:
                    copies += 1
            elif draw < rule.prob:  # delay
                extra_delay += rule.extra
        if dropped:
            self.dropped += 1
            self._note_suppressed(sender, dest)
            return
        if copies > 1:
            self.duplicated += copies - 1
        for _ in range(copies):
            if extra_delay:
                self.delayed += 1
                entry = _QueuedMessage(
                    due=now + extra_delay,
                    tiebreak=next(self._tiebreak),
                    sender=sender,
                    dest=dest,
                    payload=payload,
                )
                heapq.heappush(self._held, entry)
                if self._fp_eager:
                    self._held_fold ^= _queued_digest(entry)
            else:
                self.inner.submit(sender, dest, payload, now)

    def tick(self, now: int, system: Any) -> None:
        """Release due delayed messages, then tick the wrapped network."""
        held = self._held
        while held and held[0].due <= now:
            entry = heapq.heappop(held)
            if self._fp_eager:
                self._held_fold ^= _queued_digest(entry)
            self.inner.submit(entry.sender, entry.dest, entry.payload, now)
        self.inner.tick(now, _DeliverySieve(system, self, now))

    def pending(self) -> int:
        """In-flight messages: delayed here plus queued in the inner net."""
        return len(self._held) + self.inner.pending()

    # ------------------------------------------------------------------
    def fingerprint_fold(self, full: bool = False) -> int:
        """XOR fold of the in-flight state (inner queue + delay buffer).

        The first call rebuilds the delay buffer's fold and turns on
        its incremental maintenance (the inner network gates its own);
        ``full=True`` recomputes both from scratch and flips neither.
        """
        if full or not self._fp_eager:
            fold = 0
            for entry in self._held:
                fold ^= _queued_digest(entry)
            if not full:
                self._held_fold = fold
                self._fp_eager = True
        else:
            fold = self._held_fold
        inner_fold = getattr(self.inner, "fingerprint_fold", None)
        if inner_fold is not None:
            fold ^= inner_fold(full=full)
        return fold

    def metrics(self) -> Dict[str, int]:
        """Plain-dict suppression/delivery counters for reports and tests."""
        return {
            "submitted": self.submitted,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "partitioned": self.partitioned,
            "suppressed_crash": self.suppressed_crash,
        }

    def describe_suppression(self, now: int) -> str:
        """One-line summary of what the plan is currently cutting."""
        return self.plan.describe_suppression(now, self.suppressed_links)
