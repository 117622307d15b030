"""FaultyNetwork: apply a :class:`FaultPlan` to any existing network.

The wrapper implements the same :class:`repro.mp.network.Network`
protocol (``submit`` / ``tick`` / ``pending``) as the networks it wraps,
so it plugs into ``System.network`` unchanged and composes with
:class:`repro.mp.RandomDelayNetwork` (fair-lossy asynchronous runs) and
:class:`repro.mp.ScriptedNetwork` (adversarial message ordering under
faults).

It is the virtual-clock driver of a :class:`repro.faults.plan.FaultJudge`:

* **submission** — each ``submit`` asks the judge for the message's
  copies and extra delay before the wrapped network sees it; copies a
  delay rule holds wait in an in-flight queue here and are submitted
  inward when due. Every rule draws from the one plan-seeded stream, so
  a plan's decisions are a pure function of the submission sequence.
* **delivery** — the wrapped network ticks with this wrapper in place
  of the system, so each message it delivers passes the judge's
  delivery checkpoint first: a crash or partition window that opened
  while the message was in flight still cuts it.

The judge's ledger (``dropped`` / ``partitioned`` / ``suppressed_crash``
… and the per-link ``suppressed_links``) is what the progress monitor
folds into a ``STALLED`` diagnosis.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from repro.faults.plan import FaultJudge, FaultPlan
from repro.mp.network import _InFlight


class FaultyNetwork:
    """Wrap an inner network with a seeded, replayable fault plan."""

    def __init__(self, inner: Any, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        stream = random.Random(plan.seed ^ 0x5FA17B1A)
        self.judge = FaultJudge(plan, [stream] * len(plan.link_rules))
        #: Copies held back by a delay rule, submitted inward when due.
        self._held = _InFlight()
        #: The system and clock of the tick in progress (see ``deliver``).
        self._system: Any = None
        self._now = 0
        # The inner network's counters never see a suppressed message.
        self.submitted = 0
        self.delivered = 0

    def submit(self, sender: int, dest: int, payload: Any, now: int) -> None:
        """Judge one message, then hand its surviving copies inward."""
        self.submitted += 1
        copies, extra_delay = self.judge.submit(sender, dest, now)
        for _ in range(copies):
            if extra_delay:
                self._held.push(now + extra_delay, sender, dest, payload)
            else:
                self.inner.submit(sender, dest, payload, now)

    def tick(self, now: int, system: Any) -> None:
        """Release due delayed copies, then tick the wrapped network."""
        held = self._held.heap
        if held and held[0][0] <= now:
            for _due, _tiebreak, sender, dest, payload in self._held.pop_due(now):
                self.inner.submit(sender, dest, payload, now)
        self._system = system
        self._now = now
        self.inner.tick(now, self)
        # Not kept past the tick: the system holds this network, and a
        # cycle back to it would outlive the run until a full collection.
        self._system = None

    def deliver(self, sender: int, dest: int, payload: Any) -> None:
        """The wrapped network's delivery, through the judge's checkpoint."""
        if self.judge.deliverable(sender, dest, self._now):
            self.delivered += 1
            self._system.deliver(sender, dest, payload)

    def pending(self) -> int:
        """In-flight messages: delayed here plus queued in the inner net."""
        return len(self._held) + self.inner.pending()

    # ------------------------------------------------------------------
    def fingerprint_fold(self, full: bool = False) -> int:
        """XOR fold of the in-flight state (inner queue + delay buffer)."""
        fold = self._held.fold(full)
        inner_fold = getattr(self.inner, "fingerprint_fold", None)
        if inner_fold is not None:
            fold ^= inner_fold(full=full)
        return fold

    def metrics(self) -> Dict[str, int]:
        """Plain-dict suppression/delivery counters for reports and tests."""
        return {
            "submitted": self.submitted,
            "delivered": self.delivered,
            **self.judge.metrics(),
        }

    def describe_suppression(self, now: int) -> str:
        """One-line summary of what the plan is currently cutting."""
        return self.judge.describe_suppression(now)
