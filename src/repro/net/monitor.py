"""Stall-to-verdict monitoring for live clusters.

The stall judgement is :class:`repro.faults.monitor.StallWindow` — the
same signal compare, the same window-vs-capped-backoff rejection and
the same diagnosis shape (pending operations plus what the fault plan
is suppressing) the simulator's :class:`repro.faults.ProgressMonitor`
uses. That monitor samples from inside a drive loop's goal predicate
and raises; a live cluster has no such loop, so this driver runs as an
asyncio task that samples ``time.monotonic()`` on a poll interval and
flips an :class:`asyncio.Event` — the orchestrator races the load
against that event and converts it into the first-class ``STALLED``
verdict.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.faults.monitor import StallWindow


class WallClockProgressMonitor:
    """Flag a stall once progress signals stop moving for ``window`` seconds.

    Args:
        signals: Zero-argument callable returning a comparable tuple of
            progress counters; any change resets the window. Counters
            must track *useful* events (responses, protocol-state
            adoptions) — retransmission sends and deduped duplicates
            are not progress.
        window: Seconds without a signal change before the verdict.
        describe_pending: Optional callable summarizing the operations
            still in flight (folded into the diagnosis).
        describe_suppression: Optional callable explaining what the
            chaos layer is cutting (the proxies' aggregate view).
        channels: Retransmit channel layers attached to the cluster;
            the window must exceed every one's ``max_backoff`` or
            construction raises :class:`ConfigurationError`.
    """

    def __init__(
        self,
        signals: Callable[[], Tuple],
        window: float = 2.0,
        describe_pending: Optional[Callable[[], str]] = None,
        describe_suppression: Optional[Callable[[], str]] = None,
        channels: Sequence[Any] = (),
    ):
        self.window = window
        self._stall = StallWindow(
            signals,
            window,
            "s",
            channels=channels,
            describe_pending=describe_pending,
            describe_suppression=describe_suppression,
        )
        self._task: Optional[asyncio.Task] = None
        #: Set once the stall verdict fires; the diagnosis is in
        #: :attr:`stalled`.
        self.stalled_event = asyncio.Event()
        self.stalled: Optional[str] = None

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Cancel the sampling task."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        poll = max(self.window / 20.0, 0.01)  # seconds, floored at 10 ms
        while not self._stall.expired(time.monotonic()):
            await asyncio.sleep(poll)
        self.stalled = self._stall.diagnose(
            f"STALLED: no progress for {self.window:g}s (wall clock)"
        )
        self.stalled_event.set()
