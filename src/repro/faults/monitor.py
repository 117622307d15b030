"""Stall-to-verdict liveness monitoring.

Under injected faults a run can lose liveness — a write that can never
reach its quorum just polls forever — and without help it burns the
whole step budget and surfaces as :class:`repro.errors.StepLimitExceeded`,
indistinguishable from "budget too small". :class:`ProgressMonitor`
watches a tuple of *progress signals* (delivered counters, recorded
responses, protocol-state versions) from inside the drive loop's goal
predicate and raises :class:`repro.errors.StallDetected` once nothing
has moved for a full stall window — converting the would-be hang into a
first-class ``STALLED`` verdict carrying a diagnosis: which operations
are pending and what the fault plan is suppressing.

Scenario drivers catch the exception and return normally, so a stalled
run is *completed* as far as the exploration/replay machinery is
concerned (its trace replays, shrinks, and persists to the corpus like
any safety violation); the stall reason is what ``check()`` reports.

The window must be comfortably larger than the longest legitimate gap
between progress events — with retransmit channels that is the capped
backoff interval — and far smaller than the drive's ``max_steps`` so a
stalling run still completes within budget.

The judgement itself — has any signal moved within the window, is the
window wide enough for the attached channels, what does the diagnosis
say — is :class:`StallWindow`, which takes ``now`` from its caller and
so serves this monitor on virtual steps and
:class:`repro.net.WallClockProgressMonitor` on wall-clock seconds.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Tuple

from repro.errors import ConfigurationError, StallDetected

_UNSAMPLED = object()


class StallWindow:
    """Has any progress signal moved within the last ``window``?

    Args:
        signals: Zero-argument callable returning a comparable tuple of
            progress counters; any change resets the window.
        window: Time without a signal change that counts as a stall, in
            the unit of the ``now`` values passed to :meth:`expired`.
        unit: That unit as the messages print it (``" steps"``, ``"s"``).
        channels: Retransmit channel layers the monitored run sends
            through. The window must exceed every one's ``max_backoff``:
            at or below the cap, a legitimate retransmit gap would read
            as a stall, so that configuration is rejected loudly.
        describe_pending: Optional callable returning a one-line summary
            of the operations still pending.
        describe_suppression: Optional callable explaining what a fault
            plan is cutting.
    """

    def __init__(
        self,
        signals: Callable[[], Tuple],
        window: float,
        unit: str,
        channels: Iterable[Any] = (),
        describe_pending: Optional[Callable[[], str]] = None,
        describe_suppression: Optional[Callable[[], str]] = None,
    ):
        if window <= 0:
            raise ConfigurationError(f"stall window must be > 0, got {window}")
        for channel in channels:
            if window <= channel.max_backoff:
                raise ConfigurationError(
                    f"stall window {window}{unit} must exceed the retransmit "
                    f"layer's capped backoff ({channel.max_backoff}{unit}): a "
                    f"legitimate retransmit gap would read as a stall"
                )
        self.window = window
        self._signals = signals
        self._describe_pending = describe_pending
        self._describe_suppression = describe_suppression
        self._last: Any = _UNSAMPLED
        self._last_change: float = 0

    def expired(self, now: float) -> bool:
        """Sample the signals at ``now``; true once a full window has
        passed since they last changed (the first sample is a change)."""
        current = self._signals()
        if current != self._last:
            self._last = current
            self._last_change = now
            return False
        return now - self._last_change >= self.window

    def diagnose(self, header: str) -> str:
        """``header`` plus the pending and suppression summaries."""
        parts = [header]
        if self._describe_pending is not None:
            parts.append(f"pending: {self._describe_pending()}")
        if self._describe_suppression is not None:
            parts.append(self._describe_suppression())
        return "; ".join(parts)


class ProgressMonitor:
    """Raise :class:`StallDetected` when progress signals stop moving.

    Args:
        system: The system whose clock measures the window.
        signals: Zero-argument callable returning a comparable tuple of
            progress counters; any change resets the window. Counters
            should track *useful* events (deliveries into mailboxes,
            responses, protocol-state adoptions) — retransmission sends
            are not progress.
        window: Steps without a signal change before the stall verdict.
        describe_pending: Optional callable returning a one-line summary
            of the operations still pending (folded into the diagnosis).
        network: Optional network whose ``describe_suppression(now)``
            explains what a fault plan is cutting (a
            :class:`repro.faults.FaultyNetwork`).
        channels: Optional :class:`repro.faults.RetransmitChannels` the
            monitored system sends through; the window must exceed its
            capped backoff (see :class:`StallWindow`).
    """

    def __init__(
        self,
        system: Any,
        signals: Callable[[], Tuple],
        window: int = 2_500,
        describe_pending: Optional[Callable[[], str]] = None,
        network: Optional[Any] = None,
        channels: Optional[Any] = None,
    ):
        describe = getattr(network, "describe_suppression", None)
        self.system = system
        self.window = window
        self._stall = StallWindow(
            signals,
            window,
            " steps",
            channels=() if channels is None else (channels,),
            describe_pending=describe_pending,
            describe_suppression=(
                None if describe is None else lambda: describe(system.clock)
            ),
        )
        #: Set to the diagnosis once a stall has been raised.
        self.stalled: Optional[str] = None

    def observe(self) -> None:
        """Sample the signals; raise once the window elapses unchanged.

        Designed to be called from a ``run_until`` goal predicate (so it
        runs before every step); cost is one tuple compare per step.
        """
        now = self.system.clock
        if self._stall.expired(now):
            self.stalled = self._stall.diagnose(
                f"STALLED: no progress for {self.window} steps (clock={now})"
            )
            raise StallDetected(self.stalled)
