"""Counterexample shrinking: minimize a violating decision trace.

A violation surfaced by the explorer or the fuzzer carries the full
decision trace of its run — often hundreds of entries, most of them
irrelevant to the bug. The shrinker reduces it to a short forced prefix
whose fair round-robin completion still reproduces the *same class* of
violation (matched by :meth:`Violation.fingerprint`, so shrinking never
silently drifts to a different bug):

1. **truncation** — binary-search the shortest violating prefix; the
   fallback completes the run, so most of the tail usually goes at once;
2. **ddmin** — classic delta debugging over the surviving entries,
   removing chunks at increasing granularity while the violation
   persists;
3. **normalization** — lower every surviving index toward 0, biasing
   the schedule toward "first runnable coroutine" so equivalent
   minima render identically.

The three phases repeat until a full pass leaves the trace unchanged
or the replay budget runs out: normalization can re-open truncation or
removal opportunities. A result that reached this fixpoint
(:attr:`ShrunkViolation.fixpoint`) is *idempotent* — re-shrinking it is
a no-op, which keeps corpus entries stable across campaigns. A result
whose budget ran out first carries no such promise: re-shrinking it
with a fresh budget may shorten it further.

The result is the decision trace alone: a regression test (or a
corpus entry, :mod:`repro.campaign.corpus`) replays it through
:class:`repro.sim.TraceScheduler`, which every engine records through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import SchedulerError
from repro.spec.context import CheckContext
from repro.explore.explorer import RunRecord, execute_trace, paused_gc
from repro.scenarios.registry import Scenario, Violation


@dataclass
class ShrunkViolation:
    """A minimized counterexample: ``trace`` is a decision prefix whose
    fair round-robin completion reproduces the violation class (replay
    it with :func:`repro.explore.execute_trace`)."""

    original: Violation
    trace: Tuple[int, ...]
    reason: str
    replays: int
    #: True only when a full pass of the three phases changed nothing;
    #: False when the replay budget ran out first.
    fixpoint: bool

    def describe(self) -> str:
        """One-line rendering for reports."""
        spent = "" if self.fixpoint else ", replay budget spent"
        return (
            f"shrunk {len(self.original.trace)} -> {len(self.trace)} decisions "
            f"({self.replays} replays{spent}): {self.reason}"
        )


def _reproduces(
    scenario: Scenario,
    prefix: Sequence[int],
    fingerprint: str,
    ctx: Optional[CheckContext] = None,
) -> Optional[RunRecord]:
    """Replay ``prefix``; return the run if its violation matches the class."""
    try:
        record = execute_trace(
            scenario, prefix, schedule_label="shrink", ctx=ctx
        )
    except SchedulerError:
        return None
    violation = record.violation
    if violation is not None and violation.fingerprint() == fingerprint:
        return record
    return None


@paused_gc()
def shrink(
    scenario: Scenario,
    violation: Violation,
    max_replays: int = 600,
    ctx: Optional[CheckContext] = None,
) -> ShrunkViolation:
    """Minimize ``violation``'s trace; see the module docstring.

    Raises :class:`ValueError` when the original trace does not
    reproduce its violation (a non-deterministic scenario, or a spec
    mismatch between finder and shrinker). The hundreds of replays of
    one shrink share a :class:`CheckContext` (created here when not
    given): candidate prefixes that converge to the same history pay
    for one verdict. Like :func:`repro.explore.fuzz` and
    :func:`repro.explore.explore`, the replays run under
    :func:`~repro.explore.explorer.paused_gc`: each builds and drops one
    short-lived system.
    """
    fingerprint = violation.fingerprint()
    replays = 0
    if ctx is None:
        ctx = CheckContext()

    # ``current`` only ever changes to the prefix of the latest
    # reproducing attempt (phase 1 included: ``high`` is the last
    # ``mid`` that reproduced), so what that attempt's run showed is
    # what ``current`` shows and nothing needs replaying at the end.
    # Only the reason is kept: a whole RunRecord held across the next
    # replay is a second full trace in memory.
    reason = ""
    # Set the first time a phase wanted another replay and the budget
    # refused it: that pass was cut short, so it proves no fixpoint.
    spent = False

    def budget_left() -> bool:
        nonlocal spent
        if replays >= max_replays:
            spent = True
        return not spent

    def attempt(prefix: Sequence[int]) -> bool:
        nonlocal replays, reason
        replays += 1
        record = _reproduces(scenario, prefix, fingerprint, ctx=ctx)
        if record is None:
            return False
        reason = record.violation.reason
        return True

    current = list(violation.trace)
    if not attempt(current):
        raise ValueError(
            "violation does not reproduce from its own trace; "
            "is the scenario deterministic?"
        )

    # Repeat the phase pipeline until a full pass changes nothing (the
    # fixpoint that makes shrinking idempotent) or the budget is spent.
    fixpoint = False
    while budget_left():
        before = list(current)

        # Phase 1: truncation by binary search — the shortest prefix
        # whose fair completion still violates.
        low, high = 0, len(current)
        while low < high and budget_left():
            mid = (low + high) // 2
            if attempt(current[:mid]):
                high = mid
            else:
                low = mid + 1
        current = current[:high]

        # Phase 2: ddmin — remove chunks at doubling granularity.
        granularity = 2
        while granularity <= max(len(current), 1) and budget_left():
            chunk = max(1, len(current) // granularity)
            removed_any = False
            start = 0
            while start < len(current) and budget_left():
                candidate = current[:start] + current[start + chunk:]
                if candidate != current and attempt(candidate):
                    current = candidate
                    removed_any = True
                else:
                    start += chunk
            if not removed_any:
                if chunk == 1:
                    break
                granularity *= 2

        # Phase 3: normalize indices toward 0 for a canonical rendering.
        for position in range(len(current)):
            lower = 0
            while lower < current[position] and budget_left():
                candidate = list(current)
                candidate[position] = lower
                if attempt(candidate):
                    current = candidate
                    break
                lower += 1

        if current == before:
            fixpoint = not spent
            break

    return ShrunkViolation(
        original=violation,
        trace=tuple(current),
        reason=reason,
        replays=replays,
        fixpoint=fixpoint,
    )
