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
(or the replay budget runs out): normalization can re-open truncation
or removal opportunities, and running to this fixpoint makes shrinking
*idempotent* — re-shrinking an already-shrunk trace is a no-op, which
keeps corpus entries stable across campaigns.

The result converts to a :class:`repro.sim.ScriptedScheduler` script —
the explicit ``(pid, role)`` step list the repo's regression tests are
written in — via :meth:`ShrunkViolation.script_source`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import SchedulerError
from repro.sim.scheduler import CoroutineId
from repro.spec.context import CheckContext
from repro.explore.explorer import RunRecord, execute_trace
from repro.scenarios.registry import Scenario, Violation


def render_script_source(
    script: Sequence[CoroutineId], comments: Sequence[str]
) -> str:
    """Python source for a ScriptedScheduler reproducing a violation.

    One renderer for every surface that emits replay scripts (shrunk
    violations, corpus entries), so the rendered shape — non-strict
    script with a fair round-robin completion — can never drift
    between them.
    """
    steps = ",\n    ".join(repr(cid) for cid in script)
    body = f"\n    {steps},\n" if script else ""
    header = "".join(f"# {line}\n" for line in comments)
    return (
        f"{header}"
        f"scheduler = ScriptedScheduler([{body}], "
        f"fallback=RoundRobinScheduler(), strict=False)\n"
    )


@dataclass
class ShrunkViolation:
    """A minimized counterexample, ready to paste into a regression test."""

    original: Violation
    trace: Tuple[int, ...]
    reason: str
    script: Tuple[CoroutineId, ...]
    replays: int

    def script_source(self) -> str:
        """Python source for a ScriptedScheduler reproducing the violation."""
        return render_script_source(
            self.script,
            (
                f"Violating schedule found by repro.explore for "
                f"{self.original.scenario}:",
                f"  {self.reason}",
                "Force these steps, then let round robin finish the run.",
            ),
        )

    def describe(self) -> str:
        """One-line rendering for reports."""
        return (
            f"shrunk {len(self.original.trace)} -> {len(self.trace)} decisions "
            f"({self.replays} replays): {self.reason}"
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
    for one verdict.
    """
    fingerprint = violation.fingerprint()
    replays = 0
    if ctx is None:
        ctx = CheckContext()

    # ``current`` only ever changes to the prefix of the latest
    # reproducing attempt (phase 1 included: ``high`` is the last
    # ``mid`` that reproduced), so what that attempt's run showed is
    # what ``current`` shows and nothing needs replaying at the end.
    # Only the two fields the result needs are kept: a whole RunRecord
    # held across the next replay is a second full trace in memory.
    reason = ""
    chosen: Tuple[CoroutineId, ...] = ()

    def attempt(prefix: Sequence[int]) -> bool:
        nonlocal replays, reason, chosen
        replays += 1
        record = _reproduces(scenario, prefix, fingerprint, ctx=ctx)
        if record is None:
            return False
        reason, chosen = record.violation.reason, record.chosen
        return True

    current = list(violation.trace)
    if not attempt(current):
        raise ValueError(
            "violation does not reproduce from its own trace; "
            "is the scenario deterministic?"
        )

    # Repeat the phase pipeline until a full pass changes nothing (the
    # fixpoint that makes shrinking idempotent) or the budget is spent.
    while replays < max_replays:
        before = list(current)

        # Phase 1: truncation by binary search — the shortest prefix
        # whose fair completion still violates.
        low, high = 0, len(current)
        while low < high and replays < max_replays:
            mid = (low + high) // 2
            if attempt(current[:mid]):
                high = mid
            else:
                low = mid + 1
        current = current[:high]

        # Phase 2: ddmin — remove chunks at doubling granularity.
        granularity = 2
        while granularity <= max(len(current), 1) and replays < max_replays:
            chunk = max(1, len(current) // granularity)
            removed_any = False
            start = 0
            while start < len(current) and replays < max_replays:
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
            if replays >= max_replays:
                break
            for lower in range(current[position]):
                candidate = list(current)
                candidate[position] = lower
                if attempt(candidate):
                    current = candidate
                    break

        if current == before:
            break

    return ShrunkViolation(
        original=violation,
        trace=tuple(current),
        reason=reason,
        script=tuple(chosen[: len(current)]),
        replays=replays,
    )
