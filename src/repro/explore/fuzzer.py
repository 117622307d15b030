"""Swarm schedule fuzzing: seeded random/priority campaigns.

Where the systematic explorer drains a *bounded* tree, the swarm fuzzer
samples the *unbounded* schedule space: every run draws a fresh
scheduler — uniform random or swarm-priority (each coroutine gets a
random weight, so whole coroutines run slow or fast for the entire run,
the "swarm verification" trick that reaches starvation-shaped bugs
uniform sampling rarely hits). A violating run is reported with its
decision trace, so it is replayable and shrinkable. Where that trace
is recorded depends on what the campaign expects (:func:`run_one_fuzz`):
a *hunting* campaign, one that stops at its first violation, runs every
schedule under a recording :class:`repro.sim.TraceScheduler`, so the
find carries its trace from the run that found it; a *certifying*
campaign, one that expects no violation, runs its schedulers bare and
re-executes only an unexpected find, once, to record its trace.

A campaign runs in the calling process, one seeded run after another,
so its findings are a deterministic function of its scenarios, budget
and first seed; violations are deduplicated by
:meth:`repro.scenarios.Violation.fingerprint`. Parallelism is across
campaign cells, in the worker fleet of :mod:`repro.service`.
Throughput (runs/sec) is part of the report.

Schedulers here keep a *small* fairness bound. The quorum candidates
under test promise safety only when correct helpers keep taking steps
while they have work; an unboundedly unfair schedule can starve a
runnable helper through an entire bounded Test scan, which breaks even
the ``n = 3f + 1`` control — an artifact of bounded ``patience``, not
of the algorithm. (A helper with no work is parked, not runnable; the
write that gives it work wakes it.) Bounded unfairness keeps the fuzzer inside the model's fairness premise while
still visiting extreme interleavings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError, StepLimitExceeded
from repro.sim.scheduler import (
    CoroutineId,
    PriorityScheduler,
    RandomScheduler,
    Scheduler,
    TraceScheduler,
)
from repro.spec.context import CheckContext
from repro.scenarios.registry import Scenario, Violation
from repro.explore.explorer import paused_gc

#: Fairness bound for fuzzing schedulers: the longest a runnable
#: coroutine may be starved. Small enough that a runnable helper always
#: gets steps during a bounded Test scan (see module docstring).
FUZZ_FAIRNESS_BOUND = 12

#: Weight classes swarm-priority schedulers draw from: crawling,
#: slow, normal, and hot coroutines.
SWARM_WEIGHTS = (0.02, 0.2, 1.0, 8.0)


class SwarmScheduler(PriorityScheduler):
    """Priority scheduling with per-coroutine weights drawn on first sight.

    Coroutine ids are not known before the scenario is built, so the
    weights cannot be passed up front; instead each coroutine draws its
    weight from :data:`SWARM_WEIGHTS` the first time it appears in the
    runnable set. The draw is seeded, so a (seed, scenario) pair is one
    reproducible point of the swarm.
    """

    def __init__(self, seed: int = 0, fairness_bound: int = FUZZ_FAIRNESS_BOUND):
        super().__init__({}, seed=seed, fairness_bound=fairness_bound)
        self._seed = seed

    def _on_new_runnable(self, runnable: Sequence[CoroutineId]) -> None:
        # A coroutine appears for the first time only when the runnable
        # tuple itself is new, so drawing on the epoch hook consumes the
        # rng in exactly the per-select order the original loop did.
        weights = self._weights
        for cid in runnable:
            if cid not in weights:
                weights[cid] = self._rng.choice(SWARM_WEIGHTS)

    def describe(self) -> str:
        return f"SwarmScheduler(seed={self._seed}, bound={self._bound})"


def fuzz_scheduler(seed: int) -> Scheduler:
    """The swarm's scheduler mix: alternate uniform-random and priority."""
    if seed % 2 == 0:
        return RandomScheduler(seed=seed, fairness_bound=FUZZ_FAIRNESS_BOUND)
    return SwarmScheduler(seed=seed)


@dataclass
class FuzzReport:
    """Aggregated outcome of one swarm campaign."""

    scenarios: List[str]
    runs: int = 0
    steps: int = 0
    incomplete: int = 0
    elapsed: float = 0.0
    violations: List[Violation] = field(default_factory=list)
    violation_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def runs_per_sec(self) -> float:
        """Aggregate schedules fuzzed per wall-clock second."""
        return self.runs / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def steps_per_sec(self) -> float:
        """Aggregate simulator steps per wall-clock second."""
        return self.steps / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        """One-paragraph rendering for the CLI."""
        verdict = (
            f"{len(self.violations)} violation class(es) "
            f"({sum(self.violation_counts.values())} violating runs)"
            if self.violations
            else "no violations"
        )
        return (
            f"swarm over {len(self.scenarios)} scenario(s): {verdict} in "
            f"{self.runs} runs; "
            f"{self.runs_per_sec:.0f} runs/s, {self.steps_per_sec:.0f} steps/s"
            + (f", {self.incomplete} incomplete" if self.incomplete else "")
        )


def run_one_fuzz(
    scenario: Scenario,
    seed: int,
    ctx=None,
    hunting: bool = False,
) -> Tuple[Optional[Violation], int, bool]:
    """Execute one fuzzing run; returns (violation, steps, completed).

    A run is reproducible from its seed, and its scheduler decides the
    same picks whether or not a :class:`TraceScheduler` (``horizon=0``:
    the index trace for replay and shrinking, not the per-step runnable
    sets the systematic explorer records) wraps it as the fallback.

    * **Hunting** (``hunting=True``, the campaigns of cells that expect
      a violation and stop at the first): the run is recorded as it goes,
      so a find carries its decision trace without being executed a
      second time. The few clean runs before the find pay the
      recording.
    * **Certifying** (the default): the run is bare — recording is pure
      per-step overhead on the clean runs that dominate such a
      campaign — and only an unexpected violation is re-executed, once,
      under the recording wrapper to capture its trace.
    """
    scheduler = fuzz_scheduler(seed)
    tracer = (
        TraceScheduler(prefix=(), fallback=scheduler, horizon=0)
        if hunting
        else None
    )
    built = scenario.build(tracer or scheduler, ctx=ctx)
    try:
        try:
            built.drive()
        except StepLimitExceeded:
            return None, built.system.clock, False
        reason = built.check()
        steps = built.system.clock
    finally:
        # Reclaimable by reference counting while the campaign loop
        # holds the cyclic collector paused.
        built.system.release_coroutines()
    if reason is None:
        return None, steps, True
    if tracer is None:
        tracer = TraceScheduler(
            prefix=(), fallback=fuzz_scheduler(seed), horizon=0
        )
        replay = scenario.build(tracer, ctx=ctx)
        try:
            replay.drive()
        finally:
            replay.system.release_coroutines()
    violation = Violation(
        scenario=scenario.label(),
        reason=reason,
        trace=tuple(tracer.trace),
        schedule=scheduler.describe(),
        seed=seed,
    )
    return violation, steps, True


def fuzz(
    scenarios: Sequence[Scenario] | Scenario,
    budget: int = 400,
    seed0: int = 0,
    stop_on_violation: bool = False,
) -> FuzzReport:
    """Run a swarm campaign of ``budget`` seeded runs over ``scenarios``.

    Run ``i`` pairs seed ``seed0 + i`` with a scenario drawn round-robin
    from ``scenarios``. ``stop_on_violation`` ends the campaign after
    the first violating run, and makes it hunt (see
    :func:`run_one_fuzz`). The runs share one :class:`CheckContext`, so
    the oracle layer's memo tables persist across the campaign. A
    ``budget`` below 1 raises ``ValueError``: "no violations in 0 runs"
    would certify work never done.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("fuzz needs at least one scenario")
    ctx = CheckContext()
    report = FuzzReport(scenarios=[scenario.label() for scenario in scenarios])
    started = time.perf_counter()
    # Same rationale as repro.explore.explorer.paused_gc: a campaign
    # churns one short-lived system per run, and pausing the cyclic
    # collector for its drain is a measurable win.
    with paused_gc():
        for index in range(budget):
            try:
                violation, steps, completed = run_one_fuzz(
                    scenarios[index % len(scenarios)],
                    seed0 + index,
                    ctx=ctx,
                    hunting=stop_on_violation,
                )
            except SchedulerError:
                continue
            report.runs += 1
            report.steps += steps
            if not completed:
                report.incomplete += 1
            if violation is not None:
                key = violation.fingerprint()
                count = report.violation_counts.get(key, 0) + 1
                report.violation_counts[key] = count
                if count == 1:
                    report.violations.append(violation)
                if stop_on_violation:
                    break
    report.elapsed = time.perf_counter() - started
    return report
