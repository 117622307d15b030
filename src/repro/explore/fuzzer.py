"""Swarm schedule fuzzing: seeded random/priority campaigns across cores.

Where the systematic explorer drains a *bounded* tree, the swarm fuzzer
samples the *unbounded* schedule space: every run draws a fresh
scheduler — uniform random or swarm-priority (each coroutine gets a
random weight, so whole coroutines run slow or fast for the entire run,
the "swarm verification" trick that reaches starvation-shaped bugs
uniform sampling rarely hits) — wrapped in a
:class:`repro.sim.TraceScheduler` so any violating run is immediately
replayable and shrinkable from its decision trace.

Campaigns shard across cores with :mod:`multiprocessing`; each shard is
a deterministic function of its seed list, so a campaign's findings are
reproducible regardless of sharding, and violations are deduplicated by
:meth:`repro.scenarios.Violation.fingerprint` when shards
report back. Throughput (runs/sec, aggregate and per shard) is part of
the report.

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

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError, StepLimitExceeded
from repro.sim.scheduler import (
    CoroutineId,
    PriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    TraceScheduler,
)
from repro.scenarios.registry import Scenario, Violation

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
class ShardResult:
    """What one worker (or the inline runner) reports back."""

    shard: int
    runs: int = 0
    steps: int = 0
    incomplete: int = 0
    elapsed: float = 0.0
    violations: List[Violation] = field(default_factory=list)


@dataclass
class FuzzReport:
    """Aggregated outcome of one swarm campaign."""

    scenarios: List[str]
    shards: int
    runs: int = 0
    steps: int = 0
    incomplete: int = 0
    elapsed: float = 0.0
    violations: List[Violation] = field(default_factory=list)
    violation_counts: Dict[str, int] = field(default_factory=dict)
    shard_results: List[ShardResult] = field(default_factory=list)

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
            f"{self.runs} runs across {self.shards} shard(s); "
            f"{self.runs_per_sec:.0f} runs/s, {self.steps_per_sec:.0f} steps/s"
            + (f", {self.incomplete} incomplete" if self.incomplete else "")
        )


def run_one_fuzz(
    scenario: Scenario,
    seed: int,
    ctx=None,
    early_exit: bool = False,
) -> Tuple[Optional[Violation], int, bool]:
    """Execute one fuzzing run; returns (violation, steps, completed).

    The first execution runs under the bare seeded scheduler — no
    record/replay wrapper, which is pure per-step overhead on the clean
    runs that dominate every campaign. A run is perfectly reproducible
    from its seed, so when (and only when) the run violates, it is
    re-executed once under a :class:`TraceScheduler` (``horizon=0``: the
    fuzzer only needs the index trace for replay and shrinking, not the
    per-step runnable sets the systematic explorer records) to capture
    the replayable decision trace.
    """
    scheduler = fuzz_scheduler(seed)
    built = scenario.build(scheduler, ctx=ctx, early_exit=early_exit)
    try:
        try:
            built.drive()
        except StepLimitExceeded:
            return None, built.system.clock, False
        reason = built.check()
        steps = built.system.clock
    finally:
        # Reclaimable by reference counting while the shard loop holds
        # the cyclic collector paused.
        built.system.release_coroutines()
    if reason is None:
        return None, steps, True
    tracer = TraceScheduler(
        prefix=(), fallback=fuzz_scheduler(seed), horizon=0
    )
    replay = scenario.build(tracer, ctx=ctx, early_exit=early_exit)
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


def _run_shard(
    payload: Tuple[int, List[Tuple[Scenario, int]], bool],
    stop_on_violation: bool = False,
) -> ShardResult:
    """Worker entry point: run every (scenario, seed) job of one shard.

    Also used inline for single-shard campaigns, where
    ``stop_on_violation`` may short-circuit after the first hit
    (``Pool.map`` always calls with the default, so sharded campaigns
    drain their jobs). Each shard owns one :class:`CheckContext`, so the
    oracle layer's memo tables persist across every run of the shard —
    contexts never cross process boundaries.
    """
    shard, jobs, early_exit = payload
    from repro.spec.context import CheckContext

    ctx = CheckContext()
    result = ShardResult(shard=shard)
    started = time.perf_counter()
    # Same rationale as repro.explore.explorer.paused_gc: a fuzzing
    # shard churns one short-lived system per run, and pausing the
    # cyclic collector for the shard's drain is a measurable win.
    from repro.explore.explorer import paused_gc

    with paused_gc():
        for scenario, seed in jobs:
            try:
                violation, steps, completed = run_one_fuzz(
                    scenario, seed, ctx=ctx, early_exit=early_exit
                )
            except SchedulerError:
                continue
            result.runs += 1
            result.steps += steps
            if not completed:
                result.incomplete += 1
            if violation is not None:
                result.violations.append(violation)
                if stop_on_violation:
                    break
    result.elapsed = time.perf_counter() - started
    return result


def default_shards() -> int:
    """Shard count when unspecified: one per core, capped at 4."""
    return max(1, min(4, os.cpu_count() or 1))


def pool_context():
    """The multiprocessing context every exploration pool uses.

    Fork is preferred where available (scenarios close over in-process
    registries, and fork start-up is what makes short campaigns cheap);
    one helper so platform fixes apply to the fuzzer and the campaign
    service alike.
    """
    import multiprocessing

    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )


def fuzz(
    scenarios: Sequence[Scenario] | Scenario,
    budget: int = 400,
    shards: Optional[int] = None,
    seed0: int = 0,
    stop_on_violation: bool = False,
    early_exit: bool = False,
) -> FuzzReport:
    """Run a swarm campaign of ``budget`` seeded runs over ``scenarios``.

    Jobs pair each run's seed (``seed0 + i``) with a scenario drawn
    round-robin from ``scenarios``, then split across ``shards``
    processes (inline when 1). Every job is deterministic, so the
    campaign's findings do not depend on the sharding; only throughput
    does. ``stop_on_violation`` short-circuits inline campaigns after
    the first violating run (sharded campaigns always drain their jobs).

    ``early_exit`` stops each run as soon as its partial history is
    irrecoverably violating; a violating run then reports the truncated
    history's violation, so keep it off when the exact horizon-history
    reason matters (the shrink/corpus pipeline does).
    """
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("fuzz needs at least one scenario")
    shard_count = default_shards() if shards is None else max(1, shards)
    shard_count = min(shard_count, max(1, budget))

    jobs = [
        (scenarios[i % len(scenarios)], seed0 + i) for i in range(budget)
    ]
    payloads = [
        (shard, jobs[shard::shard_count], early_exit)
        for shard in range(shard_count)
    ]

    started = time.perf_counter()
    if shard_count == 1:
        shard_results = [_run_shard(payloads[0], stop_on_violation)]
    else:
        with pool_context().Pool(processes=shard_count) as pool:
            shard_results = pool.map(_run_shard, payloads)
    elapsed = time.perf_counter() - started

    report = FuzzReport(
        scenarios=[scenario.label() for scenario in scenarios],
        shards=shard_count,
        elapsed=elapsed,
        shard_results=sorted(shard_results, key=lambda r: r.shard),
    )
    for result in report.shard_results:
        report.runs += result.runs
        report.steps += result.steps
        report.incomplete += result.incomplete
        for violation in result.violations:
            key = violation.fingerprint()
            count = report.violation_counts.get(key, 0) + 1
            report.violation_counts[key] = count
            if count == 1:
                report.violations.append(violation)
    return report
