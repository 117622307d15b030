"""Unit tests for schedulers (repro.sim.scheduler)."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.sim.scheduler import (
    PriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    TraceScheduler,
)
from repro.explore.fuzzer import SwarmScheduler

A, B, C = (1, "client"), (2, "client"), (2, "help")


class TestRoundRobin:
    def test_rotates_in_sorted_order(self):
        sched = RoundRobinScheduler()
        picks = [sched.select([A, B, C], clock=i) for i in range(6)]
        assert picks == [A, B, C, A, B, C]

    def test_skips_missing(self):
        sched = RoundRobinScheduler()
        assert sched.select([A, B, C], 0) == A
        assert sched.select([A, C], 1) == C  # B gone; next after A is C
        assert sched.select([A, C], 2) == A

    def test_fairness_over_window(self):
        sched = RoundRobinScheduler()
        counts = {A: 0, B: 0, C: 0}
        for clock in range(300):
            counts[sched.select([A, B, C], clock)] += 1
        assert counts == {A: 100, B: 100, C: 100}


class TestRandom:
    def test_deterministic_for_seed(self):
        picks1 = [RandomScheduler(seed=5).select([A, B, C], i) for i in range(1)]
        s1, s2 = RandomScheduler(seed=5), RandomScheduler(seed=5)
        run1 = [s1.select([A, B, C], i) for i in range(50)]
        run2 = [s2.select([A, B, C], i) for i in range(50)]
        assert run1 == run2

    def test_different_seeds_differ(self):
        s1, s2 = RandomScheduler(seed=1), RandomScheduler(seed=2)
        run1 = [s1.select([A, B, C], i) for i in range(50)]
        run2 = [s2.select([A, B, C], i) for i in range(50)]
        assert run1 != run2

    def test_starvation_bound_enforced(self):
        sched = RandomScheduler(seed=0, fairness_bound=10)
        last_ran = {A: 0, B: 0, C: 0}
        for clock in range(500):
            pick = sched.select([A, B, C], clock)
            # No coroutine may have waited more than bound + len steps.
            for cid, last in last_ran.items():
                assert clock - last <= 10 + 3
            last_ran[pick] = clock

    def test_invalid_bound(self):
        with pytest.raises(SchedulerError):
            RandomScheduler(fairness_bound=0)


class TestScripted:
    def test_follows_script(self):
        sched = ScriptedScheduler([B, B, A])
        assert sched.select([A, B], 0) == B
        assert sched.select([A, B], 1) == B
        assert sched.select([A, B], 2) == A

    def test_strict_raises_on_unavailable(self):
        sched = ScriptedScheduler([C], strict=True)
        with pytest.raises(SchedulerError):
            sched.select([A, B], 0)

    def test_lenient_skips(self):
        sched = ScriptedScheduler([C, B], strict=False)
        assert sched.select([A, B], 0) == B

    def test_fallback_after_exhaustion(self):
        sched = ScriptedScheduler([B])
        assert sched.select([A, B], 0) == B
        assert not sched.exhausted
        follow = [sched.select([A, B], i) for i in range(1, 5)]
        assert sched.exhausted
        assert set(follow) == {A, B}  # round-robin fallback covers both


class TestPriority:
    def test_bias_respected(self):
        sched = PriorityScheduler(weights={A: 100.0, B: 0.01}, seed=1)
        counts = {A: 0, B: 0}
        for clock in range(400):
            counts[sched.select([A, B], clock)] += 1
        assert counts[A] > counts[B] * 5

    def test_starved_coroutine_eventually_runs(self):
        sched = PriorityScheduler(
            weights={B: 1e-9}, seed=1, fairness_bound=50
        )
        picks = [sched.select([A, B], clock) for clock in range(200)]
        assert B in picks

    def test_invalid_weight(self):
        with pytest.raises(SchedulerError):
            PriorityScheduler(weights={A: 0.0})


def _warm_round_robin():
    scheduler = RoundRobinScheduler()
    for clock in range(2):
        scheduler.select_index((A, B, C), clock)
    return scheduler


#: One runnable tuple per step, reused object for object while
#: membership holds, as the kernel hands them out.
_ALL, _NO_B, _NO_A = (A, B, C), (A, C), (B, C)
_RUNNABLES = [_ALL] * 5 + [_NO_B] * 3 + [_ALL] * 4 + [_NO_A] * 2 + [_ALL] * 4


class TestTraceFallback:
    """Past an empty prefix, a trace records exactly its fallback's picks."""

    @pytest.mark.parametrize(
        "make",
        [
            RoundRobinScheduler,
            _warm_round_robin,
            lambda: RandomScheduler(seed=7, fairness_bound=3),
            lambda: SwarmScheduler(seed=5),
            lambda: ScriptedScheduler([C, B, B, A, C], strict=False),
        ],
        ids=["round-robin", "warm-round-robin", "random", "swarm", "scripted"],
    )
    def test_records_the_fallbacks_own_picks(self, make):
        alone = make()
        expected = [
            alone.select_index(runnable, clock)
            for clock, runnable in enumerate(_RUNNABLES)
        ]
        traced = TraceScheduler(fallback=make())
        picks = [
            traced.select_index(runnable, clock)
            for clock, runnable in enumerate(_RUNNABLES)
        ]
        assert picks == traced.trace == expected
        assert traced.runnables == _RUNNABLES
        assert len(set(expected)) > 1
