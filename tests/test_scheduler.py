"""Unit tests for schedulers (repro.sim.scheduler)."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.scenarios import make_scenario
from repro.sim.scheduler import (
    PriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    TraceScheduler,
)
from repro.explore.fuzzer import SWARM_WEIGHTS, SwarmScheduler, fuzz_scheduler

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
            # C, B, B, A, C over the first five (all-runnable) steps.
            lambda: TraceScheduler(prefix=(2, 1, 1, 0, 2)),
        ],
        ids=["round-robin", "warm-round-robin", "random", "swarm", "trace"],
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


class _ScanReference:
    """The fair schedulers as a per-step scan, kept as the reference.

    Every pick reads every runnable coroutine's last-ran clock; a
    coroutine starved for ``bound`` steps is forced, the first minimal
    one in runnable order; otherwise ``draw`` picks. The O(1)
    schedulers must make the same pick and the same rng draws.
    """

    def __init__(self, seed, bound, weights=None, swarm=False):
        self.rng = random.Random(seed)
        self.bound = bound
        self.weights = None if weights is None else dict(weights)
        self.swarm = swarm
        self.last_ran = {}

    def select_index(self, runnable, clock):
        members = list(runnable)
        if self.swarm:
            for cid in members:
                if cid not in self.weights:
                    self.weights[cid] = self.rng.choice(SWARM_WEIGHTS)
        vals = [self.last_ran.get(cid, 0) for cid in members]
        starving = vals.index(min(vals))
        if clock - vals[starving] >= self.bound:
            pick = members[starving]
        elif self.weights is None:
            pick = self.rng.choice(members)
        else:
            weights = [self.weights.get(cid, 1.0) for cid in members]
            pick = self.rng.choices(members, weights=weights)[0]
        self.last_ran[pick] = clock
        return members.index(pick)


_UNIVERSE = tuple((pid, role) for pid in range(1, 6) for role in ("client", "help"))


@st.composite
def _steps(draw):
    """``(runnable, clock)`` per step, shaped like the kernel's calls.

    Each epoch holds one membership for a while. A ``fresh`` epoch hands
    out one new tuple reused object for object, ``reuse`` hands back an
    earlier epoch's tuple object, and ``list`` a new list every step.
    Clocks start at 0 or later and rise by the epoch's stride.
    """
    clock = draw(st.sampled_from([0, 0, 1, 50]))
    tuples = []
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["fresh", "fresh", "reuse", "list"]))
        length = draw(st.integers(1, 40))
        stride = draw(st.sampled_from([1, 1, 2, 7]))
        if kind == "reuse" and tuples:
            runnable = draw(st.sampled_from(tuples))
        else:
            members = draw(st.lists(st.sampled_from(_UNIVERSE), min_size=1, unique=True))
            runnable = tuple(sorted(members))
            tuples.append(runnable)
        for _ in range(length):
            steps.append((list(runnable) if kind == "list" else runnable, clock))
            clock += stride
    return steps


_BOUNDS = st.one_of(st.integers(1, 6), st.sampled_from([12, 512, 2048]))
_WEIGHTS = st.dictionaries(
    st.sampled_from(_UNIVERSE), st.sampled_from([0.01, 0.5, 1.0, 3.0, 100.0])
)


def _assert_same_picks(scheduler, reference, steps):
    picks = [scheduler.select_index(runnable, clock) for runnable, clock in steps]
    expected = [reference.select_index(runnable, clock) for runnable, clock in steps]
    assert picks == expected
    assert scheduler._rng.getstate() == reference.rng.getstate()


class TestFairPickDifferential:
    """The O(1) fair schedulers against the per-step scan they replace."""

    @settings(max_examples=150, deadline=None)
    @given(steps=_steps(), seed=st.integers(0, 2**16), bound=_BOUNDS)
    def test_random_matches_the_scan(self, steps, seed, bound):
        _assert_same_picks(
            RandomScheduler(seed=seed, fairness_bound=bound),
            _ScanReference(seed, bound),
            steps,
        )

    @settings(max_examples=150, deadline=None)
    @given(steps=_steps(), seed=st.integers(0, 2**16), bound=_BOUNDS, weights=_WEIGHTS)
    def test_priority_matches_the_scan(self, steps, seed, bound, weights):
        _assert_same_picks(
            PriorityScheduler(weights, seed=seed, fairness_bound=bound),
            _ScanReference(seed, bound, weights=weights),
            steps,
        )

    @settings(max_examples=150, deadline=None)
    @given(steps=_steps(), seed=st.integers(0, 2**16), bound=_BOUNDS)
    def test_swarm_matches_the_scan(self, steps, seed, bound):
        _assert_same_picks(
            SwarmScheduler(seed=seed, fairness_bound=bound),
            _ScanReference(seed, bound, weights={}, swarm=True),
            steps,
        )

    @settings(max_examples=100, deadline=None)
    @given(
        members=st.lists(st.sampled_from(_UNIVERSE), min_size=1, unique=True),
        clocks=st.lists(st.integers(0, 60), min_size=1, max_size=80),
        seed=st.integers(0, 2**16),
        bound=_BOUNDS,
    )
    def test_a_list_runnable_takes_any_clock(self, members, clocks, seed, bound):
        # A non-tuple runnable rebuilds the state on every call, so even
        # clocks that go back match the scan.
        steps = [(sorted(members), clock) for clock in clocks]
        _assert_same_picks(
            RandomScheduler(seed=seed, fairness_bound=bound),
            _ScanReference(seed, bound),
            steps,
        )


#: sha256 of the comma-joined decision trace of one seeded swarm run,
#: per (cell, fuzz seed): seed 0 draws a RandomScheduler, seed 1 a
#: SwarmScheduler. Any change to a pick, a draw or the kernel's
#: runnable order moves these.
_PINNED_TRACES = {
    ("asset_transfer", 0): (30665, "6a4a7efa584167b206f4407e2afff5a0511cbe60456ead2ff09f4023f84cbc0a"),
    ("asset_transfer", 1): (30488, "9c2b179b0aea080825e6f28e58f4b43ef3cb7296f1bf69fc61b3cfbcca58e194"),
    ("verifiable", 0): (1597, "3ba55b15e077bd0f86e3ea0eb2b72553ef86a4d02ca7b1795c2bc61773f08681"),
    ("verifiable", 1): (1625, "67ff2e9eff1beee3d8e9e7381736ff514f6ee3077f45ec7352765b332345fc94"),
}

_PINNED_CELLS = {
    "asset_transfer": lambda: make_scenario(
        "asset_transfer", byzantine=((4, "equivocate"),), f=1, n=4, seed=0
    ),
    "verifiable": lambda: make_scenario(
        "register",
        kind="verifiable",
        n=4,
        reader_adversaries=(),
        seed=0,
        writer_adversary="deny",
    ),
}


@pytest.mark.parametrize("cell, seed", sorted(_PINNED_TRACES))
def test_swarm_decision_trace_is_pinned(cell, seed):
    tracer = TraceScheduler(fallback=fuzz_scheduler(seed), horizon=0)
    _PINNED_CELLS[cell]().build(tracer).drive()
    digest = hashlib.sha256(",".join(map(str, tracer.trace)).encode()).hexdigest()
    assert (len(tracer.trace), digest) == _PINNED_TRACES[(cell, seed)]
