"""Incremental-vs-full fingerprint oracle (ISSUE 3, piece 1).

``System.fingerprint()`` recombines cached per-component digests and
only re-hashes what the last step touched; ``fingerprint(full=True)``
recomputes everything from scratch. The explorer's memo table trusts
the incremental path, so these tests hold the two paths equal after
*arbitrary* effect sequences — register writes, sends, broadcasts,
mailbox drains, invokes/responds, pauses, awaits (park and wake),
spawns mid-run, despawns,
and the out-of-band ``deliver`` the network layer uses.

The main property is a seeded exhaustive loop (not hypothesis) so the
count is explicit: ``N_SEQUENCES`` randomized sequences, every step
checked. A hypothesis property layers generator-shape randomness on
top, and targeted unit tests pin each component's dirty-tracking hooks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import System
from repro.sim.effects import (
    Await,
    Broadcast,
    Invoke,
    Pause,
    ReadRegister,
    ReceiveAll,
    Respond,
    Send,
    WriteRegister,
)
from repro.sim.registers import swmr
from repro.sim.scheduler import RandomScheduler
from tests.conftest import count_steps

#: Randomized sequences checked by the main property (the acceptance
#: bar for trusting the incremental path in the explorer's memo table).
N_SEQUENCES = 1000
#: Steps per sequence: enough to mix every effect kind and hit spawn /
#: despawn / deliver / reset events, small enough to stay fast.
N_STEPS = 24


def _random_program(rng: random.Random, system: System, pid: int, n: int):
    """A generator yielding a random effect stream for process ``pid``.

    Invoke/Respond pairs are kept well-formed (a response needs a real
    op id); everything else is fair game, including values that freeze
    into tuples and frozensets.
    """

    def values():
        return rng.choice(
            [
                0,
                1,
                rng.randrange(100),
                "x" * rng.randrange(3),
                (1, rng.randrange(5)),
                frozenset({rng.randrange(4)}),
                None,
            ]
        )

    def program():
        open_ops = []
        for _ in range(200):
            kind = rng.randrange(10)
            if kind <= 2:
                yield ReadRegister(f"r/{rng.randrange(n) + 1}")
            elif kind <= 4:
                yield WriteRegister(f"r/{pid}", values())
            elif kind == 5:
                yield Send(to=rng.randrange(n) + 1, payload=values())
            elif kind == 6:
                yield Broadcast(payload=values())
            elif kind == 7:
                yield ReceiveAll()
            elif kind == 8:
                if open_ops and rng.random() < 0.6:
                    yield Respond(op_id=open_ops.pop(), result=values())
                else:
                    op_id = yield Invoke(
                        obj="obj", op="op", args=(values(),)
                    )
                    open_ops.append(op_id)
            else:
                if rng.random() < 0.2:
                    name = f"r/{rng.randrange(n) + 1}"
                    yield Await(((name, (yield ReadRegister(name))),))
                else:
                    yield Pause()

    return program()


def _build_random_system(seed: int) -> tuple:
    rng = random.Random(seed)
    n = rng.randrange(2, 5)
    system = System(n=n, scheduler=RandomScheduler(seed=seed))
    for pid in system.pids:
        system.install_register(swmr(f"r/{pid}", pid, initial=0))
        system.spawn(pid, "w", _random_program(rng, system, pid, n))
    return rng, system


def _assert_paths_agree(system: System, context: str) -> None:
    incremental = system.fingerprint()
    oracle = system.fingerprint(full=True)
    assert incremental == oracle, (
        f"incremental fingerprint diverged from full recompute {context}"
    )


class TestIncrementalEqualsFull:
    def test_randomized_sequences(self):
        """The acceptance property: >= N_SEQUENCES random sequences."""
        checked = 0
        for seed in range(N_SEQUENCES):
            rng, system = _build_random_system(seed)
            _assert_paths_agree(system, f"before any step (seed {seed})")
            for step_index in range(N_STEPS):
                # Out-of-band mutations the kernel does not execute as
                # effects but must still dirty-track.
                roll = rng.random()
                if roll < 0.05:
                    system.deliver(
                        rng.randrange(system.n) + 1,
                        rng.randrange(system.n) + 1,
                        ("oob", step_index),
                    )
                elif roll < 0.10:
                    pid = rng.randrange(system.n) + 1
                    if (pid, "late") not in system._coroutines:
                        system.spawn(
                            pid,
                            "late",
                            _random_program(rng, system, pid, system.n),
                        )
                elif roll < 0.12:
                    live = sorted(system._coroutines)
                    if live:
                        system.despawn(rng.choice(live))
                if not system.step():
                    break
                _assert_paths_agree(
                    system, f"at step {step_index} (seed {seed})"
                )
                checked += 1
        assert checked >= N_SEQUENCES * 10  # sanity: the loop really ran

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_randomized_sequences_hypothesis(self, seed):
        _, system = _build_random_system(seed)
        for _ in range(N_STEPS):
            if not system.step():
                break
            _assert_paths_agree(system, f"(hypothesis seed {seed})")

    def test_identical_runs_fingerprint_identically(self):
        """Cross-instance determinism: equal abstract states, equal digests."""
        a = _build_random_system(7)[1]
        b = _build_random_system(7)[1]
        for _ in range(N_STEPS):
            ran_a, ran_b = a.step(), b.step()
            assert ran_a == ran_b
            if not ran_a:
                break
            assert a.fingerprint() == b.fingerprint()
            assert a.fingerprint(full=True) == b.fingerprint(full=True)


class TestDirtyTrackingHooks:
    """Each mutation path must invalidate exactly its component."""

    def _system(self) -> System:
        system = System(n=2)
        system.install_register(swmr("r/1", 1, initial=0))
        return system

    def test_register_write_changes_fingerprint(self):
        system = self._system()
        before = system.fingerprint()
        system.registers.write(1, "r/1", 41)
        after = system.fingerprint()
        assert before != after
        assert after == system.fingerprint(full=True)

    def test_register_install_changes_fingerprint(self):
        system = self._system()
        before = system.fingerprint()
        system.install_register(swmr("r/2", 2, initial=0))
        after = system.fingerprint()
        assert before != after
        assert after == system.fingerprint(full=True)

    def test_history_events_refold(self):
        system = self._system()
        system.fingerprint()
        op_id = system.history.record_invocation(1, "o", "op", (), time=1)
        assert system.fingerprint() == system.fingerprint(full=True)
        system.history.record_response(op_id, "res", time=2)
        assert system.fingerprint() == system.fingerprint(full=True)
        sub = system.history.restrict([1])
        assert sub.fingerprint_fold() == sub.fingerprint_fold(full=True)

    def test_deliver_and_drain_mailbox(self):
        system = self._system()
        base = system.fingerprint()
        system.deliver(1, 2, "payload")
        delivered = system.fingerprint()
        assert delivered != base
        assert delivered == system.fingerprint(full=True)

    def test_despawn_is_tracked(self):
        from repro.sim.process import pause_steps

        system = self._system()
        system.spawn(1, "c", pause_steps(3))
        with_coroutine = system.fingerprint()
        system.despawn((1, "c"))
        assert system.fingerprint() != with_coroutine
        assert system.fingerprint() == system.fingerprint(full=True)

    def test_park_and_wake_are_tracked(self):
        system = self._system()
        system.install_register(swmr("r/2", 2, initial=0))

        def watcher():
            yield Await((("r/2", (yield ReadRegister("r/2"))),))
            yield Pause()

        def writer():
            yield Pause()
            yield Pause()
            yield WriteRegister("r/2", 1)

        system.spawn(1, "w", watcher())
        system.spawn(2, "c", writer())
        steps = count_steps(system)
        prints = []
        for _ in range(6):
            system.step()
            prints.append(system.fingerprint())
            assert prints[-1] == system.fingerprint(full=True)
        # w: read, park; c: pause, pause, write (wakes w); w: pause.
        assert steps[(1, "w")] == 3

    def test_the_parked_flag_is_part_of_the_state(self):
        system = self._system()

        def watcher():
            yield Await((("r/1", (yield ReadRegister("r/1"))),))

        system.spawn(2, "w", watcher())
        system.run(2)
        assert system.runnable() == ()
        parked = system.fingerprint(full=True)
        system._coroutines[(2, "w")].parked = False
        assert system.fingerprint(full=True) != parked

    def test_release_coroutines_resets_the_fold(self):
        from repro.sim.process import pause_steps

        system = self._system()
        system.spawn(1, "c", pause_steps(3))
        system.step()
        system.fingerprint()
        system.release_coroutines()
        assert system.fingerprint() == system.fingerprint(full=True)
        # A released system that spawns again must stay consistent too.
        system.spawn(1, "again", pause_steps(2))
        system.step()
        assert system.fingerprint() == system.fingerprint(full=True)

    def test_clock_is_excluded(self):
        # Same abstract state at different virtual times must merge —
        # the explorer counts on commuting interleavings reconverging.
        from repro.sim.process import pause_steps

        a, b = self._system(), self._system()
        a.spawn(1, "c", pause_steps(5))
        b.spawn(1, "c", pause_steps(5))
        a.step()
        b.step()
        b.clock += 7
        assert a.fingerprint() == b.fingerprint()
