"""Integration tests for Algorithm 3 — the sticky register.

Covers Definition 21's write-once semantics, the blocking Write of
Section 9.1, uniqueness under an equivocating Byzantine writer (the
register's whole point), lying witnesses, and Byzantine linearizability.
"""

from __future__ import annotations

import pytest

from repro.adversary import behaviors
from repro.core import StickyRegister
from repro.scenarios import binding_for
from repro.sim import BOTTOM, RandomScheduler, System
from repro.sim.values import is_bottom
from repro.spec import judge
from repro.spec.judge import restrict
from tests.conftest import run_clients, spawn_script

#: The family's spec and rules, from the binding its campaign runs are judged by.
BINDING = binding_for("sticky")
SPEC, RULES = BINDING.spec_factory(), BINDING.rules


def build(system, **kwargs) -> StickyRegister:
    register = StickyRegister(system, "s", **kwargs)
    register.install()
    return register


class TestHappyPath:
    def test_read_before_any_write(self, system4):
        register = build(system4)
        register.start_helpers()
        reader = spawn_script(system4, register, 2, [("read", ())])
        run_clients(system4, [reader])
        assert is_bottom(reader.result_of("read"))

    def test_write_then_read(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(system4, register, 1, [("write", ("A",))])
        reader = spawn_script(system4, register, 2, [("read", ())], delay=120)
        run_clients(system4, [writer, reader])
        assert writer.result_of("write") == "done"
        assert reader.result_of("read") == "A"

    def test_read_after_completed_write_never_bottom(self, system4):
        # Section 9.1: the writer waits for n - f witnesses exactly so
        # this guarantee holds.
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(system4, register, 1, [("write", ("A",))])
        run_clients(system4, [writer])
        reader = spawn_script(system4, register, 3, [("read", ())])
        run_clients(system4, [reader])
        assert reader.result_of("read") == "A"

    def test_second_write_is_noop(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(
            system4, register, 1, [("write", ("A",)), ("write", ("B",))]
        )
        reader = spawn_script(
            system4, register, 2, [("read", ()), ("read", ())], delay=200
        )
        run_clients(system4, [writer, reader])
        assert writer.result_of("write", 1) == "done"  # returns done, changes nothing
        assert reader.result_of("read", 0) == "A"
        assert reader.result_of("read", 1) == "A"

    def test_bottom_not_writable(self, system4):
        register = build(system4)
        with pytest.raises(ValueError):
            next(register.procedure_write(1, BOTTOM))

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_all_readers_agree(self, n):
        system = System(n=n)
        register = build(system)
        register.start_helpers()
        writer = spawn_script(system, register, 1, [("write", ("X",))])
        readers = [
            spawn_script(system, register, pid, [("read", ())], delay=60)
            for pid in range(2, n + 1)
        ]
        run_clients(system, [writer, *readers])
        assert all(r.result_of("read") == "X" for r in readers)


class TestEquivocatingWriter:
    """The central attack: the Byzantine writer flips E1 between values."""

    def run_equivocation(self, seed: int, n: int = 4):
        system = System(n=n, scheduler=RandomScheduler(seed=seed))
        register = StickyRegister(system, "s")
        register.install()
        system.declare_byzantine(1)
        register.start_helpers(sorted(system.correct))
        system.spawn(
            1,
            "client",
            behaviors.equivocating_writer_sticky(register, "A", "B", flip_after=35),
        )
        readers = [
            spawn_script(
                system, register, pid, [("read", ()), ("read", ())], delay=40 * pid
            )
            for pid in range(2, n + 1)
        ]
        run_clients(system, readers, max_steps=3_000_000)
        return system, readers

    @pytest.mark.parametrize("seed", list(range(6)))
    def test_uniqueness(self, seed):
        system, readers = self.run_equivocation(seed)
        values = {
            result
            for reader in readers
            for (_op, _a, result) in reader.results
            if not is_bottom(result)
        }
        assert len(values) <= 1, f"correct readers saw {values}"
        report = RULES.properties(
            *restrict(system.history, system.correct, "s", SPEC, 1)
        )
        assert report.ok, report.summary()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byzantine_linearizable(self, seed):
        system, _ = self.run_equivocation(seed)
        reason = judge(system.history, system.correct, "s", SPEC, RULES, owner=1)
        assert reason is None, reason

    @pytest.mark.parametrize("seed", [0, 1])
    def test_uniqueness_at_f2(self, seed):
        system, readers = self.run_equivocation(seed, n=7)
        values = {
            result
            for reader in readers
            for (_op, _a, result) in reader.results
            if not is_bottom(result)
        }
        assert len(values) <= 1


class TestByzantineWitnesses:
    def test_lying_witness_cannot_fabricate(self, system4):
        register = build(system4)
        system4.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system4.spawn(
            4, "client", behaviors.sticky_lying_witness(register, 4, "FAKE")
        )
        reader = spawn_script(system4, register, 2, [("read", ())], delay=60)
        run_clients(system4, [reader])
        assert is_bottom(reader.result_of("read"))

    def test_lying_witness_with_real_write(self, system4):
        register = build(system4)
        system4.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system4.spawn(
            4, "client", behaviors.sticky_lying_witness(register, 4, "FAKE")
        )
        writer = spawn_script(system4, register, 1, [("write", ("REAL",))])
        reader = spawn_script(system4, register, 3, [("read", ())], delay=250)
        run_clients(system4, [writer, reader])
        assert reader.result_of("read") == "REAL"

    def test_silent_witnesses_tolerated(self, system4):
        register = build(system4)
        system4.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system4.spawn(4, "client", behaviors.silent())
        writer = spawn_script(system4, register, 1, [("write", ("A",))])
        reader = spawn_script(system4, register, 2, [("read", ())], delay=150)
        run_clients(system4, [writer, reader])
        assert writer.result_of("write") == "done"
        assert reader.result_of("read") == "A"


class TestConcurrency:
    @pytest.mark.parametrize("seed", list(range(4)))
    def test_concurrent_write_and_reads(self, seed):
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        register = build(system)
        register.start_helpers()
        writer = spawn_script(system, register, 1, [("write", ("V",))])
        readers = [
            spawn_script(
                system, register, pid, [("read", ()), ("read", ())],
                delay=7 * pid,
            )
            for pid in (2, 3, 4)
        ]
        run_clients(system, [writer, *readers])
        reason = judge(system.history, system.correct, "s", SPEC, RULES, owner=1)
        assert reason is None, reason
        # A read concurrent with the write may see ⊥ or V, but never
        # ⊥ *after* V (uniqueness), which the judge already covers;
        # additionally all non-⊥ values must equal V.
        for reader in readers:
            for (_op, _a, result) in reader.results:
                assert is_bottom(result) or result == "V"
