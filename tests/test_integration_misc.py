"""Cross-cutting integration tests: crashes mid-operation, coexisting
register instances, incomplete operations through the judge, and
register accesses seen through the ``on_step`` observer."""

from __future__ import annotations

import pytest

from repro.core import AuthenticatedRegister, StickyRegister, VerifiableRegister
from repro.scenarios import binding_for
from repro.sim import RandomScheduler, ReadRegister, System, WriteRegister
from repro.spec import judge
from tests.conftest import run_clients, spawn_script


def judge_family(family, system, obj):
    """The judge's reason for ``obj`` under ``family``'s binding (writer 1)."""
    binding = binding_for(family)
    return judge(
        system.history, system.correct, obj, binding.spec_factory(), binding.rules,
        owner=1,
    )


class TestCrashMidOperation:
    def test_reader_crash_leaves_incomplete_op(self):
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        register.start_helpers()
        writer = spawn_script(system, register, 1, [("write", (5,)), ("sign", (5,))])
        run_clients(system, [writer])
        # Reader 2 starts a verify, then crashes mid-flight.
        crasher = spawn_script(system, register, 2, [("verify", (5,))])
        system.run(25)
        system.despawn((2, "client"))
        incomplete = [r for r in system.history.all() if not r.complete]
        assert len(incomplete) == 1
        assert incomplete[0].op == "verify"
        # The remaining correct reader is unaffected.
        reader = spawn_script(system, register, 3, [("verify", (5,))])
        run_clients(system, [reader])
        assert reader.result_of("verify") is True

    def test_checker_handles_incomplete_operations(self):
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        register.start_helpers()
        writer = spawn_script(system, register, 1, [("write", (5,)), ("sign", (5,))])
        run_clients(system, [writer])
        crasher = spawn_script(system, register, 2, [("verify", (5,))])
        system.run(25)
        system.despawn((2, "client"))
        reader = spawn_script(system, register, 3, [("verify", (5,))])
        run_clients(system, [reader])
        reason = judge_family("verifiable", system, "v")
        assert reason is None, reason

    def test_checker_handles_incomplete_with_byzantine_writer(self):
        # The Definition 78 construction must tolerate a crashed
        # reader's pending operation in H|correct.
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        system.declare_byzantine(1)
        register.start_helpers(sorted(system.correct))
        from repro.adversary import behaviors

        system.spawn(
            1, "client", behaviors.denying_writer_verifiable(register, 7, 200)
        )
        crasher = spawn_script(system, register, 2, [("verify", (7,))], delay=40)
        system.run(90)
        system.despawn((2, "client"))
        reader = spawn_script(system, register, 3, [("verify", (7,))], delay=100)
        run_clients(system, [reader])
        reason = judge_family("verifiable", system, "v")
        assert reason is None, reason


class TestCoexistingInstances:
    def test_three_register_kinds_in_one_system(self):
        system = System(n=4, scheduler=RandomScheduler(seed=3))
        vreg = VerifiableRegister(system, "v", initial=0)
        areg = AuthenticatedRegister(system, "a", initial=0)
        sreg = StickyRegister(system, "s")
        for register in (vreg, areg, sreg):
            register.install()
            register.start_helpers()

        writer = spawn_script(system, vreg, 1, [("write", (1,)), ("sign", (1,))])
        writer2 = spawn_script(
            system, areg, 1, [("write", (2,))], role="client-a"
        )
        writer3 = spawn_script(
            system, sreg, 1, [("write", (3,))], role="client-s"
        )
        readers = [
            spawn_script(system, vreg, 2, [("verify", (1,))], delay=50),
            spawn_script(system, areg, 3, [("read", ())], delay=50, role="r-a"),
            spawn_script(system, sreg, 4, [("read", ())], delay=150, role="r-s"),
        ]
        run_clients(system, [writer, writer2, writer3, *readers])
        assert readers[0].result_of("verify") is True
        assert readers[1].result_of("read") == 2
        assert readers[2].result_of("read") == 3

        # Each object's history checks independently.
        assert judge_family("verifiable", system, "v") is None
        assert judge_family("authenticated", system, "a") is None
        assert judge_family("sticky", system, "s") is None

    def test_two_instances_same_kind_isolated(self):
        system = System(n=4)
        first = VerifiableRegister(system, "first", initial=0)
        second = VerifiableRegister(system, "second", initial=0)
        first.install()
        second.install()
        first.start_helpers()
        second.start_helpers()
        w1 = spawn_script(system, first, 1, [("write", (11,)), ("sign", (11,))])
        w2 = spawn_script(
            system, second, 1, [("write", (22,))], role="client-2"
        )
        reader = spawn_script(
            system, first, 2, [("verify", (11,)), ("verify", (22,))], delay=60
        )
        reader2 = spawn_script(
            system, second, 3, [("read", ())], delay=60, role="r-2"
        )
        run_clients(system, [w1, w2, reader, reader2])
        assert reader.result_of("verify", 0) is True
        assert reader.result_of("verify", 1) is False  # no bleed-through
        assert reader2.result_of("read") == 22


class TestInstrumentation:
    def test_access_log_records_full_trace(self):
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        register.start_helpers()
        writer = spawn_script(system, register, 1, [("write", (5,))])
        log = []
        system.on_step = lambda _cid, effect: log.append((system.clock, effect))
        run_clients(system, [writer])
        assert any(
            isinstance(effect, WriteRegister)
            and effect.register == register.reg_star()
            for _, effect in log
        )
        # One entry per step, each stamped within the run's clock span.
        times = [time for time, _ in log]
        assert times == sorted(set(times))
        assert all(0 < time <= system.clock for time in times)

    def test_register_level_counters(self):
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        register.start_helpers()
        writer = spawn_script(system, register, 1, [("write", (5,))])
        reader = spawn_script(system, register, 2, [("read", ())], delay=20)
        touched = []
        system.on_step = lambda cid, effect: touched.append(
            (type(effect), getattr(effect, "register", None))
        )
        run_clients(system, [writer, reader])
        star = register.reg_star()
        assert touched.count((WriteRegister, star)) == 1
        assert (ReadRegister, star) in touched


class TestFZeroSystems:
    """n = 3, f = 0: the algorithms degenerate gracefully."""

    def test_verifiable_without_faults(self):
        system = System(n=3, f=0)
        register = VerifiableRegister(system, "v", initial=0, f=0)
        register.install()
        register.start_helpers()
        writer = spawn_script(system, register, 1, [("write", (9,)), ("sign", (9,))])
        reader = spawn_script(
            system, register, 2, [("verify", (9,)), ("read", ())], delay=30
        )
        run_clients(system, [writer, reader])
        assert reader.result_of("verify") is True
        assert reader.result_of("read") == 9

    def test_sticky_without_faults(self):
        system = System(n=3, f=0)
        register = StickyRegister(system, "s", f=0)
        register.install()
        register.start_helpers()
        writer = spawn_script(system, register, 1, [("write", ("x",))])
        reader = spawn_script(system, register, 3, [("read", ())], delay=60)
        run_clients(system, [writer, reader])
        assert reader.result_of("read") == "x"
