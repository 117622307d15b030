"""Tests for the adversary behaviour library (repro.adversary.behaviors)."""

from __future__ import annotations

import pytest

from repro.adversary import behaviors
from repro.core import (
    AuthenticatedRegister,
    StickyRegister,
    VerifiableRegister,
    as_reply_pair,
)
from repro.errors import OwnershipError
from repro.sim import System, WriteRegister
from repro.sim.values import is_bottom
from tests.conftest import count_steps, run_clients, spawn_script


class TestGenericBehaviors:
    def test_silent_takes_one_step_then_parks(self):
        system = System(n=2)
        cid = system.spawn(1, "c", behaviors.silent())
        assert system.run(50) == 1
        assert system.runnable() == ()
        assert system.metrics.writes == 0

    def test_crash_after(self):
        system = System(n=2)
        cid = system.spawn(1, "c", behaviors.crash_after(5))
        steps = count_steps(system)
        # Five pauses, then one step that parks it for good.
        assert system.run(50) == 6
        assert steps == {cid: 6}
        assert system.runnable() == ()

    def test_owned_register_names(self):
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        owned_by_writer = behaviors.owned_register_names(register, 1)
        assert register.reg_star() in owned_by_writer
        assert register.reg_witness(1) in owned_by_writer
        # Reply channels 1 -> k belong to 1.
        assert register.reg_reply(1, 2) in owned_by_writer
        # Nothing owned by others leaks in.
        assert register.reg_witness(2) not in owned_by_writer
        assert register.reg_counter(2) not in owned_by_writer

    def test_garbage_spammer_respects_ownership(self):
        # Spamming only owned registers must never trip the write port.
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        system.declare_byzantine(4)
        system.spawn(
            4,
            "client",
            behaviors.garbage_spammer(behaviors.owned_register_names(register, 4)),
        )
        system.run(2_000)  # would raise OwnershipError on any violation

    def test_garbage_spammer_on_foreign_register_raises(self):
        # Misconfigured attack scripts fail loudly — the simulator's
        # write port cannot be bypassed even by test code.
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        system.spawn(
            4, "client", behaviors.garbage_spammer([register.reg_witness(1)])
        )
        with pytest.raises(OwnershipError):
            system.run(100)


class TestAttackBehaviorsAreSurvivable:
    """Every packaged attack must leave correct processes functional."""

    @pytest.mark.parametrize(
        "attack",
        ["lying_witness", "stonewalling_witness", "flip_flop_witness"],
    )
    def test_verifiable_helper_attacks(self, attack):
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        system.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        if attack == "lying_witness":
            program = behaviors.lying_witness(register, 4, [777])
        elif attack == "stonewalling_witness":
            program = behaviors.stonewalling_witness([register], 4)
        else:
            program = behaviors.flip_flop_witness(register, 4, 777, yes_rounds=1)
        system.spawn(4, "client", program)
        writer = spawn_script(
            system, register, 1, [("write", (1,)), ("sign", (1,))]
        )
        reader = spawn_script(
            system, register, 2, [("verify", (1,)), ("verify", (777,))], delay=60
        )
        run_clients(system, [writer, reader])
        assert reader.result_of("verify", 0) is True
        assert reader.result_of("verify", 1) is False

    @pytest.mark.parametrize("kind", ["sticky", "authenticated"])
    def test_stonewalling_witness_survivable(self, kind):
        system = System(n=4)
        if kind == "sticky":
            register = StickyRegister(system, "s").install()
            ops, expected = [("write", ("GOOD",))], "GOOD"
        else:
            register = AuthenticatedRegister(system, "a", initial=0).install()
            ops, expected = [("write", (5,))], 5
        system.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system.spawn(4, "client", behaviors.stonewalling_witness([register], 4))
        writer = spawn_script(system, register, 1, ops)
        reader = spawn_script(system, register, 2, [("read", ())], delay=200)
        run_clients(system, [writer, reader])
        assert reader.result_of("read") == expected

    def test_sticky_lying_witness_survivable(self):
        system = System(n=4)
        register = StickyRegister(system, "s")
        register.install()
        system.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system.spawn(4, "client", behaviors.sticky_lying_witness(register, 4, "EVIL"))
        writer = spawn_script(system, register, 1, [("write", ("GOOD",))])
        reader = spawn_script(system, register, 2, [("read", ())], delay=200)
        run_clients(system, [writer, reader])
        assert reader.result_of("read") == "GOOD"


class TestWitnessReports:
    """The "nothing" report is ``⊥`` on sticky registers, ``{}`` elsewhere."""

    @pytest.mark.parametrize("kind", ["sticky", "verifiable"])
    def test_stonewaller_replies_no_witness(self, kind):
        system = System(n=4)
        if kind == "sticky":
            register = StickyRegister(system, "s").install()
        else:
            register = VerifiableRegister(system, "v", initial=0).install()
        system.declare_byzantine(4)
        system.spawn(4, "client", behaviors.stonewalling_witness([register], 4))
        system.run(10)
        assert system.metrics.writes >= 2  # one reply to each of p2, p3
        for k in (2, 3):
            payload, counter = as_reply_pair(
                system.registers.peek(register.reg_reply(4, k))
            )
            assert counter == 0
            if kind == "sticky":
                # A sticky reader counts any non-⊥ payload as a witnessed
                # value, so the empty set would be a lie, not a refusal.
                assert is_bottom(payload)
            else:
                assert payload == frozenset()

    def test_stonewaller_skips_the_registers_it_owns(self):
        system = System(n=4)
        own = StickyRegister(system, "own", writer=4).install()
        system.declare_byzantine(4)
        system.spawn(4, "client", behaviors.stonewalling_witness([own], 4))
        system.run(50)
        assert system.metrics.writes == 0

    def test_denying_witness_joins_the_quorum_then_stonewalls(self):
        system = System(n=4)
        register = StickyRegister(system, "s").install()
        system.declare_byzantine(4)

        def echo_once():
            yield WriteRegister(register.reg_echo(1), "V")

        system.spawn(1, "client", echo_once())
        system.spawn(4, "client", behaviors.denying_witness([register], 4))
        system.run(40)
        assert system.registers.peek(register.reg_echo(4)) == "V"
        assert system.registers.peek(register.reg_witness(4)) == "V"
        for k in (2, 3):
            payload, _counter = as_reply_pair(
                system.registers.peek(register.reg_reply(4, k))
            )
            assert is_bottom(payload)


class TestDenyingWriters:
    def test_verifiable_denier_erases_its_registers(self):
        system = System(n=4)
        register = VerifiableRegister(system, "v", initial=0)
        register.install()
        system.declare_byzantine(1)
        system.spawn(
            1, "client", behaviors.denying_writer_verifiable(register, 7, 50)
        )
        system.run(40)
        assert 7 in system.registers.peek(register.reg_witness(1))
        system.run(300)
        assert system.registers.peek(register.reg_witness(1)) == frozenset()
        assert system.registers.peek(register.reg_star()) == 0

    def test_sticky_equivocator_flips_echo(self):
        system = System(n=4)
        register = StickyRegister(system, "s")
        register.install()
        system.declare_byzantine(1)
        system.spawn(
            1,
            "client",
            behaviors.equivocating_writer_sticky(register, "A", "B", flip_after=10),
        )
        seen = set()
        for _ in range(30):
            system.run(10)
            seen.add(system.registers.peek(register.reg_echo(1)))
        assert {"A", "B"} <= seen
