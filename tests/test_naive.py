"""Tests for the naive strawman registers (repro.core.naive).

These tests *demonstrate failures*: the naive designs work with a
correct writer and break under the paper's motivating attacks — which is
exactly what they exist to show.
"""

from __future__ import annotations

import pytest

from repro.adversary import behaviors
from repro.core import NaiveQuorumVerifiableRegister, NaiveVerifiableRegister
from repro.explore.fuzzer import run_one_fuzz
from repro.scenarios import binding_for
from repro.scenarios.registry import all_records
from repro.sim import Pause, PriorityScheduler, System, WriteRegister
from repro.sim.process import pause_steps
from repro.spec.judge import restrict
from tests.conftest import run_clients, spawn_script

#: The family's spec and rules, from the binding its campaign runs are judged by.
BINDING = binding_for("naive")
SPEC, RULES = BINDING.spec_factory(), BINDING.rules


class TestNaiveRegisterCorrectWriter:
    def test_happy_path_works(self, system4):
        register = NaiveVerifiableRegister(system4, "n", initial=0)
        register.install()
        writer = spawn_script(
            system4, register, 1, [("write", (5,)), ("sign", (5,))]
        )
        reader = spawn_script(
            system4, register, 2, [("read", ()), ("verify", (5,))], delay=20
        )
        run_clients(system4, [writer, reader])
        assert reader.result_of("read") == 5
        assert reader.result_of("verify") is True

    def test_properties_hold_with_correct_writer(self, system4):
        register = NaiveVerifiableRegister(system4, "n", initial=0)
        register.install()
        writer = spawn_script(
            system4, register, 1, [("write", (5,)), ("sign", (5,))]
        )
        readers = [
            spawn_script(system4, register, pid, [("verify", (5,))], delay=30)
            for pid in (2, 3)
        ]
        run_clients(system4, [writer, *readers])
        report = RULES.properties(
            *restrict(system4.history, system4.correct, "n", SPEC, 1)
        )
        assert report.ok, report.summary()


class TestNaiveRegisterDenialAttack:
    def test_byzantine_writer_breaks_relay(self, system4):
        """The Section 1 scenario succeeds against the strawman."""
        register = NaiveVerifiableRegister(system4, "n", initial=0)
        register.install()
        system4.declare_byzantine(1)

        def denying_writer():
            yield WriteRegister(register.reg_value(), 7)
            yield WriteRegister(register.reg_signed(), frozenset({7}))
            yield from pause_steps(100)
            yield WriteRegister(register.reg_signed(), frozenset())  # deny!
            while True:
                yield Pause()

        system4.spawn(1, "client", denying_writer())
        early = spawn_script(system4, register, 2, [("verify", (7,))], delay=20)
        late = spawn_script(system4, register, 3, [("verify", (7,))], delay=300)
        run_clients(system4, [early, late])
        # The attack works: early sees the signature, late does not.
        assert early.result_of("verify") is True
        assert late.result_of("verify") is False
        # And the property checker catches the relay violation.
        report = RULES.properties(
            *restrict(system4.history, system4.correct, "n", SPEC, 1)
        )
        assert not report.ok
        assert any("Obs 13" in violation for violation in report.violations)


class TestNaiveQuorumVerify:
    def test_works_without_adversary(self, system4):
        register = NaiveQuorumVerifiableRegister(system4, "q", initial=0)
        register.install()
        register.start_helpers()
        writer = spawn_script(
            system4, register, 1, [("write", (5,)), ("sign", (5,))]
        )
        run_clients(system4, [writer])
        reader = spawn_script(system4, register, 2, [("verify", (5,))])
        run_clients(system4, [reader])
        assert reader.result_of("verify") is True

    def test_unsigned_rejected(self, system4):
        register = NaiveQuorumVerifiableRegister(system4, "q", initial=0)
        register.install()
        register.start_helpers()
        reader = spawn_script(system4, register, 2, [("verify", (5,))])
        run_clients(system4, [reader])
        assert reader.result_of("verify") is False

    def test_flip_flop_collusion_breaks_relay(self):
        """Section 5.1's bind, staged: yes to verifier A, no to B."""
        system = System(
            n=4,
            scheduler=PriorityScheduler(
                weights={(2, "help:q"): 0.002}, seed=0, fairness_bound=40_000
            ),
        )
        register = NaiveQuorumVerifiableRegister(system, "q", initial=0)
        register.install()
        system.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system.spawn(
            4, "client", behaviors.flip_flop_witness(register, 4, 10, yes_rounds=1)
        )
        writer = spawn_script(system, register, 1, [("write", (10,)), ("sign", (10,))])
        run_clients(system, [writer])
        verifier_a = spawn_script(system, register, 3, [("verify", (10,))])
        run_clients(system, [verifier_a])
        verifier_b = spawn_script(system, register, 2, [("verify", (10,))])
        run_clients(system, [verifier_b])
        assert verifier_a.result_of("verify") is True
        assert verifier_b.result_of("verify") is False  # relay broken

    def test_algorithm1_immune_to_same_attack(self):
        """Control: the paper's Verify survives the identical setup."""
        from repro.core import VerifiableRegister

        system = System(
            n=4,
            scheduler=PriorityScheduler(
                weights={(2, "help:q"): 0.002}, seed=0, fairness_bound=40_000
            ),
        )
        register = VerifiableRegister(system, "q", initial=0)
        register.install()
        system.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system.spawn(
            4, "client", behaviors.flip_flop_witness(register, 4, 10, yes_rounds=1)
        )
        writer = spawn_script(system, register, 1, [("write", (10,)), ("sign", (10,))])
        run_clients(system, [writer])
        verifier_a = spawn_script(system, register, 3, [("verify", (10,))])
        run_clients(system, [verifier_a])
        verifier_b = spawn_script(system, register, 2, [("verify", (10,))])
        run_clients(system, [verifier_b], max_steps=4_000_000)
        assert verifier_a.result_of("verify") is True
        assert verifier_b.result_of("verify") is True  # relay holds


def test_swarm_keeps_killing_the_flip_flop_strawman():
    """Sensitivity guard: the swarm must still find the §5.1 strawman.

    The catalog's naive flip-flop cell violates in 93 of swarm seeds
    0-99. Deleting the registers scenario's reader stagger drops it to
    10: a change that dulls the swarm that way fails here, not only in
    a benchmark cell.
    """
    (cell,) = [
        record
        for record in all_records()
        if record.family == "naive" and record.expect_violation
    ]
    kills = sum(
        run_one_fuzz(cell.spec, seed)[0] is not None for seed in range(100)
    )
    assert kills >= 80, f"{kills} of 100 swarm seeds violate"
