"""Integration tests for Algorithm 1 — the verifiable register.

Covers the happy paths of Definition 10, every Observation (11–13), the
denial attack of Section 1, Byzantine helpers, multi-value signing, and
the termination theorem under hostile-but-fair schedules.
"""

from __future__ import annotations

import pytest

from repro.adversary import behaviors
from repro.core import VerifiableRegister
from repro.errors import ProtocolViolation, StepLimitExceeded
from repro.scenarios import binding_for
from repro.sim import RandomScheduler, System, WriteRegister
from repro.spec import judge
from repro.spec.judge import restrict
from tests.conftest import run_clients, spawn_script

#: The family's spec and rules, from the binding its campaign runs are judged by.
BINDING = binding_for("verifiable")
SPEC, RULES = BINDING.spec_factory(), BINDING.rules


def build(system, **kwargs) -> VerifiableRegister:
    register = VerifiableRegister(system, "v", initial=0, **kwargs)
    register.install()
    return register


class TestHappyPath:
    def test_write_read(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(system4, register, 1, [("write", (42,))])
        reader = spawn_script(system4, register, 2, [("read", ())], delay=30)
        run_clients(system4, [writer, reader])
        assert writer.result_of("write") == "done"
        assert reader.result_of("read") == 42

    def test_sign_then_verify_true(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(
            system4, register, 1, [("write", (7,)), ("sign", (7,))]
        )
        reader = spawn_script(system4, register, 3, [("verify", (7,))], delay=40)
        run_clients(system4, [writer, reader])
        assert writer.result_of("sign") == "success"
        assert reader.result_of("verify") is True

    def test_verify_unsigned_false(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(system4, register, 1, [("write", (7,))])
        reader = spawn_script(system4, register, 2, [("verify", (7,))], delay=30)
        run_clients(system4, [writer, reader])
        assert reader.result_of("verify") is False

    def test_sign_unwritten_fails(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(system4, register, 1, [("sign", (99,))])
        run_clients(system4, [writer])
        assert writer.result_of("sign") == "fail"

    def test_sign_older_value(self, system4):
        # Section 4: the writer may sign any previously written value.
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(
            system4,
            register,
            1,
            [("write", (1,)), ("write", (2,)), ("sign", (1,))],
        )
        reader = spawn_script(
            system4, register, 2, [("verify", (1,)), ("verify", (2,)), ("read", ())],
            delay=60,
        )
        run_clients(system4, [writer, reader])
        assert writer.result_of("sign") == "success"
        assert reader.result_of("verify", 0) is True
        assert reader.result_of("verify", 1) is False
        assert reader.result_of("read") == 2

    def test_multiple_signed_values(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(
            system4,
            register,
            1,
            [("write", (v,)) for v in (1, 2, 3)]
            + [("sign", (v,)) for v in (1, 2, 3)],
        )
        reader = spawn_script(
            system4, register, 4,
            [("verify", (1,)), ("verify", (2,)), ("verify", (3,))],
            delay=100,
        )
        run_clients(system4, [writer, reader])
        assert all(r is True for (op, _a, r) in reader.results if op == "verify")

    def test_larger_system(self, system7):
        register = build(system7)
        register.start_helpers()
        writer = spawn_script(
            system7, register, 1, [("write", (5,)), ("sign", (5,))]
        )
        readers = [
            spawn_script(system7, register, pid, [("verify", (5,))], delay=50)
            for pid in range(2, 8)
        ]
        run_clients(system7, [writer, *readers])
        for reader in readers:
            assert reader.result_of("verify") is True


class TestRoleGuards:
    def test_reader_cannot_write(self, system4):
        register = build(system4)
        with pytest.raises(ProtocolViolation):
            next(register.procedure_write(2, 5))

    def test_writer_cannot_verify(self, system4):
        register = build(system4)
        with pytest.raises(ProtocolViolation):
            next(register.procedure_verify(1, 5))

    def test_unknown_operation(self, system4):
        register = build(system4)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            register.op(1, "compare_and_swap", 1)


class TestDenialAttack:
    """Section 1's motivating scenario: sign, let readers verify, erase."""

    def run_denial(self, n: int, seed: int):
        system = System(n=n, scheduler=RandomScheduler(seed=seed))
        register = build(system)
        system.declare_byzantine(1)
        register.start_helpers(sorted(system.correct))
        system.spawn(
            1, "client", behaviors.denying_writer_verifiable(register, 7, 250)
        )
        early = spawn_script(system, register, 2, [("verify", (7,))], delay=60)
        late = spawn_script(system, register, 3, [("verify", (7,))], delay=900)
        run_clients(system, [early, late])
        return system, register, early, late

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relay_survives_erasure(self, seed):
        system, register, early, late = self.run_denial(4, seed)
        if early.result_of("verify") is True:
            # Once verified, the value stays verifiable forever.
            assert late.result_of("verify") is True
        report = RULES.properties(
            *restrict(system.history, system.correct, "v", SPEC, 1)
        )
        assert report.ok, report.summary()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_byzantine_linearizable(self, seed):
        system, *_ = self.run_denial(4, seed)
        reason = judge(system.history, system.correct, "v", SPEC, RULES, owner=1)
        assert reason is None, reason


class TestByzantineHelpers:
    def test_lying_witnesses_cannot_forge(self, system4):
        # One liar (f = 1) claims to witness 555; no correct process may
        # ever verify it.
        register = build(system4)
        system4.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system4.spawn(4, "client", behaviors.lying_witness(register, 4, [555]))
        reader = spawn_script(
            system4, register, 2, [("verify", (555,))], delay=50
        )
        run_clients(system4, [reader])
        assert reader.result_of("verify") is False

    def test_two_liars_at_f2_cannot_forge(self, system7):
        register = build(system7)
        system7.declare_byzantine(6, 7)
        register.start_helpers([1, 2, 3, 4, 5])
        for pid in (6, 7):
            system7.spawn(
                pid, "client", behaviors.lying_witness(register, pid, [555])
            )
        reader = spawn_script(system7, register, 2, [("verify", (555,))], delay=50)
        run_clients(system7, [reader])
        assert reader.result_of("verify") is False

    def test_garbage_helper_tolerated(self, system4):
        register = build(system4)
        system4.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system4.spawn(
            4,
            "client",
            behaviors.garbage_spammer(behaviors.owned_register_names(register, 4)),
        )
        writer = spawn_script(system4, register, 1, [("write", (9,)), ("sign", (9,))])
        reader = spawn_script(
            system4, register, 2, [("verify", (9,)), ("read", ())], delay=80
        )
        run_clients(system4, [writer, reader])
        assert reader.result_of("verify") is True
        assert reader.result_of("read") == 9

    def test_stonewalling_helper_cannot_block(self, system4):
        register = build(system4)
        system4.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system4.spawn(4, "client", behaviors.stonewalling_witness([register], 4))
        writer = spawn_script(system4, register, 1, [("write", (9,)), ("sign", (9,))])
        reader = spawn_script(system4, register, 2, [("verify", (9,))], delay=80)
        run_clients(system4, [writer, reader])
        # A single stonewaller can contribute one "no" — not enough for
        # |set0| > f, so the verify must still return true.
        assert reader.result_of("verify") is True


class TestTermination:
    @pytest.mark.parametrize("seed", list(range(5)))
    def test_verify_terminates_with_silent_byzantine(self, seed):
        # f silent processes may never help; Verify must still return
        # (Theorem 43) because a correct process always remains askable.
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        register = build(system)
        system.declare_byzantine(4)
        register.start_helpers([1, 2, 3])
        system.spawn(4, "client", behaviors.silent())
        reader = spawn_script(system, register, 2, [("verify", (1,))])
        run_clients(system, [reader], max_steps=300_000)
        assert reader.result_of("verify") is False

    def test_verify_hangs_beyond_the_bound(self):
        # Demonstrates why n > 3f matters even for liveness: at n = 3,
        # f = 1 with the single "extra" process silent, Verify can wait
        # forever (Lemma 38's guarantee needs n > 3f).
        system = System(n=3, f=1, enforce_bound=False)
        register = VerifiableRegister(system, "v", initial=0, f=1)
        register.install()
        system.declare_byzantine(3)
        register.start_helpers([1])  # only the writer helps
        system.spawn(3, "client", behaviors.silent())
        reader = spawn_script(system, register, 2, [("verify", (1,))])
        with pytest.raises(StepLimitExceeded):
            run_clients(system, [reader], max_steps=30_000)


class TestConcurrency:
    @pytest.mark.parametrize("seed", list(range(4)))
    def test_concurrent_verifies_and_signs_linearize(self, seed):
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        register = build(system)
        register.start_helpers()
        writer = spawn_script(
            system, register, 1,
            [("write", (1,)), ("sign", (1,)), ("write", (2,)), ("sign", (2,))],
        )
        readers = [
            spawn_script(
                system, register, pid,
                [("verify", (1,)), ("read", ()), ("verify", (2,))],
                delay=10 * pid,
            )
            for pid in (2, 3, 4)
        ]
        run_clients(system, [writer, *readers])
        reason = judge(system.history, system.correct, "v", SPEC, RULES, owner=1)
        assert reason is None, reason
        report = RULES.properties(
            *restrict(system.history, system.correct, "v", SPEC, 1)
        )
        assert report.ok, report.summary()


class TestValueTypes:
    def test_structured_values(self, system4):
        register = build(system4)
        register.start_helpers()
        value = ("tx", 17, frozenset({"a"}))
        writer = spawn_script(
            system4, register, 1, [("write", (value,)), ("sign", (value,))]
        )
        reader = spawn_script(
            system4, register, 2, [("read", ()), ("verify", (value,))], delay=50
        )
        run_clients(system4, [writer, reader])
        assert reader.result_of("read") == value
        assert reader.result_of("verify") is True

    def test_mutable_input_frozen(self, system4):
        register = build(system4)
        register.start_helpers()
        payload = [1, 2]
        writer = spawn_script(system4, register, 1, [("write", (payload,))])
        reader = spawn_script(system4, register, 2, [("read", ())], delay=30)
        run_clients(system4, [writer, reader])
        assert reader.result_of("read") == (1, 2)
