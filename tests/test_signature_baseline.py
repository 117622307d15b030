"""Tests for the signature-based comparator (repro.core.signature_baseline)."""

from __future__ import annotations

import pytest

from repro.adversary import behaviors
from repro.core import SignatureOracle, SignedVerifiableRegister
from repro.scenarios import binding_for
from repro.sim import Pause, RandomScheduler, System, WriteRegister
from repro.spec import judge
from tests.conftest import run_clients, spawn_script

#: The family's spec and rules, from the binding its campaign runs are judged by.
BINDING = binding_for("signature_baseline")
SPEC, RULES = BINDING.spec_factory(), BINDING.rules


class TestOracle:
    def test_sign_and_validate(self):
        oracle = SignatureOracle()
        token = oracle.sign(1, "v")
        assert oracle.valid(1, "v", token)

    def test_unforgeable_across_values(self):
        oracle = SignatureOracle()
        token = oracle.sign(1, "v")
        assert not oracle.valid(1, "w", token)

    def test_unforgeable_across_signers(self):
        oracle = SignatureOracle()
        token = oracle.sign(1, "v")
        assert not oracle.valid(2, "v", token)

    def test_fabricated_tokens_rejected(self):
        oracle = SignatureOracle()
        oracle.sign(1, "v")
        for fake in (0, -1, 999, "token", None, 3.5):
            assert not oracle.valid(1, "v", fake)

    def test_tokens_unique(self):
        oracle = SignatureOracle()
        assert oracle.sign(1, "v") != oracle.sign(1, "v")
        assert oracle.minted_count() == 2


class TestSignedRegister:
    def build(self, system) -> SignedVerifiableRegister:
        register = SignedVerifiableRegister(system, "sig", initial=0)
        register.install()
        return register

    def test_happy_path(self, system4):
        register = self.build(system4)
        writer = spawn_script(
            system4, register, 1, [("write", (5,)), ("sign", (5,))]
        )
        reader = spawn_script(
            system4, register, 2,
            [("read", ()), ("verify", (5,)), ("verify", (6,))],
            delay=20,
        )
        run_clients(system4, [writer, reader])
        assert reader.result_of("read") == 5
        assert reader.result_of("verify", 0) is True
        assert reader.result_of("verify", 1) is False

    def test_sign_unwritten_fails(self, system4):
        register = self.build(system4)
        writer = spawn_script(system4, register, 1, [("sign", (9,))])
        run_clients(system4, [writer])
        assert writer.result_of("sign") == "fail"

    def test_relay_via_reader_registers(self, system4):
        # The denial attack: with signatures the relay property holds for
        # ANY n > f because verified evidence is copied into the
        # verifier's own register before returning true.
        register = self.build(system4)
        system4.declare_byzantine(1)
        oracle = register.oracle
        token = oracle.sign(1, 7)

        def denying_writer():
            yield WriteRegister(register.reg_signed(), frozenset({(7, token)}))
            from repro.sim.process import pause_steps

            yield from pause_steps(120)
            yield WriteRegister(register.reg_signed(), frozenset())
            while True:
                yield Pause()

        system4.spawn(1, "client", denying_writer())
        early = spawn_script(system4, register, 2, [("verify", (7,))], delay=30)
        late = spawn_script(system4, register, 3, [("verify", (7,))], delay=400)
        run_clients(system4, [early, late])
        assert early.result_of("verify") is True
        assert late.result_of("verify") is True  # relayed evidence survives

    def test_byzantine_reader_cannot_forge_relay(self, system4):
        # A Byzantine reader stuffs junk pairs in its relay register;
        # verification must reject them all.
        register = self.build(system4)
        system4.declare_byzantine(4)

        def junk_relayer():
            yield WriteRegister(
                register.reg_relay(4), frozenset({(7, 12345), ("x", "y")})
            )
            while True:
                yield Pause()

        system4.spawn(4, "client", junk_relayer())
        reader = spawn_script(system4, register, 2, [("verify", (7,))], delay=30)
        run_clients(system4, [reader])
        assert reader.result_of("verify") is False

    def test_works_beyond_the_3f_bound(self):
        # n = 3, f = 1: impossible without signatures (Theorem 31), fine
        # with them — this is the baseline's raison d'être.
        system = System(n=3, f=1, enforce_bound=False)
        register = SignedVerifiableRegister(system, "sig", initial=0, f=1)
        register.install()
        system.declare_byzantine(3)
        system.spawn(3, "client", behaviors.silent())
        writer = spawn_script(system, register, 1, [("write", (5,)), ("sign", (5,))])
        reader = spawn_script(system, register, 2, [("verify", (5,))], delay=20)
        run_clients(system, [writer, reader])
        assert reader.result_of("verify") is True

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linearizable_against_verifiable_spec(self, seed):
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        register = SignedVerifiableRegister(system, "sig", initial=0)
        register.install()
        writer = spawn_script(
            system, register, 1,
            [("write", (1,)), ("sign", (1,)), ("write", (2,))],
        )
        readers = [
            spawn_script(
                system, register, pid,
                [("verify", (1,)), ("read", ()), ("verify", (2,))],
                delay=10 * pid,
            )
            for pid in (2, 3)
        ]
        run_clients(system, [writer, *readers])
        reason = judge(system.history, system.correct, "sig", SPEC, RULES, owner=1)
        assert reason is None, reason
