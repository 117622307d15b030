"""Tests for test-or-set objects (Section 10, Observation 30).

Each of the three register-backed constructions must satisfy Lemma 28's
properties with a correct setter, with a Byzantine-silent setter, and
under concurrency. The quorum candidate is also checked in its *valid*
regime (n > 3f) — its failure regime is Theorem 29's and lives in
tests/test_theorem29.py.
"""

from __future__ import annotations

import pytest

from repro.adversary import behaviors
from repro.errors import ConfigurationError
from repro.core import (
    AuthenticatedRegister,
    QuorumTestOrSet,
    StickyRegister,
    TestOrSetFromAuthenticated,
    TestOrSetFromSticky,
    TestOrSetFromVerifiable,
    VerifiableRegister,
)
from repro.scenarios import binding_for
from repro.sim import RandomScheduler, System
from repro.spec import judge
from repro.spec.judge import restrict
from tests.conftest import run_clients, spawn_script

#: The family's spec and rules, from the binding its campaign runs are judged by.
BINDING = binding_for("test_or_set")
SPEC, RULES = BINDING.spec_factory(), BINDING.rules


def build_tos(kind: str, system: System):
    if kind == "verifiable":
        return TestOrSetFromVerifiable(
            VerifiableRegister(system, "r", initial=0), name="t"
        ).install()
    if kind == "authenticated":
        return TestOrSetFromAuthenticated(
            AuthenticatedRegister(system, "r", initial=0), name="t"
        ).install()
    if kind == "sticky":
        return TestOrSetFromSticky(StickyRegister(system, "r"), name="t").install()
    if kind == "quorum":
        tos = QuorumTestOrSet(system, "t")
        tos.install()
        return tos
    raise ValueError(kind)


KINDS = ("verifiable", "authenticated", "sticky", "quorum")


class TestCorrectSetter:
    @pytest.mark.parametrize("kind", KINDS)
    def test_set_then_test_returns_one(self, kind):
        system = System(n=4)
        tos = build_tos(kind, system)
        tos.start_helpers()
        setter = spawn_script(system, tos, 1, [("set", ())])
        run_clients(system, [setter])
        tester = spawn_script(system, tos, 2, [("test", ())])
        run_clients(system, [tester])
        assert tester.result_of("test") == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_unset_test_returns_zero(self, kind):
        system = System(n=4)
        tos = build_tos(kind, system)
        tos.start_helpers()
        tester = spawn_script(system, tos, 3, [("test", ())])
        run_clients(system, [tester])
        assert tester.result_of("test") == 0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lemma28_under_concurrency(self, kind, seed):
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        tos = build_tos(kind, system)
        tos.start_helpers()
        setter = spawn_script(system, tos, 1, [("set", ())], delay=25)
        testers = [
            spawn_script(
                system, tos, pid, [("test", ())] * 2, delay=10 * pid, pause_between=9
            )
            for pid in (2, 3, 4)
        ]
        run_clients(system, [setter, *testers])
        report = RULES.properties(
            *restrict(system.history, system.correct, "t", SPEC, 1)
        )
        assert report.ok, report.summary()
        reason = judge(system.history, system.correct, "t", SPEC, RULES, owner=1)
        assert reason is None, reason


class TestByzantineSetter:
    @pytest.mark.parametrize("kind", ("verifiable", "authenticated", "sticky"))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_silent_setter_tests_return_zero(self, kind, seed):
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        tos = build_tos(kind, system)
        system.declare_byzantine(1)
        tos.start_helpers(sorted(system.correct))
        system.spawn(1, "client", behaviors.silent())
        testers = [
            spawn_script(system, tos, pid, [("test", ())], delay=5 * pid)
            for pid in (2, 3, 4)
        ]
        run_clients(system, testers)
        for tester in testers:
            assert tester.result_of("test") == 0
        reason = judge(system.history, system.correct, "t", SPEC, RULES, owner=1)
        assert reason is None, reason

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byzantine_direct_set_still_relays(self, seed):
        # A Byzantine setter that "sets" by writing its registers
        # directly: if any correct tester observes 1, all later ones must.
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        register = VerifiableRegister(system, "r", initial=0)
        tos = TestOrSetFromVerifiable(register, name="t").install()
        system.declare_byzantine(1)
        tos.start_helpers(sorted(system.correct))
        system.spawn(
            1, "client", behaviors.denying_writer_verifiable(register, 1, 220)
        )
        early = spawn_script(system, tos, 2, [("test", ())], delay=50)
        late = spawn_script(system, tos, 3, [("test", ())], delay=800)
        run_clients(system, [early, late])
        if early.result_of("test") == 1:
            assert late.result_of("test") == 1
        reason = judge(system.history, system.correct, "t", SPEC, RULES, owner=1)
        assert reason is None, reason


class TestOperationEntryPoint:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_operation_is_a_configuration_error(self, kind):
        tos = build_tos(kind, System(n=4))
        with pytest.raises(ConfigurationError, match="no operation 'write'"):
            tos.op(2, "write", 5)

    def test_wrappers_keep_their_default_names(self):
        system = System(n=4)
        names = [
            TestOrSetFromVerifiable(VerifiableRegister(system, "v")).name,
            TestOrSetFromAuthenticated(AuthenticatedRegister(system, "a")).name,
            TestOrSetFromSticky(StickyRegister(system, "s")).name,
        ]
        assert names == ["tos-v", "tos-a", "tos-s"]


class TestQuorumCandidateValidRegime:
    """The strawman is fine at n > 3f — that is Theorem 29's hypothesis."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_with_silent_byzantine(self, seed):
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        tos = QuorumTestOrSet(system, "t")
        tos.install()
        system.declare_byzantine(4)
        tos.start_helpers([1, 2, 3])
        system.spawn(4, "client", behaviors.silent())
        setter = spawn_script(system, tos, 1, [("set", ())])
        run_clients(system, [setter])
        tester = spawn_script(system, tos, 2, [("test", ())])
        run_clients(system, [tester])
        assert tester.result_of("test") == 1

    def test_lying_witness_cannot_forge(self):
        system = System(n=4)
        tos = QuorumTestOrSet(system, "t")
        tos.install()
        system.declare_byzantine(4)
        tos.start_helpers([1, 2, 3])

        def liar():
            from repro.sim.effects import Pause, WriteRegister

            yield WriteRegister(tos.reg_witness(4), 1)
            while True:
                yield Pause()

        system.spawn(4, "client", liar())
        tester = spawn_script(system, tos, 2, [("test", ())], delay=40)
        run_clients(system, [tester])
        assert tester.result_of("test") == 0
