"""Integration tests for Algorithm 2 — the authenticated register.

Covers Definition 15's semantics, the atomic write-equals-sign property,
the Read-verifies-before-returning mechanism of Section 7.1 (including
the Byzantine-erasure scenario it defends against), Observation 19, and
defensive parsing of Byzantine garbage.
"""

from __future__ import annotations

import pytest

from repro.adversary import behaviors
from repro.core import AuthenticatedRegister
from repro.core.authenticated import max_tuple, timestamped_values, well_formed_tuples
from repro.scenarios import binding_for
from repro.sim import RandomScheduler, System, WriteRegister
from repro.spec import judge
from repro.spec.judge import restrict
from tests.conftest import run_clients, spawn_script

#: The family's spec and rules, from the binding its campaign runs are judged by.
BINDING = binding_for("authenticated")
SPEC, RULES = BINDING.spec_factory(), BINDING.rules


def build(system, **kwargs) -> AuthenticatedRegister:
    register = AuthenticatedRegister(system, "a", initial=0, **kwargs)
    register.install()
    return register


class TestHelpers:
    def test_timestamped_values_parses_garbage(self):
        assert timestamped_values("junk") == frozenset()
        assert timestamped_values(frozenset({"x", (1, "v"), (True, "w"), 3})) == (
            frozenset({"v"})
        )

    def test_well_formed_tuples(self):
        raw = frozenset({(1, "a"), (2, "b"), "junk", (None, "c")})
        assert sorted(well_formed_tuples(raw)) == [(1, "a"), (2, "b")]

    def test_max_tuple_order(self):
        assert max_tuple([(1, "z"), (2, "a")]) == (2, "a")
        # Tie on timestamp: the deterministic value order breaks it.
        result = max_tuple([(2, "a"), (2, "b")])
        assert result == (2, "b")


class TestHappyPath:
    def test_write_is_auto_signed(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(system4, register, 1, [("write", (5,))])
        reader = spawn_script(
            system4, register, 2, [("verify", (5,)), ("read", ())], delay=40
        )
        run_clients(system4, [writer, reader])
        assert reader.result_of("verify") is True
        assert reader.result_of("read") == 5

    def test_initial_value_deemed_signed(self, system4):
        register = build(system4)
        register.start_helpers()
        reader = spawn_script(
            system4, register, 2, [("verify", (0,)), ("read", ())]
        )
        run_clients(system4, [reader])
        assert reader.result_of("verify") is True
        assert reader.result_of("read") == 0

    def test_read_returns_latest(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(
            system4, register, 1, [("write", (v,)) for v in (1, 2, 3)]
        )
        reader = spawn_script(system4, register, 3, [("read", ())], delay=80)
        run_clients(system4, [writer, reader])
        assert reader.result_of("read") == 3

    def test_old_values_still_verify(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(
            system4, register, 1, [("write", (1,)), ("write", (2,))]
        )
        reader = spawn_script(
            system4, register, 2, [("verify", (1,)), ("verify", (2,))], delay=60
        )
        run_clients(system4, [writer, reader])
        assert reader.result_of("verify", 0) is True
        assert reader.result_of("verify", 1) is True

    def test_never_written_fails(self, system4):
        register = build(system4)
        register.start_helpers()
        writer = spawn_script(system4, register, 1, [("write", (5,))])
        reader = spawn_script(system4, register, 4, [("verify", (999,))], delay=40)
        run_clients(system4, [writer, reader])
        assert reader.result_of("verify") is False

    @pytest.mark.parametrize("n", [4, 7])
    def test_all_readers_agree(self, n):
        system = System(n=n)
        register = build(system)
        register.start_helpers()
        writer = spawn_script(system, register, 1, [("write", ("m",))])
        readers = [
            spawn_script(system, register, pid, [("verify", ("m",))], delay=50)
            for pid in range(2, n + 1)
        ]
        run_clients(system, [writer, *readers])
        assert all(r.result_of("verify") is True for r in readers)


class TestByzantineWriterErasure:
    """Section 7.1's scenario: the writer erases the tuple mid-read."""

    def run_erasure(self, seed: int):
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        register = build(system)
        system.declare_byzantine(1)
        register.start_helpers(sorted(system.correct))
        system.spawn(
            1,
            "client",
            behaviors.denying_writer_authenticated(register, 7, expose_steps=260),
        )
        early = spawn_script(
            system, register, 2, [("read", ()), ("verify", (7,))], delay=50
        )
        late = spawn_script(
            system, register, 3, [("read", ()), ("verify", (7,))], delay=900
        )
        run_clients(system, [early, late])
        return system, early, late

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reads_return_verified_or_initial(self, seed):
        system, early, late = self.run_erasure(seed)
        # Every read must return either the verified 7 or the fallback 0;
        # and whatever it returned must verify afterwards (Obs 19).
        for client in (early, late):
            value = client.result_of("read")
            assert value in (7, 0)
        report = RULES.properties(
            *restrict(system.history, system.correct, "a", SPEC, 1)
        )
        assert report.ok, report.summary()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_byzantine_linearizable(self, seed):
        system, *_ = self.run_erasure(seed)
        reason = judge(system.history, system.correct, "a", SPEC, RULES, owner=1)
        assert reason is None, reason


class TestByzantineGarbage:
    def test_garbage_writer_register(self, system4):
        # The Byzantine writer stores complete nonsense in R1: correct
        # reads must fall back to v0 and the system must stay live.
        register = build(system4)
        system4.declare_byzantine(1)
        register.start_helpers(sorted(system4.correct))

        def junk_writer():
            yield WriteRegister(register.reg_witness(1), "not-a-set-at-all")
            from repro.sim.effects import Pause

            while True:
                yield Pause()

        system4.spawn(1, "client", junk_writer())
        reader = spawn_script(
            system4, register, 2, [("read", ()), ("verify", (0,))], delay=30
        )
        run_clients(system4, [reader])
        assert reader.result_of("read") == 0
        assert reader.result_of("verify") is True

    def test_malformed_tuples_ignored(self, system4):
        register = build(system4)
        system4.declare_byzantine(1)
        register.start_helpers(sorted(system4.correct))

        def sneaky_writer():
            # Mix one well-formed tuple with garbage entries.
            yield WriteRegister(
                register.reg_witness(1),
                frozenset({(1, 42), "noise", (None, "x"), ("ts", "y")}),
            )
            from repro.sim.effects import Pause

            while True:
                yield Pause()

        system4.spawn(1, "client", sneaky_writer())
        reader = spawn_script(
            system4, register, 3, [("read", ()), ("verify", (42,))], delay=30
        )
        run_clients(system4, [reader])
        assert reader.result_of("read") == 42
        assert reader.result_of("verify") is True


class TestConcurrency:
    @pytest.mark.parametrize("seed", list(range(4)))
    def test_concurrent_writes_reads_linearize(self, seed):
        system = System(n=4, scheduler=RandomScheduler(seed=seed))
        register = build(system)
        register.start_helpers()
        writer = spawn_script(
            system, register, 1, [("write", (v,)) for v in (1, 2, 3)]
        )
        readers = [
            spawn_script(
                system, register, pid,
                [("read", ()), ("verify", (2,)), ("read", ())],
                delay=15 * pid,
            )
            for pid in (2, 3, 4)
        ]
        run_clients(system, [writer, *readers])
        reason = judge(system.history, system.correct, "a", SPEC, RULES, owner=1)
        assert reason is None, reason
