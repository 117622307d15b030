"""Tests for the message-passing substrate (repro.mp).

Network models, the SWMR register emulation (tolerating f Byzantine
replicas), the shared-memory-over-messages adapter, and the
Srikanth–Toueg authenticated broadcast comparator.
"""

from __future__ import annotations

import pytest

from repro.core import VerifiableRegister
from repro.errors import ConfigurationError, NetworkError
from repro.mp import (
    AuthenticatedBroadcast,
    RandomDelayNetwork,
    RegisterEmulation,
    ScriptedNetwork,
    declare_registers,
    translate,
    translated_help,
)
from repro.scenarios import binding_for
from repro.sim import (
    Await,
    Broadcast,
    FunctionClient,
    Pause,
    ReceiveAll,
    Send,
    System,
)
from repro.sim.effects import Invoke, Respond
from repro.sim.process import idle_forever
from repro.spec import AtomicRegisterSpec, find_linearization


def mp_system(n=4, seed=0, max_delay=8) -> System:
    system = System(n=n)
    system.network = RandomDelayNetwork(seed=seed, max_delay=max_delay)
    return system


class TestRandomDelayNetwork:
    def test_delivery_is_delayed(self):
        system = mp_system(n=2, seed=0, max_delay=5)
        received = []

        def sender():
            yield Send(2, "x")

        def receiver():
            while not received:
                received.extend((yield ReceiveAll()))

        system.spawn(1, "s", sender())
        system.spawn(2, "r", receiver())
        system.run(100)
        assert received == [(1, "x")]
        assert system.network.delivered == 1

    def test_deterministic_per_seed(self):
        def run(seed):
            system = mp_system(n=3, seed=seed)
            order = []

            def sender():
                for i in range(5):
                    yield Broadcast(("m", i))

            def receiver(pid):
                def program():
                    while True:
                        for msg in (yield ReceiveAll()):
                            order.append((pid, msg))
                return program()

            system.spawn(1, "s", sender())
            system.spawn(2, "r", receiver(2))
            system.spawn(3, "r", receiver(3))
            system.run(400)
            return order

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_invalid_delays(self):
        with pytest.raises(NetworkError):
            RandomDelayNetwork(min_delay=0)
        with pytest.raises(NetworkError):
            RandomDelayNetwork(min_delay=9, max_delay=3)


class TestScriptedNetwork:
    def test_messages_held_until_released(self):
        system = System(n=2)
        system.network = ScriptedNetwork()
        received = []

        def sender():
            yield Send(2, "x")

        def receiver():
            while True:
                received.extend((yield ReceiveAll()))
                yield Pause()

        system.spawn(1, "s", sender())
        system.spawn(2, "r", receiver())
        system.run(50)
        assert received == []
        assert system.network.pending() == 1
        system.network.release_all()
        system.run(20)
        assert received == [(1, "x")]

    def test_selective_release(self):
        system = System(n=3)
        system.network = ScriptedNetwork()
        boxes = {2: [], 3: []}

        def sender():
            yield Send(2, "for-2")
            yield Send(3, "for-3")

        def receiver(pid):
            def program():
                while True:
                    boxes[pid].extend((yield ReceiveAll()))
                    yield Pause()
            return program()

        system.spawn(1, "s", sender())
        system.spawn(2, "r", receiver(2))
        system.spawn(3, "r", receiver(3))
        system.run(30)
        assert system.network.release_matching(dest=3) == 1
        system.run(30)
        assert boxes[3] == [(1, "for-3")] and boxes[2] == []

    def test_release_unknown_id(self):
        with pytest.raises(NetworkError):
            ScriptedNetwork().release(5)


class TestRegisterEmulation:
    def build(self, n=4, seed=0, byzantine=(4,)):
        system = mp_system(n=n, seed=seed)
        emu = RegisterEmulation(system)
        emu.add_register("r", writer=1, initial=0)
        if byzantine:
            system.declare_byzantine(*byzantine)
        for pid in system.pids:
            if pid in byzantine:
                system.spawn(pid, "replica", idle_forever())
            else:
                system.spawn(pid, "replica", emu.replica_program(pid))
        return system, emu

    def test_write_then_read(self):
        system, emu = self.build()
        writer = FunctionClient(lambda: emu.write(1, "r", 42))
        system.spawn(1, "client", writer.program())
        system.run_until(lambda: writer.done, 200_000)
        reader = FunctionClient(lambda: emu.read(2, "r"))
        system.spawn(2, "client", reader.program())
        system.run_until(lambda: reader.done, 200_000)
        assert reader.result == 42

    def test_read_initial_value(self):
        system, emu = self.build()
        reader = FunctionClient(lambda: emu.read(3, "r"))
        system.spawn(3, "client", reader.program())
        system.run_until(lambda: reader.done, 200_000)
        assert reader.result == 0

    def test_sequence_of_writes(self):
        system, emu = self.build()

        def writer():
            for value in (1, 2, 3):
                yield from emu.write(1, "r", value)

        w = FunctionClient(writer)
        system.spawn(1, "client", w.program())
        system.run_until(lambda: w.done, 400_000)
        reader = FunctionClient(lambda: emu.read(2, "r"))
        system.spawn(2, "client", reader.program())
        system.run_until(lambda: reader.done, 200_000)
        assert reader.result == 3

    def test_lying_replica_cannot_fabricate(self):
        # The Byzantine replica answers READ queries with a huge seq and
        # a fabricated value; f + 1 confirmation must reject it.
        system = mp_system(n=4, seed=3)
        emu = RegisterEmulation(system)
        emu.add_register("r", writer=1, initial=0)
        system.declare_byzantine(4)

        def lying_replica():
            while True:
                for sender, payload in (yield ReceiveAll()):
                    if isinstance(payload, tuple) and payload[0] == "READ":
                        entries = tuple(
                            (name, rid, 999, "FAKE") for name, rid in payload[1]
                        )
                        yield Send(sender, ("VALUE", entries))
                yield Pause()

        for pid in (1, 2, 3):
            system.spawn(pid, "replica", emu.replica_program(pid))
        system.spawn(4, "replica", lying_replica())
        reader = FunctionClient(lambda: emu.read(2, "r"))
        system.spawn(2, "client", reader.program())
        system.run_until(lambda: reader.done, 400_000)
        assert reader.result == 0  # the fabrication never confirmed

    def test_non_writer_cannot_write(self):
        system, emu = self.build()
        with pytest.raises(ConfigurationError):
            next(emu.write(2, "r", 1))

    def test_unknown_register(self):
        system, emu = self.build()
        with pytest.raises(ConfigurationError):
            next(emu.read(2, "nope"))

    def test_duplicate_register(self):
        system = mp_system()
        emu = RegisterEmulation(system)
        emu.add_register("r", writer=1)
        with pytest.raises(ConfigurationError):
            emu.add_register("r", writer=2)

    def test_requires_network(self):
        with pytest.raises(ConfigurationError):
            RegisterEmulation(System(n=4))


class TestAdapter:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_algorithm1_over_messages(self, seed):
        system = System(n=4, f=1)
        system.network = RandomDelayNetwork(seed=seed, max_delay=5)
        emu = RegisterEmulation(system)
        register = VerifiableRegister(system, "v", initial=0)
        declare_registers(emu, register)
        for pid in system.pids:
            system.spawn(pid, "replica", emu.replica_program(pid))
            system.spawn(pid, "help", translated_help(emu, register, pid))

        def writer():
            yield from translate(emu, 1, register.op(1, "write", 5))
            yield from translate(emu, 1, register.op(1, "sign", 5))

        w = FunctionClient(writer)
        system.spawn(1, "client", w.program())
        system.run_until(lambda: w.done, 4_000_000)

        def reader():
            value = yield from translate(emu, 2, register.op(2, "read"))
            good = yield from translate(emu, 2, register.op(2, "verify", 5))
            bad = yield from translate(emu, 2, register.op(2, "verify", 6))
            return (value, good, bad)

        r = FunctionClient(reader)
        system.spawn(2, "client", r.program())
        system.run_until(lambda: r.done, 8_000_000)
        assert r.result == (5, True, False)

    def test_a_wait_is_a_poll_over_messages(self):
        # The watched registers live in the replicas, not in the kernel:
        # an Await must reach the kernel as a Pause, never by name.
        system = System(n=4, f=1)
        system.network = RandomDelayNetwork(seed=0, max_delay=2)
        emu = RegisterEmulation(system)

        def program():
            yield Await((("v/C[2]", 0),))
            yield Await(())
            return "resumed"

        translated = translate(emu, 1, program())
        assert next(translated) == Pause()
        assert translated.send(None) == Pause()
        with pytest.raises(StopIteration) as stop:
            translated.send(None)
        assert stop.value.value == "resumed"

    def test_history_recorded_identically(self):
        # The adapter passes Invoke/Respond through, so the history has
        # the same shape as a shared-memory run.
        system = System(n=4, f=1)
        system.network = RandomDelayNetwork(seed=0, max_delay=4)
        emu = RegisterEmulation(system)
        register = VerifiableRegister(system, "v", initial=0)
        declare_registers(emu, register)
        for pid in system.pids:
            system.spawn(pid, "replica", emu.replica_program(pid))
            system.spawn(pid, "help", translated_help(emu, register, pid))
        w = FunctionClient(lambda: translate(emu, 1, register.op(1, "write", 5)))
        system.spawn(1, "client", w.program())
        system.run_until(lambda: w.done, 1_000_000)
        records = system.history.operations(obj="v")
        assert len(records) == 1
        assert records[0].op == "write" and records[0].result == "done"


class TestAuthenticatedBroadcastST87:
    def test_acceptance_everywhere(self):
        system = mp_system(n=4, seed=0)
        ab = AuthenticatedBroadcast(system)
        for pid in system.pids:
            system.spawn(pid, "daemon", ab.daemon(pid))
        b = FunctionClient(lambda: ab.broadcast(1, "m", 1))
        system.spawn(1, "client", b.program())
        system.run_until(
            lambda: ab.everyone_accepted((1, "m", 1), list(system.pids)), 300_000
        )

    def test_unforgeability_without_sender(self):
        # f Byzantine echoes (< f + 1) for a message nobody ever sent must
        # never be accepted by a correct process.
        system = mp_system(n=4, seed=1)
        ab = AuthenticatedBroadcast(system)
        system.declare_byzantine(4)

        def forger():
            for _ in range(30):
                yield Broadcast(("echo", 1, "forged", 9))
            while True:
                yield Pause()

        for pid in (1, 2, 3):
            system.spawn(pid, "daemon", ab.daemon(pid))
        system.spawn(4, "daemon", forger())
        system.run(40_000)
        for pid in (1, 2, 3):
            assert (1, "forged", 9) not in ab.accepted_by(pid)

    def test_init_from_wrong_sender_ignored(self):
        # A Byzantine process sending ⟨init, origin=2, ...⟩ under its own
        # pid 4 is ignored: channels are authenticated.
        system = mp_system(n=4, seed=2)
        ab = AuthenticatedBroadcast(system)
        system.declare_byzantine(4)

        def impersonator():
            for _ in range(10):
                yield Broadcast(("init", 2, "spoofed", 1))
            while True:
                yield Pause()

        for pid in (1, 2, 3):
            system.spawn(pid, "daemon", ab.daemon(pid))
        system.spawn(4, "daemon", impersonator())
        system.run(40_000)
        for pid in (1, 2, 3):
            assert (2, "spoofed", 1) not in ab.accepted_by(pid)

    def test_relay_amplification(self):
        # Once f + 1 echoes exist, every correct process echoes, so
        # acceptance spreads to everyone — the witness cascade the
        # paper's Help mechanism descends from.
        system = mp_system(n=7, seed=3)  # f = 2
        ab = AuthenticatedBroadcast(system)
        for pid in system.pids:
            system.spawn(pid, "daemon", ab.daemon(pid))
        b = FunctionClient(lambda: ab.broadcast(3, "w", 2))
        system.spawn(3, "client", b.program())
        system.run_until(
            lambda: ab.everyone_accepted((3, "w", 2), list(system.pids)), 600_000
        )


class TestEmulationSpecConformance:
    """swmr_emulation against the campaign's sequential-spec oracles.

    The campaign layer judges every shared-memory implementation
    against a ``repro.spec`` sequential specification; the
    message-passing emulation must conform to the same oracles. These
    tests wrap emulated operations in Invoke/Respond markers so the
    kernel records a history, then run the Wing–Gong linearizability
    search over it — the base emulated register against
    :class:`AtomicRegisterSpec`, and Algorithm 1 layered on top
    against the spec the verifiable family's binding hands the campaign.
    """

    def recorded(self, name, op, args, program):
        """An emulated operation with history bookkeeping around it."""

        def runner():
            op_id = yield Invoke(name, op, tuple(args))
            result = yield from program
            yield Respond(op_id, result)
            return result

        return runner

    def build(self, n=4, seed=0, byzantine=(4,)):
        system = System(n=n)
        system.network = RandomDelayNetwork(seed=seed, max_delay=8)
        emu = RegisterEmulation(system)
        emu.add_register("r", writer=1, initial=0)
        if byzantine:
            system.declare_byzantine(*byzantine)
        for pid in system.pids:
            if pid in byzantine:
                system.spawn(pid, "replica", idle_forever())
            else:
                system.spawn(pid, "replica", emu.replica_program(pid))
        return system, emu

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concurrent_history_linearizes_as_regular_register(self, seed):
        # Writer and readers run concurrently (write-back reads, so the
        # atomic-register spec applies); whatever interleaving the
        # seeded network produces, the recorded history must linearize.
        system, emu = self.build(seed=seed)

        def writer():
            for value in (1, 2):
                yield from self.recorded(
                    "r", "write", (value,), emu.write(1, "r", value)
                )()

        w = FunctionClient(writer)
        system.spawn(1, "client", w.program())
        readers = []
        for pid in (2, 3):
            reader = FunctionClient(
                self.recorded(
                    "r", "read", (), emu.read(pid, "r", write_back=True)
                )
            )
            readers.append(reader)
            system.spawn(pid, "client", reader.program())
        system.run_until(
            lambda: w.done and all(r.done for r in readers), 800_000
        )
        result = find_linearization(
            system.history.operations(obj="r"), AtomicRegisterSpec(initial=0)
        )
        assert result.ok, result.reason

    def test_sequential_reads_conform_after_write(self):
        # Non-overlapping write then reads: the strictest case for the
        # regular/atomic distinction — write-back reads must never show
        # a new/old inversion to the spec checker.
        system, emu = self.build(seed=5)
        w = FunctionClient(
            self.recorded("r", "write", (7,), emu.write(1, "r", 7))
        )
        system.spawn(1, "client", w.program())
        system.run_until(lambda: w.done, 400_000)
        for pid in (2, 3):
            reader = FunctionClient(
                self.recorded(
                    "r", "read", (), emu.read(pid, "r", write_back=True)
                )
            )
            system.spawn(pid, "client", reader.program())
            system.run_until(lambda: reader.done, 400_000)
            assert reader.result == 7
        result = find_linearization(
            system.history.operations(obj="r"), AtomicRegisterSpec(initial=0)
        )
        assert result.ok, result.reason

    @pytest.mark.parametrize("seed", [0, 1])
    def test_algorithm1_over_emulation_meets_the_campaign_oracle(self, seed):
        # Algorithm 1 translated onto the emulation must linearize
        # against the same VerifiableRegisterSpec the campaign uses to
        # judge the shared-memory implementations.
        system = System(n=4, f=1)
        system.network = RandomDelayNetwork(seed=seed, max_delay=5)
        emu = RegisterEmulation(system)
        register = VerifiableRegister(system, "v", initial=0)
        declare_registers(emu, register)
        for pid in system.pids:
            system.spawn(pid, "replica", emu.replica_program(pid))
            system.spawn(pid, "help", translated_help(emu, register, pid))

        def writer():
            yield from translate(emu, 1, register.op(1, "write", 5))
            yield from translate(emu, 1, register.op(1, "sign", 5))

        w = FunctionClient(writer)
        system.spawn(1, "client", w.program())
        system.run_until(lambda: w.done, 4_000_000)

        def reader():
            value = yield from translate(emu, 2, register.op(2, "read"))
            good = yield from translate(emu, 2, register.op(2, "verify", 5))
            bad = yield from translate(emu, 2, register.op(2, "verify", 6))
            return (value, good, bad)

        r = FunctionClient(reader)
        system.spawn(2, "client", r.program())
        system.run_until(lambda: r.done, 8_000_000)
        assert r.result == (5, True, False)
        spec = binding_for("verifiable").spec_factory()
        result = find_linearization(system.history.operations(obj="v"), spec)
        assert result.ok, result.reason


class TestWriteBack:
    """The [11]-style write-back round (read atomicity strengthening)."""

    def build(self, seed=0):
        system = System(n=4)
        system.network = RandomDelayNetwork(seed=seed, max_delay=10)
        emu = RegisterEmulation(system)
        emu.add_register("r", writer=1, initial=0)
        system.declare_byzantine(4)
        for pid in (1, 2, 3):
            system.spawn(pid, "replica", emu.replica_program(pid))
        system.spawn(4, "replica", idle_forever())
        return system, emu

    def test_write_back_propagates_to_quorum(self):
        system, emu = self.build(seed=5)
        w = FunctionClient(lambda: emu.write(1, "r", 77))
        system.spawn(1, "client", w.program())
        system.run_until(lambda: w.done, 200_000)
        r = FunctionClient(lambda: emu.read(2, "r", write_back=True))
        system.spawn(2, "client", r.program())
        system.run_until(lambda: r.done, 400_000)
        assert r.result == 77
        holders = sum(
            1 for pid in (1, 2, 3) if emu.state_of(pid).accepted["r"][0] >= 1
        )
        assert holders >= 3  # n - f replicas hold the value on return

    def test_second_read_cannot_regress(self):
        # After a write-back read returned v, a later read by anyone
        # must confirm at least as new a value (no new/old inversion).
        system, emu = self.build(seed=9)
        w = FunctionClient(lambda: emu.write(1, "r", 5))
        system.spawn(1, "client", w.program())
        system.run_until(lambda: w.done, 200_000)
        first = FunctionClient(lambda: emu.read(2, "r", write_back=True))
        system.spawn(2, "client", first.program())
        system.run_until(lambda: first.done, 400_000)
        second = FunctionClient(lambda: emu.read(3, "r"))
        system.spawn(3, "client", second.program())
        system.run_until(lambda: second.done, 400_000)
        assert first.result == 5
        assert second.result == 5

    def test_initial_value_skips_write_back(self):
        # seq 0 (nothing written) requires no propagation round.
        system, emu = self.build(seed=2)
        r = FunctionClient(lambda: emu.read(2, "r", write_back=True))
        system.spawn(2, "client", r.program())
        system.run_until(lambda: r.done, 200_000)
        assert r.result == 0
