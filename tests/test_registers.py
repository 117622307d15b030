"""Unit tests for the shared-memory register file (repro.sim.registers)."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    OwnershipError,
    ReadPermissionError,
    UnknownRegisterError,
)
from repro.sim import Pause, ReadRegister, System, WriteRegister
from repro.sim.registers import RegisterFile, RegisterSpec, swmr, swsr


@pytest.fixture
def memory() -> RegisterFile:
    file = RegisterFile()
    file.install(swmr("A", writer=1, initial=0))
    file.install(swsr("B", writer=2, reader=3, initial=(frozenset(), 0)))
    return file


class TestInstallation:
    def test_duplicate_name_rejected(self, memory):
        with pytest.raises(ConfigurationError):
            memory.install(swmr("A", writer=2))

    def test_names_in_order(self, memory):
        assert memory.names() == ("A", "B")

    def test_initial_value_frozen(self):
        file = RegisterFile()
        file.install(swmr("S", writer=1, initial={1, 2}))
        assert file.peek("S") == frozenset({1, 2})

    def test_install_all(self):
        file = RegisterFile()
        file.install_all([swmr("X", 1), swmr("Y", 2)])
        assert file.names() == ("X", "Y")


class TestOwnership:
    def test_owner_may_write(self, memory):
        memory.write(1, "A", 7)
        assert memory.peek("A") == 7

    def test_non_owner_write_raises(self, memory):
        with pytest.raises(OwnershipError):
            memory.write(2, "A", 7)

    def test_byzantine_cannot_bypass_port(self, memory):
        # The check is identity-based with no escape hatch: any pid other
        # than the owner is rejected, which is the paper's hardware port.
        for pid in (2, 3, 4, 99):
            with pytest.raises(OwnershipError):
                memory.write(pid, "A", "forged")

    def test_swsr_reader_restriction(self, memory):
        assert memory.read(3, "B") == (frozenset(), 0)
        with pytest.raises(ReadPermissionError):
            memory.read(4, "B")
        with pytest.raises(ReadPermissionError):
            memory.read(1, "B")

    def test_swmr_readable_by_anyone(self, memory):
        for pid in (1, 2, 3, 42):
            assert memory.read(pid, "A") == 0


class TestAtomicSnapshotSemantics:
    def test_read_returns_latest_write(self, memory):
        memory.write(1, "A", 1)
        memory.write(1, "A", 2)
        assert memory.read(9, "A") == 2

    def test_written_value_frozen(self, memory):
        source = {1}
        memory.write(1, "A", source)
        source.add(2)
        assert memory.read(5, "A") == frozenset({1})

    def test_unknown_register(self, memory):
        with pytest.raises(UnknownRegisterError):
            memory.read(1, "nope")
        with pytest.raises(UnknownRegisterError):
            memory.write(1, "nope", 0)


class TestMetrics:
    """Register accesses are counted and observed by the stepping ``System``."""

    @staticmethod
    def run_accesses():
        system = System(n=3)
        system.install_register(swmr("A", writer=1, initial=0))

        def writer():
            yield WriteRegister("A", 5)

        def reader():
            yield Pause()
            yield ReadRegister("A")

        seen = []
        system.on_step = lambda _cid, effect: seen.append(effect)
        system.spawn(1, "w", writer())
        system.spawn(2, "r", reader())
        system.spawn(3, "r", reader())
        system.run(20)
        return system, seen

    def test_counts(self):
        system, _ = self.run_accesses()
        assert (system.metrics.writes, system.metrics.reads) == (1, 2)

    def test_access_log_enabled(self):
        system, seen = self.run_accesses()
        accesses = [e for e in seen if isinstance(e, (WriteRegister, ReadRegister))]
        assert accesses.count(WriteRegister("A", 5)) == 1
        assert accesses.count(ReadRegister("A")) == 2
        assert system.registers.peek("A") == 5


class TestSpecHelpers:
    def test_swmr_spec(self):
        spec = swmr("R", writer=3, initial="x")
        assert spec.readers is None
        file = RegisterFile()
        file.install(spec)
        assert file.read(1, "R") == file.read(99, "R") == "x"

    def test_swsr_spec(self):
        spec = swsr("R", writer=3, reader=5)
        assert spec.readers == frozenset({5})
        file = RegisterFile()
        file.install(spec)
        assert file.read(5, "R") is None
        with pytest.raises(ReadPermissionError):
            file.read(3, "R")
