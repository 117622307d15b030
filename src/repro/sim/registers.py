"""Atomic SWMR / SWSR registers with hardware-enforced ports.

This module is the shared memory of the simulated system. Every register
is single-writer: exactly one process owns its write port, and — per the
paper's Remark in Section 1 — this ownership is enforced *below* the
algorithm level, so not even a Byzantine process can forge a write into
another process's register. Reads are multi-reader by default (SWMR) or
restricted to one named reader (SWSR, used for the ``R_jk`` helper
channels of Algorithms 1–3).

Registers are atomic: the kernel executes one effect at a time, so every
read returns the value of the latest preceding write (or the initial
value). Values are frozen on write (``repro.sim.values.freeze``) so no
process can mutate register contents in place.

The :class:`RegisterFile` also keeps per-register access counters, which
the analysis layer uses for step-complexity experiments (E10), and an
optional full access log for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    OwnershipError,
    ReadPermissionError,
    UnknownRegisterError,
)
from repro.sim.fingerprint import digest64
from repro.sim.values import freeze


@dataclass(frozen=True)
class RegisterSpec:
    """Static description of one register.

    Attributes:
        name: Globally unique register name, e.g. ``"vreg/R[3]"``.
        writer: Pid of the single process whose writes are accepted.
        readers: ``None`` for multi-reader (SWMR); otherwise the frozen set
            of pids allowed to read (SWSR uses a singleton set).
        initial: Initial value (frozen on installation).
    """

    name: str
    writer: int
    readers: Optional[FrozenSet[int]] = None
    initial: Any = None

    def readable_by(self, pid: int) -> bool:
        """Whether ``pid`` may read this register."""
        return self.readers is None or pid in self.readers


@dataclass
class RegisterAccess:
    """One entry of the optional access log."""

    time: int
    pid: int
    register: str
    kind: str  # "read" | "write"
    value: Any


class RegisterFile:
    """The complete shared memory of one simulated system.

    Not thread-safe — the kernel is single-threaded by design; atomicity
    comes from executing one effect at a time, not from locks.
    """

    def __init__(self, record_accesses: bool = False):
        self._specs: Dict[str, RegisterSpec] = {}
        self._values: Dict[str, Any] = {}
        self._read_counts: Dict[str, int] = {}
        self._write_counts: Dict[str, int] = {}
        self._record_accesses = record_accesses
        self._access_log: List[RegisterAccess] = []
        #: Bumped on every mutation (install / write / reset): an
        #: observable change counter for tests and tooling that cache
        #: derived views of shared memory. (The incremental fingerprint
        #: itself tracks the finer-grained per-name dirty set below.)
        self.version = 0
        self._fp_digests: Dict[str, int] = {}
        self._fp_dirty: set = set()
        self._fp_fold = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, spec: RegisterSpec) -> None:
        """Add a register; raises on duplicate names."""
        if spec.name in self._specs:
            raise ConfigurationError(f"register {spec.name!r} already installed")
        self._specs[spec.name] = spec
        self._values[spec.name] = freeze(spec.initial)
        self._read_counts[spec.name] = 0
        self._write_counts[spec.name] = 0
        self.version += 1
        self._fp_dirty.add(spec.name)

    def install_all(self, specs: Iterable[RegisterSpec]) -> None:
        """Install every spec in ``specs``."""
        for spec in specs:
            self.install(spec)

    def has(self, name: str) -> bool:
        """Whether a register named ``name`` exists."""
        return name in self._specs

    def spec(self, name: str) -> RegisterSpec:
        """Return the spec of register ``name``."""
        self._require(name)
        return self._specs[name]

    def names(self) -> Tuple[str, ...]:
        """All installed register names, in installation order."""
        return tuple(self._specs)

    def items(self) -> Iterable[Tuple[str, Any]]:
        """``(name, current value)`` pairs in installation order.

        A copy-free view for the kernel's state fingerprint; callers
        must not mutate while iterating.
        """
        return self._values.items()

    # ------------------------------------------------------------------
    # Access (called by the kernel only)
    # ------------------------------------------------------------------
    def read(self, pid: int, name: str, time: int) -> Any:
        """Atomic read of ``name`` by ``pid`` at virtual time ``time``."""
        # Hottest method in the repository (one call per ReadRegister
        # step): permission check inlined, single spec lookup.
        spec = self._specs.get(name)
        if spec is None:
            raise UnknownRegisterError(f"no register named {name!r}")
        if spec.readers is not None and pid not in spec.readers:
            raise ReadPermissionError(
                f"process {pid} may not read SWSR register {name!r} "
                f"(readers: {sorted(spec.readers or ())})"
            )
        self._read_counts[name] += 1
        value = self._values[name]
        if self._record_accesses:
            self._access_log.append(RegisterAccess(time, pid, name, "read", value))
        return value

    def write(self, pid: int, name: str, value: Any, time: int) -> None:
        """Atomic write of ``value`` into ``name`` by ``pid``.

        Raises :class:`OwnershipError` when ``pid`` is not the owner. This
        models the hardware write port: the check applies to *all*
        processes, Byzantine ones included.
        """
        spec = self._specs.get(name)
        if spec is None:
            raise UnknownRegisterError(f"no register named {name!r}")
        if spec.writer != pid:
            raise OwnershipError(
                f"process {pid} attempted to write register {name!r} "
                f"owned by process {spec.writer}"
            )
        frozen = freeze(value)
        self._values[name] = frozen
        self._write_counts[name] += 1
        self.version += 1
        self._fp_dirty.add(name)
        if self._record_accesses:
            self._access_log.append(RegisterAccess(time, pid, name, "write", frozen))

    # ------------------------------------------------------------------
    # Direct inspection / manipulation (experiment harness only)
    # ------------------------------------------------------------------
    def peek(self, name: str) -> Any:
        """Read a register without a process identity or a step.

        For assertions in tests and experiment reports. Never used by
        process programs (they must go through effects).
        """
        self._require(name)
        return self._values[name]

    def reset_to_initial(self, name: str) -> None:
        """Restore a register's initial value *without* an owner check.

        Exists solely for the Theorem 29 construction, where Byzantine
        processes reset the registers *they own*; attack scripts normally
        issue proper Write effects instead, but history-surgery utilities
        need this low-level hook when replaying prefix-identical runs.
        """
        self._require(name)
        self._values[name] = freeze(self._specs[name].initial)
        self.version += 1
        self._fp_dirty.add(name)

    # ------------------------------------------------------------------
    # Fingerprinting (kernel hook)
    # ------------------------------------------------------------------
    def fingerprint_fold(self, full: bool = False) -> int:
        """XOR fold of per-register digests (see ``repro.sim.fingerprint``).

        Incrementally maintained: only registers written since the last
        call are re-hashed. ``full=True`` recomputes every digest from
        the current values without touching the caches — the correctness
        oracle the incremental path is checked against.
        """
        if full:
            fold = 0
            for name, value in self._values.items():
                fold ^= digest64(f"reg\x00{name}\x00{value!r}")
            return fold
        dirty = self._fp_dirty
        if dirty:
            digests = self._fp_digests
            values = self._values
            fold = self._fp_fold
            for name in dirty:
                fresh = digest64(f"reg\x00{name}\x00{values[name]!r}")
                fold ^= digests.get(name, 0) ^ fresh
                digests[name] = fresh
            dirty.clear()
            self._fp_fold = fold
        return self._fp_fold

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def read_count(self, name: str) -> int:
        """Total reads served by register ``name``."""
        self._require(name)
        return self._read_counts[name]

    def write_count(self, name: str) -> int:
        """Total writes applied to register ``name``."""
        self._require(name)
        return self._write_counts[name]

    def total_accesses(self) -> int:
        """Total register operations across the whole memory."""
        return sum(self._read_counts.values()) + sum(self._write_counts.values())

    @property
    def access_log(self) -> Tuple[RegisterAccess, ...]:
        """The access log (empty unless ``record_accesses=True``)."""
        return tuple(self._access_log)

    # ------------------------------------------------------------------
    def _require(self, name: str) -> None:
        if name not in self._specs:
            raise UnknownRegisterError(f"no register named {name!r}")


def swmr(name: str, writer: int, initial: Any = None) -> RegisterSpec:
    """Convenience constructor for a single-writer multi-reader register."""
    return RegisterSpec(name=name, writer=writer, readers=None, initial=initial)


def swsr(name: str, writer: int, reader: int, initial: Any = None) -> RegisterSpec:
    """Convenience constructor for a single-writer single-reader register."""
    return RegisterSpec(
        name=name, writer=writer, readers=frozenset({reader}), initial=initial
    )
