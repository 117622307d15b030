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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

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


class RegisterFile:
    """The complete shared memory of one simulated system.

    Not thread-safe — the kernel is single-threaded by design; atomicity
    comes from executing one effect at a time, not from locks.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, RegisterSpec] = {}
        self._values: Dict[str, Any] = {}
        #: Incremental fingerprint: per-name digests, the names written
        #: since the last fold, and the fold itself.
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
        self._fp_dirty.add(spec.name)

    def install_all(self, specs: Iterable[RegisterSpec]) -> None:
        """Install every spec in ``specs``."""
        for spec in specs:
            self.install(spec)

    def spec(self, name: str) -> RegisterSpec:
        """Return the spec of register ``name``."""
        self._require(name)
        return self._specs[name]

    def names(self) -> Tuple[str, ...]:
        """All installed register names, in installation order."""
        return tuple(self._specs)

    # ------------------------------------------------------------------
    # Access (called by the kernel only)
    # ------------------------------------------------------------------
    def read(self, pid: int, name: str) -> Any:
        """Atomic read of ``name`` by ``pid``.

        The kernel serves an allowed read from ``_values`` directly and
        calls this only for an unknown name or a permission failure, so
        this method owns the read errors.
        """
        spec = self._specs.get(name)
        if spec is None:
            raise UnknownRegisterError(f"no register named {name!r}")
        if spec.readers is not None and pid not in spec.readers:
            raise ReadPermissionError(
                f"process {pid} may not read SWSR register {name!r} "
                f"(readers: {sorted(spec.readers or ())})"
            )
        return self._values[name]

    def write(self, pid: int, name: str, value: Any) -> None:
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
        self._values[name] = freeze(value)
        self._fp_dirty.add(name)

    # ------------------------------------------------------------------
    # Direct inspection (experiment harness only)
    # ------------------------------------------------------------------
    def peek(self, name: str) -> Any:
        """Read a register without a process identity or a step.

        For assertions in tests and experiment reports. Never used by
        process programs (they must go through effects).
        """
        self._require(name)
        return self._values[name]

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
