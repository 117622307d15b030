"""Common machinery for the register algorithms of the paper.

All three algorithms (1: verifiable, 2: authenticated, 3: sticky) share a
skeleton: a distinguished writer ``p1``, readers ``p2 .. pn``, a family of
shared registers named under an instance prefix, per-process Help daemons,
and Verify/Read procedures that poll SWSR reply registers. This module
provides:

* :class:`AlgorithmBase` — register-name bookkeeping, installation,
  helper spawning, traced operation entry points.
* Defensive parsers (:func:`as_frozenset`, :func:`as_int`,
  :func:`as_reply_pair`) — a Byzantine process can store *anything* in the
  registers it owns, so correct code must never crash on malformed
  contents; it treats them as the most pessimistic well-formed value.
* Result constants ``DONE``/``SUCCESS``/``FAIL`` matching the paper's
  operation return values.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ProtocolViolation
from repro.sim.effects import Effect
from repro.sim.process import Program, call
from repro.sim.system import System
from repro.sim.values import BOTTOM, freeze

#: Return value of Write operations (Definitions 10, 15, 21).
DONE = "done"
#: Return values of Sign operations (Definition 10).
SUCCESS = "success"
FAIL = "fail"


def as_frozenset(value: Any) -> frozenset:
    """Interpret a register value as a set of values; garbage -> empty set.

    Used when reading witness-set registers (``R_i``) that a Byzantine
    owner may have filled with arbitrary data. An ill-typed value conveys
    no witnessed values, which is the safe reading.
    """
    if value.__class__ is frozenset or isinstance(value, frozenset):
        return value
    return frozenset()


def as_int(value: Any, default: int = 0) -> int:
    """Interpret a register value as an integer counter; garbage -> default.

    ``bool`` is rejected despite being an ``int`` subclass so a Byzantine
    ``True`` does not masquerade as counter 1 in a way that differs from
    the writer's own arithmetic.
    """
    # Exact-type fast path (one pointer compare) for the overwhelmingly
    # common case; subclasses of int (bool excluded) fall through to the
    # precise check.
    if value.__class__ is int:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return default


def as_reply_pair(value: Any) -> Tuple[Any, Optional[int]]:
    """Parse a helper-reply register ``R_jk`` as ``(payload, counter)``.

    Returns ``(payload, None)`` when malformed; a ``None`` counter never
    satisfies the ``c_j >= C_k`` exit condition, so garbage from a
    Byzantine helper simply never unblocks a waiting reader — exactly the
    behaviour of a helper that stays silent.
    """
    if (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[1], int)
        and not isinstance(value[1], bool)
    ):
        return value[0], value[1]
    return None, None


class AlgorithmBase:
    """Shared structure of the paper's register implementations.

    Subclasses define their register families by overriding
    :meth:`register_specs` and implement the operation procedures. The
    base class owns naming, installation, the reader/writer role checks,
    and helper-daemon spawning.

    Args:
        system: The simulated system to install into.
        name: Instance prefix for register names (multiple register
            instances may coexist in one system).
        writer: Pid of the single writer (defaults to 1, as in the paper).
        f: Fault tolerance the instance is configured for; defaults to the
            system's declared ``f``. Experiments probing the ``n <= 3f``
            regime configure this explicitly.
        initial: Initial register value ``v0`` (``BOTTOM`` for sticky).
    """

    #: Operation names exposed via :meth:`op`; subclasses override.
    OPERATIONS: Tuple[str, ...] = ()

    def __init__(
        self,
        system: System,
        name: str,
        writer: int = 1,
        f: Optional[int] = None,
        initial: Any = None,
    ):
        if writer not in system.pids:
            raise ConfigurationError(f"writer pid {writer} not in system")
        self.system = system
        self.name = name
        self.writer = writer
        self.f = system.f if f is None else f
        if self.f < 0:
            raise ConfigurationError(f"f must be >= 0, got {self.f}")
        self.n = system.n
        self.initial = freeze(initial)
        self._installed = False
        self._pids_cache: Optional[Tuple[int, ...]] = None
        self._readers_cache: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def pids(self) -> Tuple[int, ...]:
        """All process ids participating in this register instance.

        Cached: the topology is fixed at construction, and the helper
        daemons iterate this on every poll loop.
        """
        cached = self._pids_cache
        if cached is None:
            cached = self._pids_cache = tuple(self.system.pids)
        return cached

    @property
    def readers(self) -> Tuple[int, ...]:
        """The reader pids (everyone but the writer); cached like pids."""
        cached = self._readers_cache
        if cached is None:
            cached = self._readers_cache = tuple(
                pid for pid in self.system.pids if pid != self.writer
            )
        return cached

    # ------------------------------------------------------------------
    # Installation and helpers
    # ------------------------------------------------------------------
    def register_specs(self) -> Iterable[Any]:
        """The register family of this instance; subclasses override."""
        raise NotImplementedError

    def install(self) -> "AlgorithmBase":
        """Install all shared registers; idempotent guard included."""
        if self._installed:
            raise ConfigurationError(f"{self.name!r} already installed")
        self.system.install_registers(self.register_specs())
        self._installed = True
        return self

    def procedure_help(self, pid: int) -> Program:
        """The background Help daemon; subclasses override."""
        raise NotImplementedError

    def start_helpers(self, pids: Optional[Iterable[int]] = None) -> None:
        """Spawn Help daemons for the given pids (default: all correct).

        Byzantine processes do not get a correct helper by default — they
        are free to run an adversarial one from ``repro.adversary``.
        """
        targets = list(pids) if pids is not None else sorted(self.system.correct)
        for pid in targets:
            self.system.spawn(pid, f"help:{self.name}", self.procedure_help(pid))

    # ------------------------------------------------------------------
    # Traced operation entry point
    # ------------------------------------------------------------------
    def op(self, pid: int, opname: str, *args: Any) -> Program:
        """A recorded operation: Invoke + procedure + Respond.

        This is the public API clients compose into scripts::

            yield from reg.op(pid, "verify", v)
        """
        if opname not in self.OPERATIONS:
            raise ConfigurationError(
                f"{type(self).__name__} has no operation {opname!r}; "
                f"available: {self.OPERATIONS}"
            )
        procedure = getattr(self, f"procedure_{opname}")(pid, *args)
        return call(self.name, opname, tuple(freeze(a) for a in args), procedure)

    # ------------------------------------------------------------------
    # Role guards (sanity checks on *correct* programs only)
    # ------------------------------------------------------------------
    def _require_writer(self, pid: int) -> None:
        if pid != self.writer:
            raise ProtocolViolation(
                f"operation reserved to the writer p{self.writer}, "
                f"called by p{pid}"
            )

    def _require_reader(self, pid: int) -> None:
        if pid == self.writer:
            raise ProtocolViolation(
                f"operation reserved to readers, called by the writer p{pid}"
            )
