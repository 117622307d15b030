"""Common machinery for the register algorithms of the paper.

All three algorithms (1: verifiable, 2: authenticated, 3: sticky) share a
skeleton: a distinguished writer ``p1``, readers ``p2 .. pn``, a family of
shared registers named under an instance prefix, per-process Help daemons,
and Verify/Read procedures that poll SWSR reply registers. This module
provides:

* :class:`AlgorithmBase` — register-name bookkeeping, installation,
  helper spawning, traced operation entry points.
* :class:`WitnessRegister` — the ask/answer protocol of Algorithms 1–3,
  written once: the ``R_i`` / ``R_jk`` / ``C_k`` names and specs, the
  cached read effects, a reader's asker round (:meth:`~WitnessRegister.ask`)
  and a Help daemon's asker scan and reply
  (:meth:`~WitnessRegister.askers`, :meth:`~WitnessRegister.answer`).
* Defensive parsers (:func:`as_frozenset`, :func:`as_int`,
  :func:`as_reply_pair`) — a Byzantine process can store *anything* in the
  registers it owns, so correct code must never crash on malformed
  contents; it treats them as the most pessimistic well-formed value.
* Result constants ``DONE``/``SUCCESS``/``FAIL`` matching the paper's
  operation return values.
"""

from __future__ import annotations

from typing import Any, Container, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolViolation
from repro.sim.effects import PAUSE, Effect, ReadRegister, WriteRegister
from repro.sim.process import Program, call
from repro.sim.registers import RegisterSpec, swmr, swsr
from repro.sim.system import System
from repro.sim.values import freeze

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


def as_int(value: Any) -> int:
    """Interpret a register value as an integer counter; garbage -> 0.

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
    return 0


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
        self.n = system.n
        self.f = system.f if f is None else f
        if not 0 <= self.f < self.n:
            # With n - f <= 0 Verify's yes-quorum is empty, so the first
            # reply of any kind would verify a never-written value.
            raise ConfigurationError(
                f"f must satisfy 0 <= f < n = {self.n}, got {self.f}"
            )
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

        The one entry point every recorded operation goes through — the
        registers, the test-or-set wrappers and the apps all bind it,
        and :class:`~repro.sim.process.ScriptClient` runs each script row
        through it::

            yield from reg.op(pid, "verify", v)

        An ``opname`` outside ``OPERATIONS`` raises
        :class:`ConfigurationError`; the args are recorded frozen (a list
        becomes a tuple) under the target's ``name``, and the procedure
        receives them as given.
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


class WitnessRegister(AlgorithmBase):
    """The ask/answer protocol Algorithms 1–3 share.

    A reader *asks* by bumping its counter ``C_k`` and polling the reply
    channels ``R_jk`` until some process ``j`` answers with a counter
    ``c_j >= C_k`` (:meth:`ask`); every Help daemon scans the counters
    for new askers (:meth:`askers`) and writes each one its current
    report (:meth:`answer`). What a report is — a witness set, one
    witnessed value — and what an asker does with it is the subclass's.
    """

    #: The "I witness nothing" report; every ``R_jk`` starts at
    #: ``(NO_REPORT, 0)``.
    NO_REPORT: Any = frozenset()

    def __init__(
        self,
        system: System,
        name: str,
        writer: int = 1,
        f: Optional[int] = None,
        initial: Any = None,
    ):
        super().__init__(system, name, writer=writer, f=f, initial=initial)
        # Hot-path caches: the poll loops yield reads of the same
        # registers thousands of times per run; effects are frozen
        # values, so one instance per register serves every yield, and
        # its ``register`` field is the name, built once.
        self._read_counter = {
            k: ReadRegister(self.reg_counter(k)) for k in self.readers
        }
        self._read_witness = {
            i: ReadRegister(self.reg_witness(i)) for i in self.pids
        }
        self._read_reply = {
            (j, k): ReadRegister(self.reg_reply(j, k))
            for j in self.pids
            for k in self.readers
        }

    # ------------------------------------------------------------------
    # Register naming
    # ------------------------------------------------------------------
    def reg_witness(self, i: int) -> str:
        """``R_i`` — process i's witness register."""
        return f"{self.name}/R[{i}]"

    def reg_reply(self, j: int, k: int) -> str:
        """``R_jk`` — SWSR reply channel written by j, read by reader k."""
        return f"{self.name}/R[{j}->{k}]"

    def reg_counter(self, k: int) -> str:
        """``C_k`` — reader k's asker counter."""
        return f"{self.name}/C[{k}]"

    def asker_specs(self) -> Iterable[RegisterSpec]:
        """Every reply channel ``R_jk`` and asker counter ``C_k``."""
        for j in self.pids:
            for k in self.readers:
                yield swsr(self.reg_reply(j, k), j, k, initial=(self.NO_REPORT, 0))
        for k in self.readers:
            yield swmr(self.reg_counter(k), k, initial=0)

    # ------------------------------------------------------------------
    # The asker side
    # ------------------------------------------------------------------
    def ask(
        self, pid: int, classified: Container[int]
    ) -> Generator[Effect, Any, Tuple[int, Any]]:
        """One asker round of reader ``pid``; returns ``(j, payload)``.

        Algorithm 1 lines 12–17, Algorithm 2 lines 11–16, Algorithm 3
        lines 8–14: bump ``C_k``, then poll ``R_jk`` of every ``j`` not
        in ``classified`` until one reply carries ``c_j >= C_k``. The
        payload is returned unparsed. When every process is already
        classified yet the caller's thresholds were not met — possible
        only when ``n <= 3f`` — the round pauses forever: the coroutine
        stays schedulable and the operation legitimately never returns
        (Theorem 29 and the E5 experiments).
        """
        read_counter = self._read_counter[pid]
        ck = as_int((yield read_counter)) + 1
        yield WriteRegister(read_counter.register, ck)
        pending = [
            (j, self._read_reply[(j, pid)]) for j in self.pids if j not in classified
        ]
        if not pending:
            while True:
                yield PAUSE
        while True:
            for j, read_reply in pending:
                payload, cj = as_reply_pair((yield read_reply))
                if cj is not None and cj >= ck:
                    return j, payload

    # ------------------------------------------------------------------
    # The helper side
    # ------------------------------------------------------------------
    def askers(
        self, prev_ck: Dict[int, int]
    ) -> Generator[Effect, Any, Tuple[List[int], Dict[int, int], tuple]]:
        """The Help daemon's asker scan; returns ``(askers, cks, watch)``.

        Algorithm 1 lines 27–28, Algorithm 2 lines 26–27, Algorithm 3
        lines 31–32: read every ``C_k``; the askers are the readers whose
        counter moved past ``prev_ck``. ``watch`` pairs each counter with
        the value read, ready for an idle helper's ``Await``.
        """
        cks: Dict[int, int] = {}
        seen = []
        for k, read_counter in self._read_counter.items():
            raw = yield read_counter
            seen.append((read_counter.register, raw))
            cks[k] = as_int(raw)
        askers = [k for k in cks if cks[k] > prev_ck[k]]
        return askers, cks, tuple(seen)

    def answer(
        self,
        pid: int,
        askers: List[int],
        cks: Dict[int, int],
        published: Any,
        prev_ck: Dict[int, int],
    ) -> Program:
        """Write ``(published, C_k)`` to every asker's ``R_pid,k``.

        Algorithm 1 lines 34–36, Algorithm 2 lines 36–38, Algorithm 3
        lines 38–40; ``prev_ck`` records each asker as served.
        """
        read_reply = self._read_reply
        for k in askers:
            yield WriteRegister(read_reply[(pid, k)].register, (published, cks[k]))
            prev_ck[k] = cks[k]
