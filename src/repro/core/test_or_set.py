"""Test-or-set objects (Section 10).

A *test-or-set* object is a register initialized to 0 that a single
*setter* can set to 1 and any *tester* can test (Definition 26). The
paper uses it in both directions of the optimality result:

* **Possible** (Observation 30): wait-free implementations exist from a
  verifiable, an authenticated, or a sticky register — all three are
  provided here as thin wrappers, each with the paper's stated
  linearization points.
* **Impossible** (Theorem 29): for ``3 <= n <= 3f`` no correct
  implementation from plain SWMR registers exists. The attack script in
  ``repro.adversary.theorem29`` drives the Figure 1 histories against the
  *candidate* implementation below — :class:`QuorumTestOrSet`, the
  natural witness-quorum algorithm built directly on SWMR registers —
  showing every choice of its acceptance threshold breaks one of
  Lemma 28's properties at ``n = 3f``, while the same attacks fail at
  ``n = 3f + 1``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.authenticated import AuthenticatedRegister
from repro.core.interfaces import DONE, AlgorithmBase, as_int
from repro.sim.effects import PAUSE, Await, ReadRegister, WriteRegister
from repro.sim.process import Program, idle_forever
from repro.sim.registers import RegisterSpec, swmr
from repro.sim.system import System
from repro.sim.values import is_bottom

#: The value a Set installs; testers return 1 when they accept it.
SET_FLAG = 1


class _TestOrSetWrapper:
    """A test-or-set over one register object of Algorithms 1–3.

    Installation and Help daemons are the register's own; subclasses
    supply ``procedure_set`` / ``procedure_test`` and a default ``name``.
    """

    OPERATIONS = ("set", "test")
    #: Not a pytest test class despite the name.
    __test__ = False
    #: Object name recorded in the history unless the caller gives one;
    #: each subclass sets its default.
    name: str

    def __init__(self, register: AlgorithmBase, name: Optional[str] = None):
        self.register = register
        if name is not None:
            self.name = name

    def install(self) -> "_TestOrSetWrapper":
        """Install the underlying register's shared state."""
        self.register.install()
        return self

    def start_helpers(self, pids: Optional[Iterable[int]] = None) -> None:
        """Start the underlying register's Help daemons."""
        self.register.start_helpers(pids)

    #: Recorded operation entry point, operation check included: it reads
    #: only ``OPERATIONS``, ``name`` and the ``procedure_*`` methods.
    op = AlgorithmBase.op


class TestOrSetFromVerifiable(_TestOrSetWrapper):
    """Test-or-set from one verifiable register (Section 10).

    ``Set``: ``Write(1)`` then ``Sign(1)`` — linearizing at the Sign.
    ``Test``: ``Verify(1)`` — 1 iff it returns true.
    """

    name = "tos-v"

    def procedure_set(self, pid: int) -> Program:
        """``Set`` = ``Write(1)``; ``Sign(1)``."""
        yield from self.register.procedure_write(pid, SET_FLAG)
        result = yield from self.register.procedure_sign(pid, SET_FLAG)
        return DONE if result == "success" else result

    def procedure_test(self, pid: int) -> Program:
        """``Test`` = ``Verify(1)`` mapped to {0, 1}."""
        verified = yield from self.register.procedure_verify(pid, SET_FLAG)
        return 1 if verified else 0


class TestOrSetFromAuthenticated(_TestOrSetWrapper):
    """Test-or-set from one authenticated register (Section 10).

    ``Set``: ``Write(1)`` (auto-signed). ``Test``: ``Verify(1)``.
    The register must be initialized to a value other than 1 (the paper
    uses ``v0 = 0``) so an unset ``Verify(1)`` is false.
    """

    name = "tos-a"

    def __init__(
        self, register: AuthenticatedRegister, name: Optional[str] = None
    ):
        if register.initial == SET_FLAG:
            raise ValueError("authenticated register must not start at 1")
        super().__init__(register, name)

    def procedure_set(self, pid: int) -> Program:
        """``Set`` = ``Write(1)``."""
        yield from self.register.procedure_write(pid, SET_FLAG)
        return DONE

    def procedure_test(self, pid: int) -> Program:
        """``Test`` = ``Verify(1)`` mapped to {0, 1}."""
        verified = yield from self.register.procedure_verify(pid, SET_FLAG)
        return 1 if verified else 0


class TestOrSetFromSticky(_TestOrSetWrapper):
    """Test-or-set from one sticky register (Section 10).

    ``Set``: ``Write(1)``. ``Test``: ``Read`` — 1 iff it returns 1.
    """

    name = "tos-s"

    def procedure_set(self, pid: int) -> Program:
        """``Set`` = ``Write(1)`` on the sticky register."""
        yield from self.register.procedure_write(pid, SET_FLAG)
        return DONE

    def procedure_test(self, pid: int) -> Program:
        """``Test`` = ``Read`` mapped to {0, 1}."""
        value = yield from self.register.procedure_read(pid)
        return 1 if value == SET_FLAG and not is_bottom(value) else 0


class QuorumTestOrSet(AlgorithmBase):
    """The natural SWMR-register candidate attacked by Theorem 29 (E5).

    This is the terminating witness-quorum algorithm one would write
    without the paper's machinery:

    * ``Set``: the setter writes 1 into its flag register ``S`` and
      returns once it counts ``n - f`` witnesses (it cannot wait for
      more — ``f`` processes may be Byzantine-silent).
    * Witness rule (helper): a process writes 1 into its witness register
      ``W_j`` when it sees ``S = 1``, or when at least ``f + 1`` witness
      registers hold 1.
    * ``Test``: scan all witness registers repeatedly for up to
      ``patience`` scans; return 1 as soon as ``accept_threshold``
      (default ``n - f``) witnesses are seen, else 0.

    For ``n > 3f`` this object satisfies Lemma 28 against the adversary
    scripts we field (the relay chain ``n-f >= 2f+1 -> f+1 correct
    witnesses -> everyone adopts`` goes through). For ``n = 3f`` the
    Figure 1 histories break it for *every* threshold choice — which is
    the content of Theorem 29, made executable.

    ``patience`` bounds the Test scan count so the operation always
    terminates; the impossibility proof allows non-terminating
    implementations too, but a terminating candidate makes the safety
    violation (rather than a hang) observable.
    """

    OPERATIONS = ("set", "test")
    #: Not a pytest test class despite the name.
    __test__ = False

    def __init__(
        self,
        system: System,
        name: str = "tos-q",
        setter: int = 1,
        f: Optional[int] = None,
        accept_threshold: Optional[int] = None,
        patience: int = 16,
    ):
        super().__init__(system, name, writer=setter, f=f, initial=0)
        self.accept_threshold = (
            self.n - self.f if accept_threshold is None else accept_threshold
        )
        self.patience = patience
        # Effects are frozen values, and Set/Test/Help yield the same
        # reads thousands of times per explored schedule — pre-build one
        # instance per register instead of formatting the register name
        # and constructing a fresh dataclass on every yield.
        self._read_flag = ReadRegister(self.reg_flag())
        self._read_witness = tuple(
            ReadRegister(self.reg_witness(i)) for i in self.pids
        )

    # ------------------------------------------------------------------
    def reg_flag(self) -> str:
        """``S`` — the setter's flag register."""
        return f"{self.name}/S"

    def reg_witness(self, i: int) -> str:
        """``W_i`` — process i's witness flag."""
        return f"{self.name}/W[{i}]"

    def register_specs(self) -> Iterable[RegisterSpec]:
        yield swmr(self.reg_flag(), self.writer, initial=0)
        for i in self.pids:
            yield swmr(self.reg_witness(i), i, initial=0)

    # ------------------------------------------------------------------
    def procedure_set(self, pid: int) -> Program:
        """Write the flag, wait for ``n - f`` witnesses, return done.

        The scan loops here and below keep an integer loop index ``i``:
        it is a fingerprint-relevant local (the state explorer must
        distinguish "suspended at witness 2" from "suspended at witness
        3"), while the pre-built read effects themselves abstract to a
        constant.
        """
        self._require_writer(pid)
        yield WriteRegister(self.reg_flag(), SET_FLAG)
        need = self.n - self.f
        while True:
            count = 0
            for i, read in enumerate(self._read_witness):
                if as_int((yield read)) == SET_FLAG:
                    count += 1
            if count >= need:
                return DONE

    def procedure_test(self, pid: int) -> Program:
        """Scan witnesses up to ``patience`` times; threshold decides."""
        accept = self.accept_threshold
        for _scan in range(self.patience):
            count = 0
            for i, read in enumerate(self._read_witness):
                if as_int((yield read)) == SET_FLAG:
                    count += 1
            if count >= accept:
                return 1
            yield PAUSE
        return 0

    def procedure_help(self, pid: int) -> Program:
        """Witness daemon: adopt on seeing the flag or a witness quorum.

        A pass that adopts writes the helper's witness flag and pauses;
        the next pass finds the flag set, and a helper with nothing left
        to do parks for good. A pass that adopts nothing is stutter: it
        parks on every register it read until one of them is written.
        """
        read_own = self._read_witness[pid - 1]
        write_own = WriteRegister(self.reg_witness(pid), SET_FLAG)
        read_flag = self._read_flag
        adopt = self.f + 1
        while True:
            own = yield read_own
            if as_int(own) == SET_FLAG:
                yield from idle_forever()
            flag = yield read_flag
            if as_int(flag) != SET_FLAG:
                seen = [(read_own.register, own), (read_flag.register, flag)]
                count = 0
                # ``i`` goes unread, but as a primitive local it keeps
                # the scan position in the state fingerprint.
                for i, read in enumerate(self._read_witness):
                    raw = yield read
                    seen.append((read.register, raw))
                    if as_int(raw) == SET_FLAG:
                        count += 1
                if count < adopt:
                    yield Await(tuple(seen))
                    continue
            yield write_own
            yield PAUSE
