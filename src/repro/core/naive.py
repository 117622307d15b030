"""Naive strawman registers: what goes wrong without the paper's machinery.

Two broken designs from the paper's own discussion, written out so
attack demos and tests can exhibit the failures concretely:

1. :class:`NaiveVerifiableRegister` — Section 5.1's opening problem. A
   reader who sees a value ``v`` in the writer's register cannot treat
   it as signed: a Byzantine writer can erase ``v`` and "deny" having
   written it. ``Sign(v)`` publishes ``v`` in a writer-owned register
   and ``Verify(v)`` just reads it; a single Byzantine writer then
   violates the relay property (sign, let a reader verify, erase — the
   next verifier gets false).

2. :class:`NaiveQuorumVerifiableRegister` — Section 5.1's "partial
   algorithm": Verify asks everyone and decides from the first
   ``n - f`` distinct replies against a fixed yes-threshold ``τ``.
   The paper explains why every ``τ`` fails when ``f < k < 2f + 1``
   yes-votes arrive: colluding flip-flop witnesses (and a denying
   writer) give an early verifier ``τ`` yes-votes and a later one fewer,
   breaking relay; the set0/set1 round machinery of Algorithm 1 is
   exactly the fix. Experiment E11 stages this attack.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set

from repro.core.interfaces import DONE, FAIL, SUCCESS, AlgorithmBase, as_frozenset
from repro.core.verifiable import VerifiableRegister
from repro.sim.effects import Pause, ReadRegister, WriteRegister
from repro.sim.process import Program, idle_forever
from repro.sim.registers import RegisterSpec, swmr
from repro.sim.values import freeze


class NaiveVerifiableRegister(AlgorithmBase):
    """The erasable strawman: verification trusts the writer's register."""

    OPERATIONS = ("write", "read", "sign", "verify")

    def __init__(
        self,
        system,
        name: str = "naive",
        writer: int = 1,
        f: Optional[int] = None,
        initial: Any = None,
    ):
        super().__init__(system, name, writer=writer, f=f, initial=initial)
        self._written: Set[Any] = set()

    def reg_value(self) -> str:
        """The writer's plain value register."""
        return f"{self.name}/V"

    def reg_signed(self) -> str:
        """The writer's (erasable!) signed-set register."""
        return f"{self.name}/SIG"

    def register_specs(self) -> Iterable[RegisterSpec]:
        yield swmr(self.reg_value(), self.writer, initial=self.initial)
        yield swmr(self.reg_signed(), self.writer, initial=frozenset())

    def procedure_write(self, pid: int, v: Any) -> Program:
        """Plain write."""
        self._require_writer(pid)
        v = freeze(v)
        yield WriteRegister(self.reg_value(), v)
        self._written.add(v)
        return DONE

    def procedure_read(self, pid: int) -> Program:
        """Plain read."""
        self._require_reader(pid)
        value = yield ReadRegister(self.reg_value())
        return value

    def procedure_sign(self, pid: int, v: Any) -> Program:
        """Publish ``v`` as signed — in a register the writer can erase."""
        self._require_writer(pid)
        v = freeze(v)
        if v not in self._written:
            return FAIL
        current = as_frozenset((yield ReadRegister(self.reg_signed())))
        yield WriteRegister(self.reg_signed(), current | {v})
        return SUCCESS

    def procedure_verify(self, pid: int, v: Any) -> Program:
        """Trust whatever the writer's register currently says."""
        self._require_reader(pid)
        v = freeze(v)
        signed = as_frozenset((yield ReadRegister(self.reg_signed())))
        return v in signed

    def procedure_help(self, pid: int) -> Program:
        """No helping — that is exactly what is missing."""
        return idle_forever()


class NaiveQuorumVerifiableRegister(VerifiableRegister):
    """Section 5.1's broken "partial algorithm" for Verify (E11 ablation).

    Inherits Write/Read/Sign and the Help daemon from Algorithm 1 but
    replaces Verify's round machinery with the naive strategy the paper
    dismisses: one asker round, collect replies from the first ``n - f``
    *distinct* processes, count how many include the value, and compare
    against a fixed threshold ``tau`` (default ``2f + 1``):

    * ``k >= tau``  -> true
    * otherwise     -> false

    Against flip-flop witnesses this violates the relay property —
    exactly the bind described in Section 5.1 — because a process's
    "yes" is not locked in: it can answer "no" to the next verifier, and
    nothing in the naive scheme ever re-asks or remembers.
    """

    def __init__(
        self,
        system,
        name: str = "nqreg",
        writer: int = 1,
        f: Optional[int] = None,
        initial: Any = None,
        tau: Optional[int] = None,
    ):
        super().__init__(system, name, writer=writer, f=f, initial=initial)
        self.tau = (2 * self.f + 1) if tau is None else tau

    def procedure_verify(self, pid: int, v: Any) -> Program:
        """Collect first ``n - f`` distinct replies; threshold decides."""
        self._require_reader(pid)
        v = freeze(v)
        from repro.core.interfaces import as_int, as_reply_pair

        counter = as_int((yield ReadRegister(self.reg_counter(pid))))
        ck = counter + 1
        yield WriteRegister(self.reg_counter(pid), ck)
        replied: Dict[int, frozenset] = {}
        while len(replied) < self.n - self.f:
            for j in self.pids:
                if j in replied:
                    continue
                raw = yield ReadRegister(self.reg_reply(j, pid))
                payload, cj = as_reply_pair(raw)
                if cj is not None and cj >= ck:
                    replied[j] = as_frozenset(payload)
                    if len(replied) >= self.n - self.f:
                        break
            else:
                yield Pause()
        yes_votes = sum(1 for reply in replied.values() if v in reply)
        return yes_votes >= self.tau
