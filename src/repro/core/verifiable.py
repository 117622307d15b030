"""Algorithm 1: SWMR multivalued *verifiable* register (Section 5).

A verifiable register behaves as a normal SWMR atomic register and
additionally lets the writer ``Sign(v)`` any value it previously wrote,
and lets any reader ``Verify(v)`` whether ``v`` was signed — with the
validity / unforgeability / relay properties of unforgeable signatures
(Observations 11–13) but **without** signatures. Correct for ``n > 3f``
(Theorem 14).

Register families (writer ``p1``, readers ``p2 .. pn``):

=================  =======================  ==========================
Paper name         Simulator name           Role
=================  =======================  ==========================
``R*``             ``{name}/R*``            last written value
``R_i``            ``{name}/R[i]``          witness set of process i
                                            (``R_1`` doubles as the
                                            writer's signed-values set)
``R_ik``           ``{name}/R[i->k]``       SWSR reply channel i -> k
``C_k``            ``{name}/C[k]``          reader k's round counter
=================  =======================  ==========================

The implementation is line-faithful to Algorithm 1; comments cite line
numbers. The only representational liberty is that line 32's per-value
insertions are issued as a single merged set write (one atomic write of
``R_j ∪ {v, ...}``), which is observably equivalent because the values
are inserted into the same register in the same step interval.

The ask/answer protocol over ``R_ik`` / ``C_k`` is
:class:`~repro.core.interfaces.WitnessRegister`'s, shared with
Algorithms 2 and 3; Algorithm 2 binds this module's Verify unchanged.
The E11 ablations of Verify live in :mod:`repro.core.naive`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set

from repro.core.interfaces import (
    DONE,
    FAIL,
    SUCCESS,
    WitnessRegister,
    as_frozenset,
)
from repro.sim.effects import Await, ReadRegister, WriteRegister
from repro.sim.process import Program
from repro.sim.registers import RegisterSpec, swmr
from repro.sim.values import freeze


def adoptable(witness_sets: Dict[int, frozenset], signed: frozenset, f: int) -> Set[Any]:
    """The values a helper adopts: Algorithm 1 line 31, Algorithm 2 line 33.

    ``v`` is adoptable when the writer signed it (``v in signed``) or at
    least ``f + 1`` of the witness sets contain it, so at least one
    correct process witnessed it.
    """
    candidates: Set[Any] = set()
    for witnessed in witness_sets.values():
        candidates |= witnessed
    return {
        v
        for v in candidates
        if v in signed
        or sum(1 for witnessed in witness_sets.values() if v in witnessed) >= f + 1
    }


class VerifiableRegister(WitnessRegister):
    """Line-faithful implementation of Algorithm 1.

    Operations: ``write`` / ``read`` (writer / any reader), ``sign``
    (writer), ``verify`` (any reader). The Help daemon must be running on
    every correct process for Verify to terminate (Theorem 43).
    """

    OPERATIONS = ("write", "read", "sign", "verify")

    def __init__(
        self,
        system,
        name: str = "vreg",
        writer: int = 1,
        f: Optional[int] = None,
        initial: Any = None,
    ):
        super().__init__(system, name, writer=writer, f=f, initial=initial)
        #: Writer-local set ``r*`` of previously written values (line 2).
        self._written: Set[Any] = set()
        #: Process-local shadow of ``R_1``'s intended content. Two
        #: coroutines of the writer's process write ``R_1`` — Sign
        #: (line 5) and the writer's own Help daemon (line 32) — and in
        #: the paper a process is *sequential* (help steps run outside
        #: operation intervals, Section 3.3), so their read-modify-write
        #: pairs never interleave. The simulator schedules the two
        #: coroutines freely, which would let one clobber the other's
        #: update (losing a signed value forever and violating validity,
        #: Obs 11); both therefore merge through this shared set so every
        #: write of ``R_1`` carries the full union.
        self._r1_shadow: Set[Any] = set()

    # ------------------------------------------------------------------
    # Register naming
    # ------------------------------------------------------------------
    def reg_star(self) -> str:
        """``R*`` — the writer's current-value register."""
        return f"{self.name}/R*"

    def register_specs(self) -> Iterable[RegisterSpec]:
        yield swmr(self.reg_star(), self.writer, initial=self.initial)
        for i in self.pids:
            yield swmr(self.reg_witness(i), i, initial=frozenset())
        yield from self.asker_specs()

    # ------------------------------------------------------------------
    # Writer procedures
    # ------------------------------------------------------------------
    def procedure_write(self, pid: int, v: Any) -> Program:
        """``Write(v)`` — lines 1–3."""
        self._require_writer(pid)
        v = freeze(v)
        yield WriteRegister(self.reg_star(), v)  # line 1: R* <- v
        self._written.add(v)  # line 2: r* <- r* U {v} (writer-local)
        return DONE  # line 3

    def procedure_sign(self, pid: int, v: Any) -> Program:
        """``Sign(v)`` — lines 4–8."""
        self._require_writer(pid)
        v = freeze(v)
        if v in self._written:  # line 4: if v in r*
            # line 5: R1 <- R1 U {v}, via the process-local shadow (see
            # __init__): the writer's Help daemon also writes R1, so a
            # read-modify-write here could be interleaved and lost.
            self._r1_shadow.add(v)
            yield WriteRegister(
                self.reg_witness(self.writer), frozenset(self._r1_shadow)
            )
            return SUCCESS  # line 6
        return FAIL  # lines 7-8

    # ------------------------------------------------------------------
    # Reader procedures
    # ------------------------------------------------------------------
    def procedure_read(self, pid: int) -> Program:
        """``Read()`` — lines 9–10."""
        self._require_reader(pid)
        value = yield ReadRegister(self.reg_star())  # line 9
        return value  # line 10

    def procedure_verify(self, pid: int, v: Any) -> Program:
        """``Verify(v)`` — lines 11–24 (Algorithm 2's lines 10–23 too).

        The round structure is exactly the paper's: ``set1`` accumulates
        processes that ever replied "yes" (their reply set contained
        ``v``); ``set0`` holds processes that replied "no" *since the last
        yes*; a yes resets ``set0``, giving "no"-voters a chance to
        re-vote.
        """
        self._require_reader(pid)
        v = freeze(v)
        set0: Set[int] = set()
        set1: Set[int] = set()
        while True:  # line 12
            j, reply = yield from self.ask(pid, set0 | set1)  # lines 13-17
            if v in as_frozenset(reply):  # line 18
                set1.add(j)  # line 19
                set0 = set()  # line 20
            else:  # line 21
                set0.add(j)  # line 22
            if len(set1) >= self.n - self.f:  # line 23
                return True
            if len(set0) > self.f:  # line 24
                return False

    # ------------------------------------------------------------------
    # Help daemon
    # ------------------------------------------------------------------
    def procedure_help(self, pid: int) -> Program:
        """``Help()`` — lines 25–36; runs forever in the background.

        ``pid`` becomes a witness of a value ``v`` when the writer's
        register ``R_1`` contains ``v`` ("the writer signed it") or at
        least ``f + 1`` witness registers contain it (at least one
        correct process witnessed it), and then publishes its witness set
        to every current asker.
        """
        read_witness = self._read_witness
        own_witness_read = read_witness[pid]
        prev_ck: Dict[int, int] = {k: 0 for k in self.readers}  # line 25
        while True:  # line 26
            askers, cks, watch = yield from self.askers(prev_ck)  # lines 27-28
            if not askers:  # line 29
                # An idle pass is stutter: park until some C_k moves.
                yield Await(watch)
                continue
            witness_sets: Dict[int, frozenset] = {}
            for i, read in read_witness.items():  # line 30
                witness_sets[i] = as_frozenset((yield read))
            adopted = adoptable(  # line 31
                witness_sets, witness_sets[self.writer], self.f
            )
            own_now = as_frozenset((yield own_witness_read))
            if pid == self.writer:
                # R1's other writer is Sign on the same process; merge
                # through the shared shadow so a concurrently signed
                # value is never clobbered (see __init__).
                self._r1_shadow |= adopted
                merged = own_now | frozenset(self._r1_shadow)
            else:
                merged = own_now | adopted
            yield WriteRegister(own_witness_read.register, merged)  # line 32
            published = yield own_witness_read  # line 33
            yield from self.answer(pid, askers, cks, published, prev_ck)  # lines 34-36
