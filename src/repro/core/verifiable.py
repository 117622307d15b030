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

An *ablation* flag ``reset_set0`` (default True) disables the
set0-resetting mechanism when False, degrading Verify to the naive
"count votes, never revisit" strategy of Section 5.1's broken partial
algorithm — experiment E11 shows that variant violates the relay
property under a colluding adversary.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.interfaces import (
    DONE,
    FAIL,
    SUCCESS,
    AlgorithmBase,
    as_frozenset,
    as_int,
    as_reply_pair,
)
from repro.sim.effects import Await, Pause, ReadRegister, WriteRegister
from repro.sim.process import Program
from repro.sim.registers import RegisterSpec, swmr, swsr
from repro.sim.values import freeze


class VerifiableRegister(AlgorithmBase):
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
        reset_set0: bool = True,
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
        #: E11 ablation switch; True is the paper's algorithm.
        self.reset_set0 = reset_set0
        # Hot-path caches: the poll loops below yield reads of the same
        # registers thousands of times per run; effects are frozen
        # values, so one instance per register serves every yield, and
        # the f-string register names are built once instead of per
        # loop iteration.
        self._read_star = ReadRegister(self.reg_star())
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
        self._counter_names = {k: self.reg_counter(k) for k in self.readers}
        self._witness_names = {i: self.reg_witness(i) for i in self.pids}
        self._reply_names = {
            (j, k): self.reg_reply(j, k)
            for j in self.pids
            for k in self.readers
        }

    # ------------------------------------------------------------------
    # Register naming
    # ------------------------------------------------------------------
    def reg_star(self) -> str:
        """``R*`` — the writer's current-value register."""
        return f"{self.name}/R*"

    def reg_witness(self, i: int) -> str:
        """``R_i`` — process i's witness-set register."""
        return f"{self.name}/R[{i}]"

    def reg_reply(self, j: int, k: int) -> str:
        """``R_jk`` — SWSR reply channel written by j, read by reader k."""
        return f"{self.name}/R[{j}->{k}]"

    def reg_counter(self, k: int) -> str:
        """``C_k`` — reader k's asker counter."""
        return f"{self.name}/C[{k}]"

    def register_specs(self) -> Iterable[RegisterSpec]:
        yield swmr(self.reg_star(), self.writer, initial=self.initial)
        for i in self.pids:
            yield swmr(self.reg_witness(i), i, initial=frozenset())
        for j in self.pids:
            for k in self.readers:
                yield swsr(
                    self.reg_reply(j, k), j, k, initial=(frozenset(), 0)
                )
        for k in self.readers:
            yield swmr(self.reg_counter(k), k, initial=0)

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
        """``Verify(v)`` — lines 11–24.

        The round structure is exactly the paper's: ``set1`` accumulates
        processes that ever replied "yes" (their reply set contained
        ``v``); ``set0`` holds processes that replied "no" *since the last
        yes*; a yes resets ``set0`` (unless the E11 ablation disables the
        reset), giving "no"-voters a chance to re-vote.
        """
        self._require_reader(pid)
        v = freeze(v)
        set0: Set[int] = set()
        set1: Set[int] = set()
        read_counter = self._read_counter[pid]
        counter_name = self._counter_names[pid]
        read_reply = self._read_reply
        pids = self.pids
        while True:  # line 12
            counter = as_int((yield read_counter))
            ck = counter + 1
            yield WriteRegister(counter_name, ck)  # line 13
            # Lines 14-17: repeat reading R_jk of every j not in
            # set1 U set0 until one reply carries c_j >= C_k.
            chosen_j: Optional[int] = None
            chosen_reply: frozenset = frozenset()
            while chosen_j is None:
                progressed = False
                for j in pids:
                    if j in set0 or j in set1:
                        continue
                    progressed = True
                    raw = yield read_reply[(j, pid)]  # line 16
                    payload, cj = as_reply_pair(raw)
                    if cj is not None and cj >= ck:  # line 17
                        chosen_j = j
                        chosen_reply = as_frozenset(payload)
                        break
                if not progressed:
                    # Every process is already classified yet neither
                    # threshold was met — possible only when n <= 3f.
                    # Keep the coroutine schedulable (the operation
                    # legitimately never returns; see Theorem 29 and the
                    # E5 experiments).
                    yield Pause()
            if v in chosen_reply:  # line 18
                set1.add(chosen_j)  # line 19
                if self.reset_set0:
                    set0 = set()  # line 20
            else:  # line 21
                set0.add(chosen_j)  # line 22
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
        readers = self.readers
        pids = self.pids
        read_counter = self._read_counter
        read_witness = self._read_witness
        reply_names = self._reply_names
        own_witness_read = read_witness[pid]
        own_witness_name = self._witness_names[pid]
        counter_names = [read_counter[k].register for k in readers]
        prev_ck: Dict[int, int] = {k: 0 for k in readers}  # line 25
        while True:  # line 26
            cks: Dict[int, int] = {}
            seen: List[Any] = []
            for k in readers:  # line 27
                raw = yield read_counter[k]
                seen.append(raw)
                cks[k] = as_int(raw)
            askers = [k for k in readers if cks[k] > prev_ck[k]]  # line 28
            if not askers:  # line 29
                # An idle pass is stutter: park until some C_k moves.
                yield Await(tuple(zip(counter_names, seen)))
                continue
            witness_sets: Dict[int, frozenset] = {}
            for i in pids:  # line 30
                witness_sets[i] = as_frozenset((yield read_witness[i]))
            signed_by_writer = witness_sets[self.writer]
            candidates: Set[Any] = set()
            for witnessed in witness_sets.values():
                candidates |= witnessed
            adopted = {
                v
                for v in candidates
                # line 31: v in r1 or witnessed by >= f+1 processes
                if v in signed_by_writer
                or sum(1 for i in pids if v in witness_sets[i])
                >= self.f + 1
            }
            own_now = as_frozenset((yield own_witness_read))
            if pid == self.writer:
                # R1's other writer is Sign on the same process; merge
                # through the shared shadow so a concurrently signed
                # value is never clobbered (see __init__).
                self._r1_shadow |= adopted
                merged = own_now | frozenset(self._r1_shadow)
            else:
                merged = own_now | adopted
            yield WriteRegister(own_witness_name, merged)  # line 32
            own_published = yield own_witness_read  # line 33
            for k in askers:  # line 34
                yield WriteRegister(
                    reply_names[(pid, k)], (own_published, cks[k])
                )  # line 35
                prev_ck[k] = cks[k]  # line 36
