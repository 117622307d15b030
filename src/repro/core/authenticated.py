"""Algorithm 2: SWMR multivalued *authenticated* register (Section 7).

An authenticated register merges the write and the "signing" of a value
into one atomic operation: every written value is automatically signed
(Definition 15). It drops ``R*`` and ``Sign``; instead the writer's
register ``R_1`` holds timestamped tuples ``⟨l, v⟩`` and readers select
the highest tuple — but, crucially, a ``Read`` *verifies* the selected
value before returning it, falling back to ``v0`` when verification
fails (possible only under a Byzantine writer; Section 7.1). Correct for
``n > 3f`` (Theorem 20).

Register families (writer ``p1``, readers ``p2 .. pn``):

=================  =======================  ==========================
Paper name         Simulator name           Role
=================  =======================  ==========================
``R_1``            ``{name}/R[1]``          writer's timestamped tuples
                                            ``{⟨l, v⟩, ...}``; doubles
                                            as the writer's witness set
``R_k`` (k != 1)   ``{name}/R[k]``          reader k's witness set
``R_ik``           ``{name}/R[i->k]``       SWSR reply channel i -> k
``C_k``            ``{name}/C[k]``          reader k's round counter
=================  =======================  ==========================

Comments cite Algorithm 2's line numbers. The ``Verify`` procedure is
identical to Algorithm 1's (the paper states this explicitly); the Help
daemon differs in how the writer's values are extracted from the
timestamped ``R_1`` (lines 29–31).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.interfaces import (
    DONE,
    AlgorithmBase,
    as_frozenset,
    as_int,
    as_reply_pair,
)
from repro.sim.effects import Await, Pause, ReadRegister, WriteRegister
from repro.sim.process import Program
from repro.sim.registers import RegisterSpec, swmr, swsr
from repro.sim.values import freeze, stable_key


def timestamped_values(raw: Any) -> frozenset:
    """Extract ``{v : ⟨-, v⟩ in raw}`` from the writer's register (line 30).

    A Byzantine writer can store arbitrary garbage in ``R_1``; entries
    that are not well-formed ``⟨l, v⟩`` pairs are ignored, and a raw value
    that is not a set at all contributes nothing.
    """
    values: Set[Any] = set()
    if isinstance(raw, frozenset):
        for entry in raw:
            if (
                isinstance(entry, tuple)
                and len(entry) == 2
                and isinstance(entry[0], int)
                and not isinstance(entry[0], bool)
            ):
                values.add(entry[1])
    return frozenset(values)


def well_formed_tuples(raw: Any) -> List[Tuple[int, Any]]:
    """All well-formed ``⟨l, v⟩`` entries of a raw ``R_1`` value (line 5)."""
    if not isinstance(raw, frozenset):
        return []
    out: List[Tuple[int, Any]] = []
    for entry in raw:
        if (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], int)
            and not isinstance(entry[0], bool)
        ):
            out.append((entry[0], entry[1]))
    return out


def max_tuple(tuples: List[Tuple[int, Any]]) -> Tuple[int, Any]:
    """The maximum ``⟨l, v⟩`` under the paper's order (footnote 8).

    ``⟨l, v⟩ >= ⟨l', v'⟩`` iff ``l > l'`` or ``l = l'`` and ``v >= v'``;
    value comparison uses the library's deterministic total order
    (``stable_key``) so heterogeneous Byzantine values still sort.
    """
    return max(tuples, key=lambda lv: (lv[0], stable_key(lv[1])))


class AuthenticatedRegister(AlgorithmBase):
    """Line-faithful implementation of Algorithm 2.

    Operations: ``write`` (writer), ``read`` and ``verify`` (any reader).
    Help daemons must run on every correct process (Theorem 112).
    """

    OPERATIONS = ("write", "read", "verify")

    def __init__(
        self,
        system,
        name: str = "areg",
        writer: int = 1,
        f: Optional[int] = None,
        initial: Any = None,
    ):
        super().__init__(system, name, writer=writer, f=f, initial=initial)
        #: Writer-local timestamp counter ``l`` (line "local variable").
        self._timestamp = 0

    # ------------------------------------------------------------------
    # Register naming
    # ------------------------------------------------------------------
    def reg_witness(self, i: int) -> str:
        """``R_i`` — writer tuples for i = writer, witness set otherwise."""
        return f"{self.name}/R[{i}]"

    def reg_reply(self, j: int, k: int) -> str:
        """``R_jk`` — SWSR reply channel written by j, read by reader k."""
        return f"{self.name}/R[{j}->{k}]"

    def reg_counter(self, k: int) -> str:
        """``C_k`` — reader k's asker counter."""
        return f"{self.name}/C[{k}]"

    def register_specs(self) -> Iterable[RegisterSpec]:
        # R1 initially {⟨0, v0⟩}; reader witness sets initially {v0}
        # (the initial value is deemed signed — Section 6).
        yield swmr(
            self.reg_witness(self.writer),
            self.writer,
            initial=frozenset({(0, self.initial)}),
        )
        for k in self.readers:
            yield swmr(self.reg_witness(k), k, initial=frozenset({self.initial}))
        for j in self.pids:
            for k in self.readers:
                yield swsr(self.reg_reply(j, k), j, k, initial=(frozenset(), 0))
        for k in self.readers:
            yield swmr(self.reg_counter(k), k, initial=0)

    # ------------------------------------------------------------------
    # Writer procedure
    # ------------------------------------------------------------------
    def procedure_write(self, pid: int, v: Any) -> Program:
        """``Write(v)`` — lines 1–3: timestamp and insert atomically."""
        self._require_writer(pid)
        v = freeze(v)
        self._timestamp += 1  # line 1: l <- l + 1 (writer-local)
        current = yield ReadRegister(self.reg_witness(self.writer))
        tuples = current if isinstance(current, frozenset) else frozenset()
        # line 2: R1 <- R1 U {⟨l, v⟩} (owner read-modify-write)
        yield WriteRegister(
            self.reg_witness(self.writer), tuples | {(self._timestamp, v)}
        )
        return DONE  # line 3

    # ------------------------------------------------------------------
    # Reader procedures
    # ------------------------------------------------------------------
    def procedure_read(self, pid: int) -> Program:
        """``Read()`` — lines 4–9: select max tuple, verify, else ``v0``.

        The verification call inside Read is the paper's "dual use" of the
        Verify procedure (footnote 7): it guarantees Observation 19 — a
        Read's return value will verify for every later reader — even when
        a Byzantine writer erases the tuple right after the Read.
        """
        self._require_reader(pid)
        raw = yield ReadRegister(self.reg_witness(self.writer))  # line 4
        tuples = well_formed_tuples(raw)  # line 5 (format check)
        if tuples:
            _ts, candidate = max_tuple(tuples)  # line 6
            verified = yield from self.procedure_verify(
                pid, candidate, _internal=True
            )  # line 7
            if verified:  # line 8
                return candidate
        return self.initial  # line 9

    def procedure_verify(
        self, pid: int, v: Any, _internal: bool = False
    ) -> Program:
        """``Verify(v)`` — lines 10–23; identical to Algorithm 1's.

        ``_internal`` marks executions nested inside Read (they are
        *executions* of the procedure, not Verify *operations*, per the
        paper's Appendix B notation); behaviourally identical.
        """
        self._require_reader(pid)
        v = freeze(v)
        set0: Set[int] = set()
        set1: Set[int] = set()
        while True:  # line 11
            counter = as_int((yield ReadRegister(self.reg_counter(pid))))
            ck = counter + 1
            yield WriteRegister(self.reg_counter(pid), ck)  # line 12
            chosen_j: Optional[int] = None
            chosen_reply: frozenset = frozenset()
            while chosen_j is None:  # lines 13-16
                progressed = False
                for j in self.pids:
                    if j in set0 or j in set1:
                        continue
                    progressed = True
                    raw = yield ReadRegister(self.reg_reply(j, pid))  # line 15
                    payload, cj = as_reply_pair(raw)
                    if cj is not None and cj >= ck:  # line 16
                        chosen_j = j
                        chosen_reply = as_frozenset(payload)
                        break
                if not progressed:
                    yield Pause()  # n <= 3f dead end; see verifiable.py
            if v in chosen_reply:  # line 17
                set1.add(chosen_j)  # line 18
                set0 = set()  # line 19
            else:  # line 20
                set0.add(chosen_j)  # line 21
            if len(set1) >= self.n - self.f:  # line 22
                return True
            if len(set0) > self.f:  # line 23
                return False

    # ------------------------------------------------------------------
    # Help daemon
    # ------------------------------------------------------------------
    def procedure_help(self, pid: int) -> Program:
        """``Help()`` — lines 24–38.

        Differences from Algorithm 1's helper (Section 7.1): the writer's
        values are the *projections* of its timestamped tuples (line 30),
        and the writer itself publishes exactly that projection — its
        witness set *is* ``R_1`` — while other processes accumulate
        adopted values into their own ``R_j`` (lines 31–35).
        """
        counter_names = [self.reg_counter(k) for k in self.readers]
        prev_ck: Dict[int, int] = {k: 0 for k in self.readers}  # line 24
        while True:  # line 25
            cks: Dict[int, int] = {}
            seen: List[Any] = []
            for k, name in zip(self.readers, counter_names):  # line 26
                raw = yield ReadRegister(name)
                seen.append(raw)
                cks[k] = as_int(raw)
            askers = [k for k in self.readers if cks[k] > prev_ck[k]]  # line 27
            if not askers:  # line 28
                # An idle pass is stutter: park until some C_k moves.
                yield Await(tuple(zip(counter_names, seen)))
                continue
            raw_writer = yield ReadRegister(self.reg_witness(self.writer))  # line 29
            writer_values = timestamped_values(raw_writer)  # line 30
            if pid != self.writer:  # line 31
                witness_sets: Dict[int, frozenset] = {self.writer: writer_values}
                for i in self.readers:  # line 32
                    witness_sets[i] = as_frozenset(
                        (yield ReadRegister(self.reg_witness(i)))
                    )
                candidates: Set[Any] = set()
                for witnessed in witness_sets.values():
                    candidates |= witnessed
                adopted = {
                    v
                    for v in candidates
                    # line 33: v in r1 or in >= f+1 of the r_i (the
                    # writer's projection counts as one of the r_i).
                    if v in writer_values
                    or sum(1 for i in self.pids if v in witness_sets[i])
                    >= self.f + 1
                }
                own_now = as_frozenset(
                    (yield ReadRegister(self.reg_witness(pid)))
                )
                yield WriteRegister(self.reg_witness(pid), own_now | adopted)  # line 34
                published = as_frozenset(
                    (yield ReadRegister(self.reg_witness(pid)))
                )  # line 35
            else:
                # For j = 1 the helper publishes the projection of R_1
                # directly (no separate witness register exists).
                published = writer_values
            for k in askers:  # line 36
                yield WriteRegister(self.reg_reply(pid, k), (published, cks[k]))  # line 37
                prev_ck[k] = cks[k]  # line 38
