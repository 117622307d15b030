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
identical to Algorithm 1's (the paper states this explicitly), so the
class binds :meth:`VerifiableRegister.procedure_verify` rather than
copying it; the ask/answer protocol is the shared
:class:`~repro.core.interfaces.WitnessRegister`'s. The Help daemon
differs in how the writer's values are extracted from the timestamped
``R_1`` (lines 29–31).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.interfaces import DONE, WitnessRegister, as_frozenset
from repro.core.verifiable import VerifiableRegister, adoptable
from repro.sim.effects import Await, WriteRegister
from repro.sim.process import Program
from repro.sim.registers import RegisterSpec, swmr
from repro.sim.values import freeze, stable_key


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


def timestamped_values(raw: Any) -> frozenset:
    """Extract ``{v : ⟨-, v⟩ in raw}`` from the writer's register (line 30).

    The projection of :func:`well_formed_tuples`: entries of a Byzantine
    writer's ``R_1`` that are not well-formed ``⟨l, v⟩`` pairs are
    ignored, and a raw value that is not a set contributes nothing.
    """
    return frozenset({v for _l, v in well_formed_tuples(raw)})


def max_tuple(tuples: List[Tuple[int, Any]]) -> Tuple[int, Any]:
    """The maximum ``⟨l, v⟩`` under the paper's order (footnote 8).

    ``⟨l, v⟩ >= ⟨l', v'⟩`` iff ``l > l'`` or ``l = l'`` and ``v >= v'``;
    value comparison uses the library's deterministic total order
    (``stable_key``) so heterogeneous Byzantine values still sort.
    """
    return max(tuples, key=lambda lv: (lv[0], stable_key(lv[1])))


class AuthenticatedRegister(WitnessRegister):
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

    def register_specs(self) -> Iterable[RegisterSpec]:
        # R1 initially {⟨0, v0⟩}; reader witness sets initially {v0}
        # (the initial value is deemed signed — Section 6). R1 holds the
        # writer's tuples and doubles as its witness register.
        yield swmr(
            self.reg_witness(self.writer),
            self.writer,
            initial=frozenset({(0, self.initial)}),
        )
        for k in self.readers:
            yield swmr(self.reg_witness(k), k, initial=frozenset({self.initial}))
        yield from self.asker_specs()

    # ------------------------------------------------------------------
    # Writer procedure
    # ------------------------------------------------------------------
    def procedure_write(self, pid: int, v: Any) -> Program:
        """``Write(v)`` — lines 1–3: timestamp and insert atomically."""
        self._require_writer(pid)
        v = freeze(v)
        self._timestamp += 1  # line 1: l <- l + 1 (writer-local)
        current = yield self._read_witness[self.writer]
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
        raw = yield self._read_witness[self.writer]  # line 4
        tuples = well_formed_tuples(raw)  # line 5 (format check)
        if tuples:
            _ts, candidate = max_tuple(tuples)  # line 6
            verified = yield from self.procedure_verify(pid, candidate)  # line 7
            if verified:  # line 8
                return candidate
        return self.initial  # line 9

    #: ``Verify(v)`` — lines 10–23, identical to Algorithm 1's.
    procedure_verify = VerifiableRegister.procedure_verify

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
        read_witness = self._read_witness
        own_witness_read = read_witness[pid]
        prev_ck: Dict[int, int] = {k: 0 for k in self.readers}  # line 24
        while True:  # line 25
            askers, cks, watch = yield from self.askers(prev_ck)  # lines 26-27
            if not askers:  # line 28
                # An idle pass is stutter: park until some C_k moves.
                yield Await(watch)
                continue
            raw_writer = yield read_witness[self.writer]  # line 29
            writer_values = timestamped_values(raw_writer)  # line 30
            if pid != self.writer:  # line 31
                witness_sets: Dict[int, frozenset] = {self.writer: writer_values}
                for i in self.readers:  # line 32
                    witness_sets[i] = as_frozenset((yield read_witness[i]))
                # line 33: the writer's projection counts as one of the r_i.
                adopted = adoptable(witness_sets, writer_values, self.f)
                own_now = as_frozenset((yield own_witness_read))
                yield WriteRegister(
                    own_witness_read.register, own_now | adopted
                )  # line 34
                published = as_frozenset((yield own_witness_read))  # line 35
            else:
                # For j = 1 the helper publishes the projection of R_1
                # directly (no separate witness register exists).
                published = writer_values
            yield from self.answer(pid, askers, cks, published, prev_ck)  # lines 36-38
