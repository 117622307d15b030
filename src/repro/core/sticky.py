"""Algorithm 3: SWMR *sticky* register (Section 9).

A sticky register accepts a single value forever: once any correct
process reads ``v != ⊥``, every later read returns the same ``v`` —
even when the writer is Byzantine (Observations 22–24). This gives
non-equivocation: a register-based broadcast where no two correct
processes can deliver different values from the same sender.

The implementation uses a two-phase witness discipline strictly stronger
than Algorithms 1–2's (Section 9.1): a process first *echoes* the first
value it sees in the writer's register ``E_1`` into its own echo register
``E_j``, and becomes a *witness* (writes its witness register ``R_j``)
only after seeing ``n - f`` echoes of the same value — which prevents two
correct processes from ever witnessing different values — or after seeing
``f + 1`` witnesses. The writer's ``Write`` blocks until ``n - f``
witnesses exist, which is what makes a subsequent Read guaranteed to
return the value rather than ``⊥``. Correct for ``n > 3f`` (Theorem 25).

Register families (writer ``p1``, readers ``p2 .. pn``):

=================  =======================  ==========================
Paper name         Simulator name           Role
=================  =======================  ==========================
``E_i``            ``{name}/E[i]``          echo register of process i
``R_i``            ``{name}/R[i]``          witness register (one value)
``R_ik``           ``{name}/R[i->k]``       SWSR reply channel i -> k
``C_k``            ``{name}/C[k]``          reader k's round counter
=================  =======================  ==========================

Comments cite Algorithm 3's line numbers. The ask/answer protocol over
``R_ik`` / ``C_k`` is :class:`~repro.core.interfaces.WitnessRegister`'s,
shared with Algorithms 1 and 2, with ``⊥`` as the "nothing" report. The
E12 ablation (a Write that skips the witness wait) lives in
:mod:`repro.core.naive`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.core.interfaces import DONE, WitnessRegister
from repro.sim.effects import PAUSE, ReadRegister, WriteRegister
from repro.sim.process import Program
from repro.sim.registers import RegisterSpec, swmr
from repro.sim.values import BOTTOM, freeze, is_bottom


class StickyRegister(WitnessRegister):
    """Line-faithful implementation of Algorithm 3.

    Operations: ``write`` (writer; blocks for ``n - f`` witnesses),
    ``read`` (any reader). Help daemons must run on every correct process
    for both operations to terminate (Theorem 179).
    """

    OPERATIONS = ("write", "read")
    #: A sticky witness register holds one value; ``⊥`` is "no witness".
    NO_REPORT = BOTTOM

    def __init__(
        self,
        system,
        name: str = "sreg",
        writer: int = 1,
        f: Optional[int] = None,
    ):
        # The initial value of a sticky register is always ⊥ (Def. 21).
        super().__init__(system, name, writer=writer, f=f, initial=BOTTOM)

    # ------------------------------------------------------------------
    # Register naming
    # ------------------------------------------------------------------
    def reg_echo(self, i: int) -> str:
        """``E_i`` — process i's echo register."""
        return f"{self.name}/E[{i}]"

    def register_specs(self) -> Iterable[RegisterSpec]:
        for i in self.pids:
            yield swmr(self.reg_echo(i), i, initial=BOTTOM)
            yield swmr(self.reg_witness(i), i, initial=BOTTOM)
        yield from self.asker_specs()

    # ------------------------------------------------------------------
    # Writer procedure
    # ------------------------------------------------------------------
    def procedure_write(self, pid: int, v: Any) -> Program:
        """``Write(v)`` — lines 1–6.

        The wait at lines 3–5 is essential (Section 9.1): without it a
        Read invoked after Write completes could still return ``⊥``,
        because the stricter two-phase witness rule delays acceptance.
        """
        self._require_writer(pid)
        v = freeze(v)
        if is_bottom(v):
            raise ValueError("⊥ is not a writable value of a sticky register")
        current = yield ReadRegister(self.reg_echo(self.writer))
        if not is_bottom(current):  # line 1: already wrote before
            return DONE
        yield WriteRegister(self.reg_echo(self.writer), v)  # line 2
        yield from self.await_witnesses(v)  # lines 3-5
        return DONE  # line 6

    def await_witnesses(self, v: Any) -> Program:
        """Lines 3–5: wait until ``n - f`` witness registers hold ``v``."""
        while True:
            count = 0
            for i in self.pids:  # line 4
                witnessed = yield self._read_witness[i]
                if witnessed == v and not is_bottom(witnessed):
                    count += 1
            if count >= self.n - self.f:  # line 5
                return

    # ------------------------------------------------------------------
    # Reader procedure
    # ------------------------------------------------------------------
    def procedure_read(self, pid: int) -> Program:
        """``Read()`` — lines 7–22.

        Structurally Verify's round machinery, but collecting *witnessed
        values* instead of yes/no votes: ``setval`` holds ``(value, pj)``
        pairs, ``set⊥`` the processes that reported "not a witness" since
        the last non-⊥ report. Returns ``v`` on ``n - f`` witnesses of the
        same ``v`` and ``⊥`` on ``f + 1`` ⊥-reports.
        """
        self._require_reader(pid)
        set_bot: Set[int] = set()
        setval: Set[Tuple[Any, int]] = set()  # line 7
        while True:  # line 8
            classified = set_bot | {pj for (_v, pj) in setval}
            j, value = yield from self.ask(pid, classified)  # lines 9-14
            if not is_bottom(value):  # line 15
                setval.add((value, j))  # line 16
                set_bot = set()  # line 17
            else:  # line 18
                set_bot.add(j)  # line 19
            # line 20: some value witnessed by >= n-f distinct processes?
            by_value: Dict[Any, int] = {}
            for witnessed, _pj in setval:
                by_value[witnessed] = by_value.get(witnessed, 0) + 1
            for witnessed, count in by_value.items():
                if count >= self.n - self.f:
                    return witnessed  # line 21
            if len(set_bot) > self.f:  # line 22
                return BOTTOM

    # ------------------------------------------------------------------
    # Help daemon
    # ------------------------------------------------------------------
    def procedure_help(self, pid: int) -> Program:
        """``Help()`` — lines 23–40.

        Two standing duties precede the asker service: echo the writer's
        first value (lines 25–27) and adopt a witness value on seeing
        ``n - f`` matching echoes (lines 28–30). When askers exist, a
        process may alternatively adopt on ``f + 1`` matching *witnesses*
        (lines 34–36) before publishing its witness value (lines 37–39).
        """
        read_witness = self._read_witness
        own_witness_read = read_witness[pid]
        prev_ck: Dict[int, int] = {k: 0 for k in self.readers}  # line 23
        while True:  # line 24
            own_echo = yield ReadRegister(self.reg_echo(pid))
            if is_bottom(own_echo):  # line 25
                writer_echo = yield ReadRegister(self.reg_echo(self.writer))  # line 26
                if not is_bottom(writer_echo):
                    yield WriteRegister(self.reg_echo(pid), writer_echo)  # line 27
            own_witness = yield own_witness_read
            if is_bottom(own_witness):  # line 28
                echo_counts: Dict[Any, int] = {}
                for i in self.pids:  # line 29
                    echoed = yield ReadRegister(self.reg_echo(i))
                    if not is_bottom(echoed):
                        echo_counts[echoed] = echo_counts.get(echoed, 0) + 1
                for value, count in echo_counts.items():  # line 30
                    if count >= self.n - self.f:
                        yield WriteRegister(own_witness_read.register, value)
                        break
            askers, cks, _watch = yield from self.askers(prev_ck)  # lines 31-32
            if not askers:  # line 33
                yield PAUSE
                continue
            own_witness = yield own_witness_read
            if is_bottom(own_witness):  # line 34
                witness_counts: Dict[Any, int] = {}
                for i in self.pids:  # line 35
                    witnessed = yield read_witness[i]
                    if not is_bottom(witnessed):
                        witness_counts[witnessed] = (
                            witness_counts.get(witnessed, 0) + 1
                        )
                for value, count in witness_counts.items():  # line 36
                    if count >= self.f + 1:
                        yield WriteRegister(own_witness_read.register, value)
                        break
            published = yield own_witness_read  # line 37
            yield from self.answer(pid, askers, cks, published, prev_ck)  # lines 38-40
