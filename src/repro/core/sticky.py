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

Comments cite Algorithm 3's line numbers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.core.interfaces import DONE, AlgorithmBase, as_int, as_reply_pair
from repro.sim.effects import Pause, ReadRegister, WriteRegister
from repro.sim.process import Program
from repro.sim.registers import RegisterSpec, swmr, swsr
from repro.sim.values import BOTTOM, freeze, is_bottom


class StickyRegister(AlgorithmBase):
    """Line-faithful implementation of Algorithm 3.

    Operations: ``write`` (writer; blocks for ``n - f`` witnesses),
    ``read`` (any reader). Help daemons must run on every correct process
    for both operations to terminate (Theorem 179).
    """

    OPERATIONS = ("write", "read")

    def __init__(
        self,
        system,
        name: str = "sreg",
        writer: int = 1,
        f: Optional[int] = None,
        wait_for_witnesses: bool = True,
    ):
        # The initial value of a sticky register is always ⊥ (Def. 21).
        super().__init__(system, name, writer=writer, f=f, initial=BOTTOM)
        #: §9.1 ablation switch. The paper explains that *without* the
        #: n-f-witness wait in Write, a Read invoked after Write(v)
        #: completes can return ⊥ (violating Observation 22); experiment
        #: E12 demonstrates it. True is the paper's algorithm.
        self.wait_for_witnesses = wait_for_witnesses

    # ------------------------------------------------------------------
    # Register naming
    # ------------------------------------------------------------------
    def reg_echo(self, i: int) -> str:
        """``E_i`` — process i's echo register."""
        return f"{self.name}/E[{i}]"

    def reg_witness(self, i: int) -> str:
        """``R_i`` — process i's (single-value) witness register."""
        return f"{self.name}/R[{i}]"

    def reg_reply(self, j: int, k: int) -> str:
        """``R_jk`` — SWSR reply channel written by j, read by reader k."""
        return f"{self.name}/R[{j}->{k}]"

    def reg_counter(self, k: int) -> str:
        """``C_k`` — reader k's asker counter."""
        return f"{self.name}/C[{k}]"

    def register_specs(self) -> Iterable[RegisterSpec]:
        for i in self.pids:
            yield swmr(self.reg_echo(i), i, initial=BOTTOM)
            yield swmr(self.reg_witness(i), i, initial=BOTTOM)
        for j in self.pids:
            for k in self.readers:
                yield swsr(self.reg_reply(j, k), j, k, initial=(BOTTOM, 0))
        for k in self.readers:
            yield swmr(self.reg_counter(k), k, initial=0)

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
        if not self.wait_for_witnesses:
            return DONE  # E12 ablation: skip lines 3-5 (unsound!)
        while True:  # lines 3-5: wait for n-f witnesses of v
            count = 0
            for i in self.pids:  # line 4
                witnessed = yield ReadRegister(self.reg_witness(i))
                if witnessed == v and not is_bottom(witnessed):
                    count += 1
            if count >= self.n - self.f:  # line 5
                return DONE  # line 6

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
        classified_pids = lambda: set_bot | {pj for (_v, pj) in setval}
        while True:  # line 8
            counter = as_int((yield ReadRegister(self.reg_counter(pid))))
            ck = counter + 1
            yield WriteRegister(self.reg_counter(pid), ck)  # line 9
            pending = [j for j in self.pids if j not in classified_pids()]  # line 10
            chosen_j: Optional[int] = None
            chosen_value: Any = BOTTOM
            while chosen_j is None:  # lines 11-14
                if not pending:
                    yield Pause()  # n <= 3f dead end; cannot classify more
                    continue
                for j in pending:
                    raw = yield ReadRegister(self.reg_reply(j, pid))  # line 13
                    uj, cj = as_reply_pair(raw)
                    if cj is not None and cj >= ck:  # line 14
                        chosen_j = j
                        chosen_value = uj
                        break
            if not is_bottom(chosen_value):  # line 15
                setval.add((chosen_value, chosen_j))  # line 16
                set_bot = set()  # line 17
            else:  # line 18
                set_bot.add(chosen_j)  # line 19
            # line 20: some value witnessed by >= n-f distinct processes?
            by_value: Dict[Any, int] = {}
            for value, _pj in setval:
                by_value[value] = by_value.get(value, 0) + 1
            for value, count in by_value.items():
                if count >= self.n - self.f:
                    return value  # line 21
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
        prev_ck: Dict[int, int] = {k: 0 for k in self.readers}  # line 23
        while True:  # line 24
            own_echo = yield ReadRegister(self.reg_echo(pid))
            if is_bottom(own_echo):  # line 25
                writer_echo = yield ReadRegister(self.reg_echo(self.writer))  # line 26
                if not is_bottom(writer_echo):
                    yield WriteRegister(self.reg_echo(pid), writer_echo)  # line 27
            own_witness = yield ReadRegister(self.reg_witness(pid))
            if is_bottom(own_witness):  # line 28
                echo_counts: Dict[Any, int] = {}
                for i in self.pids:  # line 29
                    echoed = yield ReadRegister(self.reg_echo(i))
                    if not is_bottom(echoed):
                        echo_counts[echoed] = echo_counts.get(echoed, 0) + 1
                for value, count in echo_counts.items():  # line 30
                    if count >= self.n - self.f:
                        yield WriteRegister(self.reg_witness(pid), value)
                        break
            cks: Dict[int, int] = {}
            for k in self.readers:  # line 31
                cks[k] = as_int((yield ReadRegister(self.reg_counter(k))))
            askers = [k for k in self.readers if cks[k] > prev_ck[k]]  # line 32
            if not askers:  # line 33
                yield Pause()
                continue
            own_witness = yield ReadRegister(self.reg_witness(pid))
            if is_bottom(own_witness):  # line 34
                witness_counts: Dict[Any, int] = {}
                for i in self.pids:  # line 35
                    witnessed = yield ReadRegister(self.reg_witness(i))
                    if not is_bottom(witnessed):
                        witness_counts[witnessed] = (
                            witness_counts.get(witnessed, 0) + 1
                        )
                for value, count in witness_counts.items():  # line 36
                    if count >= self.f + 1:
                        yield WriteRegister(self.reg_witness(pid), value)
                        break
            published = yield ReadRegister(self.reg_witness(pid))  # line 37
            for k in askers:  # line 38
                yield WriteRegister(self.reg_reply(pid, k), (published, cks[k]))  # line 39
                prev_ck[k] = cks[k]  # line 40
