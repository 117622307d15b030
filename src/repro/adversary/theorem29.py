"""Executable Theorem 29 / Figure 1: test-or-set is impossible at n <= 3f.

The paper proves that for ``3 <= n <= 3f`` no correct implementation of
test-or-set from SWMR registers exists, via three indistinguishable
histories (Figure 1):

* **H1** — setter ``s`` and tester ``pa`` correct; ``{pb} ∪ Q3`` silent.
  ``s`` runs Set, then ``pa``'s Test must return 1 (Lemma 28(1)).
* **H2** — ``{s} ∪ Q1`` Byzantine but *replaying H1 exactly* up to t4,
  then resetting all their registers; ``pb`` wakes and runs Test', which
  must return 1 because ``pa``'s Test → 1 preceded it (Lemma 28(3)).
* **H3** — ``{pa} ∪ Q2`` Byzantine, writing the same register values at
  the same times as in H2, while ``s`` is correct-but-asleep; ``pb``
  cannot distinguish H2 from H3, yet here Test' → 1 would violate
  Lemma 28(2) (the correct setter never invoked Set).

This module *runs* the construction against a concrete candidate — the
natural witness-quorum implementation :class:`QuorumTestOrSet` — and
returns which lemma property broke. At ``n = 3f`` one of H2/H3 always
yields a violation, whichever acceptance threshold the candidate uses;
at ``n = 3f + 1`` (where Q2 gains one more *correct* member, pushing the
would-be H3 adversary over the fault bound) both runs pass. Experiment
E5 sweeps this over f and thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.test_or_set import SET_FLAG, QuorumTestOrSet
from repro.sim.effects import WriteRegister
from repro.sim.process import (
    FunctionClient,
    Program,
    ScriptClient,
    all_done,
    idle_forever,
)
from repro.sim.system import System
from repro.spec.byzantine import TEST_OR_SET
from repro.spec.judge import judge
from repro.spec.sequential import TestOrSetSpec


#: Step budget of each phase of H2 and H3 (a phase that runs out raises
#: ``StepLimitExceeded``).
MAX_STEPS = 300_000


@dataclass
class Roles:
    """The Figure 1 cast for a given fault bound.

    ``n = 3 + |Q1| + |Q2| + |Q3|``; the theorem's regime has each Q of
    size ``f - 1`` (so ``n = 3f``); the control adds one correct process
    to Q2 (so ``n = 3f + 1`` and the H3 adversary would exceed ``f``).
    """

    setter: int
    pa: int
    pb: int
    q1: Tuple[int, ...]
    q2: Tuple[int, ...]
    q3: Tuple[int, ...]

    @property
    def n(self) -> int:
        return 3 + len(self.q1) + len(self.q2) + len(self.q3)

    @staticmethod
    def for_f(f: int, extra_correct: bool = False) -> "Roles":
        """Build the cast: ``n = 3f`` (theorem) or ``3f + 1`` (control)."""
        if f < 1:
            raise ValueError(f"f must be >= 1, got {f}")
        next_pid = 4
        def take(count: int) -> Tuple[int, ...]:
            nonlocal next_pid
            pids = tuple(range(next_pid, next_pid + count))
            next_pid += count
            return pids

        q1 = take(f - 1)
        q2 = take(f - 1 + (1 if extra_correct else 0))
        q3 = take(f - 1)
        return Roles(setter=1, pa=2, pb=3, q1=q1, q2=q2, q3=q3)


@dataclass
class Figure1Outcome:
    """Everything the impossibility experiment observed.

    ``violated`` is the empty string when no lemma property broke (the
    ``n > 3f`` control), else names the broken property; ``h2_reason``
    and ``h3_reason`` are the judge's verdicts on H2 and H3 (None when
    clean).
    """

    n: int
    f: int
    accept_threshold: int
    h1_test_result: Any = None
    h2_test_result: Any = None
    h3_test_result: Any = None
    h2_reason: Optional[str] = None
    h3_reason: Optional[str] = None
    indistinguishable: bool = False
    violated: str = ""

    def describe(self) -> str:
        """One-line summary of the three histories' outcomes."""
        return (
            f"n={self.n} f={self.f} τ={self.accept_threshold}: "
            f"H1→{self.h1_test_result} H2→{self.h2_test_result} "
            f"H3→{self.h3_test_result} "
            f"same-view={self.indistinguishable} "
            f"violated={self.violated or 'nothing'}"
        )


def _reset_program(system: System, names: Sequence[str]) -> Program:
    """Reset every named register to its spec's initial value.

    This is the t4→t5 step of H2: the Byzantine group erases all traces
    "as if these processes never took any step". Writes go through the
    normal effect path — the registers are owned by the resetting pids.
    """
    for name in names:
        initial = system.registers.spec(name).initial
        yield WriteRegister(name, initial)


def run_h2(
    f: int,
    extra_correct: bool = False,
    accept_threshold: Optional[int] = None,
) -> Tuple[System, QuorumTestOrSet, Roles, Any, Any]:
    """Execute history H2 (with its H1 prefix) against the candidate.

    Returns ``(system, object, roles, pa_result, pb_result)``.
    """
    roles = Roles.for_f(f, extra_correct=extra_correct)
    system = System(n=roles.n, f=f, enforce_bound=False)
    tos = QuorumTestOrSet(
        system, "tos", setter=roles.setter, f=f, accept_threshold=accept_threshold
    )
    tos.install()
    system.declare_byzantine(roles.setter, *roles.q1)

    # --- H1 prefix: s and pa (and Q1, Q2) active; pb and Q3 asleep. ---
    phase1_helpers = [roles.setter, roles.pa, *roles.q1, *roles.q2]
    for pid in phase1_helpers:
        system.spawn(pid, "help", tos.procedure_help(pid))

    set_client = ScriptClient(tos, roles.setter, [("set", ())])
    system.spawn(roles.setter, "client", set_client.program())
    system.run_until(lambda: set_client.done, MAX_STEPS, label="Set by s")

    pa_client = ScriptClient(tos, roles.pa, [("test", ())])
    system.spawn(roles.pa, "client", pa_client.program())
    system.run_until(lambda: pa_client.done, MAX_STEPS, label="Test by pa")
    pa_result = pa_client.result_of("test")

    # --- t4 → t5: the Byzantine group resets its registers and halts. ---
    resetters: List[FunctionClient] = []
    for pid in [roles.setter, *roles.q1]:
        system.despawn((pid, "help"))
        owned = [
            name
            for name in system.registers.names()
            if system.registers.spec(name).writer == pid
        ]
        client = FunctionClient(
            lambda names=tuple(owned): _reset_program(system, names)
        )
        resetters.append(client)
        system.spawn(pid, "reset", client.program())
    system.run_until(all_done(resetters), MAX_STEPS, label="reset by s∪Q1")

    # --- t6: pb and Q3 wake up; pb runs Test'. ---
    for pid in [roles.pb, *roles.q3]:
        system.spawn(pid, "help", tos.procedure_help(pid))
    pb_client = ScriptClient(tos, roles.pb, [("test", ())])
    system.spawn(roles.pb, "client", pb_client.program())
    system.run_until(lambda: pb_client.done, MAX_STEPS, label="Test' by pb")
    pb_result = pb_client.result_of("test")

    return system, tos, roles, pa_result, pb_result


def run_h3(
    f: int,
    extra_correct: bool = False,
    accept_threshold: Optional[int] = None,
) -> Tuple[System, QuorumTestOrSet, Roles, Any]:
    """Execute history H3: ``{pa} ∪ Q2`` Byzantine, ``s`` asleep.

    The Byzantine group writes exactly the register contents they had in
    H2 at the moment pb woke up: witness flags set to 1. ``pb`` and Q3
    then wake and pb runs Test'. Returns ``(system, object, roles,
    pb_result)``.

    The H3 adversary is always capped at ``f`` members: ``pa`` plus the
    first ``f - 1`` processes of Q2. At ``n = 3f`` that is all of
    ``{pa} ∪ Q2`` — enough to replay H2's register state exactly, so pb
    cannot distinguish the histories. At ``n = 3f + 1`` (the control) Q2
    contains one more *correct* process, which a legal adversary cannot
    impersonate; H3's state then shows only ``f`` raised witness flags
    where H2 shows ``f + 1``, pb can (and does) distinguish, and the
    impossibility argument collapses — precisely the theorem's boundary.
    """
    roles = Roles.for_f(f, extra_correct=extra_correct)
    system = System(n=roles.n, f=f, enforce_bound=False)
    tos = QuorumTestOrSet(
        system, "tos", setter=roles.setter, f=f, accept_threshold=accept_threshold
    )
    tos.install()
    byz = [roles.pa, *roles.q2[: f - 1]]
    system.declare_byzantine(*byz)

    # Byzantine group: replay H2's observable register state (witness
    # flags raised), then halt. s, Q1 asleep (take no steps).
    def liar(pid: int) -> Program:
        yield WriteRegister(tos.reg_witness(pid), SET_FLAG)
        yield from idle_forever()

    for pid in byz:
        system.spawn(pid, "liar", liar(pid))
    system.run(len(byz) * 4)

    # pb and Q3 wake; pb runs Test'.
    for pid in [roles.pb, *roles.q3]:
        system.spawn(pid, "help", tos.procedure_help(pid))
    pb_client = ScriptClient(tos, roles.pb, [("test", ())])
    system.spawn(roles.pb, "client", pb_client.program())
    system.run_until(lambda: pb_client.done, MAX_STEPS, label="Test' by pb (H3)")
    return system, tos, roles, pb_client.result_of("test")


def run_figure1(
    f: int,
    extra_correct: bool = False,
    accept_threshold: Optional[int] = None,
) -> Figure1Outcome:
    """Run the full construction and report which property broke.

    At ``n = 3f`` (``extra_correct=False``) exactly one of:

    * H2 violates relay / Byzantine linearizability (Test' → 0 after
      Test → 1), for acceptance thresholds above ``f``; or
    * H3 violates unforgeability (Test' → 1 with a correct, idle
      setter), for thresholds at most ``f``.

    At ``n = 3f + 1`` (``extra_correct=True``) neither breaks.
    """
    h2_system, _tos2, roles, pa_result, h2_pb = run_h2(
        f, extra_correct, accept_threshold
    )
    h3_system, _tos3, _roles3, h3_pb = run_h3(f, extra_correct, accept_threshold)

    h2_correct = {roles.pa, roles.pb, *roles.q2, *roles.q3}
    h3_correct = {roles.setter, roles.pb, *roles.q1, *roles.q3}

    h2_reason = judge(
        h2_system.history, h2_correct, "tos", TestOrSetSpec(), TEST_OR_SET,
        owner=roles.setter,
    )
    h3_reason = judge(
        h3_system.history, h3_correct, "tos", TestOrSetSpec(), TEST_OR_SET,
        owner=roles.setter,
    )

    violated = ""
    if pa_result != 1:
        # In H1 the setter and pa are both correct and Set precedes
        # Test, so Lemma 28(1) forces Test -> 1; thresholds above n - f
        # fail right here (a correct Set cannot gather more witnesses).
        violated = "H1: validity (Lemma 28(1))"
    elif h2_reason is not None:
        violated = "H2: relay / Byzantine linearizability (Lemma 28(3))"
    elif h3_reason is not None:
        violated = "H3: unforgeability (Lemma 28(2))"

    tos = QuorumTestOrSet(System(n=roles.n, f=f, enforce_bound=False), "tmp", f=f)
    threshold = accept_threshold if accept_threshold is not None else roles.n - f
    return Figure1Outcome(
        n=roles.n,
        f=f,
        accept_threshold=threshold,
        h1_test_result=pa_result,
        h2_test_result=h2_pb,
        h3_test_result=h3_pb,
        h2_reason=h2_reason,
        h3_reason=h3_reason,
        indistinguishable=(h2_pb == h3_pb),
        violated=violated,
    )
