"""Theorem 29 / Figure 1 as a schedule-space search problem.

The ``theorem29`` scenario is the Figure 1 cast (setter / pa / pb /
Q1–Q3) around the :class:`QuorumTestOrSet` candidate, with the
Byzantine group's behaviour *unphased*: each Byzantine process raises
the flag and its witness and then erases its own registers, whenever
the scheduler lets it. Whether the erasure lands before or after pa's
Test decides whether the run is clean or violates relay / Byzantine
linearizability — exactly the race Theorem 29 builds by hand. At
``n = 3f`` violating interleavings exist; at ``n = 3f + 1`` the extra
correct member of Q2 closes them all (under the fair completions the
explorer appends to every bounded prefix).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.adversary.theorem29 import Roles
from repro.core.test_or_set import SET_FLAG, QuorumTestOrSet
from repro.scenarios.registry import BuiltScenario, register_builder
from repro.sim import (
    FunctionClient,
    OpCall,
    ScriptClient,
    System,
    WriteRegister,
    all_done,
)
from repro.sim.effects import PAUSE
from repro.sim.scheduler import Scheduler
from repro.scenarios.bindings import binding_for
from repro.spec.context import CheckContext
from repro.spec.judge import judge


def _build_theorem29(
    scheduler: Scheduler,
    f: int = 1,
    extra_correct: bool = False,
    accept_threshold: Optional[int] = None,
    patience: int = 24,
    linger: int = 2,
    max_steps: int = 60_000,
    ctx: Optional[CheckContext] = None,
) -> BuiltScenario:
    """The Figure 1 cast with a free-running Byzantine group.

    Construction (compare ``repro.adversary.theorem29.run_h2``, where
    the same cast is driven through hand-scripted phases):

    * Correct helpers of ``pa`` and Q2 run from the start; ``pb`` and
      Q3's helpers *sleep* until the Byzantine group halts — the
      Figure 1 wake-up at t6, expressed as a guard rather than a
      scripted time.
    * Each Byzantine process (``s`` and Q1) raises the flag (setter
      only) and its own witness register, lingers for ``linger`` pause
      steps, then erases everything it owns — "as if these processes
      never took any step". The scheduler alone decides when the
      erasure lands; the linger only widens the raised-witness window
      so that *randomly sampled* schedules hit the overlap at larger
      ``f``, where several Byzantine windows must coincide (it adds no
      behaviour a Byzantine process could not exhibit anyway).
    * ``pa`` runs Test as soon as scheduled; ``pb`` runs Test' after
      both the Byzantine halt and pa's response, so the two tests are
      never concurrent and the relay property (Lemma 28(3)) applies.

    A violating interleaving must thread the needle: pa's Test has to
    gather its ``n - f`` witness quorum *while* the Byzantine witnesses
    are raised, and pb's Test' must start only after they vanished — at
    ``n = 3f`` the surviving correct witnesses then number ``f``, one
    short of the ``f + 1`` adoption threshold, and Test' returns 0
    after a Test that returned 1.
    """
    roles = Roles.for_f(f, extra_correct=extra_correct)
    system = System(n=roles.n, f=f, scheduler=scheduler, enforce_bound=False)
    tos = QuorumTestOrSet(
        system,
        "tos",
        setter=roles.setter,
        f=f,
        accept_threshold=accept_threshold,
        patience=patience,
    )
    tos.install()
    byz = (roles.setter, *roles.q1)
    system.declare_byzantine(*byz)
    correct = frozenset(system.correct)

    for pid in (roles.pa, *roles.q2):
        system.spawn(pid, "help", tos.procedure_help(pid))

    pa_client = ScriptClient(
        [OpCall("tos", "test", (), lambda: tos.procedure_test(roles.pa))]
    )
    system.spawn(roles.pa, "client", pa_client.program())

    erasers: List[FunctionClient] = []
    for pid in byz:
        owned = tuple(
            name
            for name in system.registers.names()
            if system.registers.spec(name).writer == pid
        )

        def raise_then_erase(pid: int = pid, owned: Tuple[str, ...] = owned):
            if pid == roles.setter:
                yield WriteRegister(tos.reg_flag(), SET_FLAG)
            yield WriteRegister(tos.reg_witness(pid), SET_FLAG)
            for _ in range(linger):
                yield PAUSE
            for name in owned:
                yield WriteRegister(name, system.registers.spec(name).initial)

        eraser = FunctionClient(raise_then_erase)
        erasers.append(eraser)
        system.spawn(pid, "adv", eraser.program())

    # The waiting wrappers below poll this every pause step.
    byzantine_halted = all_done(erasers)

    def late_help(pid: int):
        while not byzantine_halted():
            yield PAUSE
        yield from tos.procedure_help(pid)

    for pid in (roles.pb, *roles.q3):
        system.spawn(pid, "help", late_help(pid))

    pb_client = ScriptClient(
        [OpCall("tos", "test", (), lambda: tos.procedure_test(roles.pb))]
    )

    def pb_program():
        while not (byzantine_halted() and pa_client.done):
            yield PAUSE
        yield from pb_client.program()

    pb_wrapper = FunctionClient(pb_program)
    system.spawn(roles.pb, "client", pb_wrapper.program())

    def drive() -> None:
        system.run_until(lambda: pb_wrapper.done, max_steps, label="Test' by pb")

    binding = binding_for("test_or_set")
    spec = binding.spec_factory()

    def check() -> Optional[str]:
        return judge(
            system.history,
            correct,
            "tos",
            spec,
            binding.rules,
            owner=roles.setter,
            ctx=ctx,
        )

    return BuiltScenario(system=system, drive=drive, check=check)


# Builders must stay importable from worker processes (top level of
# their module), because pool workers re-resolve specs by name.
register_builder("theorem29", _build_theorem29)


def theorem29_symmetry(
    f: int = 1, extra_correct: bool = False
) -> Tuple[Tuple[int, ...], ...]:
    """Interchangeable process groups of the Theorem 29 cast.

    The named cast members (setter, p_a, p_b) each run a distinct
    script, but within each quorum-filler role — the q1 helpers, the q2
    helper spawners, the q3 Byzantine erasers — the members differ only
    by pid: same coroutine code, same owned registers up to renaming.
    Those are exactly the groups ``explore(reduction="dpor+symmetry")``
    may fold. At ``f = 1`` every group has at most one member, so this
    returns ``()`` — symmetry only bites from ``f = 2`` up.
    """
    roles = Roles.for_f(f, extra_correct=extra_correct)
    return tuple(
        tuple(group)
        for group in (roles.q1, roles.q2, roles.q3)
        if len(group) >= 2
    )
