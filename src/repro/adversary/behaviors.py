"""A library of Byzantine process behaviours.

A Byzantine process "can behave arbitrarily" (Section 3) — in the
simulator that means it runs *any* program, constrained only by the
hardware write ports (it cannot write registers it does not own). This
module collects the behaviours the paper's discussion motivates, plus
the classic generic ones, as program factories to spawn in place of a
correct process's client/helper coroutines.

Families:

* **Generic** — silent (crash-from-start), crash-after-k-steps,
  garbage spammer (type-confusion attack on every owned register).
* **Denying writer** (Section 1's opening scenario) — writes a value,
  lets readers see/verify it, then erases everything and "denies".
* **Equivocating writer** (Section 8's motivation) — rapidly writes
  different values, trying to show different readers different data.
* **Forking owner** (Obs 24) — a sticky register's owner flip-flops
  its echo between two values and mirrors each asker's own echo back.
* **Witness-layer helpers** — every one writes ``(report, counter)``
  into its reply channels ``R[pid->k]`` through the one serve loop,
  :func:`serve_askers`, and differs only in the report (and in what it
  writes before serving): the *lying* witness claims values nobody
  wrote; the *stonewalling* witness reports :func:`no_witness` ("I
  witness nothing": ``⊥`` on sticky registers, the empty set elsewhere);
  the *denying* witness joins the writers' quorums first and then
  stonewalls; the *flip-flop* witness answers "yes" to early askers and
  "no" to later ones, the behaviour Section 5.1's set0/set1 machinery
  defeats.

Each factory returns a generator ready for ``System.spawn``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.authenticated import AuthenticatedRegister, well_formed_tuples
from repro.core.sticky import StickyRegister
from repro.core.verifiable import VerifiableRegister
from repro.sim.effects import ReadRegister, WriteRegister
from repro.sim.process import Program, idle_forever, pause_steps
from repro.sim.values import BOTTOM, freeze, is_bottom


# ----------------------------------------------------------------------
# Generic behaviours
# ----------------------------------------------------------------------
def silent() -> Program:
    """A process that never takes a visible step (crash from the start)."""
    return idle_forever()


def crash_after(steps: int) -> Program:
    """Pause ``steps`` times, then stop forever (a mid-run crash)."""

    def program() -> Program:
        yield from pause_steps(steps)
        yield from idle_forever()

    return program()


def garbage_spammer(
    owned_registers: Sequence[str],
    payloads: Optional[Sequence[Any]] = None,
    period: int = 3,
    seed: int = 0,
) -> Program:
    """Cycle malformed values through every owned register forever.

    The default payload set hits the common parsing traps: wrong types,
    booleans masquerading as ints, nested garbage, absurd sizes. Correct
    code must shrug all of it off (the ``as_*`` parsers in
    ``repro.core.interfaces``).
    """
    junk: Sequence[Any] = payloads or (
        "garbage",
        -1,
        True,
        (),
        ("x",),
        (1, 2, 3),
        frozenset({("deep", ("nesting",))}),
        999999999999,
        ("no", "counter"),
        (frozenset({"fake"}), "not-an-int"),
    )

    def program() -> Program:
        rng = random.Random(seed)
        while True:
            for name in owned_registers:
                yield WriteRegister(name, rng.choice(list(junk)))
                yield from pause_steps(period)

    return program()


def owned_register_names(impl: Any, pid: int) -> List[str]:
    """All register names of ``impl`` whose write port belongs to ``pid``.

    Convenience for pointing :func:`garbage_spammer` (and custom attacks)
    at everything a Byzantine process may legally write.
    """
    return [
        name
        for name in impl.system.registers.names()
        if name.startswith(impl.name + "/")
        and impl.system.registers.spec(name).writer == pid
    ]


# ----------------------------------------------------------------------
# Denying writer (verifiable register)
# ----------------------------------------------------------------------
def denying_writer_verifiable(
    reg: VerifiableRegister,
    value: Any,
    expose_steps: int = 300,
) -> Program:
    """Write + "sign" ``value``, wait, then erase and deny (Section 1).

    The writer stuffs ``value`` into ``R*`` and its signed-set register
    ``R_1`` directly (a Byzantine process does not run Write/Sign
    procedures — it just writes its registers), waits ``expose_steps``
    for readers to see it, then resets both registers to their initial
    contents. Against Algorithm 1 the denial *fails*: once any correct
    reader verified the value, every later verification still succeeds.
    """
    value = freeze(value)

    def program() -> Program:
        yield WriteRegister(reg.reg_star(), value)
        yield WriteRegister(reg.reg_witness(reg.writer), frozenset({value}))
        yield from pause_steps(expose_steps)
        yield WriteRegister(reg.reg_witness(reg.writer), frozenset())
        yield WriteRegister(reg.reg_star(), reg.initial)
        yield from idle_forever()

    return program()


def denying_writer_authenticated(
    reg: AuthenticatedRegister,
    value: Any,
    timestamp: int = 1,
    expose_steps: int = 300,
) -> Program:
    """Insert ``⟨timestamp, value⟩`` into ``R_1``, wait, then erase it.

    Targets the scenario Section 7.1 defends against: a reader that
    selected the tuple must not return it unless Verify locks it in.
    """
    value = freeze(value)

    def program() -> Program:
        initial_tuple = (0, reg.initial)
        yield WriteRegister(
            reg.reg_witness(reg.writer),
            frozenset({initial_tuple, (timestamp, value)}),
        )
        yield from pause_steps(expose_steps)
        yield WriteRegister(reg.reg_witness(reg.writer), frozenset({initial_tuple}))
        yield from idle_forever()

    return program()


# ----------------------------------------------------------------------
# Equivocating writers
# ----------------------------------------------------------------------
def equivocating_writer_verifiable(
    reg: VerifiableRegister,
    values: Sequence[Any],
    dwell_steps: int = 40,
    sign_all: bool = True,
) -> Program:
    """Cycle several "signed" values through ``R*``/``R_1``.

    Tries to make different readers accept different values. For a
    verifiable register this is *legal* behaviour (multiple values may
    be signed); the point of the experiment is that the register stays
    Byzantine linearizable anyway — some sequential write/sign order
    explains everything readers saw.
    """
    frozen = [freeze(v) for v in values]

    def program() -> Program:
        signed: frozenset = frozenset()
        while True:
            for value in frozen:
                yield WriteRegister(reg.reg_star(), value)
                if sign_all:
                    signed = signed | {value}
                    yield WriteRegister(reg.reg_witness(reg.writer), signed)
                yield from pause_steps(dwell_steps)

    return program()


def equivocating_writer_sticky(
    reg: StickyRegister,
    first: Any,
    second: Any,
    flip_after: int = 60,
) -> Program:
    """Write one value into ``E_1``, then overwrite it with another.

    The central attack on stickiness: the writer tries to get some
    readers to accept ``first`` and others ``second``. Algorithm 3's
    ``n - f``-echo witness rule makes at most one of them ever
    witnessable, so all correct reads agree (Obs 24) — the uniqueness
    tests drive exactly this program.
    """
    first = freeze(first)
    second = freeze(second)

    def program() -> Program:
        yield WriteRegister(reg.reg_echo(reg.writer), first)
        yield from pause_steps(flip_after)
        yield WriteRegister(reg.reg_echo(reg.writer), second)
        while True:
            # Keep alternating to catch helpers at unlucky moments.
            yield from pause_steps(flip_after)
            yield WriteRegister(reg.reg_echo(reg.writer), first)
            yield from pause_steps(flip_after)
            yield WriteRegister(reg.reg_echo(reg.writer), second)

    return program()


def forking_owner_sticky(
    register: StickyRegister, pid: int, forks: Tuple[Any, Any]
) -> Program:
    """Flip-flop + mirror-serve a sticky register between two forks (Obs 24).

    The Byzantine owner flip-flops its echo register between the two
    fork values and — acting as its own register's only
    truthful-looking witness — *mirrors* each asker's own echo back at
    it, so a reader that echoed fork ``a`` collects matching ``a``
    reports and one that echoed ``b`` collects ``b``. At ``n = 3f + 1``
    the ``n - f``-echo witness rule lets at most one fork ever be
    witnessed, so every correct read agrees. At ``n = 3f`` the rule
    degrades to "the owner's echo plus one correct echo", both forks
    are witnessable, and two correct readers settle different forks.

    It keeps its own reply loop (not :func:`serve_askers`): the echo
    read sits between the counter read and the reply write.
    """
    helpers = [k for k in register.readers if k != pid]

    def program() -> Program:
        # Phase 1 — blind churn, one flip per step: which fork a correct
        # helper's (sticky) echo commits to is decided by the scheduler,
        # not by arrival order. 64 flips comfortably cover every
        # helper's first echo under the exploration schedulers.
        side = 0
        for _ in range(64):
            yield WriteRegister(register.reg_echo(pid), forks[side])
            side = 1 - side
        # Phase 2 — mirror-serve, still flipping: each asker is answered
        # with its *own* echo, so a reader's matching-report quorum
        # closes around its side of the fork (at n = 3f) instead of
        # stalling; the continued flips let each side's helper meet the
        # echo-witness rule for its own fork, which keeps reads live
        # (and at n = 3f + 1 can never push the minority fork to the
        # n - f echo quorum).
        while True:
            yield WriteRegister(register.reg_echo(pid), forks[side])
            side = 1 - side
            for k in helpers:
                counter_raw = yield ReadRegister(register.reg_counter(k))
                counter = counter_raw if isinstance(counter_raw, int) else 0
                echoed = yield ReadRegister(register.reg_echo(k))
                yield WriteRegister(
                    register.reg_reply(pid, k),
                    (echoed if not is_bottom(echoed) else BOTTOM, counter),
                )

    return program()


# ----------------------------------------------------------------------
# Byzantine helpers (witness-layer attacks)
# ----------------------------------------------------------------------
def no_witness(register: Any, *_: Any) -> Any:
    """The "I witness nothing" report: ``⊥`` for a sticky register, the
    empty set for the set-valued witness registers of the others (extra
    arguments are ignored, so it serves as a :func:`serve_askers` report)."""
    return BOTTOM if isinstance(register, StickyRegister) else frozenset()


def serve_askers(
    registers: Sequence[Any],
    pid: int,
    report: Callable[[Any, int, int], Any],
    period: int,
    before: Optional[Callable[[Any], Program]] = None,
) -> Program:
    """Answer every asker of every register forever: the one reply loop.

    For each register a pass runs ``before(register)`` first, then, for
    every reader ``k != pid``, reads ``k``'s counter and writes
    ``(report(register, k, counter), counter)`` into ``R[pid->k]``; the
    pass ends with ``period`` pauses. A malformed counter reads as 0.
    """
    while True:
        for register in registers:
            if before is not None:
                yield from before(register)
            for k in register.readers:
                if k == pid:
                    continue
                counter_raw = yield ReadRegister(register.reg_counter(k))
                counter = counter_raw if isinstance(counter_raw, int) else 0
                reply = report(register, k, counter)
                yield WriteRegister(register.reg_reply(pid, k), (reply, counter))
        yield from pause_steps(period)


def lying_witness(
    impl: Any,
    pid: int,
    claim: Iterable[Any],
    serve_period: int = 2,
) -> Program:
    """A helper that "witnesses" fabricated values and serves askers fast.

    It writes ``claim`` into its witness register and answers every asker
    round with that set (plus a fresh counter). With at most ``f`` liars,
    unforgeability survives: adoption needs ``f + 1`` witnesses.

    Works against :class:`VerifiableRegister` and
    :class:`AuthenticatedRegister` (both use set-valued witness
    registers and ``(set, counter)`` reply channels).
    """
    fake = frozenset(freeze(v) for v in claim)

    def program() -> Program:
        yield WriteRegister(impl.reg_witness(pid), fake)
        yield from serve_askers([impl], pid, lambda *_: fake, serve_period)

    return program()


def stonewalling_witness(
    registers: Sequence[Any], pid: int, period: int = 2
) -> Program:
    """A helper that answers every asker with :func:`no_witness`.

    Unlike :func:`silent` it *does* reply (so verifiers classify it into
    ``set0`` / ``set⊥`` quickly), always claiming to have witnessed
    nothing — a targeted attempt to drive ``|set0| > f`` (or a sticky
    read's ``f + 1`` ⊥-reports, Obs 22). Registers ``pid`` owns are
    skipped. Measured result: a register with a *correct* owner survives
    this even at ``n = 3f``, because the owner's and the reader's own
    helpers already form the needed quorum.
    """
    helped = [register for register in registers if register.writer != pid]
    return serve_askers(helped, pid, no_witness, period)


def denying_witness(registers: Sequence[Any], pid: int) -> Program:
    """Witness-then-deny: speed writes to completion, starve the readers.

    The composition of the Theorem 29 "raise the witness, then act as if
    you never stepped" move and the E12 staging, against sticky or
    authenticated registers: before serving a register's askers it
    *eagerly* copies the owner's current value into its own echo/witness
    registers — so writes reach their ``n - f`` witness quorum with the
    Byzantine process as a member — while answering every asker with
    :func:`no_witness`. The aim is a write whose quorum is
    ``{owner, Byzantine}`` followed by a read that collects ``f + 1``
    "nothing" reports (Obs 22's validity break). Measured result: the
    helpers' self-echo closes the window — a correct helper that serves
    an asker has already run its echo/witness duties in the same
    iteration — so correct-owner registers survive it even at ``n = 3f``.
    """

    def join_quorum(register: Any) -> Program:
        if isinstance(register, StickyRegister):
            value = yield ReadRegister(register.reg_echo(register.writer))
            if not is_bottom(value):
                yield WriteRegister(register.reg_echo(pid), value)
                yield WriteRegister(register.reg_witness(pid), value)
        else:
            raw = yield ReadRegister(register.reg_witness(register.writer))
            values = frozenset(value for _ts, value in well_formed_tuples(raw))
            yield WriteRegister(register.reg_witness(pid), values | {register.initial})

    helped = [register for register in registers if register.writer != pid]
    return serve_askers(helped, pid, no_witness, 1, before=join_quorum)


def flip_flop_witness(
    impl: Any,
    pid: int,
    value: Any,
    yes_rounds: int,
) -> Program:
    """Answer "yes, I witness ``value``" for the first ``yes_rounds``
    *globally observed* asker rounds, then "no" forever after.

    This is the §5.1 collusion pattern: make an early verifier count this
    process among its "yes" votes, then retract for later verifiers. The
    round count is global across readers — the attack's essence is
    treating verifier A and verifier B differently. Against naive quorum
    verification it breaks the relay property; the paper's design is
    immune (a process that ever said yes lands in the verifier's
    monotonic ``set1`` and is never consulted again).
    """
    yes_set = frozenset({freeze(value)})
    no_set: frozenset = frozenset()
    last_counter: dict = {}
    rounds_served = 0

    def report(_register: Any, k: int, counter: int) -> frozenset:
        nonlocal rounds_served
        if counter > last_counter.get(k, 0):
            last_counter[k] = counter
            rounds_served += 1
        return yes_set if rounds_served <= yes_rounds else no_set

    return serve_askers([impl], pid, report, 1)


def sticky_lying_witness(
    reg: StickyRegister,
    pid: int,
    claim: Any,
    serve_period: int = 2,
) -> Program:
    """A sticky-register helper that witnesses a fabricated value.

    Writes ``claim`` into its echo and witness registers and serves every
    asker with it. A single liar (``f = 1``) cannot make any correct
    process accept: acceptance needs ``n - f`` witnesses and adoption
    needs ``f + 1``.
    """
    claim = freeze(claim)

    def program() -> Program:
        yield WriteRegister(reg.reg_echo(pid), claim)
        yield WriteRegister(reg.reg_witness(pid), claim)
        yield from serve_askers([reg], pid, lambda *_: claim, serve_period)

    return program()
