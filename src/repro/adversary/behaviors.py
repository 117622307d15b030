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
* **Lying witness** — claims to witness values nobody wrote, or refuses
  to acknowledge values everybody wrote; replies to askers with
  fabricated sets.
* **Flip-flop witness** — answers "yes" to early askers and "no" to
  later ones; the behaviour Section 5.1's set0/set1 machinery defeats.

Each factory returns a generator ready for ``System.spawn``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.core.authenticated import AuthenticatedRegister
from repro.core.sticky import StickyRegister
from repro.core.verifiable import VerifiableRegister
from repro.sim.effects import ReadRegister, WriteRegister
from repro.sim.process import Program, idle_forever, pause_steps
from repro.sim.values import BOTTOM, freeze


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


# ----------------------------------------------------------------------
# Byzantine helpers (witness-layer attacks)
# ----------------------------------------------------------------------
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
        while True:
            for k in impl.readers:
                if k == pid:
                    continue
                counter_raw = yield ReadRegister(impl.reg_counter(k))
                counter = counter_raw if isinstance(counter_raw, int) else 0
                yield WriteRegister(impl.reg_reply(pid, k), (fake, counter))
            yield from pause_steps(serve_period)

    return program()


def stonewalling_witness(impl: Any, pid: int) -> Program:
    """A helper that answers every asker with the empty witness set.

    Unlike :func:`silent` it *does* reply (so verifiers classify it into
    ``set0`` quickly), always claiming to have witnessed nothing — a
    targeted attempt to drive ``|set0| > f``.
    """

    def program() -> Program:
        while True:
            for k in impl.readers:
                if k == pid:
                    continue
                counter_raw = yield ReadRegister(impl.reg_counter(k))
                counter = counter_raw if isinstance(counter_raw, int) else 0
                yield WriteRegister(impl.reg_reply(pid, k), (frozenset(), counter))
            yield from pause_steps(2)

    return program()


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
    value = freeze(value)

    def program() -> Program:
        yes_set = frozenset({value})
        no_set: frozenset = frozenset()
        last_counter: dict = {}
        rounds_served = 0
        while True:
            for k in impl.readers:
                if k == pid:
                    continue
                counter_raw = yield ReadRegister(impl.reg_counter(k))
                counter = counter_raw if isinstance(counter_raw, int) else 0
                if counter > last_counter.get(k, 0):
                    last_counter[k] = counter
                    rounds_served += 1
                reply = yes_set if rounds_served <= yes_rounds else no_set
                yield WriteRegister(impl.reg_reply(pid, k), (reply, counter))
            yield from pause_steps(1)

    return program()


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
        while True:
            for k in reg.readers:
                if k == pid:
                    continue
                counter_raw = yield ReadRegister(reg.reg_counter(k))
                counter = counter_raw if isinstance(counter_raw, int) else 0
                yield WriteRegister(reg.reg_reply(pid, k), (claim, counter))
            yield from pause_steps(serve_period)

    return program()
