"""The client half of the quorum protocol, written once for both clocks.

``write``, ``read`` of one or several registers (with the [11]
write-back round) and a restart's ``recover`` are sans-I/O generators
over a :class:`repro.mp.swmr_emulation.ReplicaCore`. Each yields one
wait per phase, ``(message, ready, requery)``: the pair that opens the
phase, a predicate asked of the driver's current core, and whether to
re-send the message on :func:`pacing` meanwhile. The driver —
:meth:`repro.mp.RegisterEmulation._drive` or
:meth:`repro.net.NetNode._drive` — resumes the op with the current core.

A write never re-sends: an ack is idempotent, and resending a lost
frame is the channel layer's job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterator, Tuple

if TYPE_CHECKING:
    from repro.mp.swmr_emulation import Outgoing, ReplicaCore

#: One phase of an op: ``(message, ready, requery)``.
Wait = Tuple["Outgoing", Callable[["ReplicaCore"], Any], bool]
#: An op: yields waits, is resumed with the current core, returns the result.
ClientOp = Generator[Wait, "ReplicaCore", Any]


def pacing(base: Any) -> Iterator[Any]:
    """The gaps between a wait's re-sends in the driver's unit (polls or
    seconds): ``base``, then each double the last, capped at 16 x ``base``."""
    gap = base
    while True:
        yield gap
        gap = min(gap * 2, base * 16)


def write(core: ReplicaCore, name: str, value: Any) -> ClientOp:
    """Emulated ``write(value)`` of a frozen ``value``; done once ``n - f``
    replicas acked. Closing it keeps ``write_seq`` at or above ``seq`` on
    a core that replaced a crashed one mid-write."""
    core.check_register(name, writing=True)
    seq, message = core.begin_write(name, value)
    core = yield message, lambda core: core.acked(name, seq), False
    core.finish_write(name, seq)
    return "done"


def read(core: ReplicaCore, names: Tuple[str, ...], write_back: bool) -> ClientOp:
    """Emulated ``read()`` of every register in ``names`` at once;
    returns their values, in order, each the newest confirmed by
    ``f + 1``.

    One wait per phase whatever the number of registers: one ``READ``
    carrying an entry per register until every one is confirmed, then,
    with ``write_back``, one ``PULL`` carrying every pair with
    ``seq > 0``. That is the [11] round that closes the
    new/old-inversion window regular semantics leave open: the read
    returns once ``n - f`` replicas acknowledge holding at least each
    pair's ``seq``.
    It defaults off in
    :meth:`repro.mp.RegisterEmulation.read`, whose virtual-time scenarios
    pin step counts an extra round would move (non-overlapping low-level
    writes do not rule the inversion out: one write and two reads
    suffice), and on in :meth:`repro.net.NetNode.read`, whose concurrent
    clients do hit the window. Aligning the two is left to the follow-up
    on the seed-246 / 79203 new/old-inversion finding.
    """
    for name in names:
        core.check_register(name)
    rid, query = core.begin_read(names)
    core = yield query, lambda core: core.confirmed_read(names, rid), True
    pairs = core.confirmed_read(names, rid)
    held = tuple(
        (name, seq, value) for name, (seq, value) in zip(names, pairs) if seq > 0
    )
    if write_back and held:
        key, pull = core.begin_write_back(held)
        pulled = tuple(name for name, _seq, _value in held)
        yield pull, lambda core: all(core.acked(name, key) for name in pulled), True
    return tuple(value for _seq, value in pairs)


def read_one(core: ReplicaCore, name: str, write_back: bool) -> ClientOp:
    """:func:`read` of the one register ``name``: its value."""
    (value,) = yield from read(core, (name,), write_back)
    return value


def recover(core: ReplicaCore) -> ClientOp:
    """A lose-state restart's recovery round, one ``READ`` for every
    register: per register, adopt the newest pair among ``n - f - 1``
    other replicas' reports."""
    names = tuple(core.specs)
    rid, query = core.begin_read(names)
    yield query, lambda core: core.recover_from(names, rid), True
