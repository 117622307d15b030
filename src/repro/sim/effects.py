"""Effect objects yielded by simulated process programs.

The simulator is an *effect interpreter*: a process program is a Python
generator, and each value it yields is an :class:`Effect` describing one
atomic step. The kernel (``repro.sim.system``) executes the effect and
resumes the generator with the effect's result. One yield == one step of
the asynchronous model in Section 3 of the paper, which is what makes
interleavings fully controllable and histories exactly reproducible.

Shared-memory effects
---------------------
:class:`ReadRegister` / :class:`WriteRegister` — the only ways to touch
shared state. Ownership of write ports is enforced by the kernel.

Bookkeeping effects
-------------------
:class:`Invoke` / :class:`Respond` — mark operation boundaries on the
implemented (high-level) object so the kernel can record the history
(Section 3.1). They are steps too: the invocation and response of an
operation are events in the history with their own times.

:class:`Pause` — a no-op step that leaves the process runnable: think
time, and polls of what no register write signals (message arrival,
virtual time, another client's completion).

:class:`Await` — one step that *parks* the process on the registers it
just read until one of them is written; ``Await(())`` parks for good.
A parked coroutine is a *disabled* process: waiting costs the
scheduler no decisions.

Message-passing effects (used by ``repro.mp``)
----------------------------------------------
:class:`Send` / :class:`Broadcast` / :class:`ReceiveAll` — asynchronous,
reliable-but-unordered-by-default channels between processes. Only
systems built with a network installed accept them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Tuple


class Effect:
    """Marker base class for everything a program may yield."""

    __slots__ = ()


@dataclass(frozen=True)
class ReadRegister(Effect):
    """Atomically read a shared register; resumes with its current value."""

    register: str


@dataclass(frozen=True)
class WriteRegister(Effect):
    """Atomically write ``value`` into ``register``; resumes with None.

    The kernel freezes ``value`` (see ``repro.sim.values.freeze``) and
    raises ``OwnershipError`` if the issuing process does not own the
    register's write port — a rule that binds Byzantine processes too.
    """

    register: str
    value: Any


@dataclass(frozen=True)
class Pause(Effect):
    """Consume one step without touching shared state; resumes with None."""

    #: A pause watches nothing: to the explorer it is a wait with an
    #: empty read set (see :class:`Await`).
    watch: ClassVar[Tuple[Tuple[str, Any], ...]] = ()


#: Shared Pause instance. Effects are frozen values, so busy-wait loops
#: (the most-executed yields in the repository) can reuse one object
#: instead of constructing a fresh Pause every iteration.
PAUSE = Pause()


@dataclass(frozen=True)
class Await(Effect):
    """Park until a watched register changes; resumes with None.

    ``watch`` is a tuple of ``(register, value_seen)`` pairs. The step
    parks the coroutine unless some watched register already differs
    from the value seen (then it resumes at once, so no wake-up is
    lost); any later write to a watched register makes it runnable
    again. ``Await(())`` parks for good.
    """

    watch: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class Invoke(Effect):
    """Mark the invocation of operation ``op`` on object ``obj``.

    Resumes with a fresh operation id (int) that the matching
    :class:`Respond` must echo back.
    """

    obj: str
    op: str
    args: Tuple[Any, ...] = field(default=())


@dataclass(frozen=True)
class Respond(Effect):
    """Mark the response of a previously invoked operation; resumes None."""

    op_id: int
    result: Any


@dataclass(frozen=True)
class Send(Effect):
    """Enqueue ``payload`` for delivery to process ``to``; resumes None."""

    to: int
    payload: Any


@dataclass(frozen=True)
class Broadcast(Effect):
    """Enqueue ``payload`` to every process (including the sender)."""

    payload: Any


@dataclass(frozen=True)
class ReceiveAll(Effect):
    """Drain the caller's mailbox; resumes with a tuple of (sender, payload).

    Non-blocking: resumes with an empty tuple when no message has been
    delivered yet. Programs poll inside fair loops (with the network's
    delivery schedule deciding when messages become visible), which models
    asynchrony without blocking receives.
    """
