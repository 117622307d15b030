"""Process programs: composing operations into client scripts.

A *program* is a Python generator that yields effects. This module
provides the glue between low-level programs (the algorithm procedures in
``repro.core``, which yield register effects) and the history: the
:func:`call` wrapper brackets a procedure with ``Invoke``/``Respond``
effects so the kernel records the operation, and :class:`ScriptClient`
runs a list of such calls sequentially — the paper's requirement that
"each correct process invokes operations sequentially" (Section 3.1).

Programs never touch the ``System`` directly; they communicate only
through yielded effects, which keeps Byzantine programs honest: whatever
code an adversary runs, it still goes through the same effect interpreter
and the same register ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.sim.effects import PAUSE, Await, Effect, Invoke, Respond

#: The type of a process program: a generator of effects.
Program = Generator[Effect, Any, Any]


def call(
    obj: str, op: str, args: Tuple[Any, ...], procedure: Program
) -> Program:
    """Run ``procedure`` as a recorded operation ``obj.op(args)``.

    Yields an ``Invoke`` step, delegates every effect of the procedure,
    then yields a ``Respond`` step carrying the procedure's return value.
    Returns that value, so callers can chain on the result::

        ok = yield from call("vreg", "verify", (v,), reg.procedure_verify(pid, v))
    """
    op_id = yield Invoke(obj=obj, op=op, args=tuple(args))
    result = yield from procedure
    yield Respond(op_id=op_id, result=result)
    return result


def idle_forever() -> Program:
    """Wait for nothing: one step, then never runnable again.

    The program of silent (crashed) processes and of no-op daemons. The
    kernel parks ``Await(())`` for good; the loop only matters to
    consumers that turn a wait back into a poll (``repro.mp.adapter``).
    """
    while True:
        yield Await(())


def pause_steps(count: int) -> Program:
    """Yield exactly ``count`` pause steps, then return."""
    for _ in range(count):
        yield PAUSE
    return None


@dataclass
class OpCall:
    """One scripted operation: object name, op name, args, and a callback.

    ``make_procedure`` is invoked lazily at execution time (so scripts can
    depend on results of earlier operations through closures), and
    ``on_result`` — if given — receives the operation's return value.
    """

    obj: str
    op: str
    args: Tuple[Any, ...]
    make_procedure: Callable[[], Program]
    on_result: Optional[Callable[[Any], None]] = None


class ScriptClient:
    """Sequential client: runs a list of :class:`OpCall` and records results.

    The resulting program performs the calls one after another — never
    concurrently — matching the sequential-process assumption. Results
    are accumulated in :attr:`results` in call order for post-run
    assertions.
    """

    def __init__(self, calls: Iterable[OpCall], pause_between: int = 0):
        self._calls: List[OpCall] = list(calls)
        self._pause_between = pause_between
        #: (obj, op, args, result) tuples, filled in as the script runs.
        self.results: List[Tuple[str, str, Tuple[Any, ...], Any]] = []
        #: True once every scripted call has responded.
        self.done = False

    def program(self) -> Program:
        """The client program: execute every call sequentially."""
        for index, op_call in enumerate(self._calls):
            if index and self._pause_between:
                yield from pause_steps(self._pause_between)
            result = yield from call(
                op_call.obj, op_call.op, op_call.args, op_call.make_procedure()
            )
            self.results.append((op_call.obj, op_call.op, op_call.args, result))
            if op_call.on_result is not None:
                op_call.on_result(result)
        self.done = True
        return None

    def result_of(self, op: str, occurrence: int = 0) -> Any:
        """The result of the ``occurrence``-th completed call named ``op``."""
        matches = [r for (_, name, _, r) in self.results if name == op]
        return matches[occurrence]


class FunctionClient:
    """Client defined by an arbitrary generator function.

    For tests that need control flow between operations (e.g. "read, and
    if the value is X then verify it"). The function receives no
    arguments; use closures for context. Completion is tracked so tests
    can run the system until the client finishes.
    """

    def __init__(self, fn: Callable[[], Program]):
        self._fn = fn
        self.done = False
        self.result: Any = None

    def program(self) -> Program:
        """Wrap the user generator with completion tracking."""
        self.result = yield from self._fn()
        self.done = True
        return self.result


def all_done(clients: Sequence[Any]) -> Callable[[], bool]:
    """Predicate: every client in ``clients`` has finished its script.

    ``System.run_until`` asks before every step, so the predicate
    consumes: finished clients are popped from the back of a private
    copy (``done`` flags are sticky) and the steady-state call reads one
    flag, whatever the client count and whatever order they finish in.
    """
    remaining = list(clients)

    def predicate() -> bool:
        while remaining and remaining[-1].done:
            remaining.pop()
        return not remaining

    return predicate
