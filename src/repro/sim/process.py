"""Process programs: composing operations into client scripts.

A *program* is a Python generator that yields effects. This module
provides the glue between low-level programs (the algorithm procedures in
``repro.core``, which yield register effects) and the history: the
:func:`call` wrapper brackets a procedure with ``Invoke``/``Respond``
effects so the kernel records the operation, and :class:`ScriptClient`
runs rows of ``(op, args)`` sequentially through its target's ``op`` —
the paper's requirement that "each correct process invokes operations
sequentially" (Section 3.1). ``target.op(pid, op, *args)``
(:meth:`repro.core.interfaces.AlgorithmBase.op`) is the one way a
recorded operation is made: it checks the name, freezes the args and
records under the target's ``name``.

Programs never touch the ``System`` directly; they communicate only
through yielded effects, which keeps Byzantine programs honest: whatever
code an adversary runs, it still goes through the same effect interpreter
and the same register ports.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Sequence, Tuple

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


class ScriptClient:
    """Sequential client: runs rows of ``(op, args)`` on one target.

    Each row runs as ``yield from target.op(pid, op, *args)``, one after
    another — never concurrently — with ``pause_between`` pause steps
    between consecutive rows, matching the sequential-process
    assumption. A row naming an operation the target lacks raises
    :class:`~repro.errors.ConfigurationError` when it runs. Results are
    accumulated in :attr:`results` in row order for post-run assertions;
    :attr:`done` turns true in the step the last row responds.
    """

    def __init__(
        self,
        target: Any,
        pid: int,
        rows: Iterable[Tuple[str, Sequence[Any]]],
        pause_between: int = 0,
    ):
        self._target = target
        self._pid = pid
        self.rows: List[Tuple[str, Tuple[Any, ...]]] = [
            (op, tuple(args)) for op, args in rows
        ]
        self._pause_between = pause_between
        #: (op, args, result) triples, filled in as the script runs.
        self.results: List[Tuple[str, Tuple[Any, ...], Any]] = []
        #: True once every row has responded.
        self.done = False

    def program(self) -> Program:
        """The client program: run every row sequentially."""
        for index, (op, args) in enumerate(self.rows):
            if index and self._pause_between:
                yield from pause_steps(self._pause_between)
            result = yield from self._target.op(self._pid, op, *args)
            self.results.append((op, args, result))
        self.done = True
        return None

    def result_of(self, op: str, occurrence: int = 0) -> Any:
        """The result of the ``occurrence``-th completed row named ``op``."""
        matches = [r for (name, _, r) in self.results if name == op]
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
