"""Shared fixtures and helpers for the test suite.

The helpers here remove the boilerplate of the common test shape:
build a system, install a register, start helpers, run scripted clients
to completion, then assert on results/history — or, for randomized
workloads, run one ``register`` scenario spec the way every caller does
(:func:`run_register`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import pytest

from repro.scenarios import make_scenario
from repro.sim import FunctionClient, OpCall, RandomScheduler, ScriptClient, System
from repro.sim.process import pause_steps


def script_for(
    impl: Any, pid: int, ops: Sequence[Tuple[str, Tuple[Any, ...]]],
    pause_between: int = 3,
) -> ScriptClient:
    """A ScriptClient running ``ops`` (list of (name, args)) on ``impl``."""
    calls = [
        OpCall(
            impl.name,
            op,
            args,
            (lambda op=op, args=args: getattr(impl, f"procedure_{op}")(pid, *args)),
        )
        for op, args in ops
    ]
    return ScriptClient(calls, pause_between=pause_between)


def spawn_script(
    system: System,
    impl: Any,
    pid: int,
    ops: Sequence[Tuple[str, Tuple[Any, ...]]],
    delay: int = 0,
    role: str = "client",
) -> ScriptClient:
    """Spawn a scripted client (optionally delayed); returns the client."""
    client = script_for(impl, pid, ops)
    if delay:

        def delayed():
            yield from pause_steps(delay)
            yield from client.program()

        wrapper = FunctionClient(delayed)
        client._wrapper = wrapper
        system.spawn(pid, role, wrapper.program())
    else:
        system.spawn(pid, role, client.program())
    return client


def run_clients(
    system: System, clients: Iterable[ScriptClient], max_steps: int = 2_000_000
) -> int:
    """Run until every client's script (including delayed wrappers) finished."""
    clients = list(clients)

    def done() -> bool:
        return all(
            getattr(c, "_wrapper", c).done if hasattr(c, "_wrapper") else c.done
            for c in clients
        )

    return system.run_until(done, max_steps, label="all scripted clients")


def run_register(
    kind: str, n: int, seed: int, **adversaries: Any
) -> Tuple[System, Optional[str]]:
    """Build, drive and judge one ``register`` spec under ``RandomScheduler(seed)``.

    Returns the finished system and the failure: None when the oracles
    find the run clean, else the violation reason followed by the spec
    label (its replay coordinates) and the full history — ready to be an
    assertion message.
    """
    spec = make_scenario("register", kind=kind, n=n, seed=seed, **adversaries)
    built = spec.build(RandomScheduler(seed=seed))
    built.drive()
    reason = built.check()
    if reason is None:
        return built.system, None
    return built.system, "\n".join(
        [reason, spec.label(), "history:", built.system.history.describe()]
    )


@pytest.fixture
def system4() -> System:
    """A fresh 4-process system (f = 1) with round-robin scheduling."""
    return System(n=4)


@pytest.fixture
def system7() -> System:
    """A fresh 7-process system (f = 2) with round-robin scheduling."""
    return System(n=7)
