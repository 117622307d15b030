"""Shared fixtures and helpers for the test suite.

The helpers here remove the boilerplate of the common test shape:
build a system, install a register, start helpers, run scripted clients
to completion, then assert on results/history — or, for randomized
workloads, run one ``register`` scenario spec the way every caller does
(:func:`run_register`).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Optional, Sequence, Tuple

import pytest

from repro.scenarios import make_scenario
from repro.sim import RandomScheduler, ScriptClient, System, all_done, pause_steps


def spawn_script(
    system: System,
    target: Any,
    pid: int,
    rows: Sequence[Tuple[str, Tuple[Any, ...]]],
    delay: int = 0,
    role: str = "client",
    pause_between: int = 3,
) -> ScriptClient:
    """Spawn a client running ``rows`` ((op, args) pairs) on ``target``.

    With ``delay`` the script starts after that many pause steps; the
    client's ``done`` flips in its last row's step either way.
    """
    client = ScriptClient(target, pid, rows, pause_between=pause_between)

    def delayed():
        yield from pause_steps(delay)
        yield from client.program()

    system.spawn(pid, role, delayed() if delay else client.program())
    return client


def count_steps(system: System) -> Counter:
    """Count each coroutine's steps, the retiring one included.

    Attaches ``system.on_step``; the returned counter fills as the
    system runs.
    """
    counts: Counter = Counter()

    def observe(cid, _effect) -> None:
        counts[cid] += 1

    system.on_step = observe
    return counts


def run_clients(
    system: System, clients: Iterable[ScriptClient], max_steps: int = 2_000_000
) -> int:
    """Run until every client's script finished."""
    return system.run_until(
        all_done(list(clients)), max_steps, label="all scripted clients"
    )


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
