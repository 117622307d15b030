#!/usr/bin/env python
"""Unique proposals for consensus via sticky registers (Sections 1 and 8).

The paper's motivating application for sticky registers: in a consensus
protocol each process publishes *one* proposal. A Byzantine process
armed only with signatures can still equivocate — publish several
properly signed proposals to different observers and foil agreement.
A sticky register closes that hole: whatever readers extract, they all
extract the same proposal.

This example stages a proposal round for n = 4 processes where the
Byzantine process p1 tries to show proposal "A" to some peers and "B"
to others, flipping its echo register rapidly. Every correct process
collects everyone's proposals; the demonstration checks that all
correct processes assembled *identical* proposal vectors.

Run:  python examples/consensus_proposals.py
"""

from __future__ import annotations

from repro import System
from repro.adversary import equivocating_writer_sticky
from repro.apps import NonEquivocatingBroadcast
from repro.sim import FunctionClient
from repro.sim.process import pause_steps
from repro.sim.values import is_bottom


def main() -> None:
    system = System(n=4)
    board = NonEquivocatingBroadcast(system, "proposals", slots=1).install()
    system.declare_byzantine(1)
    board.start_helpers(sorted(system.correct))

    # The Byzantine process tries to propose two values at once.
    system.spawn(
        1,
        "client",
        equivocating_writer_sticky(
            board.register_for(1, 0), "A", "B", flip_after=30
        ),
    )

    # Correct processes propose, then collect everyone's proposals.
    collected = {}

    def participant(pid: int, proposal: str):
        def program():
            yield from pause_steps(10 * pid)
            yield from board.op(pid, "broadcast", 0, proposal)
            yield from pause_steps(50)
            view = {}
            for sender in system.pids:
                value = yield from board.op(pid, "deliver", sender, 0)
                view[sender] = None if is_bottom(value) else value
            collected[pid] = view

        return program

    clients = []
    for pid, proposal in ((2, "p2-value"), (3, "p3-value"), (4, "p4-value")):
        client = FunctionClient(participant(pid, proposal))
        clients.append(client)
        system.spawn(pid, "client", client.program())

    system.run_until(lambda: all(c.done for c in clients), 3_000_000)

    print("Collected proposal vectors (per correct process):")
    for pid in sorted(collected):
        print(f"  p{pid}: {collected[pid]}")

    # The vectors may differ on *whether* p1's proposal is visible yet
    # (⊥ vs a value) but never on *which* value it is.
    byzantine_values = {
        view[1] for view in collected.values() if view[1] is not None
    }
    print(f"\nDistinct proposals extracted from the Byzantine process: "
          f"{byzantine_values or '{}'}")
    assert len(byzantine_values) <= 1, "equivocation succeeded?!"

    for sender in (2, 3, 4):
        values = {view[sender] for view in collected.values()}
        assert len(values) == 1, f"disagreement on p{sender}'s proposal"
    print("All correct processes agree on every proposal. Non-equivocation holds.")


if __name__ == "__main__":
    main()
