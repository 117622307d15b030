#!/usr/bin/env python
"""A tiny asset ledger where double-spending is structurally impossible.

The paper's intro names asset transfer (via [5]) among the algorithms
its registers make signature-free. Each account's outgoing-transfer log
is a sequence of sticky registers: the log cannot fork, so a Byzantine
account owner cannot show "I paid Alice" to one observer and "I paid
Bob" to another — the uniqueness property of sticky registers *is* the
double-spend protection, no signatures involved.

The scenario: four accounts start with 100 coins each, honest payments
flow, and the Byzantine owner of account 1 attempts a classic
double-spend of its remaining balance. All correct auditors settle to
identical books, with at most one of the conflicting payments credited.

Run:  python examples/asset_ledger.py
"""

from __future__ import annotations

from repro import System
from repro.adversary import equivocating_writer_sticky
from repro.apps import AssetTransfer
from repro.sim import FunctionClient
from repro.sim.process import pause_steps


def main() -> None:
    system = System(n=4)
    ledger = AssetTransfer(
        system, initial_balances={1: 50, 2: 100, 3: 100, 4: 100}, slots=2
    ).install()
    system.declare_byzantine(1)
    ledger.start_helpers(sorted(system.correct))

    # The Byzantine owner of account 1 tries to spend its 50 coins
    # twice: slot 0 flips between "pay p2" and "pay p3".
    system.spawn(
        1,
        "client",
        equivocating_writer_sticky(
            ledger.slot_register(1, 0), (2, 50), (3, 50), flip_after=30
        ),
    )

    # Honest traffic: p2 pays p3, p3 pays p4.
    def honest(pid: int, to: int, amount: int):
        def program():
            yield from pause_steps(25 * pid)
            result = yield from ledger.op(pid, "transfer", to, amount)
            print(f"  p{pid} -> p{to}: {amount} coins ... {result}")

        return program

    books = {}

    def auditor(pid: int):
        def program():
            yield from pause_steps(600)
            balances = {}
            for account in system.pids:
                balances[account] = yield from ledger.op(pid, "balance", account)
            books[pid] = balances

        return program

    clients = [
        FunctionClient(honest(2, 3, 20)),
        FunctionClient(honest(3, 4, 35)),
    ]
    print("Honest payments:")
    system.spawn(2, "client", clients[0].program())
    system.spawn(3, "client", clients[1].program())
    system.run_until(lambda: all(c.done for c in clients), 4_000_000)

    audit_clients = []
    for pid in (2, 3, 4):
        client = FunctionClient(auditor(pid))
        audit_clients.append(client)
        system.spawn(pid, "audit", client.program())
    system.run_until(lambda: all(c.done for c in audit_clients), 8_000_000)

    print("\nSettled books per correct auditor:")
    for pid in sorted(books):
        print(f"  auditor p{pid}: {books[pid]}")

    reference = books[2]
    assert all(b == reference for b in books.values()), "auditors disagree!"
    total = sum(reference.values())
    assert total == 350, f"coins created or destroyed: {total}"
    print(f"\nTotal coins: {total} (conserved)")
    print(f"Byzantine account 1 final balance: {reference[1]}")
    assert reference[1] in (0, 50)  # spent once, or not at all — never twice
    print("No double spend: the sticky log admits at most one payment #0.")


if __name__ == "__main__":
    main()
