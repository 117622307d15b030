"""Sequential specifications of the paper's object types.

A *sequential specification* (the "type" of Section 3.2, footnote 4)
defines, for each state and operation, the legal response and successor
state. These specs drive the linearizability checker: a history is
linearizable iff some precedence-respecting permutation of its operations
replays through the spec with matching responses.

Specs implemented:

* :class:`AtomicRegisterSpec` — a plain SWMR atomic register.
* :class:`VerifiableRegisterSpec` — Definition 10.
* :class:`AuthenticatedRegisterSpec` — Definition 15.
* :class:`StickyRegisterSpec` — Definition 21.
* :class:`TestOrSetSpec` — Definition 26.
* :class:`SnapshotSpec` — the atomic-snapshot object of the Section 1
  applications (one segment per tracked process).
* :class:`AssetTransferSpec` — the asset-transfer object (accounts with
  single-owner spending).
* :class:`BroadcastSpec` — the (sender, slot)-indexed broadcast object
  shared by the non-equivocating and reliable broadcast apps.

The application specs are *caller-indexed*: ``update``/``transfer``/
``broadcast`` take the acting pid as their first spec argument, because
a sequential snapshot/asset-transfer/broadcast state transition depends
on who acts. The families' judging rules rewrite history records
accordingly before checking (see ``repro.scenarios.bindings``).

All states are immutable (hashable) so the checker can memoize on
``(linearized-set, state)`` pairs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Hashable, Tuple

from repro.sim.values import BOTTOM, freeze, is_bottom

#: Response constants shared with the implementations.
DONE = "done"
SUCCESS = "success"
FAIL = "fail"


class SequentialSpec(ABC):
    """Interface of a deterministic sequential object specification."""

    @abstractmethod
    def initial_state(self) -> Hashable:
        """The object's initial state."""

    @abstractmethod
    def apply(
        self, state: Hashable, op: str, args: Tuple[Any, ...]
    ) -> Tuple[Hashable, Any]:
        """Apply ``op(args)`` in ``state``; return ``(next_state, response)``.

        Raises ``ValueError`` for unknown operations (a malformed
        history, not a legal Byzantine behaviour — Byzantine processes
        may only apply operations allowed by the type; Section 3.2).
        """

    def describe(self) -> str:
        """Short label for diagnostics."""
        return type(self).__name__


@dataclass(frozen=True)
class AtomicRegisterSpec(SequentialSpec):
    """Plain SWMR atomic register: ``write(v) -> done``, ``read -> last v``."""

    initial: Any = None

    def initial_state(self) -> Hashable:
        return freeze(self.initial)

    def apply(self, state, op, args):
        if op == "write":
            (value,) = args
            return freeze(value), DONE
        if op == "read":
            return state, state
        raise ValueError(f"regular register has no operation {op!r}")


@dataclass(frozen=True)
class VerifiableRegisterSpec(SequentialSpec):
    """Definition 10: Write/Read plus Sign/Verify.

    State is ``(current, written, signed)``:

    * ``write(v)``  -> ``done``; current := v; written ∪= {v}
    * ``read()``    -> current
    * ``sign(v)``   -> ``success`` iff v ∈ written (then signed ∪= {v}),
      else ``fail``
    * ``verify(v)`` -> ``true`` iff v ∈ signed
    """

    initial: Any = None

    def initial_state(self) -> Hashable:
        return (freeze(self.initial), frozenset(), frozenset())

    def apply(self, state, op, args):
        current, written, signed = state
        if op == "write":
            (value,) = args
            value = freeze(value)
            return (value, written | {value}, signed), DONE
        if op == "read":
            return state, current
        if op == "sign":
            (value,) = args
            value = freeze(value)
            if value in written:
                return (current, written, signed | {value}), SUCCESS
            return state, FAIL
        if op == "verify":
            (value,) = args
            return state, freeze(value) in signed
        raise ValueError(f"verifiable register has no operation {op!r}")


@dataclass(frozen=True)
class AuthenticatedRegisterSpec(SequentialSpec):
    """Definition 15: every written value is atomically signed.

    State is ``(current, written)``:

    * ``write(v)``  -> ``done``; current := v; written ∪= {v}
    * ``read()``    -> current
    * ``verify(v)`` -> ``true`` iff v ∈ written or v = v0
    """

    initial: Any = None

    def initial_state(self) -> Hashable:
        return (freeze(self.initial), frozenset())

    def apply(self, state, op, args):
        current, written = state
        if op == "write":
            (value,) = args
            value = freeze(value)
            return (value, written | {value}), DONE
        if op == "read":
            return state, current
        if op == "verify":
            (value,) = args
            value = freeze(value)
            return state, value in written or value == freeze(self.initial)
        raise ValueError(f"authenticated register has no operation {op!r}")


@dataclass(frozen=True)
class StickyRegisterSpec(SequentialSpec):
    """Definition 21: the first written value sticks forever.

    State is the stored value (``⊥`` before any write):

    * ``write(v)`` -> ``done``; state := v only if state is still ``⊥``
    * ``read()``   -> state (``⊥`` if nothing written)
    """

    def initial_state(self) -> Hashable:
        return BOTTOM

    def apply(self, state, op, args):
        if op == "write":
            (value,) = args
            value = freeze(value)
            if is_bottom(value):
                raise ValueError("⊥ cannot be written to a sticky register")
            if is_bottom(state):
                return value, DONE
            return state, DONE
        if op == "read":
            return state, state
        raise ValueError(f"sticky register has no operation {op!r}")


@dataclass(frozen=True)
class TestOrSetSpec(SequentialSpec):
    """Definition 26: settable-once flag, testable by anyone.

    State is 0 or 1: ``set -> done`` (state := 1); ``test -> state``.
    """

    #: Not a pytest test class despite the name.
    __test__ = False

    def initial_state(self) -> Hashable:
        return 0

    def apply(self, state, op, args):
        if op == "set":
            return 1, DONE
        if op == "test":
            return state, state
        raise ValueError(f"test-or-set has no operation {op!r}")


@dataclass(frozen=True)
class SnapshotSpec(SequentialSpec):
    """Atomic snapshot over the tracked ``pids`` (one segment each).

    State is a tuple of ``(seq, value)`` per tracked pid, in ``pids``
    order; ``seq`` counts that pid's updates (0 = never updated, the
    implementation's convention):

    * ``update(pid, v)`` -> ``done``; segment[pid] := (seq + 1, v)
    * ``scan()``         -> the whole state tuple

    Only *tracked* pids may update — the scenario layer restricts
    histories to the correct processes and projects scan views onto
    them, so a Byzantine segment never has to be explained by the spec.
    """

    pids: Tuple[int, ...] = ()

    def initial_state(self) -> Hashable:
        return tuple((0, None) for _ in self.pids)

    def apply(self, state, op, args):
        if op == "update":
            pid, value = args
            try:
                index = self.pids.index(pid)
            except ValueError:
                raise ValueError(f"snapshot does not track pid {pid}")
            seq, _old = state[index]
            segment = (seq + 1, freeze(value))
            return (
                state[:index] + (segment,) + state[index + 1:],
                DONE,
            )
        if op == "scan":
            return state, state
        raise ValueError(f"snapshot has no operation {op!r}")


@dataclass(frozen=True)
class BroadcastSpec(SequentialSpec):
    """Broadcast over per-(sender, slot) single-message channels.

    The sequential object behind both broadcast apps (the sticky-register
    sketch of Section 8 and the signature-free reliable broadcast): each
    tracked sender owns ``slots`` message slots; a slot holds at most one
    message forever. State is a tuple of messages (``⊥`` = nothing
    broadcast yet), one per (sender, slot) in ``senders`` × slot order:

    * ``broadcast(sender, slot, m)`` -> ``done``; slot := m only while
      the slot is still ``⊥`` (stickiness *is* the object: a second
      broadcast cannot replace the first).
    * ``deliver(sender, slot)`` -> the slot's message, or ``⊥``.

    Linearizability against this spec is exactly the broadcast contract:
    *integrity / non-equivocation* (one slot explains every delivery, so
    two correct receivers can never be shown different messages),
    *validity* (a delivery that really follows a completed broadcast
    must return its message) and *totality* (once some delivery returned
    ``m``, a later delivery returning ``⊥`` cannot linearize — it would
    need the pre-broadcast state after a post-broadcast read).

    Byzantine senders never appear in the correct-restricted history;
    the family's rule synthesizes at most one whole-run ``broadcast``
    per settled Byzantine slot (see ``repro.scenarios.bindings``), so a
    forked slot — two receivers delivering different messages — is
    unexplainable and fails the search.
    """

    senders: Tuple[int, ...] = ()
    slots: int = 1

    def initial_state(self) -> Hashable:
        return tuple(BOTTOM for _ in range(len(self.senders) * self.slots))

    def _index(self, sender: Any, slot: Any) -> int:
        try:
            base = self.senders.index(sender)
        except ValueError:
            raise ValueError(f"broadcast does not track sender {sender}")
        if (
            not isinstance(slot, int)
            or isinstance(slot, bool)
            or not 0 <= slot < self.slots
        ):
            raise ValueError(f"broadcast has no slot {slot!r}")
        return base * self.slots + slot

    def apply(self, state, op, args):
        if op == "broadcast":
            sender, slot, message = args
            message = freeze(message)
            if is_bottom(message):
                raise ValueError("⊥ cannot be broadcast")
            index = self._index(sender, slot)
            if is_bottom(state[index]):
                return state[:index] + (message,) + state[index + 1:], DONE
            return state, DONE
        if op == "deliver":
            sender, slot = args
            return state, state[self._index(sender, slot)]
        raise ValueError(f"broadcast has no operation {op!r}")


@dataclass(frozen=True)
class AssetTransferSpec(SequentialSpec):
    """Asset transfer over the tracked ``accounts``.

    State is a tuple of balances, one per tracked account in
    ``accounts`` order (initial balances in ``initial``):

    * ``transfer(owner, to, amount)`` -> ``"ok"`` and move ``amount``
      when the owner's balance covers it, else ``"rejected"`` with no
      state change (the solvency check of a correct owner).
    * ``balance(account)`` -> the account's current balance.

    Only tracked accounts appear — the scenario layer keeps correct
    clients' transfers and queries inside the correct set, and Byzantine
    adversaries are given behaviours that cannot mint valid credits
    (garbage log slots parse as malformed), so the restricted history is
    explainable by this spec exactly when the object is linearizable
    for the correct processes.
    """

    accounts: Tuple[int, ...] = ()
    initial: Tuple[int, ...] = ()

    def initial_state(self) -> Hashable:
        return tuple(self.initial)

    def _index(self, account: Any) -> int:
        try:
            return self.accounts.index(account)
        except ValueError:
            raise ValueError(f"asset transfer does not track account {account}")

    def apply(self, state, op, args):
        if op == "transfer":
            owner, to, amount = args
            source = self._index(owner)
            target = self._index(to)
            if not isinstance(amount, int) or amount <= 0:
                raise ValueError(f"bad transfer amount {amount!r}")
            if state[source] < amount:
                return state, "rejected"
            balances = list(state)
            balances[source] -= amount
            balances[target] += amount
            return tuple(balances), "ok"
        if op == "balance":
            (account,) = args
            return state, state[self._index(account)]
        raise ValueError(f"asset transfer has no operation {op!r}")
