"""Signature-free Byzantine asset transfer (the third [5] object).

Cohen & Keidar's third Byzantine-linearizable object is *asset
transfer*: accounts with single-owner spending. Because only an
account's owner can spend from it, no consensus is needed — but a
Byzantine owner can try to **double-spend by equivocation**: publish
transfer #3 as "pay Alice" to some observers and "pay Bob" to others.
With signatures, [5] prevents forged transfers but needs the
transferable-authentication machinery; with the paper's registers the
fix is structural: each slot of an owner's outgoing-transfer log is one
**sticky register**, so the log cannot fork — every correct observer
reads the same transfer #3 (non-equivocation, Obs 24), and the
uniqueness property *is* the double-spend protection.

Semantics:

* ``transfer(owner, to, amount)`` — append to the owner's log; a correct
  owner first checks its observed balance and returns ``"rejected"``
  when insufficient.
* ``balance(reader, account)`` — read every account's log and compute
  the account's balance under deterministic validation.

Validation (performed locally on read data, identically by every
reader): an owner's log counts only up to its first gap or malformed
slot, and transfers are credited by fixpoint — a transfer is *valid*
iff the sender's running balance (initial + valid credits − prior valid
debits) covers it. Since logs are append-only and fork-free, any two
readers' views are prefix-related and their valid sets are monotone —
a credited transfer never un-credits.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.interfaces import AlgorithmBase
from repro.core.sticky import StickyRegister
from repro.errors import ConfigurationError
from repro.sim.process import Program
from repro.sim.system import System
from repro.sim.values import is_bottom


def well_formed_transfer(raw: Any, pids: Iterable[int]) -> Optional[Tuple[int, int]]:
    """Parse a log slot as ``(to, amount)``; None when malformed.

    A Byzantine owner can write arbitrary values into its own slots;
    malformed entries terminate its usable log prefix (they can never
    become valid transfers), which is the pessimistic-but-safe reading.
    """
    if (
        isinstance(raw, tuple)
        and len(raw) == 2
        and isinstance(raw[0], int)
        and not isinstance(raw[0], bool)
        and raw[0] in set(pids)
        and isinstance(raw[1], int)
        and not isinstance(raw[1], bool)
        and raw[1] > 0
    ):
        return (raw[0], raw[1])
    return None


def settle(
    initial: Dict[int, int],
    logs: Dict[int, List[Optional[Tuple[int, int]]]],
) -> Dict[int, int]:
    """Deterministic fixpoint settlement of observed transfer logs.

    ``logs[owner]`` is the parsed slot list (None = empty/malformed;
    the usable prefix ends at the first None). Returns final balances.
    The fixpoint iterates because a transfer's validity can depend on a
    credit from another account's transfer; each pass only ever *adds*
    valid transfers, so the iteration is monotone and terminates.
    """
    prefixes: Dict[int, List[Tuple[int, int]]] = {}
    for owner, slots in logs.items():
        prefix: List[Tuple[int, int]] = []
        for slot in slots:
            if slot is None:
                break
            prefix.append(slot)
        prefixes[owner] = prefix

    # valid_counts[owner] = how many of its prefix transfers are valid.
    valid_counts: Dict[int, int] = {owner: 0 for owner in prefixes}
    changed = True
    while changed:
        changed = False
        balances = _balances(initial, prefixes, valid_counts)
        for owner, prefix in prefixes.items():
            count = valid_counts[owner]
            if count < len(prefix):
                _to, amount = prefix[count]
                if balances[owner] >= amount:
                    valid_counts[owner] = count + 1
                    changed = True
    return _balances(initial, prefixes, valid_counts)


def _balances(
    initial: Dict[int, int],
    prefixes: Dict[int, List[Tuple[int, int]]],
    valid_counts: Dict[int, int],
) -> Dict[int, int]:
    balances = dict(initial)
    for owner, prefix in prefixes.items():
        for to, amount in prefix[: valid_counts[owner]]:
            balances[owner] -= amount
            balances[to] = balances.get(to, 0) + amount
    return balances


class AssetTransfer:
    """Accounts with sticky-register transfer logs (n > 3f).

    Args:
        system: The simulated system; every pid owns one account.
        initial_balances: pid -> starting balance (default 100 each).
        slots: Maximum outgoing transfers per account.
    """

    OPERATIONS = ("transfer", "balance")

    def __init__(
        self,
        system: System,
        name: str = "assets",
        initial_balances: Optional[Dict[int, int]] = None,
        slots: int = 4,
        f: Optional[int] = None,
    ):
        self.system = system
        self.name = name
        self.slots = slots
        self.f = system.f if f is None else f
        self.initial_balances = dict(
            initial_balances or {pid: 100 for pid in system.pids}
        )
        for pid in system.pids:
            self.initial_balances.setdefault(pid, 0)
        self._logs: Dict[Tuple[int, int], StickyRegister] = {}
        for owner in system.pids:
            for index in range(slots):
                self._logs[(owner, index)] = StickyRegister(
                    system,
                    name=f"{name}/log[{owner}][{index}]",
                    writer=owner,
                    f=self.f,
                )
        #: Owner-local count of transfers issued (next free slot).
        self._issued: Dict[int, int] = {pid: 0 for pid in system.pids}

    # ------------------------------------------------------------------
    def install(self) -> "AssetTransfer":
        """Install every log-slot register."""
        for register in self._logs.values():
            register.install()
        return self

    def start_helpers(self, pids: Optional[Iterable[int]] = None) -> None:
        """Start Help daemons for every slot register."""
        for register in self._logs.values():
            register.start_helpers(pids)

    def slot_register(self, owner: int, index: int) -> StickyRegister:
        """The sticky register backing slot ``index`` of ``owner``."""
        key = (owner, index)
        if key not in self._logs:
            raise ConfigurationError(f"no slot {index} for account {owner}")
        return self._logs[key]

    # ------------------------------------------------------------------
    def _collect_logs(self, reader: int) -> Program:
        """Read every account's full log (self-slots via witness values)."""
        logs: Dict[int, List[Optional[Tuple[int, int]]]] = {}
        for owner in self.system.pids:
            slots: List[Optional[Tuple[int, int]]] = []
            for index in range(self.slots):
                register = self._logs[(owner, index)]
                if reader == owner:
                    # The owner cannot Read its own sticky register (it
                    # is not among the readers); its witness register
                    # carries the accepted value (cf. broadcast
                    # self-delivery).
                    from repro.sim.effects import ReadRegister

                    raw = yield ReadRegister(register.reg_witness(owner))
                else:
                    raw = yield from register.procedure_read(reader)
                if is_bottom(raw):
                    slots.append(None)
                else:
                    slots.append(well_formed_transfer(raw, self.system.pids))
            logs[owner] = slots
        return logs

    def procedure_balance(self, reader: int, account: int) -> Program:
        """Observed balance of ``account`` under fixpoint settlement."""
        if account not in self.system.pids:
            raise ConfigurationError(f"unknown account {account}")
        logs = yield from self._collect_logs(reader)
        settled = settle(self.initial_balances, logs)
        return settled[account]

    def procedure_transfer(self, owner: int, to: int, amount: int) -> Program:
        """Append a transfer to the owner's log (with a solvency check)."""
        if to not in self.system.pids:
            raise ConfigurationError(f"unknown payee {to}")
        if not isinstance(amount, int) or amount <= 0:
            raise ConfigurationError(f"amount must be a positive int: {amount!r}")
        balance = yield from self.procedure_balance(owner, owner)
        if balance < amount:
            return "rejected"
        index = self._issued[owner]
        if index >= self.slots:
            return "log-full"
        self._issued[owner] = index + 1
        register = self._logs[(owner, index)]
        yield from register.procedure_write(owner, (to, amount))
        return "ok"

    op = AlgorithmBase.op
