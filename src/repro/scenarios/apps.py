"""Explorable scenarios for the paper-level applications (repro.apps).

These builders bring the Section 1/8 applications — the Byzantine atomic
snapshot, the asset-transfer object, and the two broadcast objects
(non-equivocating and reliable) — into the same conformance matrix as
the registers: one picklable spec per scenario, driven by any
exploration scheduler, judged against a *sequential specification*
through the shared Wing–Gong linearizability search and
:class:`repro.spec.CheckContext` caches.

Oracle shape (see :class:`repro.spec.SnapshotSpec` /
:class:`repro.spec.AssetTransferSpec` /
:class:`repro.spec.BroadcastSpec`): the history is restricted to the
correct processes and then rewritten so the spec can replay it —

* ``update``/``transfer``/``broadcast`` records gain the acting pid as
  their first spec argument (a sequential snapshot/transfer/broadcast
  transition depends on who acts);
* snapshot ``scan`` results are *projected* onto the correct segments
  (a Byzantine process's own segment is unconstrained by the paper's
  Byzantine linearizability, so the spec never has to explain it);
* asset-transfer histories are judged over *all* accounts: the
  Byzantine accounts' settled outgoing payments are *synthesized* from
  the final witness state of their log registers (the Byzantine-
  linearizability move of ``repro.spec.byzantine``, specialized to
  fork-free sticky logs), so a consistent Byzantine credit is
  explainable while a forked log — two auditors crediting different
  payments — is not;
* broadcast histories are judged over *all* senders the same way: at
  most one whole-run ``broadcast`` is synthesized per Byzantine
  (sender, slot) whose sticky register settled (``f + 1`` correct
  witnesses of one message — exactly the evidence a correct Read
  collects before delivering), so a consistently delivered Byzantine
  message is explainable while a *forked* slot — two correct receivers
  delivering different messages — is not.

Topology note: at ``n = 3f + 1`` all applications must be clean under
every behaviour here (the paper's n > 3f translations). At ``n = 3f``
the equivocating-owner/sender attack forks a sticky register and two
correct processes settle different values — the asset-transfer double
spend and the broadcast integrity break the violating campaign cells
pin. The snapshot cells pin clean at both boundaries under the
reader-side behaviours *and* under ``byzantine_updater`` now that
embedded-scan adoption is freshness-checked; the pre-fix hole stays
measured through the ``verify_freshness=False`` cell and its corpus
entry (see ``repro.scenarios.catalog``).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adversary import behaviors
from repro.apps import (
    EMPTY_SEGMENT,
    AssetTransfer,
    AtomicSnapshot,
    NonEquivocatingBroadcast,
    ReliableBroadcast,
)
from repro.core.sticky import StickyRegister
from repro.errors import ConfigurationError
from repro.sim import OpCall, ScriptClient, System
from repro.sim.effects import ReadRegister, WriteRegister
from repro.sim.history import OperationRecord
from repro.sim.process import all_done, pause_steps
from repro.sim.values import BOTTOM, freeze, is_bottom
from repro.spec.context import CheckContext
from repro.spec.linearizability import find_linearization
from repro.spec.sequential import (
    AssetTransferSpec,
    BroadcastSpec,
    SnapshotSpec,
)
from repro.scenarios.registry import BuiltScenario, register_builder

#: Byzantine behaviours an app scenario may assign (pid -> name pairs).
APP_ADVERSARIES = (
    "garbage",
    "silent",
    "stonewall",
    "deny",
    "equivocate",
    "byzantine_updater",
)

#: Amount every equivocating transfer moves (small enough to always be
#: solvent against the default initial balance).
EQUIVOCATION_AMOUNT = 50


def _backing_registers(app: Any) -> List[Any]:
    """Every SWMR register object backing an app instance, sorted by name."""
    if isinstance(app, AtomicSnapshot):
        registers = [app.segment(pid) for pid in sorted(app.system.pids)]
    elif isinstance(app, AssetTransfer):
        registers = [
            app.slot_register(owner, index)
            for owner in sorted(app.system.pids)
            for index in range(app.slots)
        ]
    elif isinstance(app, (NonEquivocatingBroadcast, ReliableBroadcast)):
        registers = [
            app.register_for(sender, slot)
            for sender in sorted(app.system.pids)
            for slot in range(app.slots)
        ]
    else:
        raise ConfigurationError(f"no backing-register map for {app!r}")
    return registers


def _app_stonewaller(app: Any, pid: int) -> Any:
    """Answer every asker of every backing register with "nothing".

    The app-level analogue of
    :func:`repro.adversary.behaviors.stonewalling_witness`: for each
    backing register the pid helps (but does not own), it serves every
    asker round with the empty witness report — ``⊥`` for sticky logs,
    the empty set for authenticated segments. Measured result: a
    register with a *correct* owner survives this even at ``n = 3f``,
    because the owner's and the reader's own helpers already form the
    needed quorum — which is exactly why the campaign's snapshot cells
    pin clean at both boundaries.
    """
    registers = [
        register
        for register in _backing_registers(app)
        if register.writer != pid
    ]

    def program() -> Any:
        while True:
            for register in registers:
                empty: Any = (
                    BOTTOM
                    if isinstance(register, StickyRegister)
                    else frozenset()
                )
                for k in register.readers:
                    if k == pid:
                        continue
                    counter_raw = yield ReadRegister(register.reg_counter(k))
                    counter = counter_raw if isinstance(counter_raw, int) else 0
                    yield WriteRegister(
                        register.reg_reply(pid, k), (empty, counter)
                    )
            yield from pause_steps(1)

    return program()


def _app_denier(app: Any, pid: int) -> Any:
    """Witness-then-deny: speed writes to completion, starve the readers.

    The app-level composition of the Theorem 29 "raise the witness,
    then act as if you never stepped" move and the E12 staging: for
    every backing register the pid helps, it *eagerly* copies the
    owner's current value into its own echo/witness registers — so
    writes reach their ``n - f`` witness quorum with the Byzantine
    process as a member — while answering every asker round with the
    empty report. The aim is a write whose quorum is
    ``{owner, Byzantine}`` followed by a read that collects ``f + 1``
    "nothing" reports (Obs 22's validity break). Measured result: the
    helpers' self-echo closes the window — a correct helper that serves
    an asker has already run its echo/witness duties in the same
    iteration — so correct-owner registers survive this behaviour even
    at ``n = 3f``; it stays in the catalogue as the strongest honest
    reader-side attack (the snapshot cells pin clean under it).
    """
    from repro.core.authenticated import well_formed_tuples

    registers = [
        register
        for register in _backing_registers(app)
        if register.writer != pid
    ]

    def program() -> Any:
        while True:
            for register in registers:
                if isinstance(register, StickyRegister):
                    value = yield ReadRegister(register.reg_echo(register.writer))
                    if not is_bottom(value):
                        yield WriteRegister(register.reg_echo(pid), value)
                        yield WriteRegister(register.reg_witness(pid), value)
                    empty: Any = BOTTOM
                else:
                    raw = yield ReadRegister(
                        register.reg_witness(register.writer)
                    )
                    values = frozenset(
                        value for _ts, value in well_formed_tuples(raw)
                    )
                    yield WriteRegister(
                        register.reg_witness(pid),
                        values | {register.initial},
                    )
                    empty = frozenset()
                for k in register.readers:
                    if k == pid:
                        continue
                    counter_raw = yield ReadRegister(register.reg_counter(k))
                    counter = counter_raw if isinstance(counter_raw, int) else 0
                    yield WriteRegister(
                        register.reg_reply(pid, k), (empty, counter)
                    )
            yield from pause_steps(1)

    return program()


def _app_equivocator(app: Any, pid: int) -> Any:
    """Fork the owner's first sticky slot between two values (Obs 24).

    The equivocation attack of the paper's application sections,
    instantiated per app: for **asset transfer** the Byzantine account
    owner forks its slot-0 log between ``pay a`` and ``pay b`` (both
    correct payees) — the double spend; for the **broadcast** objects
    the Byzantine *sender* forks its slot-0 message register between two
    messages — the integrity/non-equivocation break. The sticky-register
    mechanics are identical (see :func:`_sticky_fork_equivocator`): at
    ``n = 3f + 1`` at most one fork is ever witnessable and the cells
    pin clean; at ``n = 3f`` two correct processes settle *different*
    forks — the violating cells.
    """
    if isinstance(app, AssetTransfer):
        register = app.slot_register(pid, 0)
        payees = sorted(p for p in app.system.pids if p != pid)[:2]
        if len(payees) < 2:
            raise ConfigurationError(
                "equivocation needs two candidate payees"
            )
        forks = (
            freeze((payees[0], EQUIVOCATION_AMOUNT)),
            freeze((payees[1], EQUIVOCATION_AMOUNT)),
        )
    elif isinstance(app, (NonEquivocatingBroadcast, ReliableBroadcast)):
        register = app.register_for(pid, 0)
        forks = (freeze(f"fork-a@{pid}"), freeze(f"fork-b@{pid}"))
    else:
        raise ConfigurationError(
            "the equivocate behaviour targets sticky-backed apps "
            "(asset transfer, broadcast)"
        )
    return _sticky_fork_equivocator(register, pid, forks)


def _sticky_fork_equivocator(
    register: StickyRegister, pid: int, forks: Tuple[Any, Any]
) -> Any:
    """Flip-flop + mirror-serve a sticky register between two forks.

    The Byzantine owner flip-flops its echo register between the two
    fork values and — acting as its own register's only
    truthful-looking witness — *mirrors* each asker's own echo back at
    it, so a reader that echoed fork ``a`` collects matching ``a``
    reports and one that echoed ``b`` collects ``b``. At ``n = 3f + 1``
    the ``n - f``-echo witness rule lets at most one fork ever be
    witnessed, so every correct read agrees. At ``n = 3f`` the rule
    degrades to "the owner's echo plus one correct echo", both forks
    are witnessable, and two correct readers settle different forks.
    """
    helpers = [k for k in register.readers if k != pid]

    def program() -> Any:
        # Phase 1 — blind churn, one flip per step: which fork a correct
        # helper's (sticky) echo commits to is decided by the scheduler,
        # not by arrival order. 64 flips comfortably cover every
        # helper's first echo under the exploration schedulers.
        side = 0
        for _ in range(64):
            yield WriteRegister(register.reg_echo(pid), forks[side])
            side = 1 - side
        # Phase 2 — mirror-serve, still flipping: each asker is answered
        # with its *own* echo, so a reader's matching-report quorum
        # closes around its side of the fork (at n = 3f) instead of
        # stalling; the continued flips let each side's helper meet the
        # echo-witness rule for its own fork, which keeps reads live
        # (and at n = 3f + 1 can never push the minority fork to the
        # n - f echo quorum).
        while True:
            yield WriteRegister(register.reg_echo(pid), forks[side])
            side = 1 - side
            for k in helpers:
                counter_raw = yield ReadRegister(register.reg_counter(k))
                counter = counter_raw if isinstance(counter_raw, int) else 0
                echoed = yield ReadRegister(register.reg_echo(k))
                yield WriteRegister(
                    register.reg_reply(pid, k),
                    (echoed if not is_bottom(echoed) else BOTTOM, counter),
                )

    return program()


def _app_byzantine_updater(app: Any, pid: int, churn: int = 12) -> Any:
    """Churn authentic-but-stale updates (the embedded-scan freshness hole).

    The strongest Byzantine *updater* against the snapshot: the process
    runs the **genuine write protocol** on its own segment — every value
    it serves is well-formed and authentic, so component verification
    can never expose it — but each update embeds the *all-initial* scan
    (every component ``EMPTY_SEGMENT``, which "always verifies"). The
    churn breaks direct double collects and forces scanners onto the
    embedded-scan adoption path, where pre-fix they adopted the initial
    view regardless of their own completed updates — a snapshot
    linearizability violation at *any* ``n``. Post-fix the seq watermark
    rejects the stale embedded scan (the scanner has already observed
    fresher seqs directly), the churner joins the blacklist, and the
    scan completes as a direct scan over the remaining segments — the
    cells pin clean at both boundaries.

    ``churn`` bounds the number of stale updates (two observed moves per
    scan already trigger adoption; twelve genuine protocol writes,
    paced ~200 steps apart so they overlap the clients' late scans,
    cover every scan in the workload several times over). The
    *endless*-churn liveness question — can a relentless mover starve
    scans — is the blacklisting unit tests' job, not this cell's: an
    unbounded genuine write loop only multiplies the run's step count
    without adding adoption opportunities.
    """
    if not isinstance(app, AtomicSnapshot):
        raise ConfigurationError(
            "the byzantine_updater behaviour targets the atomic snapshot"
        )
    register = app.segment(pid)
    stale_view = freeze(
        tuple(EMPTY_SEGMENT for _ in sorted(app.system.pids))
    )

    def program() -> Any:
        for seq in range(1, churn + 1):
            payload = freeze((seq, f"stale@{pid}.{seq}", stale_view))
            yield from register.procedure_write(pid, payload)
            yield from pause_steps(200)
        while True:  # spent: stay schedulable but harmless
            yield from pause_steps(16)

    return program()


def _app_adversary(name: str, app: Any, pid: int, seed: int) -> Any:
    """Instantiate one Byzantine behaviour against an app instance.

    ``garbage`` sprays malformed values over *every* register the pid
    may legally write under the app — its own segment/log slots and its
    reply channels in everyone else's backing registers, so it attacks
    both the data and the witness protocol. ``silent`` never steps.
    ``stonewall`` serves every witness query with the empty report (see
    :func:`_app_stonewaller`); ``deny`` additionally joins the write
    quorums first (see :func:`_app_denier`); ``equivocate`` forks the
    owner's own sticky slot — transfer log or broadcast message (see
    :func:`_app_equivocator`); ``byzantine_updater`` churns genuine
    snapshot updates carrying stale embedded scans (see
    :func:`_app_byzantine_updater`).
    """
    if name == "garbage":
        return behaviors.garbage_spammer(
            behaviors.owned_register_names(app, pid), period=5, seed=seed
        )
    if name == "silent":
        return behaviors.silent()
    if name == "stonewall":
        return _app_stonewaller(app, pid)
    if name == "deny":
        return _app_denier(app, pid)
    if name == "equivocate":
        return _app_equivocator(app, pid)
    if name == "byzantine_updater":
        return _app_byzantine_updater(app, pid)
    raise ConfigurationError(
        f"unknown app adversary {name!r}; known: {', '.join(APP_ADVERSARIES)}"
    )


def _declare_byzantine(
    system: System, byzantine: Sequence[Tuple[int, str]]
) -> Dict[int, str]:
    """Validate and declare the Byzantine cast; returns pid -> behaviour."""
    cast = dict(byzantine)
    if len(cast) != len(tuple(byzantine)):
        raise ConfigurationError(f"duplicate Byzantine pid in {byzantine!r}")
    for pid in cast:
        if pid not in system.pids:
            raise ConfigurationError(f"Byzantine pid {pid} not in system")
    if cast:
        system.declare_byzantine(*cast)
    return cast


def _correct_indexes(system: System) -> Tuple[List[int], List[int]]:
    """(sorted correct pids, their indexes among all sorted pids)."""
    owners = sorted(system.pids)
    correct = sorted(system.correct)
    return correct, [owners.index(pid) for pid in correct]


# ----------------------------------------------------------------------
# Atomic snapshot
# ----------------------------------------------------------------------
def build_snapshot(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    byzantine: Tuple[Tuple[int, str], ...] = (),
    updates: int = 2,
    verify_freshness: bool = True,
    max_steps: int = 6_000_000,
    max_nodes: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
):
    """A seeded snapshot workload: concurrent updates and scans.

    Every correct process interleaves ``updates`` updates with scans
    (values are pid-tagged so provenance is checkable); Byzantine pids
    run the named :data:`APP_ADVERSARIES` behaviour. The check rewrites
    the correct-restricted ``snap`` history (see module doc) and asks
    for a linearization against :class:`SnapshotSpec` over the correct
    pids.

    ``verify_freshness=False`` rebuilds the pre-fix snapshot (no seq
    watermark on adopted embedded scans) so the ``byzantine_updater``
    counterexample stays replayable; the corpus entry and one VIOLATING
    campaign cell record that configuration explicitly, and because
    scenario labels only include parameters actually passed, every
    pre-existing label is untouched.
    """
    system = System(n=n, f=f, scheduler=scheduler)
    snap = AtomicSnapshot(
        system, "snap", f=f, verify_freshness=verify_freshness
    ).install()
    cast = _declare_byzantine(system, byzantine)
    snap.start_helpers(sorted(system.correct))
    for pid, name in sorted(cast.items()):
        system.spawn(pid, "adv", _app_adversary(name, snap, pid, seed))

    rng = random.Random(seed)
    clients: List[ScriptClient] = []
    for pid in sorted(system.correct):
        calls: List[OpCall] = []
        for round_index in range(updates):
            value = pid * 100 + round_index
            calls.append(
                OpCall(
                    "snap",
                    "update",
                    (value,),
                    lambda pid=pid, value=value: snap.procedure_update(
                        pid, value
                    ),
                )
            )
            calls.append(
                OpCall(
                    "snap",
                    "scan",
                    (),
                    lambda pid=pid: snap.procedure_scan(pid),
                )
            )
        client = ScriptClient(calls, pause_between=rng.randrange(5, 20))
        clients.append(client)
        system.spawn(pid, "client", client.program())

    def drive() -> None:
        system.run_until(
            all_done(clients),
            max_steps,
            label="snapshot clients",
        )

    correct, indexes = _correct_indexes(system)
    spec = SnapshotSpec(pids=tuple(correct))

    def check() -> Optional[str]:
        records = []
        for record in system.history.restrict(correct).operations(obj="snap"):
            if record.op == "update":
                record = replace(record, args=(record.pid,) + record.args)
            elif record.op == "scan" and record.complete:
                view = record.result
                if not isinstance(view, tuple) or len(view) != n:
                    return (
                        f"snapshot scan by p{record.pid} returned a "
                        f"malformed view: {view!r}"
                    )
                record = replace(
                    record, result=tuple(view[index] for index in indexes)
                )
            records.append(record)
        result = find_linearization(records, spec, max_nodes=max_nodes, ctx=ctx)
        if result.ok:
            return None
        return f"snapshot linearizability: {result.reason}"

    return BuiltScenario(system=system, drive=drive, check=check)


# ----------------------------------------------------------------------
# Asset transfer
# ----------------------------------------------------------------------
def build_asset_transfer(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    byzantine: Tuple[Tuple[int, str], ...] = (),
    transfers: int = 2,
    initial_balance: int = 100,
    max_steps: int = 6_000_000,
    max_nodes: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
):
    """A seeded asset-transfer workload: payments plus balance audits.

    Every correct owner issues ``transfers`` seeded transfers to other
    correct accounts, then audits balances (its own, one peer's, and —
    when a Byzantine cast exists — one Byzantine account) — the audit
    following the transfer *sequentially* in the same client is what
    gives the spec real-time precedence to bite on: a balance that
    misses the client's own completed debit can never linearize.

    The oracle is Byzantine linearizability against
    :class:`AssetTransferSpec` over *all* accounts: the correct
    processes' recorded operations are rewritten (transfer records gain
    the acting pid), and the Byzantine accounts' *settled* outgoing
    transfers are synthesized from the final witness state of their log
    registers (a slot counts when ``f + 1`` correct helpers witnessed
    the same well-formed payment — exactly the evidence any correct
    read needs before crediting it). Synthesized transfers span the
    whole run, so the search may linearize them anywhere — the most
    permissive sound placement. A forked log (no payment reaching
    ``f + 1`` correct witnesses while readers already credited both
    sides) therefore has unexplainable credits and fails to linearize,
    which is the ``n = 3f`` double-spend the violating cell pins.
    """
    from repro.apps.asset_transfer import well_formed_transfer
    from repro.spec.byzantine import fresh_op_ids

    system = System(n=n, f=f, scheduler=scheduler)
    assets = AssetTransfer(
        system,
        "assets",
        initial_balances={pid: initial_balance for pid in system.pids},
        slots=max(transfers, 1),
        f=f,
    ).install()
    cast = _declare_byzantine(system, byzantine)
    assets.start_helpers(sorted(system.correct))
    for pid, name in sorted(cast.items()):
        system.spawn(pid, "adv", _app_adversary(name, assets, pid, seed))

    rng = random.Random(seed)
    correct, _indexes = _correct_indexes(system)
    clients: List[ScriptClient] = []
    for pid in correct:
        peers = [other for other in correct if other != pid]
        calls: List[OpCall] = []
        for _ in range(transfers):
            to = rng.choice(peers)
            amount = rng.randrange(5, 30)
            calls.append(
                OpCall(
                    "assets",
                    "transfer",
                    (to, amount),
                    lambda pid=pid, to=to, amount=amount: (
                        assets.procedure_transfer(pid, to, amount)
                    ),
                )
            )
        audits = [pid, rng.choice(peers)]
        if cast:
            audits.append(rng.choice(sorted(cast)))
        for account in audits:
            calls.append(
                OpCall(
                    "assets",
                    "balance",
                    (account,),
                    lambda pid=pid, account=account: (
                        assets.procedure_balance(pid, account)
                    ),
                )
            )
        client = ScriptClient(calls, pause_between=rng.randrange(5, 20))
        clients.append(client)
        system.spawn(pid, "client", client.program())

    def drive() -> None:
        system.run_until(
            all_done(clients),
            max_steps,
            label="asset-transfer clients",
        )

    accounts = tuple(sorted(system.pids))
    spec = AssetTransferSpec(
        accounts=accounts,
        initial=tuple(initial_balance for _ in accounts),
    )

    def settled_byzantine_transfers() -> List[Tuple[int, int, int]]:
        """(owner, to, amount) per settled Byzantine log slot, in order."""
        settled: List[Tuple[int, int, int]] = []
        for owner in sorted(cast):
            for index in range(assets.slots):
                register = assets.slot_register(owner, index)
                counts: Dict[Any, int] = {}
                for i in correct:
                    witnessed = system.registers.peek(register.reg_witness(i))
                    if not is_bottom(witnessed):
                        counts[witnessed] = counts.get(witnessed, 0) + 1
                value = next(
                    (v for v, c in counts.items() if c >= assets.f + 1), None
                )
                parsed = (
                    None
                    if value is None
                    else well_formed_transfer(value, system.pids)
                )
                if parsed is None:
                    break  # the usable prefix of this log ends here
                settled.append((owner, parsed[0], parsed[1]))
        return settled

    def check() -> Optional[str]:
        restricted = system.history.restrict(correct)
        synthesized: List[OperationRecord] = []
        settled = settled_byzantine_transfers()
        horizon = system.clock + 1
        for op_id, (owner, to, amount) in zip(
            fresh_op_ids(system.history, len(settled) + 1), settled
        ):
            synthesized.append(
                OperationRecord(
                    op_id=op_id,
                    pid=owner,
                    obj="assets",
                    op="transfer",
                    args=(owner, to, amount),
                    invoked_at=-1,
                    responded_at=horizon,
                    result="ok",
                )
            )
        synthetic_ids = {record.op_id for record in synthesized}
        if synthesized:
            restricted = restricted.with_synthetic(synthesized)
        records: List[OperationRecord] = []
        for record in restricted.operations(obj="assets"):
            if record.op == "transfer" and record.op_id not in synthetic_ids:
                record = replace(record, args=(record.pid,) + record.args)
            records.append(record)
        result = find_linearization(records, spec, max_nodes=max_nodes, ctx=ctx)
        if result.ok:
            return None
        return f"asset-transfer linearizability: {result.reason}"

    return BuiltScenario(system=system, drive=drive, check=check)


# ----------------------------------------------------------------------
# Broadcast (non-equivocating and reliable)
# ----------------------------------------------------------------------
def _build_broadcast_scenario(
    app_factory: Any,
    obj: str,
    scheduler: Any,
    n: int,
    f: int,
    seed: int,
    byzantine: Tuple[Tuple[int, str], ...],
    slots: int,
    max_steps: int,
    max_nodes: int,
    ctx: Optional[CheckContext],
):
    """Shared broadcast workload: every sender broadcasts, all deliver.

    Every correct process broadcasts one message per slot it owns, then
    delivers every *other* sender's slots — the delivery following the
    broadcast sequentially in the same client gives the spec real-time
    precedence to bite on — and probes each Byzantine sender's slot 0 a
    second time (the totality/relay check: once a delivery returned
    ``m``, a later ``⊥`` or different message cannot linearize).

    The oracle is Byzantine linearizability against
    :class:`BroadcastSpec` over *all* senders, with at most one
    synthesized whole-run ``broadcast`` per settled Byzantine slot (the
    ``f + 1``-correct-witness rule; see module doc).
    """
    from repro.spec.byzantine import fresh_op_ids

    system = System(n=n, f=f, scheduler=scheduler)
    app = app_factory(system, f=f, slots=slots).install()
    cast = _declare_byzantine(system, byzantine)
    app.start_helpers(sorted(system.correct))
    for pid, name in sorted(cast.items()):
        system.spawn(pid, "adv", _app_adversary(name, app, pid, seed))

    rng = random.Random(seed)
    correct, _indexes = _correct_indexes(system)
    clients: List[ScriptClient] = []
    for pid in correct:
        calls: List[OpCall] = []
        for slot in range(slots):
            message = f"m{pid}.{slot}"
            calls.append(
                OpCall(
                    obj,
                    "broadcast",
                    (slot, message),
                    lambda pid=pid, slot=slot, message=message: (
                        app.procedure_broadcast(pid, slot, message)
                    ),
                )
            )
        senders = [s for s in sorted(system.pids) if s != pid]
        probes = [(s, slot) for s in senders for slot in range(slots)]
        probes += [(s, 0) for s in sorted(cast)]  # totality re-read
        for sender, slot in probes:
            calls.append(
                OpCall(
                    obj,
                    "deliver",
                    (sender, slot),
                    lambda pid=pid, sender=sender, slot=slot: (
                        app.procedure_deliver(pid, sender, slot)
                    ),
                )
            )
        client = ScriptClient(calls, pause_between=rng.randrange(5, 20))
        clients.append(client)
        system.spawn(pid, "client", client.program())

    def drive() -> None:
        system.run_until(
            all_done(clients),
            max_steps,
            label=f"{obj} clients",
        )

    spec = BroadcastSpec(senders=tuple(sorted(system.pids)), slots=slots)

    def settled_byzantine_broadcasts() -> List[Tuple[int, int, Any]]:
        """(sender, slot, message) per settled Byzantine slot."""
        settled: List[Tuple[int, int, Any]] = []
        for sender in sorted(cast):
            for slot in range(slots):
                register = app.register_for(sender, slot)
                counts: Dict[Any, int] = {}
                for i in correct:
                    witnessed = system.registers.peek(register.reg_witness(i))
                    if not is_bottom(witnessed):
                        counts[witnessed] = counts.get(witnessed, 0) + 1
                value = next(
                    (v for v, c in counts.items() if c >= app.f + 1), None
                )
                if value is not None:
                    settled.append((sender, slot, value))
        return settled

    def check() -> Optional[str]:
        restricted = system.history.restrict(correct)
        synthesized: List[OperationRecord] = []
        settled = settled_byzantine_broadcasts()
        horizon = system.clock + 1
        for op_id, (sender, slot, message) in zip(
            fresh_op_ids(system.history, len(settled) + 1), settled
        ):
            synthesized.append(
                OperationRecord(
                    op_id=op_id,
                    pid=sender,
                    obj=obj,
                    op="broadcast",
                    args=(sender, slot, message),
                    invoked_at=-1,
                    responded_at=horizon,
                    result="done",
                )
            )
        synthetic_ids = {record.op_id for record in synthesized}
        if synthesized:
            restricted = restricted.with_synthetic(synthesized)
        records: List[OperationRecord] = []
        for record in restricted.operations(obj=obj):
            if record.op == "broadcast" and record.op_id not in synthetic_ids:
                record = replace(record, args=(record.pid,) + record.args)
            records.append(record)
        result = find_linearization(records, spec, max_nodes=max_nodes, ctx=ctx)
        if result.ok:
            return None
        return f"{obj} linearizability: {result.reason}"

    return BuiltScenario(system=system, drive=drive, check=check)


def build_broadcast(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    byzantine: Tuple[Tuple[int, str], ...] = (),
    slots: int = 1,
    max_steps: int = 6_000_000,
    max_nodes: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
):
    """Non-equivocating broadcast (Section 8's sticky-register sketch)."""
    return _build_broadcast_scenario(
        lambda system, f, slots: NonEquivocatingBroadcast(
            system, "bcast", slots=slots, f=f
        ),
        "bcast",
        scheduler,
        n,
        f,
        seed,
        byzantine,
        slots,
        max_steps,
        max_nodes,
        ctx,
    )


def build_reliable_broadcast(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    byzantine: Tuple[Tuple[int, str], ...] = (),
    slots: int = 1,
    max_steps: int = 6_000_000,
    max_nodes: int = 2_000_000,
    ctx: Optional[CheckContext] = None,
):
    """The signature-free reliable broadcast facade (same slot machinery,
    the object vocabulary of [5]) — judged against the same
    :class:`BroadcastSpec`, so any divergence between the two apps is a
    conformance violation, not a spec difference."""
    return _build_broadcast_scenario(
        lambda system, f, slots: ReliableBroadcast(
            system, "rbc", slots=slots, f=f
        ),
        "rbc",
        scheduler,
        n,
        f,
        seed,
        byzantine,
        slots,
        max_steps,
        max_nodes,
        ctx,
    )


register_builder("snapshot", build_snapshot)
register_builder("asset_transfer", build_asset_transfer)
register_builder("broadcast", build_broadcast)
register_builder("reliable_broadcast", build_reliable_broadcast)
