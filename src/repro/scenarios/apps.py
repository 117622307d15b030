"""Explorable scenarios for the paper-level applications (repro.apps).

These builders bring the Section 1/8 applications — the Byzantine atomic
snapshot, the asset-transfer object, and the two broadcast objects
(non-equivocating and reliable) — into the same conformance matrix as
the registers: one picklable spec per scenario, driven by any
exploration scheduler, judged by :func:`repro.spec.judge` against a
*sequential specification* under the family's rules (their
``FAMILY_BINDINGS`` row in :mod:`repro.scenarios.bindings`); this module
supplies only the run-side evidence those rules read.

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
  fork-free sticky logs; :func:`_settled_slots` reads it), so a
  consistent Byzantine credit is explainable while a forked log — two
  auditors crediting different payments — is not;
* broadcast histories are judged over *all* senders the same way: at
  most one whole-run ``broadcast`` is synthesized per Byzantine
  (sender, slot) whose sticky register settled (``f + 1`` correct
  witnesses of one message — exactly the evidence a correct Read
  collects before delivering), so a consistently delivered Byzantine
  message is explainable while a *forked* slot — two correct receivers
  delivering different messages — is not.

Adversaries: :data:`APP_ADVERSARIES` names the behaviours a cell may
cast and :func:`_app_adversary` maps each name to a program. The
witness-layer attacks (``stonewall``, ``deny``) and the forking owner
behind ``equivocate`` are :mod:`repro.adversary.behaviors` programs
pointed at the app's backing registers; only the snapshot-only
``byzantine_updater`` is written here.

Topology note: at ``n = 3f + 1`` all applications must be clean under
every one of those behaviours (the paper's n > 3f translations). At
``n = 3f`` the equivocating-owner/sender attack forks a sticky register
and two correct processes settle different values — the asset-transfer double
spend and the broadcast integrity break the violating campaign cells
pin. The snapshot cells pin clean at both boundaries under the
reader-side behaviours *and* under ``byzantine_updater`` now that
embedded-scan adoption is freshness-checked; the pre-fix hole stays
measured through the ``verify_freshness=False`` cell and its corpus
entry (see ``repro.scenarios.catalog``).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.adversary import behaviors
from repro.apps import (
    EMPTY_SEGMENT,
    AssetTransfer,
    AtomicSnapshot,
    NonEquivocatingBroadcast,
    well_formed_transfer,
)
from repro.core.sticky import StickyRegister
from repro.errors import ConfigurationError
from repro.sim import OpCall, ScriptClient, System
from repro.sim.process import all_done, pause_steps
from repro.sim.values import freeze, is_bottom
from repro.spec.context import CheckContext
from repro.spec.judge import judge
from repro.spec.sequential import (
    AssetTransferSpec,
    BroadcastSpec,
    SnapshotSpec,
)
from repro.scenarios.bindings import binding_for
from repro.scenarios.registry import (
    BuiltScenario,
    declare_byzantine,
    register_builder,
)

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
    elif isinstance(app, NonEquivocatingBroadcast):
        registers = [
            app.register_for(sender, slot)
            for sender in sorted(app.system.pids)
            for slot in range(app.slots)
        ]
    else:
        raise ConfigurationError(f"no backing-register map for {app!r}")
    return registers


def _app_equivocator(app: Any, pid: int) -> Any:
    """Fork the owner's first sticky slot between two values (Obs 24).

    The equivocation attack of the paper's application sections,
    instantiated per app: for **asset transfer** the Byzantine account
    owner forks its slot-0 log between ``pay a`` and ``pay b`` (both
    correct payees) — the double spend; for the **broadcast** objects
    the Byzantine *sender* forks its slot-0 message register between two
    messages — the integrity/non-equivocation break. The sticky-register
    mechanics are identical (see
    :func:`repro.adversary.behaviors.forking_owner_sticky`): at
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
    elif isinstance(app, NonEquivocatingBroadcast):
        register = app.register_for(pid, 0)
        forks = (freeze(f"fork-a@{pid}"), freeze(f"fork-b@{pid}"))
    else:
        raise ConfigurationError(
            "the equivocate behaviour targets sticky-backed apps "
            "(asset transfer, broadcast)"
        )
    return behaviors.forking_owner_sticky(register, pid, forks)


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
    ``stonewall`` and ``deny`` run the library's witness-layer helpers
    over every backing register the pid does not own, one pass per step
    (:func:`~repro.adversary.behaviors.stonewalling_witness`: every
    witness query gets the "nothing" report;
    :func:`~repro.adversary.behaviors.denying_witness`: it joins the
    write quorums first). ``equivocate`` forks the owner's own sticky
    slot — transfer log or broadcast message (see
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
        return behaviors.stonewalling_witness(
            _backing_registers(app), pid, period=1
        )
    if name == "deny":
        return behaviors.denying_witness(_backing_registers(app), pid)
    if name == "equivocate":
        return _app_equivocator(app, pid)
    if name == "byzantine_updater":
        return _app_byzantine_updater(app, pid)
    raise ConfigurationError(
        f"unknown app adversary {name!r}; known: {', '.join(APP_ADVERSARIES)}"
    )


def _settled_slots(
    system: System,
    owners: Sequence[int],
    slots: int,
    register_for: Callable[[int, int], StickyRegister],
    f: int,
    parse: Callable[[int, Any], Optional[Tuple[Any, ...]]],
    log: bool,
) -> Tuple[Tuple[Tuple[int, Tuple[Any, ...]], ...], int]:
    """The settled-slot evidence the app rules synthesize from.

    Returns ``(settled, horizon)``: ``(owner, args)`` per slot of a
    Byzantine owner whose sticky register ``f + 1`` correct helpers
    witnessed with one value that ``parse(slot, value)`` accepts, and
    the run's end. A ``log`` is a prefix: its first unsettled slot ends
    the owner's usable entries.
    """
    correct = sorted(system.correct)
    settled = []
    for owner in owners:
        for slot in range(slots):
            register = register_for(owner, slot)
            counts: Dict[Any, int] = {}
            for i in correct:
                witnessed = system.registers.peek(register.reg_witness(i))
                if not is_bottom(witnessed):
                    counts[witnessed] = counts.get(witnessed, 0) + 1
            value = next((v for v, c in counts.items() if c >= f + 1), None)
            args = None if value is None else parse(slot, value)
            if args is not None:
                settled.append((owner, args))
            elif log:
                break
    return tuple(settled), system.clock + 1


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
    cast = declare_byzantine(system, byzantine)
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

    spec = SnapshotSpec(pids=tuple(sorted(system.correct)))
    rules = binding_for("snapshot").rules

    def check() -> Optional[str]:
        return judge(
            system.history,
            system.correct,
            "snap",
            spec,
            rules,
            witness=tuple(sorted(system.pids)),
            max_nodes=max_nodes,
            ctx=ctx,
        )

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
    system = System(n=n, f=f, scheduler=scheduler)
    assets = AssetTransfer(
        system,
        "assets",
        initial_balances={pid: initial_balance for pid in system.pids},
        slots=max(transfers, 1),
        f=f,
    ).install()
    cast = declare_byzantine(system, byzantine)
    assets.start_helpers(sorted(system.correct))
    for pid, name in sorted(cast.items()):
        system.spawn(pid, "adv", _app_adversary(name, assets, pid, seed))

    rng = random.Random(seed)
    correct = sorted(system.correct)
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

    rules = binding_for("asset_transfer").rules

    def check() -> Optional[str]:
        witness = _settled_slots(
            system,
            sorted(cast),
            assets.slots,
            assets.slot_register,
            assets.f,
            lambda _slot, value: well_formed_transfer(value, system.pids),
            log=True,
        )
        return judge(
            system.history,
            system.correct,
            "assets",
            spec,
            rules,
            witness=witness,
            max_nodes=max_nodes,
            ctx=ctx,
        )

    return BuiltScenario(system=system, drive=drive, check=check)


# ----------------------------------------------------------------------
# Broadcast (non-equivocating and reliable)
# ----------------------------------------------------------------------
def _build_broadcast_scenario(
    family: str,
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
    system = System(n=n, f=f, scheduler=scheduler)
    app = app_factory(system, f=f, slots=slots).install()
    cast = declare_byzantine(system, byzantine)
    app.start_helpers(sorted(system.correct))
    for pid, name in sorted(cast.items()):
        system.spawn(pid, "adv", _app_adversary(name, app, pid, seed))

    rng = random.Random(seed)
    clients: List[ScriptClient] = []
    for pid in sorted(system.correct):
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

    rules = binding_for(family).rules

    def check() -> Optional[str]:
        witness = _settled_slots(
            system,
            sorted(cast),
            slots,
            app.register_for,
            app.f,
            lambda slot, message: (slot, message),
            log=False,
        )
        return judge(
            system.history,
            system.correct,
            obj,
            spec,
            rules,
            witness=witness,
            max_nodes=max_nodes,
            ctx=ctx,
        )

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
        "broadcast",
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
    """Signature-free reliable broadcast (the [5] translation): the same
    sticky-slot broadcast recorded as object ``rbc`` over registers named
    ``rbc/slots``, judged against the same :class:`BroadcastSpec`."""
    return _build_broadcast_scenario(
        "reliable_broadcast",
        lambda system, f, slots: NonEquivocatingBroadcast(
            system, "rbc/slots", slots=slots, f=f
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
