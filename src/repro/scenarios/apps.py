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
from repro.sim import ScriptClient, System
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
#: solvent against :data:`INITIAL_BALANCE`).
EQUIVOCATION_AMOUNT = 50

#: Every correct snapshot client's update count (each followed by a scan).
SNAPSHOT_UPDATES = 2

#: Every correct asset-transfer owner's payment count; also the log
#: slots per account.
TRANSFERS = 2

#: Every account's opening balance.
INITIAL_BALANCE = 100


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


#: Stale updates the ``byzantine_updater`` behaviour makes before it goes
#: quiet (see :func:`_app_byzantine_updater`).
UPDATER_CHURN = 12


def _app_byzantine_updater(app: Any, pid: int) -> Any:
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

    :data:`UPDATER_CHURN` bounds the number of stale updates (two
    observed moves per scan already trigger adoption; twelve genuine
    protocol writes, paced ~200 steps apart so they overlap the clients'
    late scans, cover every scan in the workload several times over). The
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
        for seq in range(1, UPDATER_CHURN + 1):
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


#: A correct client's script, drawn as ``rows(app, cast, rng, pid)``.
Rows = Callable[
    [Any, Dict[int, str], random.Random, int], List[Tuple[str, Tuple[Any, ...]]]
]


def _build_app(
    family: str,
    label: str,
    make_app: Callable[[System], Any],
    rows: Rows,
    spec: Callable[[Any], Any],
    witness: Callable[[Any, Dict[int, str]], Any],
    scheduler: Any,
    n: int,
    f: int,
    seed: int,
    byzantine: Tuple[Tuple[int, str], ...],
    max_steps: int,
    ctx: Optional[CheckContext],
) -> BuiltScenario:
    """The body every app builder shares.

    ``make_app(system)`` builds the app; Byzantine pids run their
    :data:`APP_ADVERSARIES` behaviour; every correct pid runs one
    :class:`ScriptClient` over its ``rows`` (drawn from the seeded rng
    before the client's ``pause_between``); ``drive`` runs them all to
    completion; ``check`` judges the history recorded under the app's
    name by the family's rules against ``spec(app)``, with
    ``witness(app, cast)`` as the run-side evidence.
    """
    system = System(n=n, f=f, scheduler=scheduler)
    app = make_app(system).install()
    cast = declare_byzantine(system, byzantine)
    app.start_helpers(sorted(system.correct))
    for pid, name in sorted(cast.items()):
        system.spawn(pid, "adv", _app_adversary(name, app, pid, seed))

    rng = random.Random(seed)
    clients: List[ScriptClient] = []
    for pid in sorted(system.correct):
        script = rows(app, cast, rng, pid)
        client = ScriptClient(app, pid, script, pause_between=rng.randrange(5, 20))
        clients.append(client)
        system.spawn(pid, "client", client.program())
    clients_done = all_done(clients)

    def drive() -> None:
        system.run_until(clients_done, max_steps, label=f"{label} clients")

    app_spec = spec(app)
    rules = binding_for(family).rules

    def check() -> Optional[str]:
        return judge(
            system.history,
            system.correct,
            app.name,
            app_spec,
            rules,
            witness=witness(app, cast),
            ctx=ctx,
        )

    return BuiltScenario(system=system, drive=drive, check=check)


# ----------------------------------------------------------------------
# Atomic snapshot
# ----------------------------------------------------------------------
def build_snapshot(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    byzantine: Tuple[Tuple[int, str], ...] = (),
    verify_freshness: bool = True,
    max_steps: int = 6_000_000,
    ctx: Optional[CheckContext] = None,
):
    """A seeded snapshot workload: concurrent updates and scans.

    Every correct process interleaves :data:`SNAPSHOT_UPDATES` updates
    with scans (values are pid-tagged so provenance is checkable);
    Byzantine pids run the named :data:`APP_ADVERSARIES` behaviour. The
    check rewrites the correct-restricted ``snap`` history (see module
    doc) and asks for a linearization against :class:`SnapshotSpec` over
    the correct pids.

    ``verify_freshness=False`` rebuilds the pre-fix snapshot (no seq
    watermark on adopted embedded scans) so the ``byzantine_updater``
    counterexample stays replayable; the corpus entry and one VIOLATING
    campaign cell record that configuration explicitly, and because
    scenario labels only include parameters actually passed, every
    pre-existing label is untouched.
    """

    def rows(app, cast, rng, pid):
        script = []
        for round_index in range(SNAPSHOT_UPDATES):
            script += [("update", (pid * 100 + round_index,)), ("scan", ())]
        return script

    return _build_app(
        "snapshot",
        "snapshot",
        lambda system: AtomicSnapshot(
            system, "snap", f=f, verify_freshness=verify_freshness
        ),
        rows,
        lambda app: SnapshotSpec(pids=tuple(sorted(app.system.correct))),
        lambda app, cast: tuple(sorted(app.system.pids)),
        scheduler, n, f, seed, byzantine, max_steps, ctx,
    )


# ----------------------------------------------------------------------
# Asset transfer
# ----------------------------------------------------------------------
def _settled_transfers(app: AssetTransfer, cast: Dict[int, str]) -> Any:
    pids = app.system.pids
    return _settled_slots(
        app.system,
        sorted(cast),
        app.slots,
        app.slot_register,
        app.f,
        lambda _slot, value: well_formed_transfer(value, pids),
        log=True,
    )


def build_asset_transfer(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    byzantine: Tuple[Tuple[int, str], ...] = (),
    max_steps: int = 6_000_000,
    ctx: Optional[CheckContext] = None,
):
    """A seeded asset-transfer workload: payments plus balance audits.

    Every account opens with :data:`INITIAL_BALANCE`. Every correct
    owner issues :data:`TRANSFERS` seeded transfers to other correct
    accounts, then audits balances (its own, one peer's, and —
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

    def rows(app, cast, rng, pid):
        peers = [other for other in sorted(app.system.correct) if other != pid]
        script = []
        for _ in range(TRANSFERS):
            to = rng.choice(peers)
            script.append(("transfer", (to, rng.randrange(5, 30))))
        audits = [pid, rng.choice(peers)]
        if cast:
            audits.append(rng.choice(sorted(cast)))
        return script + [("balance", (account,)) for account in audits]

    def spec(app):
        accounts = tuple(sorted(app.system.pids))
        return AssetTransferSpec(
            accounts=accounts, initial=tuple(INITIAL_BALANCE for _ in accounts)
        )

    return _build_app(
        "asset_transfer",
        "asset-transfer",
        lambda system: AssetTransfer(
            system,
            "assets",
            initial_balances={pid: INITIAL_BALANCE for pid in system.pids},
            slots=TRANSFERS,
            f=f,
        ),
        rows,
        spec,
        _settled_transfers,
        scheduler, n, f, seed, byzantine, max_steps, ctx,
    )


# ----------------------------------------------------------------------
# Broadcast (non-equivocating and reliable)
# ----------------------------------------------------------------------
def _broadcast_rows(app, cast, rng, pid):
    """Every slot broadcast, then every other sender's slots delivered.

    The delivery following the broadcast sequentially in the same client
    gives the spec real-time precedence to bite on; each Byzantine
    sender's slot 0 is probed a second time (the totality/relay check:
    once a delivery returned ``m``, a later ``⊥`` or different message
    cannot linearize).
    """
    script = [("broadcast", (slot, f"m{pid}.{slot}")) for slot in range(app.slots)]
    senders = [s for s in sorted(app.system.pids) if s != pid]
    probes = [(s, slot) for s in senders for slot in range(app.slots)]
    probes += [(s, 0) for s in sorted(cast)]  # totality re-read
    return script + [("deliver", probe) for probe in probes]


def _broadcast_spec(app: NonEquivocatingBroadcast) -> BroadcastSpec:
    """:class:`BroadcastSpec` over *all* senders (see module doc)."""
    return BroadcastSpec(senders=tuple(sorted(app.system.pids)), slots=app.slots)


def _settled_broadcasts(app: NonEquivocatingBroadcast, cast: Dict[int, str]) -> Any:
    """At most one synthesized ``broadcast`` per settled Byzantine slot."""
    return _settled_slots(
        app.system,
        sorted(cast),
        app.slots,
        app.register_for,
        app.f,
        lambda slot, message: (slot, message),
        log=False,
    )


def build_broadcast(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    byzantine: Tuple[Tuple[int, str], ...] = (),
    max_steps: int = 6_000_000,
    ctx: Optional[CheckContext] = None,
):
    """Non-equivocating broadcast (Section 8's sticky-register sketch):
    every correct process broadcasts one message in its one slot, then
    delivers every other sender's slot."""
    return _build_app(
        "broadcast",
        "bcast",
        lambda system: NonEquivocatingBroadcast(system, "bcast", f=f),
        _broadcast_rows,
        _broadcast_spec,
        _settled_broadcasts,
        scheduler, n, f, seed, byzantine, max_steps, ctx,
    )


def build_reliable_broadcast(
    scheduler: Any,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    byzantine: Tuple[Tuple[int, str], ...] = (),
    max_steps: int = 6_000_000,
    ctx: Optional[CheckContext] = None,
):
    """Signature-free reliable broadcast (the [5] translation): the same
    one-slot sticky broadcast recorded as object ``rbc`` over registers
    named ``rbc/slots``, judged against the same :class:`BroadcastSpec`."""

    def make_app(system):
        app = NonEquivocatingBroadcast(system, "rbc/slots", f=f)
        app.name = "rbc"  # the recorded object; the registers keep their names
        return app

    return _build_app(
        "reliable_broadcast",
        "rbc",
        make_app,
        _broadcast_rows,
        _broadcast_spec,
        _settled_broadcasts,
        scheduler, n, f, seed, byzantine, max_steps, ctx,
    )


register_builder("snapshot", build_snapshot)
register_builder("asset_transfer", build_asset_transfer)
register_builder("broadcast", build_broadcast)
register_builder("reliable_broadcast", build_reliable_broadcast)
