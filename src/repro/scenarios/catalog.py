"""The default scenario catalog: every record the stock consumers use.

Importing this module (which :func:`repro.scenarios.registry._ensure_catalog`
does lazily on the first registry query) registers:

* the register-family adversary grids (Algorithms 1–3 at ``n = 4``,
  seed 0) — the E1–E3 sweep mixes, first two of each family also in the
  CI smoke subset;
* the signature baseline and the §5.1 naive strawman (the latter with
  its known-violating flip-flop cell);
* the Theorem 29 test-or-set boundary through both engines (violating
  at ``n = 3f``, clean at ``n = 3f + 1``);
* the campaign-growth adversary grids
  (:data:`repro.scenarios.sweeps.EXTRA_SWEEP_ADVERSARIES`) — appended
  after the historical cells so the pre-existing matrix prefix stays
  byte-identical;
* the application cells (atomic snapshot, asset transfer) at both
  fault boundaries, with their differential expectations pinned;
* the Byzantine-updater snapshot boundary (the embedded-scan freshness
  fix) and the broadcast families — appended after the PR-5 app cells,
  same prefix contract;
* the message-passing emulation under fault injection (clean under
  fair-lossy + retransmit and under ``<= f`` crash-stop, pinned
  ``STALLED`` under quorum-starving plans) — appended after the
  broadcast families, same prefix contract;
* the live-network runtime's smoke cells (``engine="live"``,
  ``consumers=("net",)`` — wall-clock socket clusters driven by
  ``python -m repro.analysis net``, never by a scheduler) — appended
  last.

Registration order is contract: ``repro.campaign.default_matrix`` is a
``grid(consumer=...)`` query and materializes cells in this order, and
the historical prefix (everything up to the extras) must match the
pre-registry matrix cell for cell.
"""

from __future__ import annotations

from typing import Tuple

from repro.scenarios import sweeps
from repro.scenarios.bindings import kind_for
from repro.scenarios.registry import ScenarioRecord, make_scenario, register

# Importing the builder modules registers their builders; the registers
# module also provides the grid helper the register families reuse.
from repro.scenarios.registers import adversary_grid
import repro.scenarios.theorem29  # noqa: F401  (registers theorem29 builder)
import repro.scenarios.apps  # noqa: F401  (registers snapshot/asset builders)
import repro.scenarios.mp_emulation  # noqa: F401  (registers mp_register builder)
import repro.scenarios.net_live  # noqa: F401  (registers net_cluster builder)

#: How many adversary mixes per register family the CI smoke subset keeps.
SMOKE_MIXES = 2


def _register_alg_families() -> None:
    """Algorithms 1–3: the E1–E3 adversary grids at n = 4, seed 0."""
    for family in ("verifiable", "authenticated", "sticky"):
        kind = kind_for(family)
        for index, spec in enumerate(adversary_grid(kind, n=4, seeds=(0,))):
            consumers: Tuple[str, ...] = ("campaign", "explore")
            if index < SMOKE_MIXES:
                consumers += ("smoke",)
            register(
                ScenarioRecord(
                    family=family,
                    n=4,
                    f=1,
                    spec=spec,
                    engine="swarm",
                    expect_violation=False,
                    consumers=consumers,
                )
            )


def _register_baseline_and_strawman() -> None:
    """The signature baseline (clean) and the naive strawman boundary."""
    for readers in ((), ((4, "silent"),)):
        register(
            ScenarioRecord(
                family="signature_baseline",
                n=4,
                f=1,
                spec=make_scenario(
                    "register",
                    kind=kind_for("signature_baseline"),
                    n=4,
                    seed=0,
                    reader_adversaries=readers,
                ),
                engine="swarm",
                expect_violation=False,
                consumers=("campaign", "smoke"),
            )
        )
    # The naive strawman: clean without an adversary, broken by the
    # flip-flop collusion (Section 5.1 / E11).
    for readers, expect in (((), False), (((4, "flipflop"),), True)):
        register(
            ScenarioRecord(
                family="naive",
                n=4,
                f=1,
                spec=make_scenario(
                    "register",
                    kind=kind_for("naive"),
                    n=4,
                    seed=0,
                    reader_adversaries=readers,
                ),
                engine="swarm",
                expect_violation=expect,
                consumers=("campaign", "smoke"),
            )
        )


def _register_test_or_set() -> None:
    """Theorem 29 through both engines: violating at 3f, clean at 3f+1."""
    violating = make_scenario("theorem29", f=1)
    control = make_scenario("theorem29", f=1, extra_correct=True)
    for engine in ("swarm", "systematic"):
        register(
            ScenarioRecord(
                family="test_or_set",
                n=3,
                f=1,
                spec=violating,
                engine=engine,
                expect_violation=True,
                consumers=("campaign", "explore", "smoke"),
            )
        )
        register(
            ScenarioRecord(
                family="test_or_set",
                n=4,
                f=1,
                spec=control,
                engine=engine,
                expect_violation=False,
                consumers=("campaign", "explore", "smoke"),
            )
        )


def _register_extra_grids() -> None:
    """Campaign-growth adversary mixes (appended; never in the E1–E3 base).

    Expanded through the same :func:`adversary_grid` filter and spec
    construction as the base grids, just over the extras table.
    """
    for family in ("verifiable", "authenticated", "sticky"):
        kind = kind_for(family)
        extras = sweeps.EXTRA_SWEEP_ADVERSARIES.get(kind, ())
        for spec in adversary_grid(kind, n=4, seeds=(0,), mixes=extras):
            register(
                ScenarioRecord(
                    family=family,
                    n=4,
                    f=1,
                    spec=spec,
                    engine="swarm",
                    expect_violation=False,
                    consumers=("campaign",),
                )
            )


def _register_apps() -> None:
    """Snapshot and asset transfer at both fault boundaries.

    Differential expectations (pinned; asserted by the test suite and
    the smoke campaign):

    * **asset transfer** carries the paper's boundary: under the
      equivocating-owner double-spend attack the sticky logs are
      fork-free at ``n = 3f + 1`` (clean — the settled Byzantine credit
      is explainable as one synthesized transfer) but forkable at
      ``n = 3f``, where two correct auditors settle *different* credits
      (violation, the non-equivocation / Obs 24 break);
    * **snapshot** is pinned clean at *both* boundaries, under the
      strongest honest behaviour we have (witness-then-deny): a
      segment with a *correct* owner is served by the owner's and the
      reader's helpers, which already meet the ``n - f`` quorum at
      ``n = 3f`` — the object's ``n > 3f`` requirement is owed to
      Byzantine-*updater* cases, which the ``byzantine_updater`` cells
      (see :func:`_register_freshness_boundary`) now judge directly.
    """
    for name, n, f, byzantine, expect in (
        ("snapshot", 4, 1, ((4, "deny"),), False),
        ("snapshot", 3, 1, ((3, "deny"),), False),
        ("asset_transfer", 4, 1, ((4, "equivocate"),), False),
        ("asset_transfer", 3, 1, ((3, "equivocate"),), True),
    ):
        register(
            ScenarioRecord(
                family=name,
                n=n,
                f=f,
                spec=make_scenario(
                    name,
                    n=n,
                    f=f,
                    seed=0,
                    byzantine=byzantine,
                ),
                engine="swarm",
                expect_violation=expect,
                consumers=("campaign", "smoke"),
            )
        )


def _register_freshness_boundary() -> None:
    """The Byzantine-updater snapshot cells (embedded-scan freshness).

    A churning Byzantine updater serves *authentic* updates whose
    embedded scans replay the all-initial view. Pre-fix,
    ``AtomicSnapshot._verify_embedded`` accepted them (authenticity
    alone never bounds freshness) and correct scanners adopted stale
    views — a linearizability violation at *any* ``n``, which the
    ``verify_freshness=False`` cell pins VIOLATING at ``n = 3f + 1``
    (its shrunk counterexample lives in ``corpus/``). Post-fix the seq
    watermark blacklists the churner, and the default cells pin clean
    at both ``n = 3f`` and ``n = 3f + 1``.
    """
    for n, f in ((4, 1), (3, 1)):
        byzantine = ((n, "byzantine_updater"),)
        register(
            ScenarioRecord(
                family="snapshot",
                n=n,
                f=f,
                spec=make_scenario(
                    "snapshot", n=n, f=f, seed=0, byzantine=byzantine
                ),
                engine="swarm",
                expect_violation=False,
                consumers=("campaign", "smoke"),
            )
        )
    register(
        ScenarioRecord(
            family="snapshot",
            n=4,
            f=1,
            spec=make_scenario(
                "snapshot",
                n=4,
                f=1,
                seed=0,
                byzantine=((4, "byzantine_updater"),),
                verify_freshness=False,
            ),
            engine="swarm",
            expect_violation=True,
            consumers=("campaign", "smoke"),
        )
    )


def _register_broadcast_families() -> None:
    """Both broadcast apps at the paper's boundary.

    Clean at ``n = 3f + 1`` under the equivocating *sender*; violating
    at ``n = 3f``, where the fork shows two correct receivers different
    messages for the same (sender, slot) — the integrity break the
    sticky registers exist to exclude. The facade relationship
    (reliable broadcast reuses the non-equivocating slot machinery)
    makes the two families a differential pair over one
    :class:`repro.spec.BroadcastSpec` oracle.
    """
    for family in ("broadcast", "reliable_broadcast"):
        for n, expect in ((4, False), (3, True)):
            register(
                ScenarioRecord(
                    family=family,
                    n=n,
                    f=1,
                    spec=make_scenario(
                        family,
                        n=n,
                        f=1,
                        seed=0,
                        byzantine=((n, "equivocate"),),
                    ),
                    engine="swarm",
                    expect_violation=expect,
                    consumers=("campaign", "smoke"),
                )
            )
        # Vocabulary breadth beyond the boundary pair: the reader-side
        # stonewaller must be harmless to a correct sender's slots.
        register(
            ScenarioRecord(
                family=family,
                n=4,
                f=1,
                spec=make_scenario(
                    family, n=4, f=1, seed=0, byzantine=((4, "stonewall"),)
                ),
                engine="swarm",
                expect_violation=False,
                consumers=("campaign",),
            )
        )


def _register_mp_emulation() -> None:
    """The message-passing emulation under fault injection (PR 8).

    Five pinned cells (see :mod:`repro.scenarios.mp_emulation`):

    * reliable-network baseline — clean (the reference verdicts);
    * fair-lossy + duplication + reorder delays with the retransmit
      channel layer — clean, verdicts byte-identical to the baseline
      (the reliable-channel assumption rebuilt over lossy links);
    * one crash-stop replica (``<= f``, a non-client pid) — clean,
      byte-identical too (the ``n - f`` quorums never needed pid n);
    * total drop of the writer's outgoing links *without* retransmit —
      ``STALLED`` (the write can never assemble its quorum; reads of
      the initial value still complete);
    * a whole-run 2|2 partition even *with* retransmit — ``STALLED``
      (no side holds ``n - f = 3``; retransmission cannot defeat a
      quorum-starving partition).

    The STALLED cells are ``expect_violation=True``: a stall *is* the
    violation, and its shrunk counterexample persists to ``corpus/``
    like any safety finding.
    """
    lossy = (("drop", 0, 0, 0.25), ("dup", 0, 0, 0.1), ("delay", 0, 0, 0.15, 9))
    writer_cut = (("drop", 1, 0, 1.0),)
    split = (("partition", ((1, 2), (3, 4)), 0, None),)
    for faults, retransmit, expect in (
        ((), False, False),
        (lossy, True, False),
        ((("crash", 4, 0),), False, False),
        (writer_cut, False, True),
        (split, True, True),
    ):
        params = dict(n=4, f=1, seed=0)
        if faults:
            params["faults"] = faults
        if retransmit:
            params["retransmit"] = True
        register(
            ScenarioRecord(
                family="mp_emulation",
                n=4,
                f=1,
                spec=make_scenario("mp_register", **params),
                engine="swarm",
                expect_violation=expect,
                consumers=("campaign", "smoke"),
            )
        )


def _register_net() -> None:
    """The live-network runtime's pinned smoke cells (``consumers=net``).

    Three cells, executed by ``python -m repro.analysis net`` on real
    localhost sockets (engine ``live`` — they refuse to build under a
    scheduler):

    * fault-free baseline — every sampled window ``CLEAN``;
    * seeded loss + duplication + reorder delays at the socket layer,
      with the wall-clock retransmit channels — still ``CLEAN`` (the
      reliable-channel assumption rebuilt over a real lossy transport);
    * a whole-run 2|2 partition even with retransmit — pinned
      ``STALLED`` (``expect_violation=True``): neither side holds
      ``n - f = 3``, so writes starve and the wall-clock progress
      monitor converts the hang into the verdict.

    The fault vocabulary and the lossy/split plans deliberately mirror
    ``_register_mp_emulation`` — same plans, virtual time vs wall
    clock, same expected verdicts.
    """
    lossy = (("drop", 0, 0, 0.2), ("dup", 0, 0, 0.1), ("delay", 0, 0, 0.15, 9))
    split = (("partition", ((1, 2), (3, 4)), 0, None),)
    for faults, extra, expect in (
        ((), {}, False),
        (lossy, {"fault_seed": 7}, False),
        (split, {"fault_seed": 3, "window": 1.5, "max_backoff": 0.4}, True),
    ):
        params = dict(
            clients=24, rounds=2, ops_per_client=3, seed=0, **extra
        )
        if faults:
            params["faults"] = faults
        register(
            ScenarioRecord(
                family="net",
                n=4,
                f=1,
                spec=make_scenario("net_cluster", **params),
                engine="live",
                expect_violation=expect,
                consumers=("net",),
            )
        )


def _register_broadcast_systematic() -> None:
    """The deferred broadcast boundary pair under the systematic engine.

    PR 7 brought the broadcast apps into the conformance matrix on the
    swarm engine only: under the sleep-set baseline their bounded
    schedule tree is too large to drain within any campaign budget
    (the n=3 violating cell's tree alone holds >20k sleep-mode runs).
    Source-set DPOR closes that gap — the same trees exhaust in a few
    thousand race-driven runs — so these cells pin
    ``reduction="dpor"`` and carry the same differential expectations
    as their swarm twins: the equivocating sender forks two correct
    receivers at ``n = 3f`` and is harmless at ``n = 3f + 1``.

    Registered last: the matrix order is append-only.
    """
    for family in ("broadcast", "reliable_broadcast"):
        for n, expect in ((4, False), (3, True)):
            register(
                ScenarioRecord(
                    family=family,
                    n=n,
                    f=1,
                    spec=make_scenario(
                        family,
                        n=n,
                        f=1,
                        seed=0,
                        byzantine=((n, "equivocate"),),
                    ),
                    engine="systematic",
                    expect_violation=expect,
                    consumers=("campaign", "explore", "smoke"),
                    reduction="dpor",
                )
            )


_register_alg_families()
_register_baseline_and_strawman()
_register_test_or_set()
_register_extra_grids()
_register_apps()
_register_freshness_boundary()
_register_broadcast_families()
_register_mp_emulation()
_register_net()
_register_broadcast_systematic()
