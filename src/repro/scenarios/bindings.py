"""Oracle bindings: implementation family -> specification, exactly once.

One table of :class:`OracleBinding` records answers, per family, which
sequential spec its runs are judged against (:func:`oracle_for`, which
``repro.campaign`` re-exports) and under which :class:`repro.spec.Rules`
the one judge (:func:`repro.spec.judge`) decides them — the paper's
synthesis and property rules for the registers, the spec encodings and
settled-slot synthesis for the applications; the test suite asserts
every registered family has exactly one binding.

The table is differential by construction: the naive strawman and the
signature baseline are bound to the *same* :class:`VerifiableRegisterSpec`
as Algorithm 1 — they implement the same object, so any observable
divergence is a conformance violation of that implementation, not a
different spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.history import OperationRecord
from repro.spec.byzantine import AUTHENTICATED, STICKY, TEST_OR_SET, VERIFIABLE
from repro.spec.judge import Case, Rules, Synthesize
from repro.spec.properties import PropertyReport
from repro.spec.sequential import (
    AssetTransferSpec,
    AtomicRegisterSpec,
    AuthenticatedRegisterSpec,
    BroadcastSpec,
    SequentialSpec,
    SnapshotSpec,
    StickyRegisterSpec,
    TestOrSetSpec,
    VerifiableRegisterSpec,
)


@dataclass(frozen=True)
class OracleBinding:
    """How one implementation family is judged.

    Attributes:
        family: Implementation family name (the campaign's axis).
        spec_factory: Builds the family's sequential specification;
            called with ``initial=...`` for value-carrying registers.
            Topology-dependent app specs (snapshot, asset transfer) are
            instantiated by the scenario builder with the run's correct
            pids; the factory here is the spec *type* anchor.
        kind: The ``repro.scenarios.registers`` register kind driving
            scenario construction, or ``None`` for families that are
            not register workloads (test_or_set and the apps).
        rules: How :func:`repro.spec.judge` decides the family's runs.
    """

    family: str
    spec_factory: Callable[..., SequentialSpec]
    kind: Optional[str] = None
    rules: Rules = Rules()


def _value_spec(factory: Callable[..., SequentialSpec]) -> Callable[..., SequentialSpec]:
    def build(initial: Any = 0) -> SequentialSpec:
        return factory(initial=initial)

    return build


def _well_formed_scans(records: List[OperationRecord], case: Case) -> PropertyReport:
    """Every complete scan returned one segment per process.

    ``case.witness`` is every pid of the run, sorted.
    """
    for record in records:
        view = record.result
        if record.op == "scan" and record.complete and (
            not isinstance(view, tuple) or len(view) != len(case.witness)
        ):
            return PropertyReport(
                ok=False,
                violations=[
                    f"snapshot scan by p{record.pid} returned a "
                    f"malformed view: {view!r}"
                ],
            )
    return PropertyReport()


def _project_scans(records: List[OperationRecord], case: Case) -> List[OperationRecord]:
    """Updates gain their pid; scans keep only the correct segments.

    A Byzantine process's own segment is unconstrained by Byzantine
    linearizability, so the spec (over the correct pids) never has to
    explain it.
    """
    indexes = [case.witness.index(pid) for pid in case.spec.pids]
    projected = []
    for record in records:
        if record.op == "update":
            record = replace(record, args=(record.pid,) + record.args)
        elif record.op == "scan" and record.complete:
            record = replace(
                record, result=tuple(record.result[i] for i in indexes)
            )
        projected.append(record)
    return projected


def _synthesize_settled(op: str, result: Any) -> Synthesize:
    """Synthesis from the run's settled Byzantine slots.

    ``case.witness`` is ``(settled, horizon)``: ``(owner, args)`` per
    Byzantine slot whose sticky register ``f + 1`` correct helpers
    witnessed (exactly the evidence a correct read collects), and the
    run's end. Each becomes one whole-run ``op`` by its owner — the most
    permissive sound placement — so a consistently settled Byzantine
    slot is explainable while a forked one is not. The correct processes'
    ``op`` records gain the acting pid as their first spec argument.
    """

    def synthesize(records: List[OperationRecord], case: Case) -> List[OperationRecord]:
        settled, horizon = case.witness
        encoded = [
            replace(r, args=(r.pid,) + r.args) if r.op == op else r
            for r in records
        ]
        return encoded + [
            OperationRecord(
                op_id=op_id,
                pid=owner,
                obj=case.obj,
                op=op,
                args=(owner,) + args,
                invoked_at=-1,
                responded_at=horizon,
                result=result,
            )
            for op_id, (owner, args) in zip(case.fresh_ids(), settled)
        ]

    return synthesize


#: Both broadcast families' rules: reasons name the judged object.
_BROADCAST = Rules(None, _synthesize_settled("broadcast", "done"))

#: The one family→oracle table (see module doc). Registration order is
#: the campaign's canonical family order.
FAMILY_BINDINGS: Dict[str, OracleBinding] = {
    binding.family: binding
    for binding in (
        OracleBinding(
            family="naive",
            spec_factory=_value_spec(VerifiableRegisterSpec),
            kind="naive-quorum",
            rules=VERIFIABLE,
        ),
        OracleBinding(
            family="sticky",
            spec_factory=lambda initial=0: StickyRegisterSpec(),
            kind="sticky",
            rules=STICKY,
        ),
        OracleBinding(
            family="test_or_set",
            spec_factory=lambda initial=0: TestOrSetSpec(),
            rules=TEST_OR_SET,
        ),
        OracleBinding(
            family="authenticated",
            spec_factory=_value_spec(AuthenticatedRegisterSpec),
            kind="authenticated",
            rules=AUTHENTICATED,
        ),
        OracleBinding(
            family="verifiable",
            spec_factory=_value_spec(VerifiableRegisterSpec),
            kind="verifiable",
            rules=VERIFIABLE,
        ),
        OracleBinding(
            family="signature_baseline",
            spec_factory=_value_spec(VerifiableRegisterSpec),
            kind="signed",
            rules=VERIFIABLE,
        ),
        OracleBinding(
            family="snapshot",
            spec_factory=lambda initial=0: SnapshotSpec(),
            rules=Rules("snapshot", _project_scans, _well_formed_scans),
        ),
        OracleBinding(
            family="asset_transfer",
            spec_factory=lambda initial=0: AssetTransferSpec(),
            rules=Rules("asset-transfer", _synthesize_settled("transfer", "ok")),
        ),
        # The two broadcast families run the same implementation under
        # two object names (and register prefixes); one spec and one
        # rule judge both, each reason naming its object.
        OracleBinding(
            family="broadcast",
            spec_factory=lambda initial=0: BroadcastSpec(),
            rules=_BROADCAST,
        ),
        OracleBinding(
            family="reliable_broadcast",
            spec_factory=lambda initial=0: BroadcastSpec(),
            rules=_BROADCAST,
        ),
        # The message-passing SWMR emulation is judged as the plain
        # register it emulates; the fault plan changes *whether a run
        # completes* (the STALLED liveness verdict), never the spec a
        # completed run must linearize against.
        OracleBinding(
            family="mp_emulation",
            spec_factory=_value_spec(AtomicRegisterSpec),
            rules=Rules("mp emulation"),
        ),
        # The live-network runtime (repro.net) serves the same emulated
        # registers over real sockets; sampled windows are judged
        # against the same plain-register spec (asset windows build
        # their AssetTransferSpec from the cluster's accounts inside
        # the online oracle).
        OracleBinding(
            family="net",
            spec_factory=_value_spec(AtomicRegisterSpec),
        ),
    )
}


def binding_for(family: str) -> OracleBinding:
    """The oracle binding of ``family``; raises for unknown families."""
    binding = FAMILY_BINDINGS.get(family)
    if binding is None:
        raise ConfigurationError(
            f"unknown implementation {family!r}; "
            f"known: {', '.join(FAMILY_BINDINGS)}"
        )
    return binding


def oracle_for(family: str, initial: Any = 0) -> SequentialSpec:
    """The sequential specification ``family``'s runs are judged against."""
    return binding_for(family).spec_factory(initial=initial)


def kind_for(family: str) -> Optional[str]:
    """The register workload kind of ``family`` (None for non-register)."""
    return binding_for(family).kind


def binding_for_kind(kind: str) -> OracleBinding:
    """The binding of the family whose register workload is ``kind``."""
    # kind is None for non-register families (and their bindings carry
    # kind=None too) — that must fall through to the loud error, never
    # match a kind-less app binding.
    if kind is not None:
        for binding in FAMILY_BINDINGS.values():
            if binding.kind == kind:
                return binding
    raise ConfigurationError(f"unknown register kind {kind!r}")


def register_kinds() -> Tuple[str, ...]:
    """Every register workload kind with a binding, in family order."""
    return tuple(
        binding.kind
        for binding in FAMILY_BINDINGS.values()
        if binding.kind is not None
    )
