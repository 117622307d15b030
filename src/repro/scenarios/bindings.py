"""Oracle bindings: implementation family -> specification, exactly once.

One table of :class:`OracleBinding` records answers, per family, which
sequential spec its runs are judged against (:func:`oracle_for`, which
``repro.campaign`` re-exports), which checker pair judges a register
kind (:func:`checker_for_kind`) and which early-exit monitor family
watches it (:func:`monitor_family_for_kind`); the test suite asserts
every registered family has exactly one binding.

The table is differential by construction: the naive strawman and the
signature baseline are bound to the *same* :class:`VerifiableRegisterSpec`
as Algorithm 1 — they implement the same object, so any observable
divergence is a conformance violation of that implementation, not a
different spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.spec.byzantine import (
    check_authenticated,
    check_sticky,
    check_verifiable,
)
from repro.spec.properties import (
    check_authenticated_properties,
    check_sticky_properties,
    check_verifiable_properties,
)
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
        monitor_family: ``repro.spec.properties.EarlyPropertyMonitor``
            family for early-exit runs, or ``None`` when no incremental
            monitor exists for the oracle.
        checkers: ``(property-checker, byzantine-checker)`` pair for
            register families; ``None`` for families checked purely
            through linearization inside their scenario builder.
    """

    family: str
    spec_factory: Callable[..., SequentialSpec]
    kind: Optional[str] = None
    monitor_family: Optional[str] = None
    checkers: Optional[Tuple[Callable, Callable]] = None


def _value_spec(factory: Callable[..., SequentialSpec]) -> Callable[..., SequentialSpec]:
    def build(initial: Any = 0) -> SequentialSpec:
        return factory(initial=initial)

    return build


_VERIFIABLE_CHECKERS = (check_verifiable_properties, check_verifiable)
_AUTHENTICATED_CHECKERS = (check_authenticated_properties, check_authenticated)
_STICKY_CHECKERS = (check_sticky_properties, check_sticky)

#: The one family→oracle table (see module doc). Registration order is
#: the campaign's canonical family order.
FAMILY_BINDINGS: Dict[str, OracleBinding] = {
    binding.family: binding
    for binding in (
        OracleBinding(
            family="naive",
            spec_factory=_value_spec(VerifiableRegisterSpec),
            kind="naive-quorum",
            monitor_family="verifiable",
            checkers=_VERIFIABLE_CHECKERS,
        ),
        OracleBinding(
            family="sticky",
            spec_factory=lambda initial=0: StickyRegisterSpec(),
            kind="sticky",
            monitor_family="sticky",
            checkers=_STICKY_CHECKERS,
        ),
        OracleBinding(
            family="test_or_set",
            spec_factory=lambda initial=0: TestOrSetSpec(),
            monitor_family="test_or_set",
        ),
        OracleBinding(
            family="authenticated",
            spec_factory=_value_spec(AuthenticatedRegisterSpec),
            kind="authenticated",
            monitor_family="authenticated",
            checkers=_AUTHENTICATED_CHECKERS,
        ),
        OracleBinding(
            family="verifiable",
            spec_factory=_value_spec(VerifiableRegisterSpec),
            kind="verifiable",
            monitor_family="verifiable",
            checkers=_VERIFIABLE_CHECKERS,
        ),
        OracleBinding(
            family="signature_baseline",
            spec_factory=_value_spec(VerifiableRegisterSpec),
            kind="signed",
            monitor_family="verifiable",
            checkers=_VERIFIABLE_CHECKERS,
        ),
        OracleBinding(
            family="snapshot",
            spec_factory=lambda initial=0: SnapshotSpec(),
        ),
        OracleBinding(
            family="asset_transfer",
            spec_factory=lambda initial=0: AssetTransferSpec(),
        ),
        # Both broadcast apps implement the same object — the facade
        # relationship mirrors the strawman/baseline families sharing
        # VerifiableRegisterSpec: one spec, any divergence between the
        # two implementations is a conformance violation.
        OracleBinding(
            family="broadcast",
            spec_factory=lambda initial=0: BroadcastSpec(),
        ),
        OracleBinding(
            family="reliable_broadcast",
            spec_factory=lambda initial=0: BroadcastSpec(),
        ),
        # The message-passing SWMR emulation is judged as the plain
        # register it emulates; the fault plan changes *whether a run
        # completes* (the STALLED liveness verdict), never the spec a
        # completed run must linearize against.
        OracleBinding(
            family="mp_emulation",
            spec_factory=_value_spec(AtomicRegisterSpec),
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


def _binding_for_kind(kind: str) -> OracleBinding:
    # kind is None for non-register families (and their bindings carry
    # kind=None too) — that must fall through to the loud error, never
    # match a kind-less app binding.
    if kind is not None:
        for binding in FAMILY_BINDINGS.values():
            if binding.kind == kind:
                return binding
    raise ConfigurationError(f"unknown register kind {kind!r}")


def checker_for_kind(kind: str) -> Tuple[Callable, Callable]:
    """``(property-checker, byzantine-checker)`` for a register kind."""
    binding = _binding_for_kind(kind)
    assert binding.checkers is not None  # register kinds always carry them
    return binding.checkers


def monitor_family_for_kind(kind: str) -> str:
    """The early-exit monitor family judging a register kind."""
    binding = _binding_for_kind(kind)
    assert binding.monitor_family is not None
    return binding.monitor_family


def register_kinds() -> Tuple[str, ...]:
    """Every register workload kind with a binding, in family order."""
    return tuple(
        binding.kind
        for binding in FAMILY_BINDINGS.values()
        if binding.kind is not None
    )
