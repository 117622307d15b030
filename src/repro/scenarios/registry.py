"""The unified scenario registry: specs, builders, and records.

This module is the single place where "what is a scenario?" is
answered for every layer of the reproduction:

* :class:`Scenario` — the picklable ``(name, params)`` *spec* every
  engine consumes (systematic explorer, swarm fuzzer, shrinker,
  campaign cells, corpus replays). ``Scenario.build`` resolves the
  name through :data:`SCENARIO_BUILDERS`, the builder registry that
  the builder modules of this package (``theorem29``, ``registers``,
  ``apps``, ``mp_emulation``, ``net_live``) populate via
  :func:`register_builder`, and returns a :class:`BuiltScenario`: the
  freshly constructed system, a ``drive`` callable that runs it to
  completion and a ``check`` callable returning a violation reason (or
  ``None``). A failed check travels as a :class:`Violation`.
* :class:`ScenarioRecord` — the declarative *registry record*: one
  record pins topology ``(n, f)``, implementation family, adversary
  behaviour and workload (inside the spec's params), engine, expected
  verdict, and which consumers (campaign / explore / smoke / net)
  include it. The family's oracle binding is resolved through
  :mod:`repro.scenarios.bindings`, so a record fully determines a
  runnable, checkable, differentially-judged scenario.
* :func:`register` / :func:`resolve` / :func:`grid` — the registry API
  the consumers query: ``repro.campaign.default_matrix`` is a
  ``grid(consumer="campaign")`` call, the analysis CLI's ``scenarios``
  subcommand lists ``all_records()``, and corpus entries resolve their
  historical scenario labels through :func:`resolve_spec`.

Import layering: ``repro.scenarios`` sits *below* the engines —
explore, campaign, service and analysis import it, never the other way
round — and this module sits below the package's own builder modules
(it imports only ``repro.errors`` and ``repro.sim``). The default
catalog (:mod:`repro.scenarios.catalog`) is loaded lazily on first
query, which is what lets the builder modules import this one at module
load time.

Labels are stable identity: a record's :meth:`ScenarioRecord.label`
(and the spec's :meth:`Scenario.label`) are the strings campaign
progress lines, corpus entry ids and violation fingerprints are built
from, so they are append-only — changing how an existing label renders
would orphan the committed corpus.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim import System

#: Engines a record may run under. ``swarm``/``systematic`` are the
#: virtual-time engines (see ``repro.explore``); ``live`` marks records
#: executed by the wall-clock socket runtime (``repro.net``) — they
#: carry a :class:`repro.net.LiveProfile` in their params and are driven
#: through ``python -m repro.analysis net``, not through a scheduler.
ENGINES = ("swarm", "systematic", "live")

#: Valid ``explore(reduction=...)`` arguments, in increasing
#: aggressiveness; a systematic record pins one of them.
REDUCTIONS: Tuple[str, ...] = ("sleep", "dpor", "dpor+symmetry")

#: The consumer axes a record can opt into. ``smoke`` is the bounded CI
#: subset of ``campaign``; ``explore`` marks the records the exploration
#: CLI draws from; ``net`` marks the live-network smoke cells the
#: ``net`` CLI pins.
CONSUMERS = ("campaign", "explore", "smoke", "net")

#: Registry of scenario builders, keyed by spec name. Builders must be
#: importable from worker processes (top level of their module) and
#: accept ``(scheduler, ctx=..., **params)``.
SCENARIO_BUILDERS: Dict[str, Callable[..., Any]] = {}

#: Catalog load state: "unloaded" -> "loading" -> "loaded". The
#: intermediate state guards re-entrant queries issued *while* the
#: catalog module executes; a failed load resets to "unloaded" so the
#: registry never silently serves a truncated record set.
_catalog_state = "unloaded"


def _ensure_catalog() -> None:
    """Load the default catalog (builders + records) exactly once.

    Lazy so that the builder modules — which import *this* module for
    :func:`register_builder` — can be imported by the catalog without a
    cycle. Any registry query or unknown-name lookup triggers it. A
    load that raises is retried on the next query (registration is
    idempotent for identical records), never cached as done — a
    partially registered catalog must not masquerade as coverage.
    """
    global _catalog_state
    if _catalog_state != "unloaded":
        return
    _catalog_state = "loading"
    try:
        import repro.scenarios.catalog  # noqa: F401  (registers on import)
    except BaseException:
        _catalog_state = "unloaded"
        raise
    _catalog_state = "loaded"


def register_builder(
    name: str, builder: Callable[..., Any], replace_existing: bool = False
) -> None:
    """Register a scenario builder under ``name``.

    Re-registering the *same* callable is a no-op (modules may be
    re-imported); binding a name to a different builder raises unless
    ``replace_existing`` — silent rebinding would change what every
    recorded label means.
    """
    existing = SCENARIO_BUILDERS.get(name)
    if existing is not None and existing is not builder and not replace_existing:
        raise ConfigurationError(
            f"scenario builder {name!r} is already registered "
            f"to {existing!r}"
        )
    SCENARIO_BUILDERS[name] = builder


def _builder_for(name: str) -> Callable[..., Any]:
    builder = SCENARIO_BUILDERS.get(name)
    if builder is None:
        _ensure_catalog()
        builder = SCENARIO_BUILDERS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; "
            f"known: {', '.join(sorted(SCENARIO_BUILDERS))}"
        )
    return builder


@dataclass(frozen=True)
class Scenario:
    """Picklable scenario spec: a registry name plus keyword parameters."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def build(
        self,
        scheduler: Any,
        ctx: Optional[Any] = None,
        early_exit: bool = False,
    ) -> Any:
        """Construct a fresh run of this scenario under ``scheduler``.

        ``ctx`` shares the oracle layer's memo caches across runs. Every
        run is driven to its horizon and judged there. ``early_exit`` is
        a residue kept only because ``benchmarks/e2e/layers.py`` still
        passes it through: anything but ``False`` raises, and the keyword
        goes with that harness's next revision (ROADMAP item 1).
        """
        if early_exit is not False:
            raise ConfigurationError(
                f"early_exit must be False, got {early_exit!r}"
            )
        return _builder_for(self.name)(scheduler, ctx=ctx, **dict(self.params))

    def label(self) -> str:
        """Human-readable spec rendering for tables and reports."""
        if not self.params:
            return self.name
        rendered = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({rendered})"


@dataclass(frozen=True)
class Violation:
    """One specification violation surfaced by an exploration run.

    ``trace`` is the complete decision trace of the violating run (see
    :class:`repro.sim.TraceScheduler`), so the run replays exactly;
    ``schedule`` describes the scheduler that produced it and ``seed``
    its fuzzing seed, when any.
    """

    scenario: str
    reason: str
    trace: Tuple[int, ...]
    schedule: str = ""
    seed: Optional[int] = None

    def fingerprint(self) -> str:
        """Dedup key: the violation class, with run-specific ids masked.

        Operation ids, pids and virtual times vary between interleavings
        that break the *same* property; masking digits collapses them
        into one bucket, which is what swarm campaigns report.
        """
        return f"{self.scenario}:{re.sub(r'[0-9]+', 'N', self.reason)}"

    @property
    def is_stall(self) -> bool:
        """True for a liveness (``STALLED``) verdict, not a safety break.

        Stall verdicts come from :class:`repro.faults.ProgressMonitor`
        converting a would-be hang into a first-class violation; they
        ride the same reason/fingerprint plumbing, and this flag only
        changes how reports *word* them.
        """
        return self.reason.startswith("STALLED")

    def describe(self) -> str:
        """One-line rendering for reports."""
        return (
            f"[{self.scenario}] {self.reason} "
            f"(trace length {len(self.trace)}, via {self.schedule or 'unknown'})"
        )


@dataclass
class BuiltScenario:
    """One constructed-but-unstarted exploration run."""

    system: System
    #: Run the system to completion; may raise StepLimitExceeded.
    drive: Callable[[], None]
    #: Inspect the finished history; violation reason or None.
    check: Callable[[], Optional[str]]


def make_scenario(name: str, **params: Any) -> Scenario:
    """Build a :class:`Scenario` spec, validating the name eagerly."""
    _builder_for(name)  # raises on unknown names
    return Scenario(name=name, params=tuple(sorted(params.items())))


def resolve_spec(name: str, params: Sequence[Tuple[str, Any]]) -> Scenario:
    """Rebuild a scenario spec from its serialized ``(name, params)``.

    This is the corpus replay path: entries store the exact (already
    sorted) param tuples their label and fingerprint were derived from,
    so the params are preserved verbatim — only the *name* is validated
    against the builder registry, loudly, so an entry referencing a
    retired scenario fails at load time rather than replaying wrongly.
    """
    _builder_for(name)
    return Scenario(name=name, params=tuple(params))


# ----------------------------------------------------------------------
# Declarative registry records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioRecord:
    """One registry record: a fully determined, differentially judged cell.

    Attributes:
        family: Implementation family under test; resolves the oracle
            binding through ``repro.scenarios.bindings``.
        n: Process count of the scenario's topology.
        f: Fault bound of the scenario's topology.
        spec: The runnable :class:`Scenario` (adversary behaviour and
            workload/driver program live in its params).
        engine: ``"swarm"`` or ``"systematic"`` (see ``repro.explore``).
        expect_violation: The differential expectation — what the paper
            proves for this cell.
        consumers: Which layers include the record (subset of
            :data:`CONSUMERS`).
        symmetry: Interchangeable process groups — tuples of pids whose
            initial coroutine/register/mailbox configurations map onto
            each other under any permutation of the group. The
            systematic explorer's ``reduction="dpor+symmetry"`` folds
            backtracks over these groups
            (:class:`repro.explore.dpor.SymmetryFolder`). Deliberately
            *outside* the fingerprint basis: a symmetry declaration is
            a search-strategy hint, not cell behaviour (all reduction
            modes reach identical verdicts), and adding one must not
            orphan stored cell fingerprints.
        reduction: Which systematic-explorer reduction the record's
            campaign cell runs under (``"sleep"``, ``"dpor"`` or
            ``"dpor+symmetry"``; ignored by swarm cells). Like
            ``symmetry``, a search-strategy hint outside the
            fingerprint basis — cells registered before the dpor
            reductions existed keep their identity. The deferred
            broadcast systematic cells *require* a dpor mode: their
            bounded tree is too large for the sleep baseline to drain
            within a campaign budget.
    """

    family: str
    n: int
    f: int
    spec: Scenario
    engine: str = "swarm"
    expect_violation: bool = False
    consumers: Tuple[str, ...] = ("campaign",)
    symmetry: Tuple[Tuple[int, ...], ...] = ()
    reduction: str = "sleep"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {', '.join(ENGINES)}"
            )
        unknown = [c for c in self.consumers if c not in CONSUMERS]
        if unknown:
            raise ConfigurationError(
                f"unknown consumer(s) {unknown!r}; known: {', '.join(CONSUMERS)}"
            )
        if self.reduction not in REDUCTIONS:
            raise ConfigurationError(
                f"unknown reduction {self.reduction!r}; "
                f"known: {', '.join(REDUCTIONS)}"
            )
        if self.n < 1 or self.f < 0:
            raise ConfigurationError(
                f"bad topology n={self.n}, f={self.f} for {self.spec.label()}"
            )

    def label(self) -> str:
        """Stable record identity: ``family/engine:scenario-label``.

        Matches ``repro.campaign.CampaignCell.label()`` for the cell the
        record expands to, so campaign progress lines and registry
        lookups speak the same language.
        """
        return f"{self.family}/{self.engine}:{self.spec.label()}"

    def fingerprint(self) -> str:
        """Short digest of everything that determines the cell's behaviour."""
        basis = (
            self.family,
            self.n,
            self.f,
            self.engine,
            self.expect_violation,
            self.spec.label(),
        )
        return hashlib.blake2b(repr(basis).encode(), digest_size=6).hexdigest()

    def seeded(self, seed0: int) -> "ScenarioRecord":
        """This record with its workload seed re-pinned to ``seed0``.

        Records are registered at the default seed; campaign callers can
        re-seed the whole matrix without touching the registry. Specs
        without a ``seed`` param (theorem29) are returned unchanged —
        their schedule space is seeded by the engines, not the builder.
        """
        params = dict(self.spec.params)
        if "seed" not in params or params["seed"] == seed0:
            return self
        params["seed"] = seed0
        spec = Scenario(
            name=self.spec.name, params=tuple(sorted(params.items()))
        )
        return replace(self, spec=spec)

    def describe(self) -> str:
        """One line for CLI listings."""
        expect = "violation" if self.expect_violation else "clean"
        consumers = ",".join(self.consumers)
        return (
            f"{self.label()}  n={self.n} f={self.f}  expect={expect}  "
            f"consumers={consumers}"
        )


#: Registered records, keyed by label, in registration order (the order
#: ``default_matrix`` materializes cells in).
_RECORDS: Dict[str, ScenarioRecord] = {}


def register(
    record: ScenarioRecord, replace_existing: bool = False
) -> ScenarioRecord:
    """Add ``record`` to the registry; returns it for chaining.

    Re-registering an *identical* record is a no-op; registering a
    different record under an existing label raises unless
    ``replace_existing`` (labels are stable identity — see module doc).

    The default catalog is loaded first (no-op while the catalog itself
    is registering), so caller records always *append* after the stock
    records — registration order is contract: ``default_matrix``
    materializes cells in it, and the historical prefix is pinned.
    """
    _ensure_catalog()
    label = record.label()
    existing = _RECORDS.get(label)
    if existing is not None and existing != record and not replace_existing:
        raise ConfigurationError(
            f"scenario record {label!r} is already registered with "
            f"different settings"
        )
    _RECORDS[label] = record
    return record


def resolve(label: str) -> ScenarioRecord:
    """The registered record for ``label``; raises if unknown."""
    _ensure_catalog()
    record = _RECORDS.get(label)
    if record is None:
        raise ConfigurationError(
            f"unknown scenario record {label!r}; "
            f"{len(_RECORDS)} records registered "
            f"(list them with `python -m repro.analysis scenarios --list`)"
        )
    return record


def all_records() -> List[ScenarioRecord]:
    """Every registered record, in registration order."""
    _ensure_catalog()
    return list(_RECORDS.values())


def grid(
    consumer: Optional[str] = None,
    families: Optional[Sequence[str]] = None,
    engine: Optional[str] = None,
    expect_violation: Optional[bool] = None,
) -> List[ScenarioRecord]:
    """Query the registry: records matching every given filter, in order.

    ``consumer`` filters on membership in ``record.consumers``;
    ``families`` on the implementation family; ``engine`` and
    ``expect_violation`` on their exact values. ``grid()`` with no
    arguments is :func:`all_records`.
    """
    if consumer is not None and consumer not in CONSUMERS:
        raise ConfigurationError(
            f"unknown consumer {consumer!r}; known: {', '.join(CONSUMERS)}"
        )
    wanted = None if families is None else set(families)
    records = []
    for record in all_records():
        if consumer is not None and consumer not in record.consumers:
            continue
        if wanted is not None and record.family not in wanted:
            continue
        if engine is not None and record.engine != engine:
            continue
        if expect_violation is not None and (
            record.expect_violation is not expect_violation
        ):
            continue
        records.append(record)
    return records


def known_scenarios() -> Tuple[str, ...]:
    """Every registered scenario builder name, sorted."""
    _ensure_catalog()
    return tuple(sorted(SCENARIO_BUILDERS))


def registered_families(consumer: Optional[str] = None) -> Tuple[str, ...]:
    """Every implementation family with at least one record, in order.

    With ``consumer``, only families with at least one record reaching
    that consumer — e.g. ``consumer="campaign"`` excludes live-only
    families (engine ``"live"``), whose cells run on wall clocks and
    can never expand into campaign cells.
    """
    seen: Dict[str, None] = {}
    for record in all_records():
        if consumer is not None and consumer not in record.consumers:
            continue
        seen.setdefault(record.family, None)
    return tuple(seen)
