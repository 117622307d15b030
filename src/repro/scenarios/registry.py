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
  verdict, and which consumers (campaign / smoke / net) include it.
  The family's oracle binding is resolved through
  :mod:`repro.scenarios.bindings`, so a record fully determines a
  runnable, checkable, differentially-judged scenario.
* :func:`register` / :func:`resolve` / :func:`grid` — the registry API
  the consumers query: ``repro.campaign.default_matrix`` is a
  ``grid(consumer="campaign")`` call, the analysis CLI's ``scenarios``
  subcommand lists ``all_records()``, and corpus entries resolve their
  historical scenario labels through :func:`resolve_spec`.

Params are registry axes, not knobs. A builder's keywords are the
axes some record or corpus entry sets — topology, seed, Byzantine cast,
family switches — plus ``max_steps`` and ``fault_seed``, which tests
set; a value that only one caller would ever use (a workload size, a
delay bound, a search budget) is a constant inside the builder.
:func:`register_builder` records each builder's keyword names and the
types of their defaults once, and :func:`make_scenario` and
:func:`resolve_spec` — the paths of catalog records, corpus loads and
queued campaign cells — refuse any other param, and any value not of
its default's type, with a :class:`~repro.errors.ConfigurationError`
that names the param, so a typo, a retired knob or a string where an
int belongs fails where it enters, not inside a run.

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
import inspect
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
#: aggressiveness.
REDUCTIONS: Tuple[str, ...] = ("sleep", "dpor", "dpor+symmetry")

#: The reductions a systematic record (and so a campaign cell) may pin:
#: symmetry folding needs process groups, which neither carries.
CELL_REDUCTIONS: Tuple[str, ...] = ("sleep", "dpor")

#: The consumer axes a record can opt into. ``smoke`` is the bounded CI
#: subset of ``campaign``; ``net`` marks the live-network smoke cells
#: the ``net`` CLI pins.
CONSUMERS = ("campaign", "smoke", "net")

#: Registry of scenario builders, keyed by spec name. Builders must be
#: importable from worker processes (top level of their module) and
#: accept ``(scheduler, ctx=..., **params)``.
SCENARIO_BUILDERS: Dict[str, Callable[..., Any]] = {}

#: The spec params each builder accepts (its keywords but ``scheduler``
#: and ``ctx``), each with the type of its default; ``None`` for a
#: builder taking ``**params``, which checks its own.
_BUILDER_PARAMS: Dict[str, Optional[Dict[str, type]]] = {}

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


def register_builder(name: str, builder: Callable[..., Any]) -> None:
    """Register a scenario builder under ``name``, with its param types.

    Re-registering the *same* callable is a no-op (modules may be
    re-imported); binding a name to a different builder raises — silent
    rebinding would change what every recorded label means.
    """
    existing = SCENARIO_BUILDERS.get(name)
    if existing is not None and existing is not builder:
        raise ConfigurationError(
            f"scenario builder {name!r} is already registered "
            f"to {existing!r}"
        )
    params = inspect.signature(builder).parameters.values()
    SCENARIO_BUILDERS[name] = builder
    _BUILDER_PARAMS[name] = (
        None
        if any(param.kind is param.VAR_KEYWORD for param in params)
        else {
            param.name: type(param.default)
            for param in params
            if param.name not in ("scheduler", "ctx")
        }
    )


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


def declare_byzantine(
    system: System,
    cast: Sequence[Tuple[int, str]],
    eligible: Optional[Sequence[int]] = None,
) -> Dict[int, str]:
    """Validate and declare a Byzantine cast; returns pid -> behaviour.

    A pid runs one program, so a pid cast twice is refused, and so is one
    outside ``eligible`` (default: every pid of ``system``). Builders call
    this before they spawn anything.
    """
    by_pid = dict(cast)
    if len(by_pid) != len(cast):
        raise ConfigurationError(f"duplicate Byzantine pid in {cast!r}")
    stray = set(by_pid) - set(system.pids if eligible is None else eligible)
    if stray:
        raise ConfigurationError(f"Byzantine pid(s) {sorted(stray)} cannot be cast")
    system.declare_byzantine(*by_pid)
    return by_pid


def _checked_spec(name: str, params: Tuple[Tuple[str, Any], ...]) -> Scenario:
    """``Scenario(name, params)``, refusing an unknown name, param or type.

    A value must be exactly of its default's type, so ``True`` does not
    pass for an ``int`` (a tuple's items are not checked).
    """
    _builder_for(name)
    accepted = _BUILDER_PARAMS[name]
    if accepted is not None:
        for key, value in params:
            kind = accepted.get(key)
            if kind is None:
                raise ConfigurationError(
                    f"scenario {name!r} takes no param {key!r}; "
                    f"accepted: {', '.join(accepted)}"
                )
            if type(value) is not kind:
                raise ConfigurationError(
                    f"scenario {name!r} param {key!r} must be "
                    f"{kind.__name__}, got {value!r}"
                )
    return Scenario(name=name, params=params)


def make_scenario(name: str, **params: Any) -> Scenario:
    """Build a :class:`Scenario` spec, validating name and params eagerly."""
    return _checked_spec(name, tuple(sorted(params.items())))


def resolve_spec(name: str, params: Sequence[Tuple[str, Any]]) -> Scenario:
    """Rebuild a scenario spec from its serialized ``(name, params)``.

    This is the corpus replay and queued-cell path: entries store the
    exact (already sorted) param tuples their label and fingerprint were
    derived from, so the params are preserved verbatim — but the name
    and every param name are validated against the builder registry,
    loudly, so an entry referencing a retired scenario or knob fails at
    load time rather than replaying wrongly.
    """
    return _checked_spec(name, tuple(params))


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
        reduction: Which systematic-explorer reduction the record's
            campaign cell runs under (``"sleep"`` or ``"dpor"``, see
            :data:`CELL_REDUCTIONS`; ignored by swarm cells). A
            search-strategy hint outside the fingerprint basis (every
            reduction reaches the same verdict) — cells registered
            before the dpor reductions existed keep their identity.
            The deferred broadcast systematic cells *require* a dpor
            mode: their bounded tree is too large for the sleep
            baseline to drain within a campaign budget.
    """

    family: str
    n: int
    f: int
    spec: Scenario
    engine: str = "swarm"
    expect_violation: bool = False
    consumers: Tuple[str, ...] = ("campaign",)
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
        if self.reduction not in CELL_REDUCTIONS:
            raise ConfigurationError(
                f"unknown reduction {self.reduction!r}; "
                f"known: {', '.join(CELL_REDUCTIONS)}"
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


def register(record: ScenarioRecord) -> ScenarioRecord:
    """Add ``record`` to the registry; returns it for chaining.

    Re-registering an *identical* record is a no-op; registering a
    different record under an existing label raises (labels are stable
    identity — see module doc).

    The default catalog is loaded first (no-op while the catalog itself
    is registering), so caller records always *append* after the stock
    records — registration order is contract: ``default_matrix``
    materializes cells in it, and the historical prefix is pinned.
    """
    _ensure_catalog()
    label = record.label()
    existing = _RECORDS.get(label)
    if existing is not None and existing != record:
        raise ConfigurationError(
            f"scenario record {label!r} is already registered with "
            f"different settings"
        )
    _RECORDS[label] = record
    return record


def resolve(label: str) -> ScenarioRecord:
    """The registered record for ``label`` or its short fingerprint.

    The exact label is tried first, then :meth:`ScenarioRecord.fingerprint`
    — the digest ``scenarios --list`` prints, which a shell command can
    carry where a label with a whole fault plan in it quotes badly.
    Raises :class:`ConfigurationError` naming an unknown one.
    """
    _ensure_catalog()
    record = _RECORDS.get(label)
    if record is not None:
        return record
    for record in _RECORDS.values():
        if record.fingerprint() == label:
            return record
    raise ConfigurationError(
        f"unknown scenario record {label!r}; "
        f"{len(_RECORDS)} records registered "
        f"(list them with `python -m repro.analysis scenarios --list`)"
    )


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
