"""Differential conformance campaigns over the implementation matrix.

Where ``repro.explore`` searches the schedule space of *one* scenario,
a *campaign* quantifies over the other axes of the paper's claims too:
it builds a matrix of cells — (implementation × scenario × engine ×
parameters) — covering every ``repro.core`` implementation family
(:data:`IMPLEMENTATIONS`), fans the cells out across a multiprocessing
pool (the same worker plumbing as :mod:`repro.explore.fuzzer`), and
*differentially* judges each cell: every run's history is checked
against the implementation's sequential specification through the
``repro.spec`` oracles (the property checkers plus the Wing–Gong
Byzantine-linearizability search), and the presence or absence of
violations is compared against what the paper proves for that cell.

The differential expectations encode the paper's boundary:

* Algorithms 1–3 (verifiable / authenticated / sticky) and the
  signature-based baseline must survive every schedule and adversary
  mix — any violation is a bug in the implementation (or the paper);
* the Section 5.1 naive strawman must *break* under the flip-flop
  collusion (and hold without an adversary);
* the quorum test-or-set at ``n = 3f`` must exhibit the Theorem 29
  relay violation, and the same bounds must come back clean at
  ``n = 3f + 1``.

Any violation a campaign finds is auto-shrunk
(:mod:`repro.explore.shrink`) and persisted into the replayable corpus
(:mod:`repro.campaign.corpus`), so each discovered counterexample
becomes a standing regression test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SchedulerError
from repro.explore.explorer import explore
from repro.explore.fuzzer import default_shards, fuzz, pool_context
from repro.explore.shrink import ShrunkViolation, shrink
from repro.scenarios import registry as _registry
from repro.scenarios.registry import Scenario, Violation
from repro.campaign.corpus import entry_from_shrunk, save_entry


def __getattr__(name: str):
    # ``IMPLEMENTATIONS`` — the implementation families the default
    # campaign covers: every family with at least one campaign-consumer
    # record in the unified scenario registry (the six ``repro.core``
    # families plus the paper-level applications). Live-only families
    # (engine ``"live"``, e.g. the ``net`` socket runtime) are registry
    # members but excluded here: their cells execute on wall clocks
    # through ``python -m repro.analysis net``, never as campaign
    # cells. Computed on attribute access, not snapshotted at import:
    # families registered later through the public
    # ``repro.scenarios.register`` API must show up, and the module
    # stays importable without forcing the full catalog load.
    if name == "IMPLEMENTATIONS":
        return _registry.registered_families(consumer="campaign")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class CampaignCell:
    """One matrix cell: an implementation under one scenario and engine.

    Cells are picklable (frozen, hashable fields only) so the pool can
    ship them to workers, and deterministic: a cell's findings are a
    pure function of its spec, independent of which worker runs it.
    """

    implementation: str
    scenario: Scenario
    engine: str
    budget: int
    expect_violation: bool
    seed0: int = 0
    depth_bound: int = 14
    preemption_bound: int = 2
    #: Systematic-engine reduction mode (see ``repro.explore.explore``);
    #: swarm cells ignore both. ``symmetry`` holds the scenario's
    #: interchangeable-process groups for ``"dpor+symmetry"``.
    reduction: str = "sleep"
    symmetry: Tuple[Tuple[int, ...], ...] = ()

    def label(self) -> str:
        """Compact cell identity for progress lines and tables."""
        return f"{self.implementation}/{self.engine}:{self.scenario.label()}"


@dataclass
class CellOutcome:
    """What running one cell produced."""

    cell: CampaignCell
    runs: int = 0
    steps: int = 0
    incomplete: int = 0
    elapsed: float = 0.0
    violations: List[Violation] = field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        """Whether the cell matched its differential expectation."""
        return bool(self.violations) == self.cell.expect_violation

    @property
    def runs_per_sec(self) -> float:
        """Schedules executed per wall-clock second inside the cell."""
        return self.runs / self.elapsed if self.elapsed > 0 else 0.0

    def describe(self) -> str:
        """One progress line for the CLI.

        Liveness verdicts are worded apart from safety breaks: a cell
        whose violation classes are all ``STALLED`` diagnoses reads
        "stall class(es)", a mix annotates how many of the classes are
        stalls. The payload/fingerprint plumbing is untouched — this is
        presentation only.
        """
        stalls = sum(1 for violation in self.violations if violation.is_stall)
        if not self.violations:
            found = "clean"
        elif stalls == len(self.violations):
            found = f"{len(self.violations)} stall class(es)"
        elif stalls:
            found = (
                f"{len(self.violations)} violation class(es), "
                f"{stalls} stall(s)"
            )
        else:
            found = f"{len(self.violations)} violation class(es)"
        verdict = "as expected" if self.ok else "UNEXPECTED"
        return (
            f"{self.cell.label()}: {found} ({verdict}) in {self.runs} runs, "
            f"{self.runs_per_sec:.0f} runs/s"
        )


@dataclass
class CampaignReport:
    """Aggregated outcome of one differential campaign."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    shards: int = 1
    elapsed: float = 0.0
    shrunk: List[ShrunkViolation] = field(default_factory=list)
    shrink_failures: List[str] = field(default_factory=list)
    #: Violation-class fingerprints found but not shrunk because the
    #: per-campaign cap was hit; recorded so library callers see them
    #: even without a progress sink.
    shrink_deferred: List[str] = field(default_factory=list)
    corpus_written: List[str] = field(default_factory=list)
    corpus_existing: int = 0

    @property
    def runs(self) -> int:
        """Total schedules executed across all cells."""
        return sum(outcome.runs for outcome in self.outcomes)

    @property
    def steps(self) -> int:
        """Total simulator steps across all cells."""
        return sum(outcome.steps for outcome in self.outcomes)

    @property
    def runs_per_sec(self) -> float:
        """Aggregate campaign throughput (pool wall-clock)."""
        return self.runs / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def steps_per_sec(self) -> float:
        """Aggregate simulator steps per wall-clock second."""
        return self.steps / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def mismatched(self) -> List[CellOutcome]:
        """Cells whose findings contradicted the differential expectation."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        """True iff every cell matched its expectation."""
        return not self.mismatched

    def summary(self) -> str:
        """One-paragraph rendering for the CLI."""
        matched = len(self.outcomes) - len(self.mismatched)
        corpus = (
            f"; corpus: {len(self.corpus_written)} new entr"
            f"{'y' if len(self.corpus_written) == 1 else 'ies'}, "
            f"{self.corpus_existing} already recorded"
            if self.corpus_written or self.corpus_existing
            else ""
        )
        deferred = (
            f" ({len(self.shrink_deferred)} deferred)"
            if self.shrink_deferred
            else ""
        )
        return (
            f"campaign: {matched}/{len(self.outcomes)} cells matched "
            f"expectations in {self.runs} runs across {self.shards} worker(s); "
            f"{self.runs_per_sec:.0f} runs/s, {self.steps_per_sec:.0f} steps/s; "
            f"{len(self.shrunk)} violation class(es) shrunk{deferred}{corpus}"
        )


def default_matrix(
    smoke: bool = False,
    seed0: int = 0,
    swarm_budget: Optional[int] = None,
    systematic_budget: Optional[int] = None,
    implementations: Optional[Sequence[str]] = None,
) -> List[CampaignCell]:
    """The standard campaign matrix: a query over the scenario registry.

    Every record with the ``campaign`` consumer (``smoke`` for the
    bounded CI subset) expands to one cell, in registration order —
    Algorithms 1–3 under the E1–E3 adversary grids, the signature
    baseline, the naive strawman (with its known-violating flip-flop
    cell), the Theorem 29 boundary through both engines, the
    campaign-growth adversary mixes, and the application cells
    (snapshot, asset transfer) at both fault boundaries. Budgets can be
    overridden per engine; ``implementations`` filters the families;
    ``seed0`` re-pins every seeded workload.

    Budgets are honored exactly — a caller-chosen budget too small to
    find an expected violation fails the campaign loudly rather than
    being silently floored.
    """
    families = _registry.registered_families(consumer="campaign")
    wanted = tuple(implementations) if implementations else families
    for implementation in wanted:
        if implementation not in families:
            raise ConfigurationError(
                f"unknown implementation {implementation!r}; "
                f"known: {', '.join(families)}"
            )
    swarm = (24 if smoke else 150) if swarm_budget is None else swarm_budget
    systematic = (
        (200 if smoke else 500) if systematic_budget is None else systematic_budget
    )
    if swarm < 1 or systematic < 1:
        raise ConfigurationError("cell budgets must be >= 1")
    cells: List[CampaignCell] = []
    for record in _registry.grid(consumer="smoke" if smoke else "campaign"):
        if record.family not in wanted:
            continue
        record = record.seeded(seed0)
        cells.append(
            CampaignCell(
                implementation=record.family,
                scenario=record.spec,
                engine=record.engine,
                budget=swarm if record.engine == "swarm" else systematic,
                expect_violation=record.expect_violation,
                seed0=seed0,
                reduction=record.reduction,
                symmetry=record.symmetry,
            )
        )
    return cells


def run_cell(cell: CampaignCell) -> CellOutcome:
    """Worker entry point: execute one matrix cell to completion.

    This is *the* cell-execution path: the one-shot pool workers and
    the ``repro.service`` leasing workers both call it, which is what
    makes a cell's verdict a pure function of its spec — byte-identical
    however and wherever it is executed.

    Swarm cells run a single-shard :func:`repro.explore.fuzzer.fuzz`
    campaign — pool parallelism is across cells, so a cell's findings
    stay a deterministic function of its spec. Cells that *expect* a
    violation stop at the first hit; the find is what matters, and the
    shrinker minimizes it afterwards.

    Every cell shares one :class:`repro.spec.CheckContext` across its
    runs (built inside the engine, so it never crosses the pool's
    pickling boundary). Early exit is armed exactly on the cells that
    expect *clean* runs: there it is free insurance — a regression stops
    simulating the moment its partial history is irrecoverably broken —
    while the violation-expecting cells keep full-horizon runs, whose
    exact reasons the shrink/corpus pipeline fingerprints.
    """
    early_exit = not cell.expect_violation
    if cell.engine == "systematic":
        report = explore(
            cell.scenario,
            depth_bound=cell.depth_bound,
            preemption_bound=cell.preemption_bound,
            budget=cell.budget,
            stop_on_violation=cell.expect_violation,
            early_exit=early_exit,
            reduction=cell.reduction,
            symmetry=cell.symmetry,
        )
        return CellOutcome(
            cell=cell,
            runs=report.runs,
            steps=report.steps,
            incomplete=report.incomplete,
            elapsed=report.elapsed,
            violations=list(report.violations),
            note="exhausted" if report.exhausted else "budget",
        )
    report = fuzz(
        cell.scenario,
        budget=cell.budget,
        shards=1,
        seed0=cell.seed0,
        stop_on_violation=cell.expect_violation,
        early_exit=early_exit,
    )
    return CellOutcome(
        cell=cell,
        runs=report.runs,
        steps=report.steps,
        incomplete=report.incomplete,
        elapsed=report.elapsed,
        violations=list(report.violations),
        note=f"{sum(report.violation_counts.values())} violating run(s)",
    )


def _run_indexed_cell(
    payload: Tuple[int, CampaignCell]
) -> Tuple[int, CellOutcome]:
    """Pool adapter: carry the matrix position alongside the outcome."""
    index, cell = payload
    return index, run_cell(cell)


def run_campaign(
    cells: Optional[Sequence[CampaignCell]] = None,
    shards: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    shrink_violations: bool = True,
    max_shrink_replays: int = 400,
    max_shrink_classes: int = 8,
    corpus_dir: Optional[Union[str, Path]] = None,
    corpus_source: str = "campaign",
) -> CampaignReport:
    """Run a differential campaign over ``cells``.

    Args:
        cells: Matrix cells (:func:`default_matrix` when omitted).
        shards: Worker processes (``explore.fuzzer.default_shards`` when
            omitted); 1 runs inline.
        progress: Optional sink for per-cell progress lines.
        shrink_violations: Minimize each discovered violation class.
        max_shrink_replays: Replay budget per shrink.
        max_shrink_classes: Cap on classes shrunk per campaign (the
            remainder is reported unshrunk, never silently dropped).
        corpus_dir: Where to persist shrunk entries (None: don't).
        corpus_source: Free-form provenance recorded in new entries.
    """
    cells = list(default_matrix() if cells is None else cells)
    if not cells:
        raise ConfigurationError("campaign needs at least one cell")
    shard_count = default_shards() if shards is None else max(1, shards)
    shard_count = min(shard_count, len(cells))
    report = CampaignReport(shards=shard_count)
    emit = progress or (lambda line: None)

    started = time.perf_counter()
    # Results are keyed by matrix position, not cell value: equal cells
    # (a caller may legitimately repeat one) must each keep their own
    # outcome in the aggregation.
    by_index: Dict[int, CellOutcome] = {}
    if shard_count == 1:
        for index, cell in enumerate(cells):
            outcome = run_cell(cell)
            by_index[index] = outcome
            emit(outcome.describe())
    else:
        with pool_context().Pool(processes=shard_count) as pool:
            for index, outcome in pool.imap_unordered(
                _run_indexed_cell, list(enumerate(cells))
            ):
                by_index[index] = outcome
                emit(outcome.describe())
    report.outcomes = [by_index[index] for index in range(len(cells))]
    report.elapsed = time.perf_counter() - started

    if shrink_violations:
        _shrink_and_persist(
            report,
            emit,
            max_shrink_replays,
            max_shrink_classes,
            corpus_dir,
            corpus_source,
        )
    return report


def canonicalize_violation(
    scenario: Scenario, violation: Violation
) -> Violation:
    """Re-derive a violation's reason from a full-horizon replay.

    Violations found by early-exit runs carry the *truncated* history's
    reason; the shrinker and the corpus replay at full horizon, where
    the same trace can accumulate further violating pairs and change
    the class fingerprint. One replay per class re-anchors the reason
    to what every later replay will see. Full-horizon finds replay to
    themselves (the determinism the corpus suite pins), so this is a
    no-op for them; an unreplayable violation is returned unchanged and
    left for :func:`repro.explore.shrink.shrink` to report.
    """
    from repro.explore.explorer import execute_trace

    try:
        record = execute_trace(scenario, violation.trace)
    except SchedulerError:
        return violation
    if record.violation is None:
        return violation
    return Violation(
        scenario=violation.scenario,
        reason=record.violation.reason,
        trace=violation.trace,
        schedule=violation.schedule,
        seed=violation.seed,
    )


def _shrink_and_persist(
    report: CampaignReport,
    emit: Callable[[str], None],
    max_shrink_replays: int,
    max_shrink_classes: int,
    corpus_dir,
    corpus_source: str,
) -> None:
    """Shrink one representative per violation class; persist to corpus.

    Classes are deduplicated across cells (the theorem29 race found by
    both engines shrinks once). Expected and *unexpected* violations
    are both shrunk — an unexpected one is exactly the counterexample
    worth a corpus entry and a bisection session; since unexpected ones
    come from early-exit cells, they are canonicalized to their
    full-horizon reason first (see :func:`canonicalize_violation`).
    """
    # Two-stage dedup. Stage 1 groups by the fingerprint the finder
    # reported. Stage 2: clean-expecting cells run with early exit
    # armed, so their (unexpected) violations carry truncated-history
    # reasons — canonicalize one representative per truncated class to
    # its full-horizon reason (one replay per class, not per violating
    # run) and re-key, so one defect found through several truncations
    # still shrinks once. Violation-expecting cells ran full-horizon —
    # their finds already are canonical, no replay needed.
    truncated: Dict[Tuple[str, str], Tuple[Scenario, Violation, bool]] = {}
    for outcome in report.outcomes:
        early_exit_cell = not outcome.cell.expect_violation
        for violation in outcome.violations:
            key = (outcome.cell.scenario.label(), violation.fingerprint())
            truncated.setdefault(
                key, (outcome.cell.scenario, violation, early_exit_cell)
            )
    representatives: Dict[Tuple[str, str], Tuple[Scenario, Violation]] = {}
    for (label, _), (scenario, violation, early_exit_cell) in truncated.items():
        if early_exit_cell:
            canonical = canonicalize_violation(scenario, violation)
            if canonical.fingerprint() != violation.fingerprint():
                emit(
                    f"canonicalized early-exit violation to "
                    f"full-horizon class {canonical.fingerprint()}"
                )
            violation = canonical
        representatives.setdefault(
            (label, violation.fingerprint()), (scenario, violation)
        )
    report.shrink_deferred = [
        violation.fingerprint()
        for _scenario, violation in list(representatives.values())[
            max_shrink_classes:
        ]
    ]
    if report.shrink_deferred:
        emit(
            f"shrinking first {max_shrink_classes} of "
            f"{len(representatives)} violation classes "
            f"({len(report.shrink_deferred)} deferred)"
        )
    for scenario, violation in list(representatives.values())[:max_shrink_classes]:
        try:
            shrunk = shrink(scenario, violation, max_replays=max_shrink_replays)
        except ValueError as exc:
            report.shrink_failures.append(f"{violation.fingerprint()}: {exc}")
            emit(f"shrink failed for {violation.fingerprint()}: {exc}")
            continue
        report.shrunk.append(shrunk)
        emit(f"  {shrunk.describe()}")
        if corpus_dir is None:
            continue
        entry = entry_from_shrunk(scenario, shrunk, source=corpus_source)
        path, written = save_entry(corpus_dir, entry)
        if written:
            report.corpus_written.append(str(path))
            emit(f"  corpus + {path}")
        else:
            report.corpus_existing += 1
            emit(f"  corpus = {path} (already recorded)")
