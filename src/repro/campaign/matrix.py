"""Differential conformance campaigns over the implementation matrix.

Where ``repro.explore`` searches the schedule space of *one* scenario,
a *campaign* quantifies over the other axes of the paper's claims too:
it builds a matrix of cells — (implementation × scenario × engine ×
parameters) — covering every ``repro.core`` implementation family
(:data:`IMPLEMENTATIONS`), runs each cell through :func:`run_cell`, and
*differentially* judges it: every run's history is checked
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

A matrix runs through the campaign service
(:func:`repro.service.run_service_campaign`): its workers execute the
cells, and any violation they find is auto-shrunk
(:mod:`repro.explore.shrink`) and persisted into the replayable corpus
(:mod:`repro.campaign.corpus`), so each discovered counterexample
becomes a standing regression test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.explore.explorer import explore
from repro.explore.fuzzer import fuzz
from repro.scenarios import registry as _registry
from repro.scenarios.registry import Scenario, Violation


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


#: The note of a cell whose scenario refused to build, before the error.
ERROR_NOTE = "error: "


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
    #: Systematic-engine reduction mode, ``"sleep"`` or ``"dpor"`` (see
    #: ``repro.explore.explore``); swarm cells ignore it.
    reduction: str = "sleep"

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
    #: For a cell that could not run at all (its scenario failed to
    #: build), :data:`ERROR_NOTE` and the error; such a cell is never
    #: ok — no run is no certificate.
    note: str = ""

    @property
    def ok(self) -> bool:
        """Whether the cell matched its differential expectation."""
        return (
            not self.note.startswith(ERROR_NOTE)
            and bool(self.violations) == self.cell.expect_violation
        )

    @property
    def class_fingerprints(self) -> List[str]:
        """The cell's distinct violation classes, sorted."""
        return sorted({violation.fingerprint() for violation in self.violations})

    def describe(self) -> str:
        """One progress line for the CLI (see :func:`verdict_line`)."""
        return verdict_line(
            self.cell.label(),
            self.class_fingerprints,
            self.ok,
            self.runs,
            self.elapsed,
            self.note,
        )


def verdict_line(
    label: str,
    class_fingerprints: Sequence[str],
    ok: bool,
    runs: int,
    elapsed: float,
    note: str,
) -> str:
    """The one progress line of a cell verdict.

    A worker prints it as a cell finishes and ``watch`` prints it from
    the recorded row, so it takes only what the row keeps. A cell that
    could not run reads as its error note. Liveness verdicts are worded
    apart from safety breaks: a cell whose classes are all ``STALLED``
    diagnoses (the digit-masked ``STALLED:`` reason survives in the
    fingerprint) reads "stall class(es)", a mix annotates how many of
    the classes are stalls.
    """
    if note.startswith(ERROR_NOTE):
        return f"{label}: {note} (UNEXPECTED)"
    classes = len(class_fingerprints)
    stalls = sum(1 for fp in class_fingerprints if "STALLED:" in fp)
    if not classes:
        found = "clean"
    elif stalls == classes:
        found = f"{classes} stall class(es)"
    elif stalls:
        found = f"{classes} violation class(es), {stalls} stall(s)"
    else:
        found = f"{classes} violation class(es)"
    verdict = "as expected" if ok else "UNEXPECTED"
    rate = runs / elapsed if elapsed > 0 else 0.0
    return f"{label}: {found} ({verdict}) in {runs} runs, {rate:.0f} runs/s"


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
            )
        )
    return cells


def run_cell(cell: CampaignCell) -> CellOutcome:
    """Worker entry point: execute one matrix cell to completion.

    This is *the* cell-execution path: every ``repro.service`` worker,
    inline or in a subprocess, calls it, which is what makes a cell's
    verdict a pure function of its spec — byte-identical however and
    wherever it is executed.

    Swarm cells run a :func:`repro.explore.fuzzer.fuzz` campaign in
    this process — parallelism is across cells, so a cell's findings
    stay a deterministic function of its spec. Cells that *expect* a
    violation stop at the first hit; the find is what matters, and the
    shrinker minimizes it afterwards.

    Every cell shares one :class:`repro.spec.CheckContext` across its
    runs (built inside the engine, so it never crosses a process
    boundary). Every run is driven to its horizon and judged there, so
    a find's reason is the one the shrinker and the corpus replay see.
    """
    if cell.engine == "systematic":
        report = explore(
            cell.scenario,
            depth_bound=14,
            preemption_bound=2,
            budget=cell.budget,
            stop_on_violation=cell.expect_violation,
            reduction=cell.reduction,
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
        seed0=cell.seed0,
        stop_on_violation=cell.expect_violation,
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
