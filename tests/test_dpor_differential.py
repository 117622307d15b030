"""Differential grid: sleep vs dpor vs dpor+symmetry (repro.explore.dpor).

The partial-order reductions are *heuristic in the strict sense* — the
fingerprint memo and the bounded deviation window mean their soundness
on the shipped scenario cells is pinned empirically, here, rather than
proven once.  Every cell in this grid runs the same bounded exploration
under sleep and dpor, and under dpor+symmetry too when it declares a
group of interchangeable pids (without one, ``explore`` refuses
dpor+symmetry: it would be plain dpor), and asserts:

* identical verdicts (violation found / certified clean), and
* identical violation *classes* — the sets of canonicalized
  :meth:`repro.explore.Violation.fingerprint` strings (digit-masked, so
  run-specific pids/op-ids collapse), not raw traces, because the
  reductions legitimately surface different representative
  interleavings of the same class.

Cell depths sit inside the verified regime.  At very tight horizons
(the broadcast families at ``depth_bound = 5``) dpor provably under-
approximates: it can only reverse races *inside* the deviation window,
while the sleep baseline's blind enumeration also shifts how the
uncontrolled round-robin completion tail aligns — see the "bounded
windows" paragraph of :mod:`repro.explore.dpor`.  The shipped campaign
cells all use ``depth_bound >= 6``, where parity holds on every family.

The f = 2 control cell doubles as the acceptance pin for the reduction
pay-off: dpor+symmetry must certify the n = 3f + 1 system clean with at
least 5x fewer executed runs *and* stepped states than the sleep
baseline, at the identical verdict.
"""

from __future__ import annotations

import pytest

import repro.scenarios.catalog  # noqa: F401  (registers the grid)
from repro import scenarios as registry
from repro.explore import explore, make_scenario, theorem29_symmetry

#: Large enough that every cell exhausts its bounded space; exhaustion
#: is asserted, so a drifting cell fails loudly instead of comparing
#: truncated frontiers.
BUDGET = 40_000

REDUCTION_GRID = ("sleep", "dpor", "dpor+symmetry")


def _record(label: str):
    for rec in registry.grid():
        if rec.label() == label:
            return rec
    raise AssertionError(f"scenario label missing from registry grid: {label}")


def _differential(spec, *, depth, preemption, symmetry=(), budget=BUDGET):
    """Run one cell under every reduction it admits; return reports by mode."""
    grouped = any(len(group) >= 2 for group in symmetry)
    reports = {}
    for reduction in REDUCTION_GRID if grouped else REDUCTION_GRID[:2]:
        reports[reduction] = explore(
            spec,
            budget=budget,
            depth_bound=depth,
            preemption_bound=preemption,
            reduction=reduction,
            symmetry=symmetry if reduction == "dpor+symmetry" else (),
        )
    return reports


def _assert_identical(reports, *, expect_violation):
    baseline = reports["sleep"]
    base_classes = {v.fingerprint() for v in baseline.violations}
    assert bool(base_classes) == expect_violation, (
        f"sleep baseline verdict drifted: {sorted(base_classes)}"
    )
    for reduction, report in reports.items():
        assert report.exhausted, (
            f"{reduction} did not exhaust within budget ({report.runs} runs)"
        )
        classes = {v.fingerprint() for v in report.violations}
        assert classes == base_classes, (
            f"{reduction} violation classes diverge from sleep: "
            f"{sorted(classes)} vs {sorted(base_classes)}"
        )
        # Reductions may only shrink the explored space, never grow it.
        assert report.runs <= baseline.runs
    return baseline


class TestTheorem29:
    def test_violating_f1(self):
        reports = _differential(
            make_scenario("theorem29", f=1),
            depth=14,
            preemption=2,
            symmetry=theorem29_symmetry(f=1),
        )
        _assert_identical(reports, expect_violation=True)

    def test_control_f2_certifies_with_5x_reduction(self):
        """The acceptance pin: n = 3f + 1 clean at >= 5x fewer states."""
        reports = _differential(
            make_scenario("theorem29", f=2, extra_correct=True),
            depth=12,
            preemption=2,
            symmetry=theorem29_symmetry(f=2, extra_correct=True),
        )
        sleep = _assert_identical(reports, expect_violation=False)
        folded = reports["dpor+symmetry"]
        assert folded.pruned_symmetry > 0
        assert sleep.runs >= 5 * folded.runs, (
            f"run reduction below 5x: {sleep.runs} vs {folded.runs}"
        )
        assert sleep.states >= 5 * folded.states, (
            f"state reduction below 5x: {sleep.states} vs {folded.states}"
        )


class TestBroadcastFamilies:
    """The deferred systematic cells: byzantine equivocation at n = 3."""

    def test_broadcast_violating(self):
        rec = _record(
            "broadcast/swarm:broadcast"
            "(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)"
        )
        reports = _differential(rec.spec, depth=6, preemption=2)
        baseline = _assert_identical(reports, expect_violation=True)
        # Four distinct violation classes survive canonicalization; the
        # reductions must find every one, not just one witness.
        assert len({v.fingerprint() for v in baseline.violations}) == 4

    def test_reliable_broadcast_violating(self):
        rec = _record(
            "reliable_broadcast/swarm:reliable_broadcast"
            "(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)"
        )
        reports = _differential(rec.spec, depth=6, preemption=2)
        _assert_identical(reports, expect_violation=True)


class TestRegisterFamilies:
    def test_naive_quorum_violating(self):
        rec = _record(
            "naive/swarm:register"
            "(kind=naive-quorum,n=4,reader_adversaries=((4, 'flipflop'),),seed=0)"
        )
        reports = _differential(rec.spec, depth=5, preemption=2)
        _assert_identical(reports, expect_violation=True)

    def test_verifiable_clean(self):
        rec = _record(
            "verifiable/swarm:register"
            "(kind=verifiable,n=4,reader_adversaries=(),seed=0,"
            "writer_adversary=none)"
        )
        reports = _differential(rec.spec, depth=4, preemption=2)
        _assert_identical(reports, expect_violation=False)


class TestNetworkedAndDerived:
    def test_mp_register_violating(self):
        """Networked scenario: message signatures degrade to sync, so
        dpor keeps soundness with a coarser independence relation."""
        rec = _record(
            "mp_emulation/swarm:mp_register"
            "(f=1,faults=(('drop', 1, 0, 1.0),),n=4,seed=0)"
        )
        reports = _differential(rec.spec, depth=4, preemption=2)
        _assert_identical(reports, expect_violation=True)

    def test_asset_transfer_violating(self):
        rec = _record(
            "asset_transfer/swarm:asset_transfer"
            "(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)"
        )
        reports = _differential(rec.spec, depth=3, preemption=1)
        _assert_identical(reports, expect_violation=True)

    def test_snapshot_clean(self):
        rec = _record(
            "snapshot/swarm:snapshot"
            "(byzantine=((3, 'deny'),),f=1,n=3,seed=0)"
        )
        reports = _differential(rec.spec, depth=3, preemption=2)
        _assert_identical(reports, expect_violation=False)


class TestPlumbing:
    def test_unknown_reduction_rejected(self):
        with pytest.raises(Exception):
            explore(
                make_scenario("theorem29", f=1),
                budget=1,
                depth_bound=2,
                reduction="odpor",
            )

    def test_deferred_broadcast_cells_pin_dpor(self):
        """The PR-7 deferral: the systematic broadcast cells only became
        tractable under dpor, and their records say so."""
        pinned = [
            rec
            for rec in registry.grid()
            if rec.engine == "systematic"
            and rec.family in ("broadcast", "reliable_broadcast")
        ]
        assert len(pinned) == 4
        assert all(rec.reduction == "dpor" for rec in pinned)
        # Everything older predates the field and stays on the baseline.
        assert all(
            rec.reduction == "sleep"
            for rec in registry.grid()
            if rec not in pinned
        )
