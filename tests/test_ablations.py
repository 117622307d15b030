"""Tests for the mechanism ablations (E11a, E11b, E12).

Each ablation disables one design element the paper argues for and
demonstrates the concrete failure the element prevents — then confirms
the paper's version survives the identical adversary and schedule.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    ablation_naive_quorum,
    ablation_set0_reset,
    ablation_sticky_write_wait,
)


class TestNaiveQuorumAblation:
    """E11a — §5.1's 'first 2f+1 replies vs threshold' Verify."""

    def test_naive_breaks_relay_paper_does_not(self):
        headers, rows = ablation_naive_quorum(seed=0)
        outcome = {row[0]: (row[1], row[2], row[3]) for row in rows}
        naive_a, naive_b, naive_relay = outcome["naive-quorum"]
        paper_a, paper_b, paper_relay = outcome["verifiable"]
        # Same adversary, same schedule:
        assert naive_a is True and naive_b is False and naive_relay is False
        assert paper_a is True and paper_b is True and paper_relay is True


class TestSet0ResetAblation:
    """E11b — Lemma 37(3)'s liveness mechanism."""

    def test_reset_gives_termination(self):
        headers, rows = ablation_set0_reset()
        outcome = {row[0]: (row[1], row[2]) for row in rows}
        terminated, result = outcome["with set0 reset (paper)"]
        assert terminated is True and result is True
        terminated, _ = outcome["without reset (ablated)"]
        assert terminated is False


class TestStickyWriteWaitAblation:
    """E12 — §9.1's 'the writer must wait for n - f witnesses'."""

    def test_wait_gives_validity(self):
        headers, rows = ablation_sticky_write_wait()
        outcome = {row[0]: row[2] for row in rows}
        assert outcome["with n-f wait (paper)"] is True
        assert outcome["without wait (ablated)"] is False
