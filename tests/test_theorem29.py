"""Tests for the executable Theorem 29 / Figure 1 construction.

The reproduction's impossibility half: at ``n = 3f`` the quorum
candidate breaks a Lemma 28 property for *every* acceptance threshold,
with pb's views of H2 and H3 indistinguishable; at ``n = 3f + 1`` the
attack collapses.
"""

from __future__ import annotations

import pytest

from repro.adversary import Roles, run_figure1, run_h2, run_h3


class TestRoles:
    def test_n_equals_3f(self):
        for f in (1, 2, 3):
            roles = Roles.for_f(f)
            assert roles.n == 3 * f
            assert len(roles.q1) == f - 1
            assert len(roles.q2) == f - 1
            assert len(roles.q3) == f - 1

    def test_control_adds_one_correct(self):
        roles = Roles.for_f(2, extra_correct=True)
        assert roles.n == 7
        assert len(roles.q2) == 2

    def test_distinct_pids(self):
        roles = Roles.for_f(3)
        pids = [roles.setter, roles.pa, roles.pb, *roles.q1, *roles.q2, *roles.q3]
        assert len(pids) == len(set(pids)) == roles.n

    def test_f_zero_rejected(self):
        with pytest.raises(ValueError):
            Roles.for_f(0)


class TestTheoremRegime:
    """n = 3f: the impossibility must materialize."""

    @pytest.mark.parametrize("f", [1, 2])
    def test_default_threshold_breaks_relay(self, f):
        outcome = run_figure1(f=f)
        assert outcome.n == 3 * f
        assert outcome.h1_test_result == 1  # Lemma 28(1) forces this
        assert outcome.indistinguishable  # pb cannot tell H2 from H3
        assert "H2" in outcome.violated  # relay / Lemma 28(3) broke

    @pytest.mark.parametrize("f", [1, 2])
    def test_lowered_threshold_breaks_unforgeability(self, f):
        outcome = run_figure1(f=f, accept_threshold=f)
        assert outcome.indistinguishable
        assert "H3" in outcome.violated  # Lemma 28(2) broke

    @pytest.mark.parametrize("f", [1, 2])
    def test_every_threshold_fails(self, f):
        """The theorem's quantifier: no threshold escapes."""
        n = 3 * f
        for tau in range(1, n + 1):
            outcome = run_figure1(f=f, accept_threshold=tau)
            assert outcome.violated, (
                f"threshold {tau} at n={n}, f={f} escaped the construction"
            )


class TestControlRegime:
    """n = 3f + 1: the same attacks must fail."""

    @pytest.mark.parametrize("f", [1, 2])
    def test_no_violation(self, f):
        outcome = run_figure1(f=f, extra_correct=True)
        assert outcome.n == 3 * f + 1
        assert outcome.h1_test_result == 1
        assert not outcome.violated

    @pytest.mark.parametrize("f", [1, 2])
    def test_views_distinguishable(self, f):
        # The legal H3 adversary (size f) cannot replay H2's state: one
        # raised witness flag belongs to a correct process it cannot
        # impersonate — so pb's outcomes differ.
        outcome = run_figure1(f=f, extra_correct=True)
        assert not outcome.indistinguishable
        assert outcome.h2_test_result == 1  # relay honoured
        assert outcome.h3_test_result == 0  # forgery rejected


class TestHistoriesIndividually:
    def test_h2_prefix_is_h1(self):
        system, _tos, roles, pa_result, _pb = run_h2(f=1)
        assert pa_result == 1
        # The recorded history contains s's Set and pa's Test -> 1.
        sets = system.history.operations(obj="tos", op="set")
        tests = system.history.operations(obj="tos", op="test", pid=roles.pa)
        assert len(sets) == 1 and sets[0].result == "done"
        assert len(tests) == 1 and tests[0].result == 1

    def test_h2_verdict_names_relay(self):
        outcome = run_figure1(f=1)
        assert outcome.h2_reason is not None
        assert "[relay (Lemma 28.3)]" in outcome.h2_reason

    def test_h3_correct_setter_never_set(self):
        system, _tos, roles, _pb = run_h3(f=1)
        assert system.history.operations(obj="tos", op="set") == []

    def test_h2_byzantine_registers_reset(self):
        system, tos, roles, _pa, _pb = run_h2(f=1)
        # After the run, s and Q1's registers are back at initial values.
        assert system.registers.peek(tos.reg_flag()) == 0
        assert system.registers.peek(tos.reg_witness(roles.setter)) == 0
