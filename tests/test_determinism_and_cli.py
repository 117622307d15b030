"""Determinism guarantees and the command-line experiment runner.

Reproducibility is a design pillar: identical seeds must
give bit-identical histories, or failure coordinates printed by the
harness would be useless. These tests pin that contract, plus the
``python -m repro.analysis`` entry point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.__main__ import ALL_IDS, main
from tests.conftest import run_register


class TestDeterminism:
    @given(
        kind=st.sampled_from(["verifiable", "authenticated", "sticky"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_identical_seeds_identical_histories(self, kind, seed):
        first, _ = run_register(kind, n=4, seed=seed)
        second, _ = run_register(kind, n=4, seed=seed)
        assert first.history.describe() == second.history.describe()
        assert first.clock == second.clock

    def test_different_seeds_differ(self):
        a, _ = run_register("verifiable", n=4, seed=0)
        b, _ = run_register("verifiable", n=4, seed=1)
        assert a.history.describe() != b.history.describe()

    def test_adversarial_runs_deterministic(self):
        a, _ = run_register("verifiable", n=4, seed=5, writer_adversary="deny")
        b, _ = run_register("verifiable", n=4, seed=5, writer_adversary="deny")
        assert a.history.describe() == b.history.describe()

    def test_theorem29_deterministic(self):
        from repro.adversary import run_figure1

        first = run_figure1(f=1)
        second = run_figure1(f=1)
        assert first.describe() == second.describe()


class TestCommandLine:
    def test_known_ids_registered(self):
        from repro.analysis import EXPERIMENTS

        for exp_id in ALL_IDS:
            title, driver, holds = EXPERIMENTS[exp_id]
            assert title.startswith(exp_id) and callable(driver) and callable(holds)

    def test_unknown_id_rejected(self, capsys):
        assert main(["E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_subset_run_passes(self, capsys):
        # E12 is the fastest experiment; it must PASS through the CLI.
        assert main(["E12"]) == 0
        out = capsys.readouterr().out
        assert "[E12] PASS" in out
        assert "reproduce their expected shapes" in out

    def test_e11_cli_shape(self, capsys):
        assert main(["E11"]) == 0
        out = capsys.readouterr().out
        assert "[E11] PASS" in out

    def test_lower_case_accepted(self, capsys):
        assert main(["e12"]) == 0

    def test_list_names_every_subcommand(self, capsys):
        from repro.analysis.__main__ import SUBCOMMANDS

        assert set(SUBCOMMANDS) == {"explore", "campaign", "scenarios", "net"}
        assert main(["--list"]) == 0
        listed = {
            line.split()[0] for line in capsys.readouterr().out.splitlines()
        }
        assert set(SUBCOMMANDS) <= listed
