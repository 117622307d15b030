"""Tests for the analysis layer: workloads, metrics, reporting, drivers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    LatencyStats,
    merge_latency_samples,
    operation_latencies,
    render_table,
)
from repro.scenarios.bindings import binding_for_kind
from repro.scenarios.registers import make_register, random_register_workload
from repro.errors import ConfigurationError
from repro.sim import System
from tests.conftest import run_register


class TestMakeRegister:
    @pytest.mark.parametrize(
        "kind", ["verifiable", "authenticated", "sticky", "signed", "naive-quorum"]
    )
    def test_all_kinds_constructible(self, kind):
        system = System(n=4)
        register = make_register(kind, system, "x")
        register.install()
        assert register.name == "x"

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_register("quantum", System(n=4))

    def test_rules_for_all_kinds(self):
        for kind in ("verifiable", "authenticated", "sticky", "signed"):
            rules = binding_for_kind(kind).rules
            assert callable(rules.properties) and callable(rules.synthesize)


class TestWorkloadGeneration:
    def test_deterministic(self):
        w1 = random_register_workload("verifiable", [2, 3], seed=5)
        w2 = random_register_workload("verifiable", [2, 3], seed=5)
        assert w1.writer_ops == w2.writer_ops
        assert w1.reader_ops == w2.reader_ops

    def test_seed_changes_workload(self):
        w1 = random_register_workload("verifiable", [2, 3], seed=1)
        w2 = random_register_workload("verifiable", [2, 3], seed=2)
        assert (w1.writer_ops, w1.reader_ops) != (w2.writer_ops, w2.reader_ops)

    def test_sticky_vocabulary(self):
        workload = random_register_workload("sticky", [2], seed=0)
        assert all(op == "write" for op, _ in workload.writer_ops)
        assert all(
            op == "read" for ops in workload.reader_ops.values() for op, _ in ops
        )

    def test_verifiable_vocabulary(self):
        workload = random_register_workload("verifiable", [2, 3], seed=3)
        writer_names = {op for op, _ in workload.writer_ops}
        assert writer_names <= {"write", "sign"}
        reader_names = {
            op for ops in workload.reader_ops.values() for op, _ in ops
        }
        assert reader_names <= {"read", "verify"}


class TestScenarioRunner:
    @pytest.mark.parametrize("kind", ["verifiable", "authenticated", "sticky"])
    def test_clean_runs_pass(self, kind):
        system, failure = run_register(kind, n=4, seed=0)
        assert failure is None, failure
        assert system.clock > 0

    def test_byzantine_writer_scenarios_pass(self):
        system, failure = run_register(
            "verifiable", n=4, seed=2, writer_adversary="deny"
        )
        assert failure is None, failure
        assert system.byzantine == {1}

    def test_byzantine_reader_scenarios_pass(self):
        system, failure = run_register(
            "verifiable", n=4, seed=1, reader_adversaries=((3, "lying"),)
        )
        assert failure is None, failure
        assert system.byzantine == {3}

    def test_coordinates_replayable(self):
        first, _ = run_register("authenticated", n=4, seed=7)
        second, _ = run_register("authenticated", n=4, seed=7)
        # Identical coordinates -> identical histories.
        assert first.history.describe() == second.history.describe()


class TestMetrics:
    def test_latency_stats(self):
        stats = LatencyStats.from_samples([10, 20, 30, 40])
        assert stats.count == 4
        assert stats.mean == 25
        assert stats.maximum == 40

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats.from_samples([])

    def test_operation_latencies(self):
        system, _ = run_register("verifiable", n=4, seed=0)
        samples = operation_latencies(system.history, obj="reg", pids=system.correct)
        assert samples  # at least one op type sampled
        for op, values in samples.items():
            assert all(v >= 1 for v in values), op

    def test_merge(self):
        merged = merge_latency_samples(
            [{"read": [1, 2]}, {"read": [3], "verify": [4]}]
        )
        assert merged == {"read": [1, 2, 3], "verify": [4]}

    def test_register_access_totals(self):
        # The per-run totals the benchmark reports are the kernel's counters.
        system, _ = run_register("verifiable", n=4, seed=0)
        assert system.metrics.reads > 0 and system.metrics.writes > 0


class TestReporting:
    def test_render_alignment(self):
        table = render_table(
            ["col", "value"],
            [["a", 1], ["long-name", 22.5]],
            title="T",
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "long-name" in table
        assert "22.5" in table

    def test_bool_rendering(self):
        table = render_table(["x"], [[True], [False]])
        assert "yes" in table and "no" in table
