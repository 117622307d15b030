"""Experiment harness: the experiment table, metrics, text tables, CLI.

The top of the package order: everything here imports downward
(``repro.scenarios`` for workloads and registry records, the engines,
the campaign and service layers), and nothing below imports it.
:data:`EXPERIMENTS` is the interface to the paper-facing tables (the
drivers behind it live in :mod:`repro.analysis.experiments`);
``python -m repro.analysis`` is the CLI over all of it.
"""

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.metrics import (
    LatencyStats,
    merge_latency_samples,
    operation_latencies,
    register_access_totals,
)
from repro.analysis.reporting import render_table

__all__ = [
    "EXPERIMENTS",
    "LatencyStats",
    "merge_latency_samples",
    "operation_latencies",
    "register_access_totals",
    "render_table",
]
