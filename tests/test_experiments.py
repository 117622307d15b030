"""The paper-facing tables E1–E12 reproduce their expected shapes.

One case per entry of ``repro.analysis.EXPERIMENTS``: run the driver at
the sizes ``python -m repro.analysis`` uses and assert the entry's
``holds`` — the same predicate the CLI prints PASS/FAIL from, so the
table is the one statement of what each experiment must show.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import EXPERIMENTS
from repro.analysis.__main__ import ALL_IDS
from repro.analysis.experiments import correctness_sweep, step_complexity_table
from repro.analysis.reporting import render_table
from tests.conftest import run_register


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_reproduces_its_expected_shape(exp_id):
    title, driver, holds = EXPERIMENTS[exp_id]
    headers, rows = driver()
    assert holds(headers, rows), "\n" + render_table(headers, rows, title=title)


# ----------------------------------------------------------------------
# The register tables and runs are pinned: the ``register`` builder is
# the only harness, and these literals fix what it produces, so a change
# to how a run is built, driven or judged shows up as a changed figure.
# ----------------------------------------------------------------------
def test_correctness_sweep_rows_pinned():
    headers, rows = correctness_sweep("verifiable", ns=(4,), seeds=(0, 1))
    assert headers == (
        "n", "f", "adversary", "runs", "correct", "mean verify steps", "max",
        "failure",
    )
    assert rows == [
        (4, 1, "none", 2, True, 211.5, 346, ""),
        (4, 1, "deny", 2, True, 230.6, 325, ""),
        (4, 1, "equivocate", 2, True, 278.5, 374, ""),
        (4, 1, "none+p2:lying", 2, True, 197.5, 514, ""),
        (4, 1, "none+p3:flipflop", 2, True, 206.5, 507, ""),
    ]


def test_step_complexity_rows_pinned():
    _headers, rows = step_complexity_table(ns=(4,), seeds=(0,))
    assert rows == [
        ("verifiable", 4, "read", 5, 12.8, 29),
        ("verifiable", 4, "sign", 2, 2.0, 2),
        ("verifiable", 4, "verify", 10, 218.3, 290),
        ("verifiable", 4, "write", 4, 14.5, 33),
        ("signed", 4, "read", 5, 4.2, 8),
        ("signed", 4, "sign", 2, 5.5, 10),
        ("signed", 4, "verify", 10, 12.0, 24),
        ("signed", 4, "write", 4, 9.0, 16),
        ("authenticated", 4, "read", 3, 268.7, 304),
        ("authenticated", 4, "verify", 12, 211.7, 315),
        ("authenticated", 4, "write", 6, 15.5, 34),
        ("sticky", 4, "read", 15, 213.0, 282),
        ("sticky", 4, "write", 1, 192.0, 192),
    ]


@pytest.mark.parametrize(
    "kind, digest, clock",
    [
        ("verifiable", "ec4665fcb98d2a4a", 1526),
        ("authenticated", "45f8f46ed2c3e69a", 2047),
        ("sticky", "74b4c4788adbb755", 2145),
        ("signed", "bb5986fd8de0529e", 448),
        ("naive-quorum", "f27c50229e93870a", 1108),
    ],
)
def test_register_run_history_pinned(kind, digest, clock):
    system, failure = run_register(kind, n=4, seed=0)
    assert failure is None, failure
    described = system.history.describe().encode()
    assert hashlib.sha256(described).hexdigest()[:16] == digest
    assert system.clock == clock
