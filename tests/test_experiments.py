"""The paper-facing tables E1–E12 reproduce their expected shapes.

One case per entry of ``repro.analysis.EXPERIMENTS``: run the driver at
the sizes ``python -m repro.analysis`` uses and assert the entry's
``holds`` — the same predicate the CLI prints PASS/FAIL from, so the
table is the one statement of what each experiment must show.
"""

from __future__ import annotations

import pytest

from repro.analysis import EXPERIMENTS
from repro.analysis.__main__ import ALL_IDS
from repro.analysis.reporting import render_table


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_reproduces_its_expected_shape(exp_id):
    title, driver, holds = EXPERIMENTS[exp_id]
    headers, rows = driver()
    assert holds(headers, rows), "\n" + render_table(headers, rows, title=title)
