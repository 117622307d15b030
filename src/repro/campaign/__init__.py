"""Differential conformance campaigns with a persistent violation corpus.

This subpackage is the verification backbone on top of
``repro.explore``: instead of exploring one hand-picked scenario, a
*campaign* runs a whole matrix — every ``repro.core`` implementation
family × scenario × engine — through the exploration engines, checks
each run differentially against the matching ``repro.spec`` sequential
specification, and compares the findings with what the paper proves for
that cell (Algorithms 1–3 clean; the naive strawman broken by the
flip-flop collusion; test-or-set violating at ``n = 3f`` and clean at
``n = 3f + 1``).

Every violation is auto-shrunk and persisted into a versioned on-disk
corpus (``corpus/*.json``) that ``tests/test_corpus_replay.py`` replays
as a pytest-parametrized regression suite, so a counterexample found
once can never silently regress.

Quickstart (a matrix runs through the campaign service)::

    from repro.campaign import default_matrix
    from repro.service import run_service_campaign

    result = run_service_campaign(
        default_matrix(smoke=True), workers=1, corpus_dir="corpus"
    )
    print(result.summary())
    assert result.ok  # every cell matched the paper's expectation

The CLI front end is ``python -m repro.analysis campaign``.
"""

from repro.campaign.corpus import (
    CORPUS_VERSION,
    CorpusEntry,
    ReplayOutcome,
    default_corpus_dir,
    entry_from_shrunk,
    entry_id_for,
    load_corpus,
    replay_entry,
    save_entry,
    thaw_params,
)
from repro.campaign.matrix import (
    CampaignCell,
    CellOutcome,
    default_matrix,
    run_cell,
)

# Registry-owned, re-exported under their campaign names: the engines a
# cell may run, and the sequential specification a family's runs are
# judged against (the one family→oracle table).
from repro.scenarios.bindings import oracle_for
from repro.scenarios.registry import ENGINES


def __getattr__(name: str):
    # IMPLEMENTATIONS is registry-derived and computed on access (see
    # repro.campaign.matrix.__getattr__) — a static re-import here
    # would snapshot it and hide later registrations.
    if name == "IMPLEMENTATIONS":
        from repro.campaign import matrix

        return matrix.IMPLEMENTATIONS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CORPUS_VERSION",
    "CampaignCell",
    "CellOutcome",
    "CorpusEntry",
    "ENGINES",
    "IMPLEMENTATIONS",
    "ReplayOutcome",
    "default_corpus_dir",
    "default_matrix",
    "entry_from_shrunk",
    "entry_id_for",
    "load_corpus",
    "oracle_for",
    "replay_entry",
    "run_cell",
    "save_entry",
    "thaw_params",
]
