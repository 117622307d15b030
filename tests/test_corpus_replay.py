"""Replay the committed violation corpus (corpus/*.json).

Every corpus entry is a shrunk counterexample some campaign once found:
a scenario spec plus a minimized scheduler decision trace whose fair
completion violated a named property. This suite replays each entry
through :class:`repro.sim.TraceScheduler` and asserts the *same
violation class* reappears — so a past counterexample can never
silently regress: if a change to the simulator, the schedulers, the
scenario builders or the spec checkers makes an entry stop reproducing
(or drift to a different violation class), the parametrized test for
that entry fails with the recorded reason.

To intentionally retire an entry (e.g. after fixing a strawman), delete
its JSON file in the same change and say why in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import load_corpus, replay_entry
from repro.spec import CheckContext

#: The committed corpus at the repository root.
CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

ENTRIES = load_corpus(CORPUS_DIR)

#: Shared oracle caches across every replay of the suite (ROADMAP item
#: (c): memo tables persist across corpus replays).
REPLAY_CTX = CheckContext()


def test_corpus_is_committed_and_nonempty():
    """The repo ships its known counterexamples; an empty corpus means
    the campaign layer lost them."""
    assert ENTRIES, f"no corpus entries under {CORPUS_DIR}"


def test_corpus_entry_ids_are_unique():
    ids = [entry.entry_id for entry in ENTRIES]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.label())
def test_corpus_entry_still_reproduces(entry):
    outcome = replay_entry(entry, ctx=REPLAY_CTX)
    assert outcome.ok, (
        f"corpus entry {entry.label()} regressed: {outcome.detail}\n"
        f"recorded reason: {entry.reason}\n"
        f"recorded trace: {list(entry.trace)}"
    )


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.label())
def test_corpus_entry_reason_is_what_its_replay_prints(entry):
    """The class fingerprint masks operation indices and times, so a
    stored reason can go stale while its class still matches; the
    stored text must be the one its replay prints."""
    outcome = replay_entry(entry, ctx=REPLAY_CTX)
    assert outcome.violation is not None, outcome.detail
    assert outcome.violation.reason == entry.reason


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.label())
def test_corpus_file_is_its_entrys_canonical_document(entry):
    """Each file holds exactly what ``save_entry`` writes for its loaded
    entry: a stray key or a hand edit fails here, not at the next save."""
    text = (CORPUS_DIR / entry.file_name()).read_text()
    assert text == json.dumps(entry.to_json(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.label())
def test_corpus_replay_is_deterministic(entry):
    """Two replays of the same trace must agree event for event — the
    property the whole record/replay corpus rests on."""
    # Deliberately one cached and one cache-less replay: the context
    # must be a pure accelerator, never a semantic knob.
    first = replay_entry(entry, ctx=REPLAY_CTX)
    second = replay_entry(entry)
    assert first.ok and second.ok
    assert first.violation.reason == second.violation.reason
    assert first.violation.trace == second.violation.trace
