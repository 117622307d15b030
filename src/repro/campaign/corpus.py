"""The persistent violation corpus: shrunk counterexamples on disk.

Every violation a campaign (or any exploration run) shrinks can be
serialized into a *corpus entry* — a small versioned JSON document
holding the scenario spec, the minimized decision trace, the violated
property and the violation's class fingerprint. The corpus directory
(``corpus/`` at the repository root) is committed, and
``tests/test_corpus_replay.py`` replays every entry through
:class:`repro.sim.TraceScheduler` on each test run, so a counterexample
found once can never silently regress: if a later change re-opens the
schedule hole (or breaks determinism of the replay), the parametrized
regression test for that entry fails with the original reason.

Entry identity is the pair ``(scenario label, violation fingerprint)``
hashed into a short stable id, so re-running a campaign does not churn
the corpus: a class that is already recorded is skipped (its committed —
and therefore already reviewed — trace wins over the fresh one).

Promotion path: a corpus entry is the mechanical form of a regression;
to turn one into a *named* test, replay its trace exactly as
:func:`replay_entry` does —
``entry.scenario_spec().build(TraceScheduler(prefix=entry.trace))`` —
and assert on the run (see README "Campaigns & corpus").
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

from repro.errors import ConfigurationError, SchedulerError
from repro.explore.explorer import execute_trace
from repro.explore.shrink import ShrunkViolation
from repro.scenarios.registry import (
    Scenario,
    Violation,
    known_scenarios,
    resolve_spec,
)

#: Corpus on-disk format version; bump on incompatible layout changes.
#: The loader rejects entries from other versions loudly instead of
#: replaying them wrongly.
CORPUS_VERSION = 1


def _thaw(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_thaw(item) for item in value)
    if isinstance(value, dict):
        raise ConfigurationError(f"a scenario param cannot hold an object: {value!r}")
    return value


def thaw_params(raw: Any) -> Tuple[Tuple[str, Any], ...]:
    """Scenario params back from their JSON ``[[name, value], ...]`` form.

    Scenario params are hashable tuples (e.g. ``reader_adversaries``
    pair lists); JSON round-trips them as lists, which would change the
    scenario label and break fingerprint matching, so arrays are turned
    back into tuples recursively. No param holds a JSON object, so one
    is refused here rather than as an unhashable spec — as is anything
    but a list of ``[string, value]`` pairs.
    """
    if not isinstance(raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
        for pair in raw
    ):
        raise ConfigurationError(
            f"scenario params must be [name, value] pairs, got {raw!r}"
        )
    return tuple((key, _thaw(value)) for key, value in raw)


@dataclass(frozen=True)
class CorpusEntry:
    """One shrunk counterexample, ready for replay.

    ``trace`` is a decision-index prefix for
    :class:`repro.sim.TraceScheduler` (the round-robin completion after
    the prefix is implicit) and the only form of the schedule an entry
    stores.
    """

    entry_id: str
    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    trace: Tuple[int, ...]
    reason: str
    fingerprint: str
    schedule: str = ""
    source: str = ""
    version: int = CORPUS_VERSION

    def scenario_spec(self) -> Scenario:
        """The scenario this entry replays against.

        Resolved through the unified registry: the recorded params are
        preserved verbatim (labels and fingerprints were derived from
        them), and the scenario name must still be a registered builder.
        """
        return resolve_spec(self.scenario, self.params)

    def file_name(self) -> str:
        """Stable corpus file name for this entry."""
        return f"{self.scenario}-{self.entry_id}.json"

    def label(self) -> str:
        """Human-readable identity for test ids and reports."""
        return f"{self.scenario_spec().label()}#{self.entry_id}"

    def to_json(self) -> dict:
        """The JSON document this entry serializes to."""
        return {
            "version": self.version,
            "entry_id": self.entry_id,
            "scenario": self.scenario,
            "params": [[key, value] for key, value in self.params],
            "trace": list(self.trace),
            "reason": self.reason,
            "fingerprint": self.fingerprint,
            "schedule": self.schedule,
            "source": self.source,
        }

    @classmethod
    def from_json(cls, data: Any) -> "CorpusEntry":
        """Parse one corpus document, validating shape, version and scenario."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"corpus entry must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version")
        if version != CORPUS_VERSION:
            raise ConfigurationError(
                f"corpus entry has version {version!r}, this loader "
                f"understands version {CORPUS_VERSION}"
            )
        scenario = data["scenario"]
        if scenario not in known_scenarios():
            raise ConfigurationError(
                f"corpus entry references unknown scenario {scenario!r}; "
                f"known: {', '.join(known_scenarios())}"
            )
        # Resolved here so an entry whose params its builder refuses is
        # refused at load, with its file named, not at replay.
        params = resolve_spec(scenario, thaw_params(data["params"])).params
        return cls(
            entry_id=data["entry_id"],
            scenario=scenario,
            params=params,
            trace=tuple(int(index) for index in data["trace"]),
            reason=data["reason"],
            fingerprint=data["fingerprint"],
            schedule=data.get("schedule", ""),
            source=data.get("source", ""),
        )


def entry_id_for(scenario: Scenario, fingerprint: str) -> str:
    """Deterministic short id of a violation class in a scenario."""
    digest = hashlib.blake2b(
        f"{scenario.label()}:{fingerprint}".encode(), digest_size=6
    )
    return digest.hexdigest()


def entry_from_shrunk(
    scenario: Scenario, shrunk: ShrunkViolation, source: str = ""
) -> CorpusEntry:
    """Package a shrunk violation as a corpus entry."""
    fingerprint = Violation(
        scenario=scenario.label(), reason=shrunk.reason, trace=shrunk.trace
    ).fingerprint()
    return CorpusEntry(
        entry_id=entry_id_for(scenario, fingerprint),
        scenario=scenario.name,
        params=scenario.params,
        trace=shrunk.trace,
        reason=shrunk.reason,
        fingerprint=fingerprint,
        schedule=shrunk.original.schedule,
        source=source,
    )


def default_corpus_dir() -> Path:
    """The repository's committed ``corpus/`` when run from a source tree.

    Walks up from this file looking for the project root (marked by
    ``setup.py`` or ``.git``); falls back to ``./corpus`` for installed
    packages, where the caller should pass an explicit directory.
    """
    for parent in Path(__file__).resolve().parents:
        if (parent / "setup.py").exists() or (parent / ".git").exists():
            return parent / "corpus"
    return Path("corpus")


def save_entry(
    corpus_dir: Union[str, Path], entry: CorpusEntry
) -> Tuple[Path, bool]:
    """Write ``entry`` into ``corpus_dir``; returns ``(path, written)``.

    An existing file for the same violation class is left untouched —
    the committed trace is the reviewed one, and keeping it stable
    avoids corpus churn across campaign runs.
    """
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / entry.file_name()
    if path.exists():
        return path, False
    # Atomic write: a campaign interrupted mid-save must never leave a
    # truncated entry behind (load_corpus raises on malformed files,
    # which would fail the replay suite at collection time).
    staging = path.with_suffix(".json.tmp")
    staging.write_text(
        json.dumps(entry.to_json(), indent=2, sort_keys=True) + "\n"
    )
    os.replace(staging, path)
    return path, True


def load_corpus(corpus_dir: Union[str, Path]) -> List[CorpusEntry]:
    """Load every ``*.json`` entry of ``corpus_dir``, sorted by file name.

    A missing directory is an empty corpus; a malformed or
    wrong-version entry raises with the offending file named.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    entries: List[CorpusEntry] = []
    for path in sorted(corpus_dir.glob("*.json")):
        try:
            entries.append(CorpusEntry.from_json(json.loads(path.read_text())))
        except (
            KeyError, TypeError, ValueError, OverflowError, ConfigurationError
        ) as exc:
            raise ConfigurationError(f"bad corpus entry {path}: {exc}") from exc
    return entries


@dataclass
class ReplayOutcome:
    """Result of replaying one corpus entry."""

    entry: CorpusEntry
    ok: bool
    violation: Optional[Violation] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def replay_entry(entry: CorpusEntry, ctx=None) -> ReplayOutcome:
    """Replay ``entry``'s trace; the same violation must reappear.

    The trace is forced through a :class:`repro.sim.TraceScheduler`
    (with the usual fair round-robin completion) against a fresh build
    of the entry's scenario. Five failure shapes are distinguished:
    the prefix no longer realizable, the step limit hit, the run clean,
    the violation drifted to a different class, or the same class with
    a reason other than the stored one (the class masks the operation
    indices and times that the reason prints, so only this check sees
    the timeline move). Pass one :class:`repro.spec.CheckContext`
    as ``ctx`` when replaying a batch of entries, so the oracle layer's
    memo tables persist across the replays.
    """
    scenario = entry.scenario_spec()
    try:
        record = execute_trace(
            scenario,
            entry.trace,
            schedule_label=f"corpus:{entry.entry_id}",
            ctx=ctx,
        )
    except SchedulerError as exc:
        return ReplayOutcome(
            entry=entry, ok=False, detail=f"trace no longer realizable: {exc}"
        )
    if not record.completed:
        return ReplayOutcome(
            entry=entry,
            ok=False,
            detail=(
                f"replay exceeded the step limit after {record.steps} steps "
                "(non-termination, not a spec drift)"
            ),
        )
    if record.violation is None:
        return ReplayOutcome(
            entry=entry,
            ok=False,
            detail=(
                "trace no longer violates; expected "
                f"{entry.fingerprint!r} ({entry.reason})"
            ),
        )
    if record.violation.fingerprint() != entry.fingerprint:
        return ReplayOutcome(
            entry=entry,
            ok=False,
            violation=record.violation,
            detail=(
                f"violation drifted: expected {entry.fingerprint!r}, "
                f"got {record.violation.fingerprint()!r}"
            ),
        )
    if record.violation.reason != entry.reason:
        return ReplayOutcome(
            entry=entry,
            ok=False,
            violation=record.violation,
            detail=(
                f"reason drifted: stored {entry.reason!r}, "
                f"replay prints {record.violation.reason!r}"
            ),
        )
    return ReplayOutcome(entry=entry, ok=True, violation=record.violation)
