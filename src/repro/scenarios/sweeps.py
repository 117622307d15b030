"""Registry-owned adversary-behaviour grids (the E1–E3 sweep axis).

``SWEEP_ADVERSARIES`` is the canonical per-register-kind list of
``(writer_adversary, reader_adversaries)`` mixes that the randomized
correctness sweeps (``repro.analysis.experiments``),
``repro.scenarios.registers.adversary_grid`` and the campaign's register
cells all cycle through, each after :func:`feasible_mixes` has dropped
what does not fit the topology.

``EXTRA_SWEEP_ADVERSARIES`` holds the *campaign-growth* grids: newer
behaviour mixes (from :mod:`repro.adversary.behaviors`) that extend the
default conformance matrix without disturbing the original sweeps —
the E1–E3 tables and the pre-existing campaign cells stay byte-stable
because the extras are appended as separate registry records, never
spliced into the base lists.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

#: The adversary mixes each sweep cycles through, per register kind.
SWEEP_ADVERSARIES: Dict[str, List[Tuple[str, Dict[int, str]]]] = {
    "verifiable": [
        ("none", {}),
        ("deny", {}),
        ("equivocate", {}),
        ("none", {2: "lying"}),
        ("none", {3: "flipflop"}),
        ("garbage", {2: "garbage"}),
    ],
    "authenticated": [
        ("none", {}),
        ("deny", {}),
        ("none", {2: "lying"}),
        ("none", {3: "stonewall"}),
        ("garbage", {2: "garbage"}),
    ],
    "sticky": [
        ("none", {}),
        ("equivocate", {}),
        ("none", {2: "lying"}),
        ("silent", {}),
        ("garbage", {2: "garbage"}),
    ],
}


def feasible_mixes(
    mixes: Iterable[Tuple[str, Dict[int, str]]], n: int
) -> Iterator[Tuple[str, Dict[int, str]]]:
    """The ``mixes`` that fit ``n`` processes at ``f = (n - 1) // 3``.

    Byzantine reader pids must exist (``pid <= n``; the others are
    dropped from the mix) and the Byzantine head-count — readers plus
    a misbehaving writer — must fit the fault bound, else the whole mix
    is skipped.
    """
    f = (n - 1) // 3
    for writer_adversary, reader_adversaries in mixes:
        readers = {
            pid: name for pid, name in reader_adversaries.items() if pid <= n
        }
        if len(readers) + (writer_adversary != "none") > f:
            continue
        yield writer_adversary, readers


#: Campaign-growth mixes appended as extra registry records (kept out of
#: the base sweeps; see module doc). Every mix here targets a behaviour
#: the base grid of that kind never exercised.
EXTRA_SWEEP_ADVERSARIES: Dict[str, List[Tuple[str, Dict[int, str]]]] = {
    "verifiable": [
        ("silent", {}),
        ("none", {2: "stonewall"}),
    ],
    "authenticated": [
        ("silent", {}),
        ("none", {4: "flipflop"}),
    ],
    "sticky": [
        ("none", {2: "stonewall"}),
    ],
}
