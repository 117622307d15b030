"""Serialization of campaign cells across the service boundary.

The queue stores each :class:`repro.campaign.CampaignCell` as a small
JSON document inside its shard, and workers rebuild the cell — through
the scenario registry, so a retired scenario name fails the lease
loudly instead of executing the wrong thing. Scenario params survive
the round trip as the hashable tuples their labels and fingerprints
were derived from (the same thaw the corpus loader applies). The queue
is a trust boundary: a document of the wrong shape — a missing key, a
non-integer budget or seed, a budget below 1 (it would report clean
for work never done), an unknown engine or reduction — fails the lease
with a :class:`~repro.errors.ConfigurationError`, never a bare
``KeyError`` or a silently coerced value.

``cell_fingerprint`` is the cross-run identity used by the results
database: two submissions of the same matrix cell (same family, engine,
scenario label, budget, seed) share a fingerprint, which is what makes
verdict drift between runs a single indexed query.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Tuple

from repro.campaign.corpus import thaw_params
from repro.campaign.matrix import CampaignCell
from repro.errors import ConfigurationError
from repro.scenarios.registry import CELL_REDUCTIONS, resolve_spec

#: Engines a campaign cell can run on (``"live"`` cells never queue).
CELL_ENGINES: Tuple[str, ...] = ("swarm", "systematic")


def cell_to_json(cell: CampaignCell) -> Dict[str, Any]:
    """The JSON document a cell is queued as."""
    return {
        "implementation": cell.implementation,
        "scenario": {
            "name": cell.scenario.name,
            "params": [[key, value] for key, value in cell.scenario.params],
        },
        "engine": cell.engine,
        "budget": cell.budget,
        "expect_violation": cell.expect_violation,
        "seed0": cell.seed0,
        "reduction": cell.reduction,
    }


def _field(
    data: Dict[str, Any], key: str, kind: type, minimum: Optional[int] = None
) -> Any:
    """``data[key]``, which must be a ``kind`` (a bool is no int here)
    and, when ``minimum`` is given, at least ``minimum``."""
    if key not in data:
        raise ConfigurationError(f"queued cell lacks {key!r}")
    value = data[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigurationError(
            f"queued cell field {key!r} must be {kind.__name__}, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise ConfigurationError(
            f"queued cell field {key!r} must be >= {minimum}, got {value!r}"
        )
    return value


def _choice(value: Any, key: str, allowed: Tuple[str, ...]) -> str:
    if value not in allowed:
        raise ConfigurationError(
            f"queued cell {key} {value!r} is not one of {', '.join(allowed)}"
        )
    return value


def cell_from_json(data: Any) -> CampaignCell:
    """Rebuild a queued cell, validating its shape and its scenario.

    Raises:
        ConfigurationError: for any malformed document.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"queued cell must be an object, got {data!r}")
    scenario = _field(data, "scenario", dict)
    return CampaignCell(
        implementation=_field(data, "implementation", str),
        scenario=resolve_spec(
            _field(scenario, "name", str),
            thaw_params(_field(scenario, "params", list)),
        ),
        engine=_choice(_field(data, "engine", str), "engine", CELL_ENGINES),
        budget=_field(data, "budget", int, minimum=1),
        expect_violation=_field(data, "expect_violation", bool),
        seed0=_field(data, "seed0", int),
        # Documents queued before the dpor reductions existed carry no
        # reduction; they were (and remain) sleep-baseline cells.
        reduction=_choice(
            data.get("reduction", "sleep"), "reduction", CELL_REDUCTIONS
        ),
    )


def cell_fingerprint(cell: CampaignCell) -> str:
    """Stable digest of everything that determines a cell's verdict."""
    # ``14`` and ``2`` are the depth and preemption bounds every
    # systematic cell runs under, ``()`` the symmetry groups none has:
    # once cell fields, kept as literals so every stored digest holds.
    basis = (
        cell.implementation,
        cell.engine,
        cell.scenario.label(),
        cell.budget,
        cell.expect_violation,
        cell.seed0,
        14,
        2,
    )
    # The reduction changes a cell's run counts and exhaustion note (not
    # its verdict), so dpor cells get their own identity — appended
    # conditionally so every pre-dpor cell keeps its stored digest.
    if cell.reduction != "sleep":
        basis = basis + (cell.reduction, ())
    return hashlib.blake2b(repr(basis).encode(), digest_size=8).hexdigest()
