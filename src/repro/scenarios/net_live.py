"""Live-network scenarios: registry records executed on wall clocks.

The ``net`` family's records pin the live runtime's smoke cells — the
same declarative :class:`~repro.scenarios.registry.ScenarioRecord`
shape as every virtual-time cell, with ``engine="live"`` and a
:class:`repro.net.LiveProfile`'s knobs as spec params. Pinning them in
the registry buys the usual guarantees: stable labels for CI and
reports, an explicit expected verdict per cell, and membership in the
``scenarios --list`` inventory.

What a live record can *not* do is build under a scheduler: wall-clock
runs have no deterministic schedule space, so the registered builder
refuses loudly and points at the CLI (``python -m repro.analysis net
--cell <label>``), which resolves the record into a profile via
:func:`profile_for_record` and executes it with ``repro.net``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.scenarios.registry import ScenarioRecord, register_builder

if TYPE_CHECKING:  # the live runtime loads only when a profile is built
    from repro.net.cluster import LiveProfile


def build_net_cluster(scheduler: Any, ctx: Any = None, **params: Any):
    """Refuse: live cells execute on wall clocks, not under a scheduler."""
    raise ConfigurationError(
        "net_cluster scenarios run on the wall-clock socket runtime, not "
        "under a virtual-time scheduler; execute them with "
        "`python -m repro.analysis net --cell <label>`"
    )


def profile_for_record(record: ScenarioRecord) -> "LiveProfile":
    """The :class:`LiveProfile` a live registry record pins.

    The record's topology provides ``n``/``f``, its label becomes the
    profile (and evidence) label, and every spec param maps one-to-one
    onto a profile field — unknown params fail loudly in the profile
    constructor rather than being dropped.
    """
    if record.engine != "live":
        raise ConfigurationError(
            f"record {record.label()!r} has engine {record.engine!r}, not 'live'"
        )
    from repro.net.cluster import LiveProfile

    params = dict(record.spec.params)
    try:
        return LiveProfile(
            n=record.n, f=record.f, label=record.label(), **params
        )
    except TypeError as exc:
        raise ConfigurationError(
            f"record {record.label()!r} carries a non-profile param: {exc}"
        )


register_builder("net_cluster", build_net_cluster)
