"""The unified scenario registry (specs, oracle bindings, records).

One declarative record — topology ``(n, f)``, implementation family,
adversary behaviour, workload/driver program, oracle binding, expected
verdict — fully determines a runnable scenario, and every consumer
derives its view from the same records:

* ``repro.campaign.default_matrix`` is a :func:`grid` query;
* the explorer, fuzzer and shrinker build runs through the registry's
  :class:`Scenario` specs and builder table, and report each failed
  check as a :class:`Violation`;
* ``repro.analysis`` runs its register tables (E1–E3, E10) as
  ``register`` specs over the grids of :mod:`repro.scenarios.sweeps`,
  and its snapshot and broadcast tables (E7, E8) as the catalog's
  records, each judged by its builder's own oracle;
* corpus entries resolve their recorded scenario labels back through
  :func:`resolve_spec` on replay.

The package is the single owner of "what is a scenario and how is it
built", and sits strictly *below* the engines: nothing here imports
``repro.explore``, ``repro.campaign``, ``repro.service`` or
``repro.analysis`` (``tests/test_layering.py``). Builders live one
module per family group:
:mod:`~repro.scenarios.theorem29`, :mod:`~repro.scenarios.registers`,
:mod:`~repro.scenarios.apps`, :mod:`~repro.scenarios.mp_emulation`,
:mod:`~repro.scenarios.net_live`.

Quickstart::

    from repro import scenarios

    for record in scenarios.grid(consumer="campaign"):
        print(record.describe())

    record = scenarios.resolve("snapshot/swarm:snapshot(byzantine=((4, 'deny'),),f=1,n=4,seed=0)")
    built = record.spec.build(my_scheduler)

The CLI front end is ``python -m repro.analysis scenarios --list``.

The default catalog (:mod:`repro.scenarios.catalog`) loads lazily on
the first registry query, so importing this package is cheap and the
builder modules can import the registry without a cycle.
"""

from repro.scenarios.bindings import (
    FAMILY_BINDINGS,
    OracleBinding,
    binding_for,
    binding_for_kind,
    kind_for,
)
from repro.scenarios.registry import (
    CELL_REDUCTIONS,
    CONSUMERS,
    ENGINES,
    REDUCTIONS,
    SCENARIO_BUILDERS,
    BuiltScenario,
    Scenario,
    ScenarioRecord,
    Violation,
    all_records,
    grid,
    known_scenarios,
    make_scenario,
    register,
    register_builder,
    registered_families,
    resolve,
    resolve_spec,
)
from repro.scenarios.sweeps import EXTRA_SWEEP_ADVERSARIES, SWEEP_ADVERSARIES

__all__ = [
    "BuiltScenario",
    "CELL_REDUCTIONS",
    "CONSUMERS",
    "ENGINES",
    "EXTRA_SWEEP_ADVERSARIES",
    "FAMILY_BINDINGS",
    "OracleBinding",
    "REDUCTIONS",
    "SCENARIO_BUILDERS",
    "SWEEP_ADVERSARIES",
    "Scenario",
    "ScenarioRecord",
    "Violation",
    "all_records",
    "binding_for",
    "binding_for_kind",
    "grid",
    "kind_for",
    "known_scenarios",
    "make_scenario",
    "register",
    "register_builder",
    "registered_families",
    "resolve",
    "resolve_spec",
]
