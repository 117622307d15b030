"""Schedule-space exploration: systematic search, swarm fuzzing, shrinking.

This subpackage turns the deterministic simulator into a *checker over
interleavings*. The paper's theorems are quantified over all adversarial
schedules; ``repro.explore`` actually searches that space:

* :mod:`repro.explore.explorer` — bounded systematic exploration
  (depth-first over decision traces with preemption bounds, state
  fingerprint memoization, and a choice of ``reduction``: sleep-set
  commutation pruning, source-set dynamic partial-order reduction, or
  DPOR plus interchangeable-process symmetry folding);
* :mod:`repro.explore.dpor` — the race scan and symmetry folder behind
  the dpor reductions (happens-before from executed effect traces);
* :mod:`repro.explore.fuzzer` — multiprocessing swarm campaigns of
  seeded random/priority schedules with violation deduplication;
* :mod:`repro.explore.shrink` — counterexample minimization down to a
  ``ScriptedScheduler`` script fit for a regression test.

Quickstart (see ``examples/explore_quickstart.py``)::

    from repro.explore import explore, fuzz, make_scenario, shrink

    scenario = make_scenario("theorem29", f=1)
    report = explore(scenario, budget=400)      # systematic, bounded
    swarm = fuzz(scenario, budget=200)          # seeded swarm, sharded
    tiny = shrink(scenario, swarm.violations[0])
    print(tiny.script_source())

What the engines search — the picklable :class:`Scenario` spec, the
:class:`BuiltScenario` build/drive/check triple it builds and the
:class:`Violation` a failed check travels as — is owned by
:mod:`repro.scenarios`, the layer below; the names are re-exported here
because every caller of an engine needs them. Importing this package
registers the ``theorem29`` and ``register`` builders (the two
exploration staples) without loading the full scenario catalog.

The CLI front end is ``python -m repro.analysis explore``.
"""

from repro.explore.dpor import SymmetryFolder, analyze_run
from repro.explore.explorer import (
    ExploreReport,
    RunRecord,
    commutes,
    effect_signature,
    execute_trace,
    explore,
)
from repro.explore.fuzzer import (
    FUZZ_FAIRNESS_BOUND,
    FuzzReport,
    ShardResult,
    SwarmScheduler,
    default_shards,
    fuzz,
    fuzz_scheduler,
    run_one_fuzz,
)
from repro.explore.shrink import ShrunkViolation, shrink
from repro.scenarios.registers import adversary_grid
from repro.scenarios.registry import (
    SCENARIO_BUILDERS,
    BuiltScenario,
    Scenario,
    Violation,
    make_scenario,
)
from repro.scenarios.theorem29 import theorem29_symmetry

__all__ = [
    "BuiltScenario",
    "ExploreReport",
    "FUZZ_FAIRNESS_BOUND",
    "FuzzReport",
    "RunRecord",
    "SCENARIO_BUILDERS",
    "Scenario",
    "ShardResult",
    "ShrunkViolation",
    "SwarmScheduler",
    "SymmetryFolder",
    "Violation",
    "adversary_grid",
    "analyze_run",
    "commutes",
    "default_shards",
    "effect_signature",
    "execute_trace",
    "explore",
    "fuzz",
    "fuzz_scheduler",
    "make_scenario",
    "run_one_fuzz",
    "shrink",
    "theorem29_symmetry",
]
