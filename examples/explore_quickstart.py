#!/usr/bin/env python
"""Explore quickstart: search the schedule space of Theorem 29.

The paper proves test-or-set impossible from plain SWMR registers at
``n = 3f`` by *constructing* one adversarial interleaving (Figure 1).
``repro.explore`` finds such interleavings automatically: the bounded
systematic explorer and the swarm fuzzer search the schedule space of
the Figure 1 cast, and the shrinker reduces any violating run to a
handful of forced scheduler decisions — a ready-made regression test.
The same search at ``n = 3f + 1`` comes back clean, which is the
theorem's boundary reproduced by search instead of by hand.

Run:  python examples/explore_quickstart.py
"""

from __future__ import annotations

from repro.explore import execute_trace, explore, fuzz, make_scenario, shrink


def main() -> None:
    scenario = make_scenario("theorem29", f=1)  # n = 3f = 3
    control = make_scenario("theorem29", f=1, extra_correct=True)  # n = 4

    # A fair round-robin run is clean — the bug hides in rarer schedules.
    fair = execute_trace(scenario, ())
    print(f"fair round-robin run: {'VIOLATION' if fair.violation else 'clean'}")

    # Bounded systematic search: DFS over scheduler decision traces with
    # preemption bounds, fingerprint memoization and sleep-set pruning.
    report = explore(scenario, depth_bound=14, preemption_bound=2, budget=300)
    print(report.summary())
    assert report.violations, "systematic search should find the Figure 1 race"

    # Swarm fuzzing samples seeded random/priority schedules and finds
    # the same violation class.
    swarm = fuzz(scenario, budget=150)
    print(swarm.summary())

    # Shrink the counterexample to a few forced decisions; replaying
    # that trace (round robin finishes the run) breaks the same property.
    shrunk = shrink(scenario, report.violations[0])
    print(shrunk.describe())
    print(f"replay: execute_trace(scenario, {shrunk.trace})")
    replayed = execute_trace(scenario, shrunk.trace)
    assert replayed.violation is not None
    assert replayed.violation.fingerprint() == report.violations[0].fingerprint()

    # The control at n = 3f + 1: same bounds, no violation — the extra
    # correct process closes every schedule the adversary could exploit.
    control_report = explore(control, depth_bound=14, preemption_bound=2, budget=300)
    control_swarm = fuzz(control, budget=150)
    print(control_report.summary())
    print(control_swarm.summary())
    assert not control_report.violations and not control_swarm.violations

    print("\nExplore quickstart passed.")


if __name__ == "__main__":
    main()
