"""One round of one workload in a fresh process: set up, time the call, judge.

``run.py`` starts this file once per round, so every round pays its own
imports and set-up (``setup_s``), has its own peak memory, and cannot
warm a cache for the next. The last line of standard output is the
round's result as one JSON object.

Usage: ``one_round.py <workload> <seed> <round index> <traced 0|1>
<spawned-at>`` where ``spawned-at`` is the parent's ``time.time()`` just
before it started this process.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

import layers
from spans import Tracer, duration
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "_out"
SRC_DIR = HERE.parent.parent / "src"

#: Calibration loops per second of the reference host: the sizing host
#: between its neighbours' bursts. Processor time is reported as if the
#: host ran the calibration loop at this rate throughout.
REFERENCE_LOOPS_PER_S = 4.0e6
CALIBRATION_S = 0.25


def calibrate(seconds: float = CALIBRATION_S) -> float:
    """Iterations per second of a fixed pure-Python loop, right now."""
    value = 0
    done = 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        for _ in range(500):
            value = (value * 1103515245 + 12345) % (1 << 31)
        done += 500
    return done / (time.perf_counter() - started)


def run_round(
    name: str,
    seed: int,
    index: int,
    traced: bool,
    size: Optional[Mapping[str, int]] = None,
    spawned_at: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one round; ``size`` overrides the workload's default budgets."""
    workload = WORKLOADS[name]
    spawned_at = time.time() if spawned_at is None else spawned_at
    inputs = workload.prepare(seed, index, dict(workload.size, **(size or {})))
    tracer = Tracer(run_id=f"{name}:{seed}")
    observed = layers.Observed()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        scratch = Path(tmp)
        wrappers = (
            layers.tracing(workload.family, tracer, observed)
            if traced
            else nullcontext()
        )
        with wrappers:
            setup_s = time.time() - spawned_at
            speed_before = calibrate() / REFERENCE_LOOPS_PER_S
            cpu_s = time.process_time()
            with tracer.span("round") as root:
                outcome = workload.execute(inputs, scratch)
            cpu_s = time.process_time() - cpu_s
            speed_after = calibrate() / REFERENCE_LOOPS_PER_S
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        judgement = workload.judge(inputs, outcome)
        wall_s = duration(root)
        # The host's speed swings by a third for tens of seconds at a
        # time, so processor seconds are rescaled to the reference host
        # by the calibration loop run right before and after the call.
        # Time spent waiting (timers, sockets) is left as measured.
        speed = (speed_before + speed_after) / 2
        rescale = cpu_s * (speed - 1.0)
        result = {
            "workload": name,
            "seed": seed,
            "index": index,
            "traced": traced,
            "host_speed": speed,
            "raw_wall_s": wall_s,
            "raw_cpu_s": cpu_s,
            "setup_s": setup_s * speed_before,
            "wall_s": wall_s + rescale,
            "cpu_s": cpu_s + rescale,
            "items": judgement.items,
            "items_per_s": judgement.items
            / ((judgement.items_seconds or wall_s) + rescale),
            "peak_rss_mb": peak_rss_mb,
            "attempted": judgement.attempted,
            "failed": judgement.failed,
            "counts": judgement.counts,
            "problems": judgement.problems,
            "latencies_ms": judgement.latencies_ms,
        }
        if traced:
            result["layers"], result["shares"] = layers.layer_metrics(
                workload.family, tracer, observed, inputs, outcome, cpu_s, scratch
            )
            tracer.flush(OUT_DIR / f"trace-{name}.jsonl")
    return result


def main(argv: list) -> int:
    name, seed, index, traced, spawned_at = argv
    sys.path.insert(0, str(SRC_DIR))
    result = run_round(
        name, int(seed), int(index), traced == "1", spawned_at=float(spawned_at)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
