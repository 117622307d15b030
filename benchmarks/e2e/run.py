"""The benchmark of record: ``python3 benchmarks/e2e/run.py --workload W --seed S``.

One invocation measures one workload for ``--seconds`` seconds of timed
work: it starts ``one_round.py`` in a fresh process again and again with
the same seed, until the next round would not fit, and reports the
median over the rounds of every metric (min, max and n beside it).
The counts a workload declares exact (runs, steps, states, completed
operations) must be the same in every round of an invocation; a round
that disagrees is a failure, not a sample.

The ``net-*`` workloads run real sockets on wall-clock timers under the
host's scheduler, so an invocation of one of them may lose one round: a
round that crashes, hangs or misses its verdict is set aside (printed
as ``DISCARDED``, on standard error too, kept in ``_out/rounds-*.json``,
not counted) and the next round draws the next sub-seed. A second such
round fails the run. The simulated workloads repeat exactly, so they may
lose none.

``--seed S`` picks input set ``S mod 100``: on each of those hundred every
verdict of the simulated workloads is the expected one, which is not so
at every integer (see ``SEED_POOL``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
traced and untraced rounds and prints the per-layer metrics (median over
the traced rounds; zero for a layer the workload does not cross).

Without ``--workload`` every workload is measured in turn, untraced then
traced, and a summary is written to ``_out/summary.json``.

Metric names, units and workload names are read from ``BENCHMARK.json``
at the root of the repository: the harness prints exactly those.
Processor time in the end-to-end metrics is in seconds of a reference
host (see ``one_round.py``); the traced run prints the raw wall beside
the host's speed. The ``machine`` block says what the numbers were
measured on; compare parent and change on one host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "_out"
sys.path.insert(0, str(HERE))

from one_round import REFERENCE_LOOPS_PER_S, calibrate  # noqa: E402
from spans import percentile, supported_tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A round takes 2-5 s; one that hangs is killed well inside the 180 s a
#: whole run may take.
ROUND_TIMEOUT_S = 60

#: ``--seed`` is taken modulo this. A workload may not fail at any seed,
#: and a few integers give inputs on which the program's verdict is not
#: the matrix's: of seeds 0..299 and ten larger ones, 246 and 79203 make
#: the clean-expecting fair-lossy ``mp_emulation`` cell of ``campaign-mp``
#: find a new/old inversion (two reads by one process during one write
#: return the new value, then the old: the emulation's reads are regular,
#: its oracle wants atomic). Seeds 0..99 were run on every simulated
#: workload; after a change to the program that moves a verdict, run them
#: again (README, *Seeds*).
SEED_POOL = 100

#: Rounds one invocation of a live (``net``) workload may set aside.
SPARE_LIVE_ROUNDS = 1

#: Per-layer metrics computed here from all rounds of an invocation,
#: not inside one round.
POOLED_P50 = "net.load.op_ms_p50"
POOLED_P95 = "net.load.op_ms_p95"
RAW = {
    "raw.wall_s": "raw_wall_s",
    "raw.cpu_s": "raw_cpu_s",
    "host.speed_ratio": "host_speed",
}


def machine_block() -> Dict[str, Any]:
    """Where the numbers were measured."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "calibration_loops_per_s": round(calibrate()),
        "reference_loops_per_s": REFERENCE_LOOPS_PER_S,
    }


class RoundLost(RuntimeError):
    """A round's process crashed or hung: there is no result to judge."""


def spawn_round(name: str, seed: int, index: int, traced: bool) -> Dict[str, Any]:
    """One round in a fresh interpreter; raises if it did not finish."""
    try:
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "one_round.py"),
                name,
                str(seed),
                str(index),
                "1" if traced else "0",
                repr(time.time()),
            ],
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as hung:
        # Bytes even in text mode on POSIX.
        stderr = hung.stderr or ""
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        raise RoundLost(
            f"round {index} of {name} hung for {ROUND_TIMEOUT_S} s and was "
            f"killed:\n{stderr[-2000:]}"
        ) from None
    if done.returncode != 0:
        raise RoundLost(
            f"round {index} of {name} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def run_rounds(
    name: str, seed: int, seconds: float, trace: bool, spawn=spawn_round
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Rounds until the next would overrun ``seconds`` of timed work.

    Returns the rounds to summarise and what became of the discarded ones.
    """
    rounds: List[Dict[str, Any]] = []
    discarded: List[str] = []
    spare = SPARE_LIVE_ROUNDS if WORKLOADS[name].family == "net" else 0
    timed = 0.0
    while True:
        # Traced invocations alternate traced and untraced rounds, so host
        # drift hits both kinds, and pair them on one round index, so the
        # two see the same inputs. A discarded round's index is not used
        # again: its successor draws the next sub-seed.
        done = len(rounds)
        index = (done // 2 if trace else done) + len(discarded)
        traced = trace and done % 2 == 0
        try:
            result = spawn(name, seed, index, traced)
            lost = "; ".join(result["problems"])
        except RoundLost as crash:
            result, lost = None, str(crash)
        if lost and len(discarded) < spare:
            discarded.append(f"round {index}{' (traced)' if traced else ''}: {lost}")
            print(f"DISCARDED {name} seed={seed} {discarded[-1]}", file=sys.stderr)
            continue
        if result is None:
            raise RoundLost(lost)
        rounds.append(result)
        timed += result["raw_wall_s"]
        typical = statistics.median(r["raw_wall_s"] for r in rounds)
        enough = len(rounds) >= (2 if trace else 1)
        if enough and timed + typical > seconds:
            return rounds, discarded


def summarise(
    spec: Dict[str, Any],
    name: str,
    rounds: List[Dict[str, Any]],
    trace: bool,
    discarded: Sequence[str] = (),
) -> Dict[str, Any]:
    """Medians, the failure count and the determinism check of one run."""
    problems = [p for r in rounds for p in r["problems"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for result in rounds[1:]:
        if result["counts"] != rounds[0]["counts"]:
            failed += 1
            problems.append(
                f"counts differ between rounds of one seed: "
                f"{rounds[0]['counts']} vs {result['counts']}"
            )
    if trace:
        samples = layer_samples(rounds)
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]
        samples = {m["name"]: [r[m["name"]] for r in rounds] for m in declared}
    unknown = sorted(set(samples) - {m["name"] for m in declared})
    if unknown:
        failed += 1
        problems.append(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for metric in declared:
        # n = 0 marks a layer this workload does not cross.
        values = samples.get(metric["name"], [])
        metrics[metric["name"]] = {
            "value": statistics.median(values or [0.0]),
            "unit": metric["unit"],
            "min": min(values, default=0.0),
            "max": max(values, default=0.0),
            "n": len(values),
        }
    return {
        "workload": name,
        "seed": rounds[0]["seed"],
        "trace": trace,
        "rounds": len(rounds),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "discarded": list(discarded),
        "metrics": metrics,
        "shares": next((r["shares"] for r in rounds if r["traced"]), {}),
    }


def layer_samples(rounds: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-layer samples of a traced invocation, one list per metric."""
    samples: Dict[str, List[float]] = {}
    for result in (r for r in rounds if r["traced"]):
        for key, value in result["layers"].items():
            samples.setdefault(key, []).append(value)
    for metric, key in RAW.items():
        samples[metric] = [r[key] for r in rounds]
    latencies = sorted(ms for r in rounds for ms in r["latencies_ms"])
    if latencies:
        samples[POOLED_P50] = [percentile(latencies, 0.50)]
        samples[POOLED_P95] = [percentile(latencies, 0.95)]
    return samples


def render(summary: Dict[str, Any]) -> str:
    workload = WORKLOADS[summary["workload"]]
    lines = [
        f"== {workload.name} seed={summary['seed']} "
        f"{'traced' if summary['trace'] else 'timed'}: {summary['rounds']} round(s), "
        f"{summary['failed']} failed of {summary['attempted']} attempted",
        f"   why: {workload.why}",
    ]
    if workload.note:
        lines.append(f"   note: {workload.note}")
    for name, row in summary["metrics"].items():
        if not row["n"]:
            continue
        lines.append(
            f"   {name:<36} {row['value']:>14.6g} {row['unit']:<6} "
            f"(min {row['min']:.6g}, max {row['max']:.6g}, n={row['n']})"
        )
    if summary["shares"]:
        lines.append("   self time per span name, share of the traced call:")
        for name, share in sorted(summary["shares"].items(), key=lambda kv: -kv[1]):
            label = "(unattributed)" if name == "round" else name
            lines.append(f"     {label:<34} {share:8.2%}")
    lines.extend(f"   PROBLEM: {problem}" for problem in summary["problems"])
    lines.extend(f"   DISCARDED: {lost}" for lost in summary["discarded"])
    return "\n".join(lines)


def measure(
    spec: Dict[str, Any], name: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    rounds, discarded = run_rounds(name, seed, seconds, trace)
    OUT_DIR.mkdir(exist_ok=True)
    raw = OUT_DIR / f"rounds-{name}-{'traced' if trace else 'timed'}.json"
    raw.write_text(
        json.dumps({"rounds": rounds, "discarded": discarded}, indent=1),
        encoding="utf-8",
    )
    summary = summarise(spec, name, rounds, trace, discarded)
    print(render(summary))
    if trace:
        walls = {
            kind: statistics.median(r["wall_s"] for r in rounds if r["traced"] == kind)
            for kind in (True, False)
        }
        print(
            f"   traced rounds against the untraced ones beside them: "
            f"{walls[True] / walls[False] - 1:+.1%} wall (host noise is of that order)"
        )
        latencies = sum(len(r["latencies_ms"]) for r in rounds)
        if latencies:
            print(
                f"   latency tail supported by {latencies} samples: "
                f"p{100 * supported_tail(latencies):g}"
            )
        print(f"   spans: {OUT_DIR / ('trace-' + name + '.jsonl')}")
    return summary


def result_line(summaries: List[Dict[str, Any]], prefix: bool) -> str:
    metrics = {
        (f"{s['workload']}:{name}" if prefix else name): {
            "value": row["value"],
            "unit": row["unit"],
        }
        for s in summaries
        for name, row in s["metrics"].items()
    }
    return json.dumps(
        {
            "correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": metrics,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    machine = machine_block()
    print(f"machine: {json.dumps(machine)}")
    seed = args.seed % SEED_POOL
    print(f"--seed {args.seed}: input set {seed} of {SEED_POOL}")
    if args.workload:
        summaries = [measure(spec, args.workload, seed, seconds, bool(args.trace))]
    else:
        summaries = [
            measure(spec, name, seed, seconds, trace)
            for name in (w["name"] for w in spec["workloads"])
            for trace in (False, True)
        ]
        crossed = {
            name
            for s in summaries
            if s["trace"]
            for name, row in s["metrics"].items()
            if row["n"]
        }
        idle = [m["name"] for m in spec["per_layer"] if m["name"] not in crossed]
        if idle:
            print(f"PROBLEM: per-layer metrics no workload produced: {idle}")
            summaries[0]["correct"] = False
            summaries[0]["problems"].append(f"no workload produced {idle}")
        (OUT_DIR / "summary.json").write_text(
            json.dumps({"machine": machine, "runs": summaries}, indent=1),
            encoding="utf-8",
        )
    print(result_line(summaries, prefix=not args.workload))
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
