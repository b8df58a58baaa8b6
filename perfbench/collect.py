"""Run the benchmark over several seeds and summarise it as one JSON file.

    python3 perfbench/collect.py --out perfbench/baseline.json

Run from the root of a checkout. It makes ``SETS`` sets, one after another.
Each set makes one untraced run on each of ``SEEDS`` of every workload in
BENCHMARK.json, each a separate ``perfbench/run.py`` process. Within a set
the workloads alternate (every workload on seed 1, then every workload on
seed 2, ...), so a slow phase of the machine is shared out over all of them.
For every end-to-end metric a set records the values, median, quartiles and
spread, the spread being ``(q3 - q1) / median`` with quartiles from
``statistics.quantiles(n=4)``. ``set_change`` gives each later set's median
against the first set's as a relative change, the comparison a second
measurement of the same commit makes. After the sets, one traced run per
workload (seed ``TRACE_SEED``) gives the per-layer table, recorded as it was
reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = list(range(1, 11))
SETS = 2
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Result line and environment record of one ``run.py`` process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def run_set(names: list[str], seeds: list[int], seconds: int, label: str) -> tuple[dict, dict]:
    """One untraced run per seed and workload, workloads alternating; summary and env."""
    results: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result, env = run_once(name, seed, seconds, 0)
            results[name].append(result)
            print(f"{label} {name} seed {seed}: " + " ".join(
                f"{metric}={entry['value']:.5g}" for metric, entry in result["metrics"].items()
            ), flush=True)
    summary = {}
    for name, runs in results.items():
        summary[name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                metric: {"unit": entry["unit"], **summarise([r["metrics"][metric]["value"] for r in runs])}
                for metric, entry in runs[0]["metrics"].items()
            },
        }
        for metric, stats in summary[name]["end_to_end"].items():
            print(f"{label} {name} {metric}: median {stats['median']:.6g} spread {stats['spread']:.4f}",
                  flush=True)
    return summary, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sets = []
    for index in range(SETS):
        summary, env = run_set(names, SEEDS, seconds, f"set {index + 1}")
        sets.append(summary)
    set_change = [
        {
            name: {
                metric: stats["median"] / sets[0][name]["end_to_end"][metric]["median"] - 1.0
                for metric, stats in later[name]["end_to_end"].items()
            }
            for name in names
        }
        for later in sets[1:]
    ]
    per_layer = {}
    for name in names:
        traced, _ = run_once(name, TRACE_SEED, seconds, 1)
        per_layer[name] = {
            "seed": TRACE_SEED,
            "correct": traced["correct"],
            **{metric: entry["value"] for metric, entry in traced["metrics"].items()},
        }
    summary = {
        "run_seconds": seconds,
        "seeds": SEEDS,
        "env": env,
        "sets": sets,
        "set_change": set_change,
        "per_layer": per_layer,
    }
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
