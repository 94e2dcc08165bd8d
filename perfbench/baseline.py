"""Record baseline results: ten untraced runs per workload and one traced run.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Run from the repository root.  Every workload of BENCHMARK.json runs with
seeds 1..10, each run a separate `run.py` process, one after another.  For every end-to-end metric the summary gives the
median, the quartiles and their distance as a share of the median
(`spread`), next to the metric's bound from BENCHMARK.json.  The traced
run (seed 0, the default) gives the per-layer metrics and each layer's
share of the traced wall time.  The summary is printed and, with
``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads(Path("BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))
TRACED_SEED = 0  # run.py's default seed: the acceptance cohort itself


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def layer_shares(metrics: dict) -> list:
    """[span, self time / traced wall time] pairs, largest first."""
    wall = metrics["trace.wall_s"]["value"]
    shares = [[k[: -len(".self_s")], v["value"] / wall]
              for k, v in metrics.items() if k.endswith(".self_s") and k != "layers.self_s"]
    return sorted(shares, key=lambda kv: -kv[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"run_seconds": SPEC["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = []
        for seed in SEEDS:
            env, res = run_once(workload, seed, 0)
            runs.append(res)
            print(workload, seed, json.dumps(res), flush=True)
        summary["env"] = env
        end_to_end = {}
        for name, bound in bounds.items():
            end_to_end[name] = summarize([r["metrics"][name]["value"] for r in runs])
            end_to_end[name]["bound"] = bound
        _, traced = run_once(workload, TRACED_SEED, 1)
        summary["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": end_to_end,
            "traced_seed": TRACED_SEED,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "self_share": layer_shares(traced["metrics"]),
        }
        for name, s in end_to_end.items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload} {name}: median {s['median']:.4g} spread {s['spread']:.4f} "
                  f"bound {s['bound']}{flag}", flush=True)
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
