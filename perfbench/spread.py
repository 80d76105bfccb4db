"""Run-to-run spread of the end-to-end metrics, the way the benchmark is accepted.

Run from the repository root:

    python3 perfbench/spread.py --workload sweep-boundary --runs 10

Runs the benchmark ``--runs`` times for ``run_seconds`` of BENCHMARK.json,
with seeds 1 to ``--runs``, one run at a time, and prints for every
end-to-end metric the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is
marked; setup_s is gated only on its median, so it is shown but not marked.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    walls = []
    for seed in range(1, args.runs + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} requests failed",
                  file=sys.stderr)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed} ({walls[-1]:.1f} s): "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{args.workload}: {args.runs} runs of {seconds} s, longest took {max(walls):.1f} s")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = stats.spread(vals)
        gated = m["name"] != "setup_s"
        flag = "  <-- above bound/3" if gated and spread > m["bound"] / 3 else ""
        print(f"  {m['name']:<16} median {statistics.median(vals):<12.6g} spread {spread:.4f}"
              f"  bound {m['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
