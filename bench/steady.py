"""Steadiness check: run each workload as two sets of runs and compare each
end-to-end metric's spread, and the difference between the two sets' medians,
with its bound in BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--workload NAME ...]

Each set runs seeds 1 to RUNS. The two sets alternate: seed i of one set runs
right after seed i of the other, the first set going first on odd seeds. For
every metric it prints each set's median and quartile spread (Q3 - Q1) /
median next to a third of the bound, the margin the benchmark aims for, and
by how much the two medians differ next to the bound. It exits 1 if a spread
or a difference is wider, if a check failed, or if the share of failed
operations is not the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import ROOT
from run import WORKLOADS

RUN = ROOT / "bench" / "run.py"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="default: the workloads in BENCHMARK.json")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    steady = True
    for workload in workloads:
        sets: list[list[dict]] = [[], []]
        for seed in range(1, args.runs + 1):
            for which in ((0, 1) if seed % 2 else (1, 0)):
                began = time.monotonic()
                sets[which].append(run_once(workload, seed, bench["run_seconds"]))
                print(f"{workload} set {which + 1} seed {seed}: {time.monotonic() - began:.1f} s",
                      file=sys.stderr)
        results = sets[0] + sets[1]
        correct = all(r["correct"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: 2 x {args.runs} runs, correct={correct}, "
              f"failed share per run {shares}")
        print(f"  {'metric':20s} {'median 1':>12s} {'spread 1':>8s} {'median 2':>12s} "
              f"{'spread 2':>8s} {'bound/3':>7s} {'differ':>7s} {'bound':>6s}")
        steady = steady and correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                spreads.append((q3 - q1) / medians[-1])
            differ = abs(medians[1] - medians[0]) / medians[0]
            ok = max(spreads) <= bound / 3 and differ <= bound
            steady = steady and ok
            print(f"  {name:20s} {medians[0]:12.4f} {spreads[0]:8.4f} {medians[1]:12.4f} "
                  f"{spreads[1]:8.4f} {bound / 3:7.4f} {differ:7.4f} {bound:6} "
                  f"{'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
