#!/usr/bin/env python3
"""Same-code stability report for the benchmark in BENCHMARK.json.

Runs the benchmark command on each workload as two interleaved sets of runs
(A B A B ...), every run with its own seed, and prints for each workload and
end-to-end metric: each set's median and quartiles, the spread (interquartile
range / median) and the difference between the two sets' medians, each set
against the metric's bound.

    python3 nevbench/stability.py [--workloads hot_join,oracle_mix]
                                  [--runs 10] [--sets 2] [--first-seed 1]
                                  [--seconds S] [--out results.json]

Run from the repository root. Exits 1 when a spread or a median difference
exceeds its bound, 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import functools

print = functools.partial(print, flush=True)


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--out", help="write every run's metrics here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    all_runs = {}
    steady = True
    for workload in workloads:
        sets = [[] for _ in range(args.sets)]
        seed = args.first_seed
        for r in range(args.runs):
            # Alternate which set goes first, so drift over time hits both.
            order = range(args.sets) if r % 2 == 0 else reversed(range(args.sets))
            for s in order:
                sets[s].append(run_once(bench["command"], workload, seed, seconds))
                seed += 1
        all_runs[workload] = sets
        print(f"\n{workload}: {args.runs} runs per set, {seconds} s each")
        print(f"  {'metric':<15} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6} {'verdict':>8}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([run[name] for run in runs])
                medians.append(med)
                if name == "setup_s":
                    verdict = "n/a"
                elif spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "ok"
                else:
                    verdict = "NOISY"
                    steady = False
                print(f"  {name:<15} {'AB'[s]:>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f}"
                      f" {spread:>7.3f} {bound:>6.2f} {verdict:>8}")
            if len(medians) == 2:
                a, b = medians
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= bound else "DRIFT"
                steady &= verdict == "ok"
                print(f"  {name:<15} {'B-A':>3} {'':>12} {'':>12} {'':>12}"
                      f" {worse:>7.3f} {bound:>6.2f} {verdict:>8}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(all_runs, f, indent=1)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
