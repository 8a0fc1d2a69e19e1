#!/usr/bin/env python3
"""Check that two sets of benchmark runs of the same code agree.

    python3 perfbench/steady.py

For each workload in BENCHMARK.json, runs perfbench/run.py ten times with
seeds 101-110, then ten times with seeds 1101-1110. For every end-to-end
metric it prints each set's median and quartiles (statistics.quantiles,
n=4), the spread (third minus first quartile over the median), and the
shift of the second median from the first, signed so that + is the
metric's worse direction. A metric passes when the two medians lie within
its bound of each other (|shift| <= bound) and each set's spread is within
the bound. The spread of setup_s is printed but not judged: every run times
one cold set-up, a fraction of a second long, so a single run's figure
carries the host's interference phases whole and only the median over
runs is meant to repeat. The target for a steady benchmark is a spread
below a third of the bound. The share of failed operations must be
identical in both sets.

Exit code 0 when every metric of every workload passes.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEEDS = (101, 1101)


def run_once(workload, seed, seconds):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.decode("utf-8", errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall
    return json.loads(lines[-1]), wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    all_ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = []
        for first_seed in FIRST_SEEDS:
            results = []
            for seed in range(first_seed, first_seed + RUNS):
                result, wall = run_once(workload, seed, bench["run_seconds"])
                if result is None or not result["correct"]:
                    print("%s seed %d: run failed" % (workload, seed))
                    all_ok = False
                    continue
                print("%s set %d seed %d (%.0f s): %s" % (
                    workload, len(sets) + 1, seed, wall,
                    " ".join("%s=%.4g" % (k, v["value"])
                             for k, v in result["metrics"].items())),
                      flush=True)
                results.append(result)
            sets.append(results)
        if any(len(r) < 2 for r in sets):
            print("%s: too few successful runs" % workload)
            all_ok = False
            continue
        shares = [{r["failed"] / r["attempted"] for r in rs} for rs in sets]
        same_share = len(shares[0] | shares[1]) == 1
        all_ok = all_ok and same_share
        print("%s: failed share %s in both sets: %s" % (
            workload, sorted(shares[0] | shares[1]),
            "ok" if same_share else "DIFFERS"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in rs])
                     for rs in sets]
            m1, m2 = stats[0][1], stats[1][1]
            shift = (m2 - m1) / m1
            if metric["better"] == "higher":
                shift = -shift
            spread_judged = name != "setup_s"
            ok = abs(shift) <= bound and (
                not spread_judged or all(st[3] <= bound for st in stats))
            steady = all(st[3] < bound / 3 for st in stats)
            all_ok = all_ok and ok
            print("  %-12s bound %.3f | set1 %.5g [%.5g, %.5g] spread %.3f "
                  "| set2 %.5g [%.5g, %.5g] spread %.3f | shift %+.3f | %s%s"
                  % (name, bound, stats[0][1], stats[0][0], stats[0][2],
                     stats[0][3], stats[1][1], stats[1][0], stats[1][2],
                     stats[1][3], shift, "ok" if ok else "FAIL",
                     " (spread not judged)" if not spread_judged
                     else "" if steady
                     else " (spread above a third of the bound)"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
