"""Steadiness check: two sets of runs of the same code, spread against bounds.

    python3 perfbench/steady.py [--workloads lattice-approx,cli]

Run from the root of a finpow checkout.  For each workload it runs the
benchmark command of BENCHMARK.json with tracing off in two sets of ten runs,
on seeds 1-10 and 11-20.  For every end-to-end metric it prints each set's
median and spread (the distance between the first and third quartile as a
share of the median), the drift of the second median from the first (signed,
positive when worse), and the metric's bound.  A metric is steady when both
spreads and the size of the drift stay within the bound, and a workload when
both sets fail the same share of their operations.  Exits 1 when anything is
not steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10  # per set and workload
FIRST_SEEDS = (1, 1 + RUNS)


def run_once(bench, workload, seed) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma list; default: all of BENCHMARK.json")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    steady = True
    for workload in names:
        sets = [[run_once(bench, workload, s) for s in range(first, first + RUNS)]
                for first in FIRST_SEEDS]
        shares = [{(r["failed"], r["attempted"]) for r in runs} for runs in sets]
        ratios = [{f / a for f, a in share} for share in shares]
        same_share = len(ratios[0] | ratios[1]) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        steady &= same_share and correct
        print(f"{workload}: correct {correct}; failed/attempted per run "
              f"{sorted(shares[0] | shares[1])} -> {'same share' if same_share else 'SHARES DIFFER'}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            drift = sign * (medians[1] - medians[0]) / medians[0]
            ok = abs(drift) <= bound and max(spreads) <= bound
            steady &= ok
            print(f"  {name:16s} median {medians[0]:10.4g} / {medians[1]:10.4g} "
                  f"spread {spreads[0]:6.3f} / {spreads[1]:6.3f} drift {drift:+6.3f} "
                  f"bound {bound:5.3f} {'ok' if ok else 'NOT STEADY'}"
                  f"{'  (spread > bound/3)' if ok and max(spreads) > bound / 3 else ''}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
