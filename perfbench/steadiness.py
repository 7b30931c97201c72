#!/usr/bin/env python3
"""Measures how steady the benchmark is and writes perfbench/STEADINESS.md.

Run from the root of a checkout (it takes about 45 minutes):

    python3 perfbench/steadiness.py

It makes two sets of untraced runs of every workload, each set with
seeds 1000-1009 and BENCHMARK.json's `run_seconds`. The runs of the two
sets are interleaved (seed by seed, workload by workload), so a change in
the machine's speed reaches both sets alike. For each set and end-to-end
metric it records the median, the quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and
the metric's bound. It then compares the two sets' medians in both
directions against the bounds, lists where p50 and p90 fall in every
run, and runs the traced run twice on seed 1000 to check that the
deterministic counts repeat exactly.
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1000, 1010)
WORKLOADS = ("corpus", "revise", "serve")
OUT = "perfbench/STEADINESS.md"
DETERMINISTIC = {
    "corpus": ["qsim.quantum_ops", "qsim.executions", "optimize.evaluations"],
    "revise": ["morphqpv.segment_misses", "morphqpv.segment_hit_frac"],
    "serve": ["serve.characterize_leader"],
}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    notes = [line for line in out
             if line.startswith(("host slowdown", "p50 class", "p90 class", "operations"))]
    return json.loads(out[-1]), notes


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(metric, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before if before else 0.0
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    # values[workload][set][metric] -> list; notes[workload][set] -> lines
    values = {w: ({}, {}) for w in WORKLOADS}
    notes = {w: ([], []) for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            for which in (0, 1):
                result, classes = run(workload, seed, seconds, 0)
                flag = "" if result["correct"] else " correct=false;"
                notes[workload][which].append(f"seed {seed}:{flag} " + "; ".join(classes))
                for name, metric in result["metrics"].items():
                    values[workload][which].setdefault(name, []).append(metric["value"])
                print(workload, seed, which + 1,
                      {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)

    lines = [
        "# Steadiness evidence",
        "",
        "Written by `python3 perfbench/steadiness.py` from two sets of untraced runs",
        f"per workload, each with seeds {SEEDS[0]}–{SEEDS[-1]} and `--seconds {seconds}`,",
        "interleaved seed by seed. Spread is (q3 − q1) / median, with quartiles from",
        "`statistics.quantiles(values, n=4)`. The machine it ran on is described in",
        "README.md.",
        "",
    ]
    for workload in WORKLOADS:
        lines += [f"## {workload}", ""]
        for which in (0, 1):
            lines += [f"Set {which + 1}:", "",
                      "| metric | median | q1 | q3 | spread | bound | spread / bound |",
                      "|---|---|---|---|---|---|---|"]
            for name, vals in values[workload][which].items():
                med, q1, q3, spread = summary(vals)
                bound = metrics[name]["bound"]
                lines.append(f"| `{name}` | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | "
                             f"{bound} | {spread / bound:.2f} |")
            lines.append("")
        lines += ["The two sets' medians. A direction agrees when the later median is",
                  "no worse than the earlier one by more than the bound:", "",
                  "| metric | set 1 | set 2 | 2 worse than 1 by | 1 worse than 2 by | bound | agrees |",
                  "|---|---|---|---|---|---|---|"]
        for name, first in values[workload][0].items():
            m1 = statistics.median(first)
            m2 = statistics.median(values[workload][1][name])
            metric = metrics[name]
            a, b = worse_by(metric, m1, m2), worse_by(metric, m2, m1)
            agrees = "yes" if max(a, b) <= metric["bound"] else "NO"
            lines.append(f"| `{name}` | {m1:.4g} | {m2:.4g} | {a:+.3f} | {b:+.3f} | "
                         f"{metric['bound']} | {agrees} |")
        lines += ["", "Percentile classes (class at the rank; share of the samples within",
                  "±2.5% of the rank in the same class):", ""]
        for which in (0, 1):
            lines += [f"- set {which + 1}, {n}" for n in notes[workload][which]]
        counts = []
        for _ in range(2):
            result, _ = run(workload, SEEDS[0], seconds, 1)
            counts.append({k: result["metrics"][k]["value"] for k in DETERMINISTIC[workload]})
        same = "repeat exactly" if counts[0] == counts[1] else "DIFFER"
        lines += ["", f"Deterministic counts, two traced runs of seed {SEEDS[0]}: {same}: "
                  + ", ".join(f"`{k}` = {v:.6g}" for k, v in counts[0].items()), ""]
    with open(OUT, "w") as f:
        f.write("\n".join(lines))


if __name__ == "__main__":
    main()
