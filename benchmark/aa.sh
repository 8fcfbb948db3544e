#!/usr/bin/env bash
# A/A check: runs the same build twice the way the benchmark's driver
# does — ten runs per workload, each with another seed, end-to-end
# metrics only — and holds every metric to its bound in BENCHMARK.json.
#
# Per workload and metric it prints each set's spread (distance between
# the first and third quartile of the ten values, as a share of their
# median) and how much worse the second set's median is than the
# first's. It exits non-zero if a spread (setup_s excepted) or a shift
# exceeds the metric's bound, or if any run reports a failed check.
# A spread above a third of the bound is flagged `unsteady`.
#
# Every value measured is kept in benchmark/out/aa.json. Takes ~40
# minutes. Runs of the six workloads are interleaved, so a noisy quarter
# of an hour hits one run of each, not one workload's ten.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - <<'EOF'
import json, statistics, subprocess, sys

RUNS = 10
bench = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]


def run(workload, seed):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} iterations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


sets = []
for s in (1, 2):
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for name, value in run(w, 1000 * s + i).items():
                values[w][name].append(value)
        print(f"set {s}: run {i + 1}/{RUNS} of every workload done", file=sys.stderr)
    sets.append(values)
with open("benchmark/out/aa.json", "w") as raw:
    json.dump(sets, raw, indent=1)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


bad = False
print(f"{'workload':<13} {'metric':<13} {'median A':>12} {'median B':>12} "
      f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}")
for w in workloads:
    for m in metrics:
        a, b = (s[w][m["name"]] for s in sets)
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
        spreads = (spread(a), spread(b))
        flags = []
        if worse > m["bound"]:
            flags.append("SHIFTED")
        if m["name"] != "setup_s":
            if max(spreads) > m["bound"]:
                flags.append("NOISY")
            elif max(spreads) > m["bound"] / 3:
                flags.append("unsteady")
        bad |= "SHIFTED" in flags or "NOISY" in flags
        print(f"{w:<13} {m['name']:<13} {med_a:>12.4f} {med_b:>12.4f} "
              f"{spreads[0]:>9.2%} {spreads[1]:>9.2%} {worse:>+8.2%} {m['bound']:>6.0%} "
              + " ".join(flags))
sys.exit(1 if bad else 0)
EOF
