#!/usr/bin/env bash
# Do two sets of runs of the same checkout agree within the benchmark's own
# bounds?
#
#   bash benchmark/agree.sh [runs-per-set, default 10] > benchmark/out/agreement.txt
#
# Each set runs every workload once per seed (set 1: seeds 1..N, set 2:
# seeds N+1..2N), untraced, for BENCHMARK.json's run_seconds. For every
# (workload, end-to-end metric) pair it prints both medians, how much worse
# the second is than the first, each set's quartile spread as a share of its
# median, and the bound. It exits non-zero if a second median is worse than
# the first by more than the bound, if a spread other than setup_s's exceeds
# its bound, or if any run is incorrect.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
runs="${1:-10}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
results="$(mktemp -d "$target/agree.XXXXXX")"
trap 'rm -rf "$results"' EXIT

for set in 1 2; do
    for ((i = 1; i <= runs; i++)); do
        seed=$(((set - 1) * runs + i))
        for workload in ckpt_sparse ckpt_dense wire_paced failover_kill; do
            echo "set $set seed $seed $workload" >&2
            bash benchmark/run.sh --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 | tail -n 1 >>"$results/$set-$workload.jsonl"
        done
    done
done

python3 - "$results" "$runs" <<'EOF'
import json, statistics, sys

results, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
print(f"# {runs} runs per set, {spec['run_seconds']} s each; spread = (Q3 - Q1) / median")
print(f"{'workload':<14} {'metric':<14} {'median 1':>12} {'median 2':>12} "
      f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6}")
breaches = 0
for workload in (w["name"] for w in spec["workloads"]):
    sets = []
    for s in (1, 2):
        rows = [json.loads(line) for line in open(f"{results}/{s}-{workload}.jsonl")]
        bad = [r for r in rows if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: set {s} has {len(bad)} incorrect run(s)")
            breaches += 1
        sets.append(rows)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in rows] for rows in sets]
        med = [statistics.median(v) for v in values]
        spread = []
        for v, m in zip(values, med):
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread.append((q3 - q1) / m)
        worse = (med[1] - med[0]) / med[0]
        if metric["better"] == "higher":
            worse = -worse
        breach = worse > bound or (name != "setup_s" and max(spread) > bound)
        breaches += breach
        print(f"{workload:<14} {name:<14} {med[0]:>12.4f} {med[1]:>12.4f} {worse:>+9.2%} "
              f"{spread[0]:>9.2%} {spread[1]:>9.2%} {bound:>6.0%}{'  BREACH' if breach else ''}")
print(f"# breaches: {breaches}")
sys.exit(1 if breaches else 0)
EOF
