#!/usr/bin/env bash
# Builds oftt-node (from the repo workspace) and the benchmark (its own
# package) into one target directory, so ChildNode::spawn finds oftt-node
# beside the benchmark binary, then runs the benchmark.
#
#   bash benchmark/run.sh --workload wire_paced --seed 3 --seconds 12 --trace 0
#   bash benchmark/run.sh --seed 3            # all four workloads, untraced
#   bash benchmark/run.sh --trace 1 --smoke   # all four, traced, 1/20 length
#
# The last line of each workload's output is its result as one JSON object.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$root/$target"
export CARGO_TARGET_DIR="$target"

# --locked: the build may read both lock files but never rewrite them.
# Build chatter goes to stderr; stdout carries results only.
cargo build --release --offline --locked --quiet -p oftt-wire --bin oftt-node >&2
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml >&2

workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    [[ "${args[i]}" == "--workload" ]] && workload="${args[i + 1]:-}"
done
if [[ -n "$workload" ]]; then
    "$target/release/oftt-benchmark" "$@"
    exit
fi
for workload in ckpt_sparse ckpt_dense wire_paced failover_kill; do
    "$target/release/oftt-benchmark" --workload "$workload" "$@"
done
