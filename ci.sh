#!/usr/bin/env bash
# CI gate for the OFTT reproduction.
#
# Stages (one per `step` call below, in order):
#   1. cargo fmt --check        config in rustfmt.toml
#   2. cargo clippy             whole workspace, warnings are errors; this
#                               is also where the per-module panic lints and
#                               each crate's clippy.toml list of blocking
#                               calls are enforced
#   3. tier-1                   release build + the root suite's smoke tests
#   4. workspace tests          every crate's unit/integration tests in a
#                               debug build, where the parking_lot shim
#                               panics on any lock taken under another (every
#                               lock is a leaf); the reactor's 128-connection
#                               saturation floor is oftt-wire's reactor_load
#                               test, and its per-frame allocation ceilings
#                               are reactor_alloc's. Then the
#                               oftt and oftt-check suites again with the
#                               seeded defects compiled in (the checkpoint
#                               store's one-deep history only exists under
#                               inject_bugs; Call Track's premature watchdog
#                               delete must be reported as api-lifecycle)
#   5. oftt-check sweep         pair failover, 600-schedule budget
#   6. oftt-check sweep         partitioned startup, shipped config; then
#                               the replay round trip: the seeded startup
#                               bug at a 50 us tie window must be found and
#                               emitted (exit 2), and the artifact must
#                               replay to the same violation (exit 0)
#   7. oftt-verify clippy       both feature sets
#   8. verify sweep             oftt-verify exhausts the abstract protocol
#                               space, link resets and refused redials
#                               included (pinned state and transition
#                               counts, zero violations, no lasso) and
#                               refines a 200-schedule trace-export sweep
#   9. verify seeded defect     the inject_bugs round trip
#  10. oftt-check clippy        both feature sets
#  11. wire smoke               two real oftt-node processes over loopback
#                               TCP: SIGKILL the primary, assert promotion
#                               on the peer's reset and refused redial within
#                               200 ms, and restore-crc integrity; then
#                               SIGSTOP a second pair's primary and assert
#                               the backup waits out the peer timeout
#  12. campaign corpus          every examples/campaigns/*.json at its own
#                               seed count (8 x 100 seeds, a few seconds):
#                               every run goes through the oftt-check
#                               invariant engine; any violation,
#                               non-recovered seed, breached corpus pin, or
#                               missed expected violation (the seeded
#                               startup defect) exits nonzero via the
#                               campaign gate
#  13. benchmark smoke          the repo's benchmark (benchmark/run.sh,
#                               declared by BENCHMARK.json) at 1/20 length,
#                               untraced and traced: all four workloads must
#                               report "correct": true and "failed": 0. This
#                               is where checkpoint cost, paced wire latency
#                               (zero data frames shed is part of wire_paced's
#                               "correct") and kill-to-serving time are
#                               measured. The traced pass replays every
#                               VarStore/Checkpoint/CheckpointStore call on a
#                               shadow pair and ships image_crc(None) as a
#                               full payload's crc, so it is the standing
#                               guard that image checksum and full-payload
#                               checksum stay one function. It also pins two
#                               product-side counts that repeat exactly:
#                               ftim.fulls_share is 0 on ckpt_sparse (a pair
#                               whose acks confirm its images resends none, so
#                               a blind refresh cannot come back unnoticed)
#                               and 1 on ckpt_dense
#
# Exits non-zero on the first failing stage, naming it on stderr.

set -euo pipefail
cd "$(dirname "$0")"

CURRENT_STAGE="startup"
step() {
    CURRENT_STAGE="$*"
    printf '\n== %s ==\n' "$*"
}
trap 'printf "\nCI FAILED in stage: %s\n" "$CURRENT_STAGE" >&2' ERR

# Scoped clippy for crates that carry the inject_bugs feature: both
# feature sets must be warning-free, not just the default one.
clippy_both_feature_sets() {
    cargo clippy -p "$1" --all-targets -q -- -D warnings
    cargo clippy -p "$1" --all-targets --features inject_bugs -q -- -D warnings
}

TMPFILES=()
cleanup() { rm -rf "${TMPFILES[@]}"; }
trap cleanup EXIT

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

step "tier-1: release build + root tests"
cargo build --release -q
cargo test -q

step "workspace tests"
cargo test --workspace -q
cargo test -p oftt --features inject_bugs -q
cargo test -p oftt-check --features inject_bugs -q

step "oftt-check sweep (pair failover, 600-schedule budget)"
cargo run -p oftt-check --release -q -- --scenario pair-failover --budget 600

step "oftt-check sweep (partitioned startup, shipped config) + replay round trip"
cargo run -p oftt-check --release -q -- --scenario partitioned-startup --budget 100
# The artifact records the tie window, so a schedule found at 50 us
# replays under 50 us rather than the 500 us default.
REPLAY_ARTIFACT=$(mktemp /tmp/oftt-ce.XXXXXX.sched)
TMPFILES+=("$REPLAY_ARTIFACT")
rc=0
./target/release/oftt-check --scenario partitioned-startup --inject-startup-bug \
    --window-us 50 --budget 6 --seeds 2 --emit "$REPLAY_ARTIFACT" >/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    printf 'startup-bug sweep: expected exit 2 (counterexample), got %s\n' "$rc" >&2
    false
fi
./target/release/oftt-check --replay "$REPLAY_ARTIFACT"

step "oftt-verify clippy (deny warnings, both feature sets)"
clippy_both_feature_sets oftt-verify

step "verify sweep: exhaustive abstract check + 200-schedule refinement"
cargo build --release -q -p oftt-verify
VERIFY_TRACES=$(mktemp -d /tmp/oftt-traces.XXXXXX)
TMPFILES+=("$VERIFY_TRACES")
cargo run -p oftt-check --release -q -- --scenario pair-failover --budget 200 \
    --export-traces "$VERIFY_TRACES"
# The pinned counts are the exhausted default-budget space: states by
# --expect-states, transitions by the printed line checked below. A
# mismatch means the abstract model (or its bounds) changed — re-pin
# only after reviewing why.
VERIFY_LOG=$(mktemp /tmp/oftt-verify.XXXXXX)
TMPFILES+=("$VERIFY_LOG")
./target/release/oftt-verify --liveness --expect-states 5281118 \
    --refine "$VERIFY_TRACES" | tee "$VERIFY_LOG"
if ! grep -q '^explored 5281118 states, 18355279 transitions ' "$VERIFY_LOG"; then
    echo "TRANSITION COUNT MISMATCH: expected 18355279 transitions" >&2
    false
fi

step "verify seeded-defect round trip (inject_bugs)"
cargo test -p oftt-verify --features inject_bugs -q

step "oftt-check clippy (deny warnings, both feature sets)"
clippy_both_feature_sets oftt-check

step "wire smoke: two-process SIGKILL failover over TCP"
cargo build --release -q -p oftt-wire --bins
./target/release/wire-smoke

step "campaign corpus: every scenario at its own seed count"
# The gate exits 2 on any invariant violation, non-recovered seed,
# breached pin, or an expected violation the instrument failed to
# surface — `set -e` turns any of those into a CI failure. No --seeds:
# the pins' sample floors are set for each file's own seed count.
CAMPAIGN_ARGS=()
for scenario in examples/campaigns/*.json; do
    CAMPAIGN_ARGS+=(--scenario "$scenario")
done
cargo run -p oftt-campaign --release -q -- run "${CAMPAIGN_ARGS[@]}"

step "benchmark smoke: four workloads, untraced and traced, outputs checked"
for trace in 0 1; do
    # Each workload's last output line is its result as one JSON object.
    results=$(bash benchmark/run.sh --trace "$trace" --smoke | grep '^{')
    passed=$(printf '%s\n' "$results" |
        grep -c '^{"correct": true, "attempted": [0-9]*, "failed": 0,' || true)
    if [ "$(printf '%s\n' "$results" | wc -l)" -ne 4 ] || [ "$passed" -ne 4 ]; then
        printf 'benchmark smoke (--trace %s): want 4 correct results with 0 failed, got:\n%s\n' \
            "$trace" "$results" >&2
        false
    fi
    if [ "$trace" -eq 1 ]; then
        # run.sh's order is fixed: ckpt_sparse first, ckpt_dense second.
        for want in '1 ckpt_sparse 0' '2 ckpt_dense 1'; do
            read -r line workload share <<<"$want"
            got=$(printf '%s\n' "$results" | sed -n "${line}p" |
                grep -o '"ftim.fulls_share": {"value": [^,]*,' || true)
            if [ "$got" != "\"ftim.fulls_share\": {\"value\": $share," ]; then
                printf 'benchmark smoke: want ftim.fulls_share %s on %s, got: %s\n' \
                    "$share" "$workload" "$got" >&2
                false
            fi
        done
    fi
done

printf '\nCI green.\n'
