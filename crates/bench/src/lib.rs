//! What the repo's benchmark does not measure.
//!
//! Performance — checkpoint cost, paced wire latency, kill-to-serving
//! time — is measured in one place, `benchmark/` (declared by the root
//! `BENCHMARK.json`). This crate keeps only what that does not cover:
//!
//! * `src/bin/oftt_experiments.rs` — regenerates the paper's tables in
//!   EXPERIMENTS.md (`cargo run -p bench --release --bin oftt-experiments`).
//! * `src/bin/bench_lint.rs`, `src/bin/bench_verify.rs` — throughput of
//!   the analysis tools (`BENCH_lint.json`, `BENCH_verify.json`).
//! * `src/bin/bench_wire.rs` — the reactor's many-connection saturation
//!   gate (asserts in-process, writes nothing).
//! * `src/bin/bench_validate.rs` — validates every JSON artifact CI emits
//!   against its declared schema (the arms live in [`validate`]).
//! * [`json`] — the dependency-free JSON parser the validator and
//!   `oftt-campaign`'s scenario loader share.

pub mod json;
pub mod validate;
