//! Emits `BENCH_verify.json`: throughput of the oftt-verify exhaustive
//! checker and the trace-refinement pipeline.
//!
//! ```text
//! cargo run -p bench --release --bin bench-verify    # writes BENCH_verify.json
//! BENCH_REFINE_RUNS=50 ... bench-verify              # larger refinement batch
//! BENCH_OUT=/tmp/v.json ... bench-verify             # alternate path
//! ```
//!
//! 1. **cells** — one exhaustive exploration per budget tier
//!    (`crash-and-cut`: one crash plus one partition; `default`: the
//!    CLI's full fault budget), each followed by the fair-lasso search.
//!    Every tier must come back clean: zero violations, no lasso.
//! 2. **refinement** — live `pair-failover` runs are exported, projected
//!    onto the abstract observables, and checked for trace inclusion
//!    against the crash-and-cut graph; the cell reports end-to-end
//!    exports-per-second with zero tolerated failures.

use std::time::Instant;

use oftt::transition::Defects;
use oftt_check::{run, Scenario, TraceExport};
use oftt_verify::explore::{explore, Explored};
use oftt_verify::liveness::find_persistent_dual_primary;
use oftt_verify::model::{AbsState, Bounds, Budgets};
use oftt_verify::refine::refine_export;

const STATE_CAP: usize = 10_000_000;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

struct Tier {
    name: &'static str,
    budgets: Budgets,
}

fn tiers() -> Vec<Tier> {
    vec![
        Tier {
            name: "crash-and-cut",
            budgets: Budgets { crashes: 1, partitions: 1, distress: 0, advances: 0, hangs: 0 },
        },
        Tier { name: "default", budgets: Budgets::default() },
    ]
}

fn explore_tier(tier: &Tier, bounds: &Bounds) -> (Explored, bool, u128) {
    let started = Instant::now();
    let ex = explore(AbsState::initial(tier.budgets), bounds, &Defects::default(), STATE_CAP);
    let lasso = find_persistent_dual_primary(&ex).is_some();
    (ex, lasso, started.elapsed().as_millis())
}

fn main() {
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_verify.json".into());
    let refine_runs = env_usize("BENCH_REFINE_RUNS", 20);
    let bounds = Bounds::default();

    let mut cells_json = Vec::new();
    let mut refine_graph: Option<Explored> = None;
    for tier in tiers() {
        let (ex, lasso, elapsed_ms) = explore_tier(&tier, &bounds);
        assert!(!ex.capped, "{}: state cap hit; raise STATE_CAP", tier.name);
        let states_per_sec = ex.states.len() as f64 / (elapsed_ms.max(1) as f64 / 1000.0);
        println!(
            "{:>13}: {:>9} states {:>10} transitions {:>8} reduced  lasso={}  {:>7} ms  {:>9.0} states/s",
            tier.name,
            ex.states.len(),
            ex.transitions,
            ex.por_reduced,
            lasso,
            elapsed_ms,
            states_per_sec,
        );
        cells_json.push(format!(
            r#"    {{ "name": "{}", "states": {}, "transitions": {}, "por_reduced": {}, "truncated": {}, "violations": {}, "lasso": {}, "elapsed_ms": {}, "states_per_sec": {:.0} }}"#,
            tier.name,
            ex.states.len(),
            ex.transitions,
            ex.por_reduced,
            ex.truncated,
            ex.violations.len(),
            lasso,
            elapsed_ms,
            states_per_sec,
        ));
        if tier.name == "crash-and-cut" {
            refine_graph = Some(ex);
        }
    }

    let graph = refine_graph.expect("the crash-and-cut tier always runs");
    let scenario = Scenario::named("pair-failover").expect("a named scenario");
    let started = Instant::now();
    let mut observations = 0usize;
    let mut failures = 0usize;
    for seed in 1..=refine_runs as u64 {
        let export = TraceExport::from_run("pair-failover", &scenario, &run(&scenario, seed, &[]));
        match refine_export(&graph, &export, &bounds) {
            Ok(n) => observations += n,
            Err(e) => {
                failures += 1;
                eprintln!("refinement failure at seed {seed}: {e}");
            }
        }
    }
    let refine_ms = started.elapsed().as_millis();
    let exports_per_sec = refine_runs as f64 / (refine_ms.max(1) as f64 / 1000.0);
    println!(
        "   refinement: {refine_runs} exports {observations} observations \
         {failures} failures  {refine_ms} ms  {exports_per_sec:.1} exports/s"
    );

    let doc = format!(
        "{{\n  \"schema\": \"oftt-bench-verify-v1\",\n  \"cells\": [\n{}\n  ],\n  \
         \"refinement\": {{ \"exports\": {refine_runs}, \"observations\": {observations}, \
         \"failures\": {failures}, \"elapsed_ms\": {refine_ms}, \
         \"exports_per_sec\": {exports_per_sec:.1} }}\n}}\n",
        cells_json.join(",\n"),
    );
    std::fs::write(&out_path, doc).expect("write bench artifact");
    println!("wrote {out_path}");
}
