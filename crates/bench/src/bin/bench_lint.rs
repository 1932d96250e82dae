//! Emits `BENCH_lint.json`: throughput and coverage of the oftt-lint
//! interprocedural effect analysis over the real workspace.
//!
//! ```text
//! cargo run -p bench --release --bin bench-lint      # writes BENCH_lint.json
//! BENCH_LINT_RUNS=10 ... bench-lint                  # more timing samples
//! BENCH_OUT=/tmp/l.json ... bench-lint               # alternate path
//! ```
//!
//! The scan runs end to end (walk, lex, scan, call-graph construction,
//! effect fixpoint, every rule family) `runs` times against the
//! workspace root; the fastest wall time is reported, the way the other
//! bench arms report their best cell. Findings are counted *after* the
//! checked-in `lint-baseline.txt` is applied, so the acceptance verdict
//! the validator enforces — zero non-baselined findings, zero stale
//! baseline entries — matches what CI enforces on the tree.

use std::time::Instant;

use oftt_lint::report::{apply_baseline, parse_baseline};
use oftt_lint::{run_scan, Options};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

fn main() {
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_lint.json".into());
    let runs = env_usize("BENCH_LINT_RUNS", 3);
    let root = std::env::current_dir().expect("cwd");
    assert!(
        root.join("lint-baseline.txt").is_file(),
        "run from the workspace root (lint-baseline.txt not found in {})",
        root.display()
    );
    let baseline_text =
        std::fs::read_to_string(root.join("lint-baseline.txt")).expect("read lint-baseline.txt");
    let baseline = parse_baseline(&baseline_text).expect("well-formed baseline");

    let mut best_ms = u128::MAX;
    let mut last = None;
    for _ in 0..runs {
        let started = Instant::now();
        let report = run_scan(&Options { root: root.clone(), ..Options::default() });
        best_ms = best_ms.min(started.elapsed().as_millis());
        last = Some(report);
    }
    let report = last.expect("at least one run");
    let (kept, suppressed, stale) = apply_baseline(report.findings, &baseline);
    let files_per_sec = report.files_scanned as f64 / (best_ms.max(1) as f64 / 1000.0);

    println!(
        "lint: {} files {} fns {} edges, fixpoint x{}, {} roots -> {} reachable, \
         {} finding(s) ({} suppressed, {} stale)  best {} ms  {:.0} files/s",
        report.files_scanned,
        report.functions,
        report.call_edges,
        report.fixpoint_iterations,
        report.reactor_roots,
        report.reactor_reachable,
        kept.len(),
        suppressed,
        stale.len(),
        best_ms,
        files_per_sec,
    );
    for f in &kept {
        eprintln!("  non-baselined: {}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    for (rule, file, message) in &stale {
        eprintln!("  stale baseline entry: [{rule}] {file}: {message}");
    }

    let doc = format!(
        "{{\n  \"schema\": \"oftt-bench-lint-v2\",\n  \
         \"runs\": {runs},\n  \
         \"files_scanned\": {},\n  \
         \"functions\": {},\n  \
         \"call_edges\": {},\n  \
         \"fixpoint_iterations\": {},\n  \
         \"reactor_roots\": {},\n  \
         \"reactor_reachable\": {},\n  \
         \"findings\": {},\n  \
         \"suppressed\": {},\n  \
         \"stale_baseline\": {},\n  \
         \"elapsed_ms\": {best_ms},\n  \
         \"files_per_sec\": {files_per_sec:.0}\n}}\n",
        report.files_scanned,
        report.functions,
        report.call_edges,
        report.fixpoint_iterations,
        report.reactor_roots,
        report.reactor_reachable,
        kept.len(),
        suppressed,
        stale.len(),
    );
    std::fs::write(&out_path, doc).expect("write bench artifact");
    println!("wrote {out_path}");
}
