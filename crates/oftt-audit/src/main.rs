//! `oftt-audit` CLI: sweep-audit schedules for races and stale reads, or
//! lint a single run's API call stream.

use std::process::ExitCode;
use std::time::Instant;

use ds_sim::prelude::SimDuration;
use oftt_audit::{audit_sweep, lint};
use oftt_check::{run, ExploreConfig, Scenario};

const USAGE: &str = "\
oftt-audit: happens-before race analyzer and OFTT API-lifecycle linter
over the model checker's deterministic traces (lock order is checked
statically by oftt-lint)

USAGE:
    oftt-audit scan [OPTIONS]     audit every distinct schedule of a sweep
    oftt-audit lint [OPTIONS]     lint one run's API call sequence

OPTIONS (scan):
    --scenario NAME        pair-failover (default) | partitioned-startup
    --budget N             max simulation runs (default 600)
    --seeds N              sweep seeds 1..=N (default 8)
    --window-us MICROS     tie window in microseconds (default 500)

OPTIONS (lint):
    --scenario NAME        pair-failover (default) | partitioned-startup
    --seed N               schedule seed (default 1)

EXIT CODE: 0 clean, 1 usage error, 2 findings.";

struct Args {
    name: String,
    scenario: Scenario,
    budget: usize,
    seeds: u64,
    seed: u64,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        name: "pair-failover".to_string(),
        scenario: Scenario::default(),
        budget: 600,
        seeds: 8,
        seed: 1,
    };
    let mut window_us = 500;
    let mut it = it;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--scenario" => {
                args.name = value("--scenario")?;
            }
            "--budget" => args.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?,
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--window-us" => {
                window_us = value("--window-us")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if args.seeds == 0 || args.budget == 0 {
        return Err("--seeds and --budget must be at least 1".to_string());
    }
    args.scenario =
        Scenario::named(&args.name).ok_or(format!("unknown scenario {:?}", args.name))?;
    args.scenario.tie_window = SimDuration::from_micros(window_us);
    Ok(args)
}

fn scan_mode(args: &Args) -> ExitCode {
    let config = ExploreConfig {
        seeds: (1..=args.seeds).collect(),
        budget: args.budget,
        ..Default::default()
    };
    println!(
        "auditing {} (budget {} runs, seeds 1..={}, window {}µs)",
        args.name,
        config.budget,
        args.seeds,
        args.scenario.tie_window.as_micros()
    );
    let started = Instant::now();
    let report = audit_sweep(&args.scenario, &config);
    println!(
        "{} runs, {} distinct schedules, {} choice points, {:.1}s",
        report.explore.runs,
        report.explore.distinct,
        report.explore.choice_points,
        started.elapsed().as_secs_f64()
    );
    if !report.explore.counterexamples.is_empty() {
        println!(
            "note: {} protocol-invariant counterexample(s) also found — run oftt-check",
            report.explore.counterexamples.len()
        );
    }
    if report.findings.is_empty() {
        println!("no races, stale reads, or lint findings");
        return ExitCode::SUCCESS;
    }
    println!("\n{} finding(s):", report.findings.len());
    for finding in &report.findings {
        println!("  {finding}");
    }
    ExitCode::from(2)
}

fn lint_mode(args: &Args) -> ExitCode {
    println!("linting one {} run (seed {})", args.name, args.seed);
    let result = run(&args.scenario, args.seed, &[]);
    let findings = lint::lint_api_usage(&result.events, &result.causality.api_calls);
    println!(
        "{} API call(s) from {} trace event(s)",
        result.causality.api_calls.len(),
        result.events.len()
    );
    if findings.is_empty() {
        println!("no lifecycle violations");
        return ExitCode::SUCCESS;
    }
    println!("\n{} finding(s):", findings.len());
    for finding in &findings {
        println!("  {finding}");
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1);
    let mode = it.next();
    let args = match parse_args(it) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    match mode.as_deref() {
        Some("scan") => scan_mode(&args),
        Some("lint") => lint_mode(&args),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: expected a subcommand (scan | lint), got {other:?}\n\n{USAGE}");
            ExitCode::from(1)
        }
    }
}
