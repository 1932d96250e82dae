//! `oftt-campaign` CLI: expand, execute, and aggregate scenario campaigns.

use std::process::ExitCode;
use std::time::Instant;

use oftt_campaign::{
    aggregate, default_jobs, gate_failures, render_json, render_summary, run_campaign, Scenario,
};

const USAGE: &str = "\
oftt-campaign: declarative scenario campaigns over the checked OFTT deployment

USAGE:
    oftt-campaign run   --scenario FILE [--scenario FILE ...] [OPTIONS]
    oftt-campaign check --scenario FILE [--scenario FILE ...]

OPTIONS:
    --scenario FILE    a scenario JSON file (repeatable)
    --seeds N          truncate every scenario to its first N seeds
    --jobs N           worker threads (default: the machine's parallelism)
    --out PATH         write the per-scenario aggregates as JSON here
    --help             this text

`check` loads and validates the files without running anything.

EXIT CODE: 0 clean, 1 load/usage error, 2 gate failure (unexpected
invariant violations, non-recovered seeds, or a breached pin).";

struct Args {
    command: String,
    scenarios: Vec<String>,
    seeds: Option<usize>,
    jobs: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = match it.next() {
        Some(c) if c == "run" || c == "check" => c,
        Some(c) if c == "--help" => return Err(String::new()),
        Some(c) => return Err(format!("unknown command {c:?}")),
        None => return Err("missing command (run | check)".into()),
    };
    let mut args =
        Args { command, scenarios: Vec::new(), seeds: None, jobs: default_jobs(), out: None };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--scenario" => args.scenarios.push(value("--scenario")?),
            "--seeds" => {
                args.seeds = Some(
                    value("--seeds")?
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or("--seeds needs a positive integer")?,
                );
            }
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or("--jobs needs a positive integer")?;
            }
            "--out" => args.out = Some(value("--out")?),
            "--help" => return Err(String::new()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if args.scenarios.is_empty() {
        return Err("at least one --scenario is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut scenarios = Vec::new();
    for path in &args.scenarios {
        match Scenario::load_file(path) {
            Ok(mut sc) => {
                if let Some(n) = args.seeds {
                    sc.seeds.truncate(n);
                }
                scenarios.push(sc);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.command == "check" {
        for sc in &scenarios {
            println!("{}: ok ({} seeds, {} script steps)", sc.name, sc.seeds.len(), sc.steps.len());
        }
        return ExitCode::SUCCESS;
    }

    let total_runs: usize = scenarios.iter().map(|s| s.seeds.len()).sum();
    eprintln!(
        "running {} scenario(s), {total_runs} run(s) across {} worker(s)…",
        scenarios.len(),
        args.jobs
    );
    let started = Instant::now();
    let records = run_campaign(&scenarios, args.jobs);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    let stats: Vec<_> = scenarios
        .iter()
        .enumerate()
        .map(|(i, sc)| {
            let mine: Vec<_> = records.iter().filter(|r| r.scenario == i).cloned().collect();
            aggregate(sc, &mine)
        })
        .collect();
    print!("{}", render_summary(&stats));
    eprintln!("{total_runs} run(s) in {:.1}s", elapsed_ms as f64 / 1000.0);

    if let Some(out) = &args.out {
        let json = render_json(&stats, total_runs, elapsed_ms, args.jobs);
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("error: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }

    let failures: Vec<String> = stats.iter().flat_map(gate_failures).collect();
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("GATE: {f}");
        }
        ExitCode::from(2)
    }
}
