//! `oftt-check` CLI: explore schedules, shrink counterexamples, replay
//! artifacts.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ds_sim::prelude::{Schedule, SimDuration};
use oftt_check::{
    check_all, explore, explore_with, run, shrink, ExploreConfig, ReplayFile, Scenario, TraceExport,
};

const USAGE: &str = "\
oftt-check: schedule-exploring model checker for the OFTT failover protocol

USAGE:
    oftt-check [OPTIONS]

OPTIONS:
    --scenario NAME        pair-failover (default) | partitioned-startup
    --budget N             max simulation runs (default 600)
    --seeds N              sweep seeds 1..=N (default 8)
    --window-us MICROS     tie window in microseconds (default 500)
    --inject-startup-bug   re-introduce the pre-fix §3.2 startup behaviour
    --emit PATH            write the first shrunk counterexample here
    --export-traces DIR    write every distinct run as an oftt-trace-v1 file
    --replay PATH          replay a saved schedule artifact instead
    --help                 this text

EXIT CODE: 0 clean, 1 usage error, 2 violations found (or replay failed
to reproduce).";

struct Args {
    name: String,
    scenario: Scenario,
    budget: usize,
    seeds: u64,
    emit: Option<PathBuf>,
    export_traces: Option<PathBuf>,
    replay: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        name: "pair-failover".to_string(),
        scenario: Scenario::default(),
        budget: 600,
        seeds: 8,
        emit: None,
        export_traces: None,
        replay: None,
    };
    let (mut window_us, mut inject_startup_bug) = (500, false);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--scenario" => {
                args.name = value("--scenario")?;
            }
            "--budget" => args.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?,
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--window-us" => {
                window_us = value("--window-us")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--inject-startup-bug" => inject_startup_bug = true,
            "--emit" => args.emit = Some(PathBuf::from(value("--emit")?)),
            "--export-traces" => {
                args.export_traces = Some(PathBuf::from(value("--export-traces")?));
            }
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if args.replay.is_none() && (args.seeds == 0 || args.budget == 0) {
        return Err("--seeds and --budget must be at least 1".to_string());
    }
    args.scenario =
        Scenario::named(&args.name).ok_or(format!("unknown scenario {:?}", args.name))?;
    if inject_startup_bug {
        args.scenario = args.scenario.with_startup_bug();
    }
    args.scenario.tie_window = SimDuration::from_micros(window_us);
    Ok(args)
}

fn replay_mode(path: &Path) -> ExitCode {
    let file = match ReplayFile::load(path) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "replaying {} ({}, bug={}, {} forced choices)",
        path.display(),
        file.name,
        file.scenario.has_startup_bug(),
        file.schedule.choices.len()
    );
    let outcome = file.replay();
    if outcome.violations.is_empty() {
        println!("replay is clean — the recorded schedule no longer violates any invariant");
        ExitCode::from(2)
    } else {
        for v in &outcome.violations {
            println!("  {v}");
        }
        println!("replay reproduces {} violation(s)", outcome.violations.len());
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    if let Some(path) = &args.replay {
        return replay_mode(path);
    }

    let scenario = &args.scenario;
    let config = ExploreConfig {
        seeds: (1..=args.seeds).collect(),
        budget: args.budget,
        ..Default::default()
    };
    println!(
        "exploring {} (budget {} runs, seeds 1..={}, window {}µs{})",
        args.name,
        config.budget,
        args.seeds,
        scenario.tie_window.as_micros(),
        if scenario.has_startup_bug() { ", startup bug injected" } else { "" }
    );
    let started = Instant::now();
    let report = match &args.export_traces {
        None => explore(scenario, &config),
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error creating {}: {e}", dir.display());
                return ExitCode::from(1);
            }
            let mut exported = 0usize;
            let report = explore_with(scenario, &config, |result| {
                let export = TraceExport::from_run(&args.name, scenario, result);
                let name = TraceExport::file_name(&args.name, result.schedule.seed, exported);
                if let Err(e) = export.save(&dir.join(&name)) {
                    eprintln!("error writing {name}: {e}");
                } else {
                    exported += 1;
                }
            });
            println!("{} trace export(s) written to {}", exported, dir.display());
            report
        }
    };
    println!(
        "{} runs, {} distinct schedules, {} duplicates, {} choice points, {:.1}s",
        report.runs,
        report.distinct,
        report.duplicates,
        report.choice_points,
        started.elapsed().as_secs_f64()
    );
    if report.counterexamples.is_empty() {
        println!("all invariants hold on every explored schedule");
        return ExitCode::SUCCESS;
    }

    let first = &report.counterexamples[0];
    println!("\n{} violating run(s); first:", report.counterexamples.len());
    for v in &first.violations {
        println!("  {v}");
    }
    let target = first.violations[0].invariant;
    println!("shrinking ({} recorded choices)...", first.schedule.choices.len());
    let shrunk = shrink(&first.schedule, 64, |candidate: &Schedule| {
        let result = run(scenario, candidate.seed, &candidate.choices);
        check_all(&result.events).iter().any(|v| v.invariant == target)
    });
    println!(
        "shrunk to {} forced choice(s) in {} attempts",
        shrunk.schedule.choices.len(),
        shrunk.attempts
    );
    let artifact = ReplayFile {
        name: args.name.clone(),
        scenario: scenario.clone(),
        schedule: shrunk.schedule,
    };
    match &args.emit {
        Some(path) => match artifact.save(path) {
            Ok(()) => println!("counterexample written to {}", path.display()),
            Err(e) => eprintln!("error writing {}: {e}", path.display()),
        },
        None => print!("\n{}", artifact.to_text()),
    }
    ExitCode::from(2)
}
