//! `oftt-verify` CLI: exhaust the abstract failover-protocol state
//! space, check safety and liveness, refine concrete trace exports, and
//! render counterexamples as replayable oftt-check fault scripts.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use oftt::transition::Defects;
use oftt_check::export::TraceExport;
use oftt_verify::explore::{explore, Explored};
use oftt_verify::liveness::find_persistent_dual_primary;
use oftt_verify::model::{AbsState, Action, Bounds, Budgets};
use oftt_verify::refine::refine_export;
use oftt_verify::render::render_script;

const USAGE: &str = "\
oftt-verify: exhaustive explicit-state verification of the OFTT failover
protocol, with trace-refinement conformance against oftt-check

USAGE:
    oftt-verify [OPTIONS]

BOUNDS:
    --term-max N           truncate branches above this term (default 4)
    --channel-cap N        raw messages per channel (default 3)
    --max-age N            ticks a raw message may float (default 1)
    --silence-limit N      backup ticks to silence promotion (default 4)
    --drift-max N          tick-count lead between live nodes (default 1)
    --state-cap N          abort past this many states (default 10000000)

FAULT BUDGETS:
    --crashes N            node crashes (default 1)
    --resets N             link resets reported to a backup (default 1)
    --partitions N         interconnect partitions (default 1)
    --distress N           application distress calls (default 1)
    --advances N           checkpoint staleness events (default 1)
    --hangs N              application hangs (default 1)

MODES:
    --liveness             also hunt fair persistent-dual-primary lassos
    --expect-states N      fail (exit 2) unless exactly N states explored
    --refine DIR           check every .trace export in DIR for inclusion
    --defect NAME          enable a seeded defect: dual-primary-window |
                           stale-promotion (needs --features inject_bugs)
    --render PATH          write the first counterexample as a fault script
    --help                 this text

EXIT CODE: 0 verified clean, 1 usage error, 2 violations / lasso /
refinement failure / state-count mismatch.";

struct Args {
    bounds: Bounds,
    budgets: Budgets,
    state_cap: usize,
    liveness: bool,
    expect_states: Option<usize>,
    refine: Option<PathBuf>,
    defects: Defects,
    render: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bounds: Bounds::default(),
        budgets: Budgets::default(),
        state_cap: 10_000_000,
        liveness: false,
        expect_states: None,
        refine: None,
        defects: Defects::default(),
        render: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        fn num<T: std::str::FromStr>(v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{e}"))
        }
        match arg.as_str() {
            "--term-max" => args.bounds.term_max = num(value("--term-max")?)?,
            "--channel-cap" => args.bounds.channel_cap = num(value("--channel-cap")?)?,
            "--max-age" => args.bounds.max_age = num(value("--max-age")?)?,
            "--silence-limit" => args.bounds.silence_limit = num(value("--silence-limit")?)?,
            "--drift-max" => args.bounds.drift_max = num(value("--drift-max")?)?,
            "--state-cap" => args.state_cap = num(value("--state-cap")?)?,
            "--crashes" => args.budgets.crashes = num(value("--crashes")?)?,
            "--resets" => args.budgets.resets = num(value("--resets")?)?,
            "--partitions" => args.budgets.partitions = num(value("--partitions")?)?,
            "--distress" => args.budgets.distress = num(value("--distress")?)?,
            "--advances" => args.budgets.advances = num(value("--advances")?)?,
            "--hangs" => args.budgets.hangs = num(value("--hangs")?)?,
            "--liveness" => args.liveness = true,
            "--expect-states" => args.expect_states = Some(num(value("--expect-states")?)?),
            "--refine" => args.refine = Some(PathBuf::from(value("--refine")?)),
            "--defect" => {
                let v = value("--defect")?;
                match v.as_str() {
                    "dual-primary-window" => args.defects.dual_primary_window = true,
                    "stale-promotion" => args.defects.stale_promotion = true,
                    other => return Err(format!("unknown defect {other:?}")),
                }
                if !cfg!(feature = "inject_bugs") {
                    eprintln!(
                        "warning: --defect {v} is inert — rebuild with \
                         --features inject_bugs to compile the seeded defect in"
                    );
                }
            }
            "--render" => args.render = Some(PathBuf::from(value("--render")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if args.bounds.silence_limit == 0 || args.bounds.term_max == 0 {
        return Err("--silence-limit and --term-max must be at least 1".to_string());
    }
    Ok(args)
}

fn refine_dir(ex: &Explored, bounds: &Bounds, dir: &Path) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "trace"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .trace exports found in {}", dir.display()));
    }
    let mut failures = 0usize;
    let mut total_obs = 0usize;
    for path in &paths {
        let export = TraceExport::load(path)?;
        match refine_export(ex, &export, bounds) {
            Ok(n) => total_obs += n,
            Err(e) => {
                failures += 1;
                eprintln!("REFINEMENT FAILURE {}: {e}", path.display());
            }
        }
    }
    println!(
        "refinement: {} export(s), {} observation(s), {} failure(s)",
        paths.len(),
        total_obs,
        failures
    );
    if failures > 0 {
        return Err(format!("{failures} export(s) failed trace inclusion"));
    }
    Ok(())
}

fn describe_path(path: &[Action]) -> String {
    path.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(1);
        }
    };

    let started = Instant::now();
    let initial = AbsState::initial(args.budgets);
    let result = explore(initial, &args.bounds, &args.defects, args.state_cap);
    println!(
        "explored {} states, {} transitions ({} truncated at term bound, \
         {} stutter-reduced) in {:?}",
        result.states.len(),
        result.transitions,
        result.truncated,
        result.por_reduced,
        started.elapsed()
    );

    let mut failed = false;
    if result.capped {
        eprintln!(
            "STATE CAP HIT at {} states — the space was NOT exhausted; \
             raise --state-cap or tighten the bounds",
            result.states.len()
        );
        failed = true;
    }

    for v in &result.violations {
        println!("VIOLATION {}: {}", v.invariant, v.detail);
        println!("  shortest path ({} actions): {}", v.path.len(), describe_path(&v.path));
        failed = true;
    }
    if result.violations.is_empty() {
        println!("safety: all invariants hold on every reachable transition");
    }

    let mut render_path: Option<Vec<Action>> = result.violations.first().map(|v| v.path.clone());

    if args.liveness {
        match find_persistent_dual_primary(&result) {
            None => println!("liveness: no fair schedule keeps a dual primary forever"),
            Some(lasso) => {
                println!(
                    "LASSO persistent-dual-primary: stem {} actions, cycle {} actions",
                    lasso.stem.len(),
                    lasso.cycle.len()
                );
                println!("  stem:  {}", describe_path(&lasso.stem));
                println!("  cycle: {}", describe_path(&lasso.cycle));
                if render_path.is_none() {
                    let mut p = lasso.stem.clone();
                    p.extend_from_slice(&lasso.cycle);
                    render_path = Some(p);
                }
                failed = true;
            }
        }
    }

    if let Some(expected) = args.expect_states {
        if result.states.len() != expected {
            eprintln!(
                "STATE COUNT MISMATCH: explored {} states, expected {expected} — \
                 the abstract model or its bounds changed; re-pin after review",
                result.states.len()
            );
            failed = true;
        } else {
            println!("state count matches the pinned expectation ({expected})");
        }
    }

    if let Some(dir) = &args.refine {
        if let Err(e) = refine_dir(&result, &args.bounds, dir) {
            eprintln!("error: {e}");
            failed = true;
        }
    }

    if let Some(out) = &args.render {
        match render_path {
            None => println!("nothing to render: no counterexample was found"),
            Some(path) => {
                let script = render_script(&path);
                if script.steps.is_empty() {
                    println!("counterexample uses no injectable faults; nothing to render");
                } else if let Err(e) = std::fs::write(out, script.to_text()) {
                    eprintln!("error: writing {}: {e}", out.display());
                    failed = true;
                } else {
                    println!(
                        "rendered {}-step fault script to {}",
                        script.steps.len(),
                        out.display()
                    );
                }
            }
        }
    }

    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
