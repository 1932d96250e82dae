//! `oftt-lint` CLI: scan the workspace (or explicit files), apply the
//! baseline, print the findings, and exit 2 if any remain.

use std::path::PathBuf;
use std::process::ExitCode;

use oftt_lint::report::{self, Finding, Report};
use oftt_lint::Options;

const USAGE: &str = "\
oftt-lint: source-level static analyzer for the OFTT workspace — role
confinement, static lock-order (the one deadlock gate), blocking calls,
panic paths, and an interprocedural effect analysis
(reactor-hot-path, lock-across-blocking, transitive lock-order,
annotation-drift). #[cfg(feature = \"inject_bugs\")] spans are never
scanned.

USAGE:
    oftt-lint --workspace [OPTIONS]
    oftt-lint PATH... [OPTIONS]

OPTIONS:
    --root DIR               workspace root (default: current directory)
    --baseline FILE          suppress findings listed in FILE; entries
                             matching no finding are stale-baseline findings
    --write-baseline         rewrite --baseline FILE from current findings

EXIT CODE: 0 clean, 1 usage/IO error, 2 findings.";

struct Cli {
    opts: Options,
    workspace: bool,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Options { root: PathBuf::from("."), ..Default::default() },
        workspace: false,
        baseline: None,
        write_baseline: false,
    };
    let mut it = it;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workspace" => cli.workspace = true,
            "--root" => cli.opts.root = PathBuf::from(value("--root")?),
            "--baseline" => cli.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--write-baseline" => cli.write_baseline = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            path => cli.opts.paths.push(PathBuf::from(path)),
        }
    }
    if !cli.workspace && cli.opts.paths.is_empty() {
        return Err("give --workspace or at least one PATH".to_string());
    }
    if cli.workspace && !cli.opts.paths.is_empty() {
        return Err("--workspace and explicit PATHs are mutually exclusive".to_string());
    }
    if cli.write_baseline && cli.baseline.is_none() {
        return Err("--write-baseline needs --baseline FILE to write to".to_string());
    }
    Ok(cli)
}

fn print_summary(report: &Report) {
    println!(
        "{} file(s) scanned; {} fn(s), {} call edge(s), fixpoint in {} pass(es); \
         {} reactor root(s) reaching {} fn(s); {} lock(s), {} acquisition edge(s)",
        report.files_scanned,
        report.functions,
        report.call_edges,
        report.fixpoint_iterations,
        report.reactor_roots,
        report.reactor_reachable,
        report.lock_names.len(),
        report.lock_edges.len(),
    );
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    let mut report = oftt_lint::run_scan(&cli.opts);
    if let Some(path) = &cli.baseline {
        if cli.write_baseline {
            let text = report::render_baseline(&report.findings);
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: cannot write baseline {}: {e}", path.display());
                return ExitCode::from(1);
            }
            println!(
                "baseline with {} finding(s) written to {}",
                report.findings.len(),
                path.display()
            );
            return ExitCode::SUCCESS;
        }
        // A missing baseline file means an empty baseline — CI ships one
        // either way, and a fresh checkout should not fail on ENOENT.
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let keys = match report::parse_baseline(&text) {
            Ok(keys) => keys,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::from(1);
            }
        };
        let (kept, suppressed, stale) =
            report::apply_baseline(std::mem::take(&mut report.findings), &keys);
        report.findings = kept;
        report.suppressed = suppressed;
        // A baseline entry nothing matched is an accepted finding that no
        // longer exists — the suppression must be deleted, not carried.
        for (rule, file, message) in stale {
            report.findings.push(Finding {
                rule: "stale-baseline",
                file: path.display().to_string(),
                line: 0,
                message: format!(
                    "baseline entry matches no current finding (fixed or reworded?): \
                     {rule}\\t{file}\\t{message}"
                ),
            });
        }
        report.findings.sort();
    }
    print_summary(&report);
    if report.suppressed > 0 {
        println!("{} finding(s) suppressed by the baseline", report.suppressed);
    }
    if report.findings.is_empty() {
        println!("no findings");
        return ExitCode::SUCCESS;
    }
    println!("\n{} finding(s):", report.findings.len());
    for finding in &report.findings {
        println!("  {finding}");
    }
    ExitCode::from(2)
}
