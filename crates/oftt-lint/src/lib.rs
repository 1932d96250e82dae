//! # oftt-lint — source-level static analysis proving the code matches
//! the protocol
//!
//! oftt-verify proves the failover *protocol* correct and oftt-check
//! checks what the *executed* schedules did; both leave a gap — code the
//! sweep never drives. This crate closes it from the other side: a
//! hand-rolled lexer ([`lexer`]) and item scanner ([`scanner`]) — no
//! rustc plugin, no external parser — feed four rule families
//! ([`rules`]) that check structural protocol properties over **all**
//! runtime source (every `src/` file outside `shims/`), reached or not:
//!
//! 1. **role-confinement** — every `.role`/`.term` store flows through
//!    the annotated transition apply path ([`rules::role`]);
//! 2. **lock-order** — the static acquisition graph of nested `.lock()`
//!    calls is cycle-free ([`rules::locks`]); it is the workspace's one
//!    deadlock gate;
//! 3. **nonblocking** — no blocking calls in modules that declare a
//!    bounded-latency contract ([`rules::blocking`]);
//! 4. **no-panic** — no unwrap/expect/panic-macro/index on annotated
//!    hot paths ([`rules::panics`]).
//!
//! API misuse (an unknown watchdog, a save while backup) is not a rule
//! here: the FTIM that owns the watchdog table reports it at run time and
//! oftt-check's `api-lifecycle` invariant gates the report.
//!
//! On top of the per-module families, an **interprocedural effect
//! analysis** ([`effects`]) builds a workspace-wide call graph
//! ([`callgraph`]) and runs a bottom-up fixpoint inferring `blocks`,
//! `may_panic`, `allocates`, and the transitive lock-acquisition set
//! per function, feeding three more families:
//!
//! 5. **reactor-hot-path** — everything reachable from
//!    `// oftt-lint: reactor-root` entry points is transitively
//!    nonblocking and panic-free, allocating only through the `arena`
//!    ([`rules::hotpath`]);
//! 6. **lock-across-blocking** — no guard live across a call that
//!    transitively blocks ([`rules::lock_block`]);
//! 7. **annotation-drift** — `nonblocking`/`no-panic` directives the
//!    inferred effects contradict ([`rules::drift`]); and the
//!    lock-order graph gains call-derived edges so cross-function
//!    acquisition chains are cycle-checked too.
//!
//! Every family above needs whole-program reasoning no Rust type can
//! express. What a type already proves is deliberately not re-checked
//! from tokens: a pooled buffer cannot be read or given again after
//! `BufPool::give` (it moves), an un-stamped frame cannot reach the
//! write path (`next_frames` takes `&mut Vec<StampedFrame>`), and a
//! connection cannot become established without spending its
//! `AwaitHello` (private-field typestate in `oftt_wire::supervisor`) —
//! DESIGN.md §5g has the table.
//!
//! Findings are typed ([`report::Finding`]) and suppressible through a
//! checked-in baseline (stale entries are themselves findings). The CLI
//! prints them with the scan's counts; its exit code is the verdict.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p oftt-lint -- --workspace
//! cargo run -p oftt-lint -- --workspace --baseline lint-baseline.txt
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod effects;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scanner;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use report::{Finding, Report};
use scanner::FileModel;

/// What to scan and how.
#[derive(Debug, Default)]
pub struct Options {
    /// Workspace root; file paths in findings are relative to it.
    pub root: PathBuf,
    /// Explicit files to scan instead of walking the workspace. Paths
    /// that the workspace walk would exclude (fixtures) are honored
    /// here — an explicit path is an explicit opt-in.
    pub paths: Vec<PathBuf>,
}

/// Directories the workspace walk never descends into.
const EXCLUDED_DIRS: &[&str] = &["target", "shims", ".git", "fixtures"];

/// Whether the workspace walk scans a workspace-relative path: runtime
/// source, i.e. a `.rs` file under some `src/`, outside the excluded
/// directories. Tests, examples and benches feed no rule.
pub fn is_scanned(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    rel.ends_with(".rs")
        && !parts.iter().any(|p| EXCLUDED_DIRS.contains(p))
        && !parts.iter().any(|p| ["tests", "examples", "benches"].contains(p))
        && parts.contains(&"src")
}

/// `true` when `dir` holds a manifest that opens its own `[workspace]`: a
/// separate workspace nested in this tree (the stand-alone `benchmark/`
/// package), whose code this workspace's rules and baseline do not cover.
fn is_foreign_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !EXCLUDED_DIRS.contains(&name)
                && !name.starts_with('.')
                && !is_foreign_workspace(&path)
            {
                walk(&path, root, out);
            }
        } else if relative(&path, root).as_deref().is_some_and(is_scanned) {
            out.push(path);
        }
    }
}

fn relative(path: &Path, root: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).unwrap_or(path);
    Some(rel.to_string_lossy().replace('\\', "/"))
}

/// Scans one source string and returns its findings. This is the
/// single-file core of [`run_scan`], exposed for fixture and adversarial
/// tests.
pub fn scan_source(file: &str, source: &str) -> (FileModel, Vec<Finding>) {
    let model = scanner::scan(source);
    let mut findings = Vec::new();
    for d in &model.diagnostics {
        let rule = if d.message.contains("directive") { "directive" } else { "lex" };
        findings.push(Finding {
            rule,
            file: file.to_string(),
            line: d.line,
            message: d.message.clone(),
        });
    }
    findings.extend(rules::role::check(file, &model));
    findings.extend(rules::blocking::check(file, &model));
    findings.extend(rules::panics::check(file, &model));
    (model, findings)
}

/// Runs the full scan described by `opts` and returns the report
/// (pre-baseline: `suppressed` is 0 here; the caller applies the
/// baseline via [`report::apply_baseline`]).
pub fn run_scan(opts: &Options) -> Report {
    let mut report = Report::default();
    let files: Vec<PathBuf> = if opts.paths.is_empty() {
        let mut found = Vec::new();
        walk(&opts.root, &opts.root, &mut found);
        found
    } else {
        opts.paths.clone()
    };
    let mut models: Vec<(String, FileModel)> = Vec::new();
    for path in files {
        let rel = relative(&path, &opts.root).unwrap_or_default();
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                report.findings.push(Finding {
                    rule: "lex",
                    file: rel,
                    line: 0,
                    message: format!("cannot read file: {e}"),
                });
                continue;
            }
        };
        let (model, findings) = scan_source(&rel, &source);
        report.findings.extend(findings);
        report.files_scanned += 1;
        models.push((rel, model));
    }
    // The interprocedural pass: call graph, effect fixpoint, and the
    // rule families that consume them. The lock graph it returns is the
    // intra-procedural graph *plus* call-derived edges, so the Tarjan
    // cycle check sees cross-function acquisition chains.
    let analysis = effects::Analysis::analyze(&models);
    report.findings.extend(rules::hotpath::check(&analysis));
    report.findings.extend(rules::lock_block::check(&analysis));
    report.findings.extend(rules::drift::check(&models, &analysis));
    report.findings.extend(analysis.lock.findings.iter().cloned());
    report.lock_names = analysis.lock.names.clone();
    report.lock_edges = analysis.lock.edges.keys().cloned().collect::<BTreeSet<_>>();
    report.functions = analysis.fns.len();
    report.call_edges = analysis.edge_count;
    report.fixpoint_iterations = analysis.iterations;
    report.reactor_roots = analysis.roots.len();
    report.reactor_reachable = analysis.reactor_reachable().len();
    report.findings.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_scans_runtime_source_only() {
        assert!(is_scanned("crates/oftt/src/engine.rs"));
        assert!(is_scanned("src/lib.rs"));
        assert!(!is_scanned("crates/oftt/tests/failover.rs"));
        assert!(!is_scanned("tests/integration.rs"));
        assert!(!is_scanned("examples/pair.rs"));
        assert!(!is_scanned("crates/bench/benches/ckpt.rs"));
        assert!(!is_scanned("build.rs"));
        assert!(!is_scanned("shims/rand/src/lib.rs"));
        assert!(!is_scanned("target/debug/build/x.rs"));
        assert!(!is_scanned("crates/oftt-lint/fixtures/role_leak.rs"));
        assert!(!is_scanned("README.md"));
    }

    #[test]
    fn scan_source_merges_rule_families() {
        let (_, findings) = scan_source(
            "x.rs",
            "// oftt-lint: no-panic\nfn f(x: Option<u8>) { x.unwrap(); self.role = r; }",
        );
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"no-panic"));
        assert!(rules.contains(&"role-confinement"));
    }
}
