//! The reactor-hot-path rule: every function transitively reachable
//! from a `// oftt-lint: reactor-root` entry point must be nonblocking
//! and panic-free, and may allocate only through the `arena`-annotated
//! `BufPool` operations.
//!
//! PR 7 made this the load-bearing invariant of the whole transport: a
//! fixed pool of `io_threads` serves *every* connection, so one
//! blocking call or panic anywhere under a reactor handler stalls or
//! kills the fleet's I/O — not one peer's. The rule walks the resolved
//! call graph breadth-first from the roots (so witness chains are
//! shortest paths) and flags every *direct* effect primitive in every
//! reachable function. Havoc — a call the resolver cannot see — is a
//! violation here and only here: on the hot path an unproved call is an
//! unmet proof obligation, not a shrug.

use std::collections::BTreeMap;

use crate::effects::{Analysis, EffectKind};
use crate::report::Finding;

/// Checks the analysis and returns hot-path findings.
pub fn check(analysis: &Analysis) -> Vec<Finding> {
    let mut out = Vec::new();
    let reachable = analysis.reactor_reachable();
    let parents: BTreeMap<_, _> = reachable.iter().copied().collect();
    for &(f, _) in &reachable {
        let info = &analysis.fns[f];
        for prim in &info.prims {
            let chain = analysis.root_chain(&parents, f);
            let detail = match prim.kind {
                EffectKind::Blocks => {
                    format!("blocking call `{}` on the reactor hot path (via {chain})", prim.what)
                }
                EffectKind::Panics => {
                    format!("panic path `{}` on the reactor hot path (via {chain})", prim.what)
                }
                EffectKind::Allocs => format!(
                    "allocation `{}` outside the BufPool arena on the reactor hot path \
                     (via {chain})",
                    prim.what
                ),
                EffectKind::Havoc => format!(
                    "unresolvable call `{}` on the reactor hot path (via {chain}) — the \
                     nonblocking/no-panic proof cannot close over it; resolve it or teach \
                     the effect tables",
                    prim.what
                ),
            };
            out.push(Finding {
                rule: "reactor-hot-path",
                file: info.file.clone(),
                line: prim.line,
                message: detail,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::Analysis;
    use crate::scanner::{scan, FileModel};

    fn findings(src: &str) -> Vec<Finding> {
        let models: Vec<(String, FileModel)> = vec![("a.rs".to_string(), scan(src))];
        check(&Analysis::analyze(&models))
    }

    #[test]
    fn blocking_two_calls_deep_is_flagged_with_the_chain() {
        let out = findings(
            "// oftt-lint: reactor-root\n\
             fn on_frame() { step(); }\n\
             fn step() { nap(); }\n\
             fn nap() { std::thread::sleep(d); }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "reactor-hot-path");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("`sleep`"));
        assert!(out[0].message.contains("on_frame → step → nap"), "{}", out[0].message);
    }

    #[test]
    fn unreachable_code_may_block_freely() {
        let out = findings(
            "// oftt-lint: reactor-root\n\
             fn on_frame() {}\n\
             fn dial_loop() { std::thread::sleep(d); }",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn arena_allocation_is_sanctioned_but_other_allocation_is_not() {
        let out = findings(
            "// oftt-lint: reactor-root\n\
             fn on_frame(&self) { self.pool_take(); stray(); }\n\
             // oftt-lint: arena\n\
             fn pool_take(&self) -> Vec<u8> { Vec::with_capacity(64) }\n\
             fn stray() -> String { format!(\"x\") }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`format!`"));
        assert!(out[0].message.contains("outside the BufPool arena"));
    }

    #[test]
    fn cold_path_annotation_stops_the_walk() {
        let out = findings(
            "// oftt-lint: reactor-root\n\
             fn on_frame(&self) { self.handle_hello(); self.fast(); }\n\
             // oftt-lint: cold-path\n\
             fn handle_hello(&self) { self.greet(); }\n\
             fn greet(&self) -> String { format!(\"hi\") }\n\
             fn fast(&self) {}",
        );
        assert!(out.is_empty(), "cold subtree must be exempt: {out:?}");
    }

    #[test]
    fn cold_functions_stay_flagged_when_reached_warm() {
        // A fn reachable through a cold annotation AND a warm edge is
        // still on the hot path via the warm edge.
        let out = findings(
            "// oftt-lint: reactor-root\n\
             fn on_frame(&self) { self.handle_hello(); self.greet(); }\n\
             // oftt-lint: cold-path\n\
             fn handle_hello(&self) { self.greet(); }\n\
             fn greet(&self) -> String { format!(\"hi\") }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`format!`"));
    }

    #[test]
    fn havoc_on_the_hot_path_is_an_unmet_proof_obligation() {
        let out = findings(
            "// oftt-lint: reactor-root\n\
             fn on_frame() { mystery(); }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unresolvable call `mystery`"));
    }
}
