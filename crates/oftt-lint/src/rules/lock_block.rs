//! The lock-across-blocking rule: no lock guard may be live across a
//! call whose transitive effect includes `blocks`.
//!
//! This is the classic convoy/deadlock recipe the per-module rules
//! cannot see: the acquisition and the blocking call are each fine in
//! isolation — the hazard is the *composition*, a guard pinned while
//! the thread sleeps in a syscall, starving every other path that
//! needs the same lock. The guard interpreter supplies the held set at
//! every call site; the effect fixpoint supplies the callee's verdict.
//! Only *definite* blocking (a witness chain ending in a known
//! primitive) fires — havoc never manufactures a finding here, per the
//! documented policy.

use crate::effects::{Analysis, EffectKind};
use crate::report::Finding;

/// Checks the analysis and returns lock-across-blocking findings.
pub fn check(analysis: &Analysis) -> Vec<Finding> {
    let mut out = Vec::new();
    for (f, info) in analysis.fns.iter().enumerate() {
        for call in &info.calls {
            if call.held.is_empty() {
                continue;
            }
            // A directly blocking primitive under a held guard.
            if call.prim == Some(EffectKind::Blocks) {
                for guard in &call.held {
                    out.push(Finding {
                        rule: "lock-across-blocking",
                        file: info.file.clone(),
                        line: call.line,
                        message: format!(
                            "guard on lock `{guard}` held across blocking call `{}` in `{}`",
                            call.name, info.name
                        ),
                    });
                }
                continue;
            }
            // A call into a function that transitively blocks.
            let Some(&g) = call.targets.iter().find(|&&g| analysis.effects[g].blocks.is_some())
            else {
                continue;
            };
            let witness = analysis
                .witness(g, EffectKind::Blocks)
                .unwrap_or_else(|| analysis.fns[g].name.clone());
            for guard in &call.held {
                out.push(Finding {
                    rule: "lock-across-blocking",
                    file: info.file.clone(),
                    line: call.line,
                    message: format!(
                        "guard on lock `{guard}` held across call to `{}`, which blocks: \
                         {witness}",
                        call.name
                    ),
                });
            }
        }
        let _ = f;
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
    fn guard_across_a_transitively_blocking_call_is_flagged() {
        // `drain` collides with a benign std name; the enclosing impl
        // gives `self.drain()` ownership evidence, which beats the
        // intrinsic tables.
        let out = findings(
            "impl S { fn f(&self) { let g = self.state.lock(); self.drain(); }\n\
             fn drain(&self) { self.sync(); }\n\
             fn sync(&self) { self.file.sync_all(); } }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`state`"));
        assert!(out[0].message.contains("drain → sync: sync_all"), "{}", out[0].message);
    }

    #[test]
    fn guard_across_a_direct_sleep_is_flagged() {
        let out = findings("fn f(&self) { let g = self.state.lock(); std::thread::sleep(d); }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("blocking call `sleep`"));
    }

    #[test]
    fn dropping_the_guard_first_is_fine() {
        let out = findings(
            "fn f(&self) { let g = self.state.lock(); drop(g); self.nap(); }\n\
             fn nap(&self) { std::thread::sleep(d); }",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn havoc_alone_never_fires_this_rule() {
        let out = findings("fn f(&self) { let g = self.state.lock(); mystery(); }");
        assert!(out.is_empty());
    }

    #[test]
    fn nonblocking_callees_are_fine() {
        let out = findings(
            "fn f(&self) { let g = self.state.lock(); self.bump(); }\n\
             fn bump(&self) { self.count += 1; }",
        );
        assert!(out.is_empty());
    }
}
