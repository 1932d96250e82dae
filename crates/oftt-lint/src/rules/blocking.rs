//! The blocking-call lint for modules annotated
//! `// oftt-lint: nonblocking`.
//!
//! The paper's control loop promises bounded per-period latency; a
//! blocking syscall or an uncontended-in-testing lock wait on that path
//! is exactly the class of bug the deterministic simulator cannot
//! surface (it never blocks for real). Files that declare themselves
//! nonblocking therefore get a deny-list of call names — sleeps,
//! channel/condvar waits, thread parks/joins, socket accept/connect,
//! and synchronous file/stream I/O. `lock` itself is on the list: a
//! nonblocking module must not take a blocking mutex at all
//! (`try_lock` is the sanctioned escape hatch and does not match).

use crate::report::Finding;
use crate::scanner::FileModel;

use super::{ident, is_call};

/// Call names that can block the caller.
pub const BLOCKING_CALLS: &[&str] = &[
    "sleep",
    "sleep_ms",
    "lock",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_timeout",
    "wait_while",
    "park",
    "park_timeout",
    "join",
    "accept",
    "connect",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
];

/// Checks one file. Applies only to runtime files carrying the
/// `nonblocking` directive.
pub fn check(file: &str, model: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    if !model.has_file_directive("nonblocking") {
        return out;
    }
    for i in 0..model.tokens.len() {
        let Some(name) = ident(&model.tokens, i) else { continue };
        if BLOCKING_CALLS.contains(&name) && is_call(&model.tokens, i) {
            out.push(Finding {
                rule: "nonblocking",
                file: file.to_string(),
                line: model.tokens[i].line,
                message: format!(
                    "call to blocking `{name}` in a module annotated \
                     `// oftt-lint: nonblocking`"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn check_src(source: &str) -> Vec<Finding> {
        check("f.rs", &scan(source))
    }

    #[test]
    fn sleep_in_a_nonblocking_module_is_flagged() {
        let findings = check_src(
            "// oftt-lint: nonblocking\n\
             fn f() { std::thread::sleep(Duration::from_millis(5)); }",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`sleep`"));
    }

    #[test]
    fn lock_is_blocking_but_try_lock_is_not() {
        let findings = check_src(
            "// oftt-lint: nonblocking\n\
             fn f(&self) { self.a.lock(); self.b.try_lock(); }",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`lock`"));
    }

    #[test]
    fn unannotated_files_are_not_checked() {
        let findings = check_src("fn f() { std::thread::sleep(d); }");
        assert!(findings.is_empty());
    }

    #[test]
    fn defining_a_fn_named_like_a_blocking_call_is_fine() {
        let findings = check_src(
            "// oftt-lint: nonblocking\n\
             fn flush(&mut self) -> usize { self.pending.len() }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn test_code_in_a_nonblocking_module_may_block() {
        let findings = check_src(
            "// oftt-lint: nonblocking\n\
             fn f() {}\n\
             #[cfg(test)] mod tests { fn t() { rx.recv(); } }",
        );
        assert!(findings.is_empty());
    }
}
