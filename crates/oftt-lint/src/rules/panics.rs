//! The panic-path lint for modules annotated `// oftt-lint: no-panic`.
//!
//! On the transport and ship hot paths a panic is a silent process
//! death the failover protocol then has to detect the slow way — the
//! exact outage class OFTT exists to bound. Files that declare
//! themselves panic-free get three pattern families flagged:
//!
//! * `.unwrap()` / `.expect(…)` on `Option`/`Result` receivers;
//! * panicking macros: `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, `assert!`, `assert_eq!`, `assert_ne!`
//!   (`debug_assert*` compiles out of release builds and is allowed);
//! * index expressions — `buf[i]`, `map[&k]`, `raw[6..10]` — where the
//!   `[` follows an identifier or a closing `)`/`]`, the shapes that
//!   can be an `Index` use. Array-literal, slice-pattern, and type
//!   positions don't match. (Attributes were already stripped by the
//!   scanner, so `#[…]` can't false-positive.)

use crate::report::Finding;
use crate::scanner::FileModel;

use super::{ident, punct};

/// Macros that abort the thread. The effect engine treats a call to any
/// of these as a direct `may_panic` source, workspace-wide.
pub const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// True if the `[` at `i` opens an *index expression* — `buf[i]`,
/// `map[&k]`, `raw[1..3]` — rather than an array literal, slice
/// pattern, or type. Shared between the per-module rule and the
/// workspace-wide effect engine.
pub(crate) fn indexes_value(tokens: &[crate::lexer::Token], i: usize) -> bool {
    // Keywords may precede a slice pattern or array literal
    // (`let [a, b]`, `return [0; 2]`) — never an indexed value.
    const KEYWORDS: &[&str] = &[
        "let", "mut", "ref", "in", "return", "break", "continue", "if", "else", "while", "for",
        "match", "move",
    ];
    match i.checked_sub(1) {
        Some(p) => match ident(tokens, p) {
            Some(word) => !KEYWORDS.contains(&word),
            None => matches!(punct(tokens, p), Some(')' | ']')),
        },
        None => false,
    }
}

/// Checks one file. Applies only to runtime files carrying the
/// `no-panic` directive.
pub fn check(file: &str, model: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    if !model.has_file_directive("no-panic") {
        return out;
    }
    let tokens = &model.tokens;
    let mut flag = |line: u32, message: String| {
        out.push(Finding { rule: "no-panic", file: file.to_string(), line, message });
    };
    for i in 0..tokens.len() {
        if punct(tokens, i) == Some('.') {
            if let Some(name @ ("unwrap" | "expect")) = ident(tokens, i + 1) {
                if punct(tokens, i + 2) == Some('(') {
                    flag(
                        tokens[i].line,
                        format!(
                            "`.{name}(…)` in a module annotated `// oftt-lint: no-panic` \
                             — handle the failure or restructure so it cannot occur"
                        ),
                    );
                }
            }
        } else if let Some(name) = ident(tokens, i) {
            if PANIC_MACROS.contains(&name) && punct(tokens, i + 1) == Some('!') {
                flag(
                    tokens[i].line,
                    format!("`{name}!` in a module annotated `// oftt-lint: no-panic`"),
                );
            }
        } else if punct(tokens, i) == Some('[') && indexes_value(tokens, i) {
            flag(
                tokens[i].line,
                "index expression can panic on out-of-range access in a module \
                 annotated `// oftt-lint: no-panic` — use `.get(…)` or a checked slice"
                    .to_string(),
            );
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

    const HEADER: &str = "// oftt-lint: no-panic\n";

    #[test]
    fn unwrap_and_expect_are_flagged() {
        let findings = check_src(&format!(
            "{HEADER}fn f(x: Option<u8>) {{ x.unwrap(); x.expect(\"oops\"); }}"
        ));
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn panic_macros_are_flagged_but_debug_assert_is_not() {
        let findings = check_src(&format!(
            "{HEADER}fn f() {{ assert!(true); debug_assert!(true); unreachable!(); }}"
        ));
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn index_expressions_are_flagged() {
        let findings =
            check_src(&format!("{HEADER}fn f(raw: &[u8]) -> u8 {{ raw[6] + raw[1..3][0] }}"));
        assert_eq!(findings.len(), 3);
    }

    #[test]
    fn non_index_bracket_positions_are_silent() {
        let findings = check_src(&format!(
            "{HEADER}fn f() -> [u8; 2] {{ let v = vec![1, 2]; let [a, b] = [v[0]; 2]; [0, 0] }}"
        ));
        // Only `v[0]` indexes; the array type, vec! macro, slice
        // pattern, and array literals do not.
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        let findings = check_src(&format!(
            "{HEADER}fn f(x: Option<u8>) -> u8 {{ x.unwrap_or(0).min(x.unwrap_or_default()) }}"
        ));
        assert!(findings.is_empty());
    }

    #[test]
    fn unannotated_files_are_not_checked() {
        let findings = check_src("fn f(x: Option<u8>) { x.unwrap(); }");
        assert!(findings.is_empty());
    }

    #[test]
    fn test_code_may_panic() {
        let findings = check_src(&format!(
            "{HEADER}fn f() {{}}\n#[cfg(test)] mod tests {{ fn t() {{ x.unwrap(); a[0]; }} }}"
        ));
        assert!(findings.is_empty());
    }
}
