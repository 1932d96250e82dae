//! Role-mutation confinement: every write to role/term state must flow
//! through the transition apply path.
//!
//! The protocol's one-word contract is that `oftt::transition::step`
//! decides and the engine *applies* — role and term are written only by
//! the designated apply functions. This rule enforces that contract at
//! the source level: any `.role = …` / `.term = …` store (plain or
//! compound) in runtime code is a finding unless the enclosing function
//! is annotated `// oftt-lint: role-choke-point` (the apply path itself)
//! or `// oftt-lint: role-mirror` (a confined secondary copy, such as
//! the FTIM shadowing the engine's role for its own dispatch).
//!
//! Reads, comparisons (`==`, `<=`), struct-literal fields (`role: x`),
//! and pattern matches never match the store pattern and stay silent.

use crate::report::Finding;
use crate::scanner::FileModel;

use super::{ident, in_nested_fn, punct};

/// Field names whose stores are confined.
const CONFINED_FIELDS: &[&str] = &["role", "term"];

/// Is the punctuation starting at `j` an assignment operator? Covers `=`
/// (but not `==` / `=>`) and the compound forms `+=` `-=` `*=` `/=` `%=`
/// `&=` `|=` `^=` `<<=` `>>=`.
fn is_store(tokens: &[crate::lexer::Token], j: usize) -> bool {
    match punct(tokens, j) {
        Some('=') => !matches!(punct(tokens, j + 1), Some('=') | Some('>')),
        Some('+') | Some('-') | Some('*') | Some('/') | Some('%') | Some('&') | Some('|')
        | Some('^') => punct(tokens, j + 1) == Some('='),
        Some(c @ ('<' | '>')) => {
            punct(tokens, j + 1) == Some(c) && punct(tokens, j + 2) == Some('=')
        }
        _ => false,
    }
}

/// Checks one file.
pub fn check(file: &str, model: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    for item in &model.fns {
        if item.has_directive("role-choke-point") || item.has_directive("role-mirror") {
            continue;
        }
        for i in item.body.clone() {
            if in_nested_fn(model, item, i) {
                continue;
            }
            if punct(&model.tokens, i) != Some('.') {
                continue;
            }
            let Some(field) = ident(&model.tokens, i + 1) else { continue };
            if !CONFINED_FIELDS.contains(&field) || !is_store(&model.tokens, i + 2) {
                continue;
            }
            out.push(Finding {
                rule: "role-confinement",
                file: file.to_string(),
                line: model.tokens[i].line,
                message: format!(
                    "`{}` writes `.{field}` outside the transition apply path \
                     (annotate `// oftt-lint: role-choke-point` or `role-mirror` \
                     if this is a sanctioned apply site)",
                    item.name
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
    fn unannotated_role_write_is_flagged() {
        let findings = check_src("fn sneak(&mut self) { self.role = Role::Primary; }");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`sneak` writes `.role`"));
    }

    #[test]
    fn compound_term_write_is_flagged() {
        let findings = check_src("fn bump(&mut self) { self.term += 1; }");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains(".term"));
    }

    #[test]
    fn choke_point_annotation_exempts() {
        let findings = check_src(
            "// oftt-lint: role-choke-point\n\
             fn set_role(&mut self, role: Role) { self.role = role; self.term = 3; }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn reads_and_comparisons_are_silent() {
        let findings = check_src(
            "fn observe(&self) -> bool { self.role == Role::Primary && self.term <= 9 }\n\
             fn copy(&self) -> Role { self.role }\n\
             fn build() -> S { S { role: Role::Backup, term: 0 } }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn annotation_does_not_leak_to_the_next_fn() {
        let findings = check_src(
            "// oftt-lint: role-choke-point\n\
             fn apply(&mut self) { self.role = Role::Backup; }\n\
             fn other(&mut self) { self.term = 1; }",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`other`"));
    }

    #[test]
    fn test_code_is_not_checked() {
        let findings = check_src(
            "#[cfg(test)] mod tests { fn helper(s: &mut S) { s.role = Role::Primary; } }",
        );
        assert!(findings.is_empty());
    }
}
