//! The annotation-drift check: `// oftt-lint: nonblocking` and
//! `// oftt-lint: no-panic` module annotations that the *inferred*
//! effects contradict.
//!
//! PR 6's per-module rules trust the annotation and police the module's
//! own tokens; a call into an unannotated helper that sleeps or
//! unwraps sails straight through. This check closes that hole with
//! the fixpoint's verdicts: a function in an annotated module calling
//! something whose definite effect contradicts the annotation is
//! drift — the directive claims a contract the code no longer keeps.
//! Primitives *inside* the annotated module itself are already
//! findings of the syntactic families, so drift fires only when the
//! witness chain's grounding primitive lives in a *different, un-
//! annotated* file — each finding is new information, never an echo.

use std::collections::BTreeSet;

use crate::effects::{Analysis, EffectKind, Source};
use crate::report::Finding;
use crate::scanner::FileModel;

/// Checks every annotated module's functions against the inferred
/// effects of their callees.
pub fn check(models: &[(String, FileModel)], analysis: &Analysis) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
    for info_id in 0..analysis.fns.len() {
        let info = &analysis.fns[info_id];
        let model = &models[info.model].1;
        let checks: &[(&str, EffectKind, &str)] = &[
            ("nonblocking", EffectKind::Blocks, "blocks"),
            ("no-panic", EffectKind::Panics, "may panic"),
        ];
        for &(directive, kind, verb) in checks {
            if !model.has_file_directive(directive) {
                continue;
            }
            for call in &info.calls {
                let Some(&g) =
                    call.targets.iter().find(|&&g| analysis.effects[g].get(kind).is_some())
                else {
                    continue;
                };
                // Ground the chain: if the primitive lives in this same
                // file, the syntactic rule already reports it.
                if grounding_file(analysis, g, kind) == Some(info.file.as_str()) {
                    continue;
                }
                if !seen.insert((info.file.clone(), call.line, directive)) {
                    continue;
                }
                let witness =
                    analysis.witness(g, kind).unwrap_or_else(|| analysis.fns[g].name.clone());
                out.push(Finding {
                    rule: "annotation-drift",
                    file: info.file.clone(),
                    line: call.line,
                    message: format!(
                        "module is annotated `// oftt-lint: {directive}` but `{}` calls \
                         `{}`, which {verb}: {witness}",
                        info.name, call.name
                    ),
                });
            }
        }
    }
    out
}

/// The file containing the primitive that grounds `kind` on `f`.
fn grounding_file(analysis: &Analysis, f: usize, kind: EffectKind) -> Option<&str> {
    let mut cur = f;
    for _ in 0..64 {
        match analysis.effects[cur].get(kind)? {
            Source::Prim { .. } => return Some(analysis.fns[cur].file.as_str()),
            Source::Call { callee, .. } => cur = *callee,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::Analysis;
    use crate::scanner::scan;

    fn findings(sources: &[(&str, &str)]) -> Vec<Finding> {
        let models: Vec<(String, FileModel)> =
            sources.iter().map(|(name, src)| (name.to_string(), scan(src))).collect();
        let analysis = Analysis::analyze(&models);
        check(&models, &analysis)
    }

    #[test]
    fn nonblocking_module_calling_a_blocking_helper_elsewhere_is_drift() {
        let out = findings(&[
            ("codec.rs", "// oftt-lint: nonblocking\nfn encode(&self) { net_flush(); }"),
            ("io.rs", "fn net_flush() { stream.flush(); }"),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "annotation-drift");
        assert_eq!(out[0].file, "codec.rs");
        assert!(out[0].message.contains("net_flush: flush (io.rs:1)"), "{}", out[0].message);
    }

    #[test]
    fn no_panic_module_calling_an_unwrapping_helper_is_drift() {
        let out = findings(&[
            ("frame.rs", "// oftt-lint: no-panic\nfn parse(&self) { decode_header(h); }"),
            ("util.rs", "fn decode_header(h: H) -> u8 { h.field.unwrap() }"),
        ]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("may panic"));
    }

    #[test]
    fn same_file_primitives_are_the_syntactic_rules_job() {
        // `helper` sleeps *inside* the annotated file: the nonblocking
        // rule reports the primitive; drift stays silent.
        let out = findings(&[(
            "codec.rs",
            "// oftt-lint: nonblocking\nfn encode(&self) { helper(); }\nfn helper() { std::thread::sleep(d); }",
        )]);
        assert!(out.is_empty());
    }

    #[test]
    fn havoc_never_fires_drift() {
        let out =
            findings(&[("codec.rs", "// oftt-lint: nonblocking\nfn encode(&self) { mystery(); }")]);
        assert!(out.is_empty());
    }

    #[test]
    fn unannotated_modules_are_not_checked() {
        let out = findings(&[
            ("a.rs", "fn f() { net_flush(); }"),
            ("io.rs", "fn net_flush() { stream.flush(); }"),
        ]);
        assert!(out.is_empty());
    }
}
