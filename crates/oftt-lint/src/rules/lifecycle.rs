//! The API-lifecycle rule: oftt-audit's call-order DFA enforced
//! statically at the call sites the scanner can see.
//!
//! The dynamic linter replays recorded traces; this rule walks each
//! function's call sequence instead, using the *same* call tables
//! (`oftt_audit::lint::{CHECKPOINT_CALLS, WATCHDOG_CREATE_CALLS,
//! WATCHDOG_USE_CALLS, WATCHDOG_DELETE_CALL}`) so the static and
//! dynamic rule sets cannot drift apart. Statically decidable without
//! cross-function flow analysis — and therefore flagged — are:
//!
//! * **use-after-delete**: within one function, `watchdog_set` /
//!   `watchdog_reset` / a second `watchdog_delete` on a (receiver,
//!   literal-name) pair after `watchdog_delete`, with no intervening
//!   `watchdog_create` / `watchdog_restore`. The toolkit reports this
//!   misuse as an ignorable `NotFound` at runtime; statically it is a
//!   straight-line contradiction.
//! * **checkpoint-before-initialize**: a `save` / `sel_save` (or the
//!   `oftt_`-prefixed free-function aliases, or the `save_now` method)
//!   sequenced before an `initialize` call in the same function.
//!
//! Watchdog identity is the pair (receiver base identifier, string
//! literal name); calls whose name argument is not a literal are
//! untrackable and skipped. Duplicate `watchdog_create` is legal (the
//! restore path re-creates), matching the dynamic DFA. Unlike the other
//! families this rule also runs on tests/examples — they are the main
//! body of API-usage code.

use oftt_audit::lint::{
    CHECKPOINT_CALLS, WATCHDOG_CREATE_CALLS, WATCHDOG_DELETE_CALL, WATCHDOG_USE_CALLS,
};
use std::collections::BTreeMap;

use crate::report::Finding;
use crate::scanner::{FileModel, FnItem};

use super::{ident, in_nested_fn, is_call, punct, receiver_base, string};

/// Strips the free-function prefix and method-name aliases so static
/// call names line up with the dynamic tables' vocabulary.
fn normalize(name: &str) -> &str {
    let name = name.strip_prefix("oftt_").unwrap_or(name);
    if name == "save_now" {
        "save"
    } else {
        name
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WdState {
    Live,
    Deleted,
}

/// One recognized call site within a function body.
struct Call {
    index: usize,
    line: u32,
    name: String,
    receiver: String,
    wd_name: Option<String>,
}

/// Checks one file (runtime and test-like alike).
pub fn check(file: &str, model: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    for item in &model.fns {
        check_fn(file, model, item, &mut out);
    }
    out
}

fn check_fn(file: &str, model: &FileModel, item: &FnItem, out: &mut Vec<Finding>) {
    let calls = collect_calls(model, item);
    // Watchdog DFA per (receiver, literal name).
    let mut states: BTreeMap<(String, String), WdState> = BTreeMap::new();
    let mut first_checkpoint: Option<&Call> = None;
    let mut initialize_at: Option<usize> = None;
    for call in &calls {
        let name = call.name.as_str();
        if name == "initialize" {
            initialize_at.get_or_insert(call.index);
            continue;
        }
        if CHECKPOINT_CALLS.contains(&name) {
            if first_checkpoint.is_none() {
                first_checkpoint = Some(call);
            }
            continue;
        }
        let Some(wd) = &call.wd_name else { continue };
        let key = (call.receiver.clone(), wd.clone());
        if WATCHDOG_CREATE_CALLS.contains(&name) {
            states.insert(key, WdState::Live);
        } else if WATCHDOG_USE_CALLS.contains(&name) || name == WATCHDOG_DELETE_CALL {
            if states.get(&key) == Some(&WdState::Deleted) {
                out.push(Finding {
                    rule: "api-lifecycle",
                    file: file.to_string(),
                    line: call.line,
                    message: format!(
                        "`{}` calls `{}` on watchdog \"{wd}\" after `watchdog_delete` \
                         without re-creating it (the NotFound this returns is the \
                         classic ignored-error misuse)",
                        item.name, call.name
                    ),
                });
            }
            if name == WATCHDOG_DELETE_CALL {
                states.insert(key, WdState::Deleted);
            }
        }
    }
    if let (Some(ckpt), Some(init)) = (first_checkpoint, initialize_at) {
        if ckpt.index < init {
            out.push(Finding {
                rule: "api-lifecycle",
                file: file.to_string(),
                line: ckpt.line,
                message: format!(
                    "`{}` calls `{}` before `initialize` in the same function",
                    item.name, ckpt.name
                ),
            });
        }
    }
}

/// Collects every table-relevant call in `item`'s own body, in order.
fn collect_calls(model: &FileModel, item: &FnItem) -> Vec<Call> {
    let tokens = &model.tokens;
    let mut calls = Vec::new();
    for i in item.body.clone() {
        if in_nested_fn(model, item, i) {
            continue;
        }
        let Some(raw) = ident(tokens, i) else { continue };
        if !is_call(tokens, i) {
            continue;
        }
        let name = normalize(raw);
        let relevant = name == "initialize"
            || CHECKPOINT_CALLS.contains(&name)
            || WATCHDOG_CREATE_CALLS.contains(&name)
            || WATCHDOG_USE_CALLS.contains(&name)
            || name == WATCHDOG_DELETE_CALL;
        if !relevant {
            continue;
        }
        // Method call: receiver precedes the dot. Free function: the
        // context handle is the first identifier argument.
        let receiver = if i > item.body.start && punct(tokens, i - 1) == Some('.') {
            receiver_base(tokens, i - 1)
        } else {
            first_arg_ident(model, i + 1)
        }
        .unwrap_or_default();
        calls.push(Call {
            index: i,
            line: tokens[i].line,
            name: name.to_string(),
            receiver,
            wd_name: first_string_arg(model, i + 1),
        });
    }
    calls
}

/// The first identifier inside the argument list opening at `open`.
fn first_arg_ident(model: &FileModel, open: usize) -> Option<String> {
    let tokens = &model.tokens;
    let mut depth = 0usize;
    let mut i = open;
    loop {
        match punct(tokens, i) {
            Some('(') => depth += 1,
            Some(')') => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            None if i >= tokens.len() => return None,
            _ => {
                if let Some(name) = ident(tokens, i) {
                    if name != "mut" {
                        return Some(name.to_string());
                    }
                }
            }
        }
        i += 1;
    }
}

/// The first string literal inside the argument list opening at `open`.
fn first_string_arg(model: &FileModel, open: usize) -> Option<String> {
    let tokens = &model.tokens;
    let mut depth = 0usize;
    let mut i = open;
    loop {
        match punct(tokens, i) {
            Some('(') => depth += 1,
            Some(')') => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            None if i >= tokens.len() => return None,
            _ => {
                if let Some(s) = string(tokens, i) {
                    return Some(s.to_string());
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{scan, FileKind};

    fn check_src(source: &str) -> Vec<Finding> {
        check("f.rs", &scan(source, FileKind::TestLike))
    }

    #[test]
    fn use_after_delete_is_flagged() {
        let findings = check_src(
            "fn t(ctx: &mut FtCtx) {\n\
                 ctx.watchdog_create(\"wd\", period);\n\
                 ctx.watchdog_delete(\"wd\");\n\
                 ctx.watchdog_reset(\"wd\");\n\
             }",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("after `watchdog_delete`"));
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn double_delete_is_flagged() {
        let findings = check_src(
            "fn t(ctx: &mut FtCtx) {\n\
                 ctx.watchdog_delete(\"wd\");\n\
                 ctx.watchdog_delete(\"wd\");\n\
             }",
        );
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn recreate_clears_the_deleted_state() {
        let findings = check_src(
            "fn t(ctx: &mut FtCtx) {\n\
                 ctx.watchdog_delete(\"wd\");\n\
                 ctx.watchdog_create(\"wd\", period);\n\
                 ctx.watchdog_set(\"wd\", deadline);\n\
             }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn free_function_aliases_share_the_tables() {
        let findings = check_src(
            "fn t(ctx: &mut FtCtx) {\n\
                 oftt_watchdog_delete(ctx, \"wd\");\n\
                 oftt_watchdog_set(ctx, \"wd\", deadline);\n\
             }",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("watchdog_set"));
    }

    #[test]
    fn different_receivers_are_independent() {
        let findings = check_src(
            "fn t(a: &mut FtCtx, b: &mut FtCtx) {\n\
                 a.watchdog_delete(\"wd\");\n\
                 b.watchdog_set(\"wd\", deadline);\n\
             }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn duplicate_create_is_legal() {
        let findings = check_src(
            "fn t(ctx: &mut FtCtx) {\n\
                 ctx.watchdog_restore(\"wd\");\n\
                 ctx.watchdog_create(\"wd\", period);\n\
             }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn dynamic_names_are_untrackable_and_skipped() {
        let findings = check_src(
            "fn t(ctx: &mut FtCtx, name: &str) {\n\
                 ctx.watchdog_delete(name);\n\
                 ctx.watchdog_set(name, deadline);\n\
             }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn checkpoint_before_initialize_is_flagged() {
        let findings = check_src(
            "fn t(ctx: &mut FtCtx) {\n\
                 ctx.save_now();\n\
                 ctx.initialize(conf);\n\
             }",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("before `initialize`"));
    }

    #[test]
    fn checkpoint_after_initialize_is_clean() {
        let findings = check_src(
            "fn t(ctx: &mut FtCtx) {\n\
                 ctx.initialize(conf);\n\
                 oftt_sel_save(ctx, vars);\n\
             }",
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn checkpoint_without_initialize_nearby_is_not_judged() {
        let findings = check_src("fn t(ctx: &mut FtCtx) { ctx.save_now(); }");
        assert!(findings.is_empty());
    }
}
