//! Workspace-wide call-graph construction from the scanner's token
//! streams — the substrate the interprocedural effect analysis
//! ([`crate::effects`]) runs its fixpoint over.
//!
//! ## Call shapes recognized
//!
//! * bare calls — `helper(x)`;
//! * path-qualified calls — `mod::f(x)`, `Type::f(x)`, `Self::f(x)`,
//!   with turbofish (`from_bytes::<T>(x)`);
//! * UFCS calls — `<T as Trait>::f(x)` (the qualifier is the trait on
//!   the right of `as`, or the type itself without one);
//! * method calls — `recv.f(x)`, chained (`a.b().c()`), turbofished
//!   (`.collect::<Vec<_>>()`);
//! * macro invocations — `name!(…)` (recorded so the effect engine can
//!   classify panic/alloc macros; macro bodies' tokens are still walked
//!   for nested calls).
//!
//! ## Resolution
//!
//! Resolution runs in two tiers around the effect engine's intrinsic
//! tables, ordered by the strength of the evidence:
//!
//! * **strong** ([`FnIndex::resolve_strong`]) — the call names its
//!   owner: `Self::f` and `self.f(…)` bind to the enclosing `impl`'s
//!   self type, `Type::f` to methods owned by `Type` (falling out to
//!   every impl when the owner match is only a bodyless trait
//!   declaration, as in UFCS through a trait). Strong evidence beats
//!   the intrinsic tables.
//! * **weak** ([`FnIndex::resolve_weak`]) — name guessing for bare and
//!   method calls, preferring same-file functions, fanning out to all
//!   candidates otherwise (class-hierarchy-analysis style). The tables
//!   beat weak evidence: `q.len()` means `Vec::len`, not whichever
//!   workspace fn happens to be called `len`. A capitalized qualifier
//!   that strong resolution missed names a *foreign* (std) type —
//!   `Vec::new` must never bind to a workspace `new` — so it never
//!   weak-resolves; a lowercase qualifier is a module path and binds to
//!   free functions only. Trait-dispatch names (`drop`, `fmt`, …)
//!   never weak-resolve at all.
//!
//! When neither tier nor the tables claim a call, it is conservatively
//! *havoc'd* — with one carve-out: a bare call whose name is a
//! `Fn*`-bound parameter of the enclosing function is the callee
//! invoking its closure argument, and each call site records which of
//! its arguments are closure *literals* ([`Call::closure_args`]) so the
//! effect engine can check the invoked parameter was bound to a body
//! the caller's own scan already walked. Call-through-value in any
//! other shape (`(entry.encode)(body)`, closures stored in fields)
//! stays havoc'd — a documented policy, not a silent assumption.

use std::collections::BTreeMap;

use crate::lexer::{Token, TokenKind};
use crate::rules::{ident, punct, receiver_base};
use crate::scanner::{FileModel, FnItem};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Index of the callee-name token in the file's filtered stream.
    pub tok: usize,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// The callee name (`f` in all the shapes above).
    pub name: String,
    /// The path segment immediately qualifying the name: `Type::f` →
    /// `Type`, `<T as Trait>::f` → `Trait`, `Self::f` → `Self`.
    pub qualifier: Option<String>,
    /// The receiver's base identifier for method calls (`self.queue
    /// .push(…)` → `queue`; plain `self.f(…)` → `self`).
    pub receiver: Option<String>,
    /// True for `name!(…)` macro invocations.
    pub is_macro: bool,
    /// Zero-based argument positions holding a closure *literal*
    /// (`|…| …` or `move |…| …`), counted without the method-call
    /// receiver — the same numbering [`crate::scanner::FnItem::params`]
    /// uses. The effect engine uses this to resolve higher-order calls:
    /// a callee that invokes its `f` parameter is only transparent when
    /// the argument at `f`'s position is a literal closure whose body
    /// tokens the caller's own scan already walked.
    pub closure_args: Vec<usize>,
}

/// Words that read like `word (…)` without being calls.
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "let", "fn", "impl", "use", "mod", "pub", "where", "unsafe", "ref", "dyn", "mut",
    "crate", "super", "static", "const", "type", "struct", "enum", "trait", "await", "box",
];

/// Extracts every call site in `item`'s body, skipping spans owned by
/// fns nested inside it (their calls are attributed to the nested item).
pub fn extract_calls(model: &FileModel, item: &FnItem) -> Vec<Call> {
    let tokens = &model.tokens;
    let mut out = Vec::new();
    let mut i = item.body.start;
    while i < item.body.end {
        if let Some(nested) = model.fns.iter().find(|g| {
            g.body.start == i && g.body.start > item.body.start && g.body.end <= item.body.end
        }) {
            i = nested.body.end;
            continue;
        }
        if let Some(name) = ident(tokens, i) {
            if let Some(call) = call_at(tokens, i, name) {
                out.push(call);
            }
        }
        i += 1;
    }
    out
}

/// Classifies the identifier at `i` as a call site, if it is one.
fn call_at(tokens: &[Token], i: usize, name: &str) -> Option<Call> {
    if CALL_KEYWORDS.contains(&name) {
        return None;
    }
    // The name in `fn name(…)` is a definition, not a call.
    if matches!(i.checked_sub(1).and_then(|p| ident(tokens, p)), Some("fn")) {
        return None;
    }
    let line = tokens[i].line;
    // A macro invocation is `name !` followed by a delimiter — the
    // delimiter check keeps `a != b` (single-char puncts: `!` then `=`)
    // from reading as a macro named `a`.
    if punct(tokens, i + 1) == Some('!')
        && matches!(punct(tokens, i + 2), Some('(') | Some('[') | Some('{'))
        && name != "macro_rules"
    {
        return Some(Call {
            tok: i,
            line,
            name: name.to_string(),
            qualifier: None,
            receiver: None,
            is_macro: true,
            closure_args: Vec::new(),
        });
    }
    // The argument list opens right after the name, or after a
    // turbofish: `name::<T>(…)`.
    let open = if punct(tokens, i + 1) == Some('(') {
        i + 1
    } else if punct(tokens, i + 1) == Some(':')
        && punct(tokens, i + 2) == Some(':')
        && punct(tokens, i + 3) == Some('<')
    {
        let close = matching_angle(tokens, i + 3)?;
        if punct(tokens, close + 1) == Some('(') {
            close + 1
        } else {
            return None;
        }
    } else {
        return None;
    };
    let closure_args = closure_arg_positions(tokens, open);
    // Method call: the name follows a `.`.
    if punct(tokens, i.wrapping_sub(1)) == Some('.') && i > 0 {
        return Some(Call {
            tok: i,
            line,
            name: name.to_string(),
            qualifier: None,
            receiver: receiver_base(tokens, i - 1),
            is_macro: false,
            closure_args,
        });
    }
    // Path-qualified call: the name follows `::`.
    let qualifier = if i >= 2
        && punct(tokens, i - 1) == Some(':')
        && punct(tokens, i - 2) == Some(':')
        && i >= 3
    {
        path_qualifier(tokens, i - 3)
    } else {
        None
    };
    Some(Call {
        tok: i,
        line,
        name: name.to_string(),
        qualifier,
        receiver: None,
        is_macro: false,
        closure_args,
    })
}

/// The zero-based positions, in the argument list opening at `open`,
/// that hold closure literals (`|…|` or `move |…|`). Commas are split
/// at paren/bracket/brace depth one — angle brackets are not tracked
/// (comparison operators would unbalance them), so a turbofish *inside
/// an argument* can shift later indices; calls whose shapes matter here
/// do not take that form in this workspace.
fn closure_arg_positions(tokens: &[Token], open: usize) -> Vec<usize> {
    let mut closures = Vec::new();
    let mut depth = 0isize;
    let mut arg = 0usize;
    let mut at_arg_start = true;
    let mut i = open;
    while i < tokens.len() {
        match punct(tokens, i) {
            Some('(' | '[' | '{') if i == open => depth = 1,
            Some('(' | '[' | '{') => {
                depth += 1;
                at_arg_start = false;
            }
            Some(')' | ']' | '}') => {
                depth -= 1;
                if depth <= 0 {
                    break;
                }
            }
            Some(',') if depth == 1 => {
                arg += 1;
                at_arg_start = true;
            }
            _ => {
                if at_arg_start
                    && depth == 1
                    && (punct(tokens, i) == Some('|')
                        || (ident(tokens, i) == Some("move") && punct(tokens, i + 1) == Some('|')))
                {
                    closures.push(arg);
                }
                at_arg_start = false;
            }
        }
        i += 1;
    }
    closures
}

/// The qualifying segment ending at `j` (the token just left of `::`):
/// an ident (`Type::f`), or a `<…>` UFCS group whose qualifier is the
/// trait right of `as` — or, with no `as`, the first ident inside.
fn path_qualifier(tokens: &[Token], j: usize) -> Option<String> {
    if let Some(name) = ident(tokens, j) {
        return Some(name.to_string());
    }
    if punct(tokens, j) != Some('>') {
        return None;
    }
    // Walk back to the matching `<` of the UFCS group.
    let mut depth = 0isize;
    let mut k = j;
    loop {
        match punct(tokens, k) {
            Some('>') if !matches!(k.checked_sub(1).and_then(|p| punct(tokens, p)), Some('-')) => {
                depth += 1
            }
            Some('<') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        k = k.checked_sub(1)?;
    }
    let group = &tokens[k..=j];
    let after_as = group
        .iter()
        .position(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "as"))
        .and_then(|p| {
            group[p + 1..].iter().find_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
        });
    after_as.or_else(|| {
        group.iter().find_map(|t| match &t.kind {
            TokenKind::Ident(s) if s != "as" && s != "dyn" => Some(s.clone()),
            _ => None,
        })
    })
}

/// Index of the `>` closing the `<` at `open`, tolerant of `->` inside
/// (`::<fn(&u8) -> u8>`). `None` on malformed input.
fn matching_angle(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0isize;
    let mut i = open;
    while i < tokens.len() {
        match punct(tokens, i) {
            Some('<') => depth += 1,
            Some('>') if !matches!(i.checked_sub(1).and_then(|p| punct(tokens, p)), Some('-')) => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            Some(';') | Some('{') => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// A function's position in the workspace-wide index: `(model index,
/// fn index within that model)` flattened to one id.
pub type FnId = usize;

/// The global function index plus name/owner lookup tables.
pub struct FnIndex {
    /// `(model idx, fn idx)` for every runtime function, in file order.
    pub fns: Vec<(usize, usize)>,
    by_name: BTreeMap<String, Vec<FnId>>,
    by_owner_name: BTreeMap<(String, String), Vec<FnId>>,
}

impl FnIndex {
    /// Builds the index over every model's functions.
    pub fn build(models: &[(String, FileModel)]) -> FnIndex {
        let mut index =
            FnIndex { fns: Vec::new(), by_name: BTreeMap::new(), by_owner_name: BTreeMap::new() };
        for (mi, (_, model)) in models.iter().enumerate() {
            for (fi, item) in model.fns.iter().enumerate() {
                let id = index.fns.len();
                index.fns.push((mi, fi));
                index.by_name.entry(item.name.clone()).or_default().push(id);
                if let Some(owner) = &item.owner {
                    index
                        .by_owner_name
                        .entry((owner.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        index
    }

    /// Strong-evidence resolution: the call names its owner. `Self::f`
    /// and `self.f(…)` bind to the enclosing impl's self type, `Type::f`
    /// to methods owned by `Type`. Empty means "no ownership evidence"
    /// — the effect engine consults its intrinsic tables next, then
    /// [`Self::resolve_weak`].
    pub fn resolve_strong(
        &self,
        models: &[(String, FileModel)],
        caller: &FnItem,
        call: &Call,
    ) -> Vec<FnId> {
        if call.is_macro {
            return Vec::new();
        }
        // A candidate set that is all bodyless trait declarations would
        // swallow the impls' effects — fan out to every same-named fn
        // (the impls included) instead.
        let with_bodies = |v: &Vec<FnId>| {
            v.iter().any(|&id| {
                let (mi, fi) = self.fns[id];
                !models[mi].1.fns[fi].body.is_empty()
            })
        };
        // `Self::f` / `Type::f`: methods owned by that type.
        if let Some(q) = &call.qualifier {
            let owner = if q == "Self" { caller.owner.as_deref() } else { Some(q.as_str()) };
            if let Some(owner) = owner {
                if let Some(v) = self.by_owner_name.get(&(owner.to_string(), call.name.clone())) {
                    if with_bodies(v) {
                        return v.clone();
                    }
                    if let Some(all) = self.by_name.get(&call.name) {
                        return all.clone();
                    }
                }
            }
        }
        // `self.f(…)`: methods of the enclosing impl's type.
        if call.receiver.as_deref() == Some("self") {
            if let Some(owner) = &caller.owner {
                if let Some(v) = self.by_owner_name.get(&(owner.clone(), call.name.clone())) {
                    if with_bodies(v) {
                        return v.clone();
                    }
                }
            }
        }
        // `recv.f(…)` where `recv` snake-names a workspace type that
        // defines `f` with a body (`pool` → `BufPool::give`, `batch` →
        // `FrameBatch::add`): the variable is named after the type it
        // holds, which is ownership evidence nearly as strong as
        // `self`. This runs before the intrinsic tables so that
        // `reactor.flush(conn)` means `Reactor::flush` — a wakeup post
        // — and not the blocking io `flush`.
        if let Some(recv) = call.receiver.as_deref() {
            if recv != "self" {
                if let Some(all) = self.by_name.get(&call.name) {
                    let matched: Vec<FnId> = all
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let (mi, fi) = self.fns[id];
                            let item = &models[mi].1.fns[fi];
                            !item.body.is_empty()
                                && item
                                    .owner
                                    .as_deref()
                                    .is_some_and(|o| owner_matches_receiver(o, recv))
                        })
                        .collect();
                    if !matched.is_empty() {
                        return matched;
                    }
                }
            }
        }
        Vec::new()
    }

    /// Weak-evidence resolution: name guessing for calls the strong
    /// tier and the intrinsic tables both declined. Same-file functions
    /// are preferred; otherwise the call fans out to every candidate.
    pub fn resolve_weak(
        &self,
        models: &[(String, FileModel)],
        caller_mi: usize,
        call: &Call,
    ) -> Vec<FnId> {
        if call.is_macro || TRAIT_DISPATCH.contains(&call.name.as_str()) {
            return Vec::new();
        }
        let Some(all) = self.by_name.get(&call.name) else { return Vec::new() };
        if let Some(q) = &call.qualifier {
            // A capitalized qualifier the strong tier missed names a
            // foreign (std) type: `Instant::now` must never bind to a
            // workspace `now`. A lowercase qualifier is a module path —
            // free functions only.
            if q.chars().next().is_some_and(char::is_uppercase) {
                return Vec::new();
            }
            return all
                .iter()
                .copied()
                .filter(|&id| {
                    let (mi, fi) = self.fns[id];
                    models[mi].1.fns[fi].owner.is_none()
                })
                .collect();
        }
        // Receiver-type heuristic: `shared.space.browse(…)` most
        // plausibly dispatches to an owner whose snake_cased name ends
        // in `space` (`AddressSpace`), not to every `browse` in the
        // workspace. Only applied when it actually narrows — a receiver
        // matching no candidate keeps the full CHA fan-out.
        if let Some(recv) = call.receiver.as_deref() {
            let matching: Vec<FnId> = all
                .iter()
                .copied()
                .filter(|&id| {
                    let (mi, fi) = self.fns[id];
                    models[mi].1.fns[fi]
                        .owner
                        .as_deref()
                        .is_some_and(|o| owner_matches_receiver(o, recv))
                })
                .collect();
            if !matching.is_empty() {
                return matching;
            }
        }
        let local: Vec<FnId> =
            all.iter().copied().filter(|&id| self.fns[id].0 == caller_mi).collect();
        if !local.is_empty() {
            return local;
        }
        all.clone()
    }

    /// Both tiers back to back, tables-unaware — the effect engine
    /// interleaves its intrinsic tables between them; this combined
    /// form exists for tests and external callers.
    pub fn resolve(
        &self,
        models: &[(String, FileModel)],
        caller_mi: usize,
        caller: &FnItem,
        call: &Call,
    ) -> Vec<FnId> {
        let strong = self.resolve_strong(models, caller, call);
        if !strong.is_empty() {
            return strong;
        }
        self.resolve_weak(models, caller_mi, call)
    }
}

/// True when a field/variable named `recv` plausibly holds a value of
/// type `owner`: the snake_cased owner equals the receiver or ends with
/// `_recv` (`AddressSpace` ↔ `space`, `MsgQueue` ↔ `queue`).
fn owner_matches_receiver(owner: &str, recv: &str) -> bool {
    if recv == "self" {
        return false;
    }
    let mut snake = String::with_capacity(owner.len() + 4);
    for c in owner.chars() {
        if c.is_uppercase() {
            if !snake.is_empty() {
                snake.push('_');
            }
            snake.extend(c.to_lowercase());
        } else {
            snake.push(c);
        }
    }
    snake == recv || snake.ends_with(&format!("_{recv}"))
}

/// Method names that dispatch through std traits: `drop(x)` or
/// `x.fmt(f)` mean the trait far more often than any workspace fn that
/// happens to share the name, so these never resolve on name evidence
/// alone — only through an explicit qualifier or a `self` receiver.
const TRAIT_DISPATCH: &[&str] = &[
    "drop",
    "clone",
    "fmt",
    "default",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "next",
    "deref",
    "deref_mut",
    "index",
    "index_mut",
    "from",
    "into",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn calls_of(src: &str) -> Vec<Call> {
        let model = scan(src);
        extract_calls(&model, &model.fns[0])
    }

    fn shapes(src: &str) -> Vec<(String, Option<String>, Option<String>, bool)> {
        calls_of(src).into_iter().map(|c| (c.name, c.qualifier, c.receiver, c.is_macro)).collect()
    }

    #[test]
    fn bare_and_qualified_calls_are_extracted() {
        assert_eq!(
            shapes("fn f() { helper(1); comsim::marshal::from_bytes(x); }"),
            vec![
                ("helper".into(), None, None, false),
                ("from_bytes".into(), Some("marshal".into()), None, false),
            ]
        );
    }

    #[test]
    fn self_qualified_calls_carry_the_self_qualifier() {
        assert_eq!(
            shapes("fn f() { Self::helper(1); }"),
            vec![("helper".into(), Some("Self".into()), None, false)]
        );
    }

    #[test]
    fn ufcs_calls_resolve_the_trait_qualifier() {
        assert_eq!(
            shapes("fn f(x: T) { <T as Codec>::encode(x); }"),
            vec![("encode".into(), Some("Codec".into()), None, false)]
        );
        assert_eq!(
            shapes("fn f(x: T) { <Frame>::parse(x); }"),
            vec![("parse".into(), Some("Frame".into()), None, false)]
        );
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        assert_eq!(
            shapes("fn f(b: &[u8]) { from_bytes::<WatchdogTable>(b); }"),
            vec![("from_bytes".into(), None, None, false)]
        );
        // `->` inside the turbofish must not unbalance the angles.
        assert_eq!(
            shapes("fn f() { make::<fn(&u8) -> u8>(); }"),
            vec![("make".into(), None, None, false)]
        );
    }

    #[test]
    fn method_chains_yield_every_link() {
        assert_eq!(
            shapes("fn f(&self) { self.queue.pull().encode().ship(); }"),
            vec![
                ("pull".into(), None, Some("queue".into()), false),
                ("encode".into(), None, Some("pull".into()), false),
                ("ship".into(), None, Some("encode".into()), false),
            ]
        );
    }

    #[test]
    fn method_turbofish_is_a_call() {
        assert_eq!(
            shapes("fn f(v: Vec<u8>) { v.iter().collect::<Vec<_>>(); }"),
            vec![
                ("iter".into(), None, Some("v".into()), false),
                ("collect".into(), None, Some("iter".into()), false),
            ]
        );
    }

    #[test]
    fn macros_are_recorded_and_their_arguments_scanned() {
        assert_eq!(
            shapes("fn f() { format!(\"{}\", helper()); }"),
            vec![("format".into(), None, None, true), ("helper".into(), None, None, false),]
        );
    }

    #[test]
    fn inequality_is_not_a_macro_invocation() {
        // `!=` lexes as `!` then `=`; only a delimiter after `!` makes
        // a macro.
        assert_eq!(
            shapes("fn f(a: u8, b: u8) { if a.kind != b { g(); } }"),
            vec![("g".into(), None, None, false),]
        );
        assert_eq!(shapes("fn f() { assert![x > 0]; }"), vec![("assert".into(), None, None, true)]);
    }

    #[test]
    fn closure_literal_argument_positions_are_recorded() {
        let calls = calls_of("fn f(&self) { self.with_queue(dest, |q| q.pop()); }");
        let wq = calls.iter().find(|c| c.name == "with_queue").unwrap();
        assert_eq!(wq.closure_args, vec![1]);
        let calls = calls_of("fn f() { spawn(move || run()); retain(x, 3); }");
        assert_eq!(calls.iter().find(|c| c.name == "spawn").unwrap().closure_args, vec![0]);
        assert!(calls.iter().find(|c| c.name == "retain").unwrap().closure_args.is_empty());
        // The closure's own body calls are still walked.
        assert!(calls.iter().any(|c| c.name == "run"));
    }

    #[test]
    fn keywords_and_definitions_are_not_calls() {
        assert_eq!(shapes("fn f(x: u8) { if (x > 0) { return (1); } }"), vec![]);
        let model = scan("fn outer() { fn inner() { nested_call(); } outer_call(); }");
        let outer_calls: Vec<String> =
            extract_calls(&model, &model.fns[0]).into_iter().map(|c| c.name).collect();
        assert_eq!(outer_calls, vec!["outer_call"]);
        let inner_calls: Vec<String> =
            extract_calls(&model, &model.fns[1]).into_iter().map(|c| c.name).collect();
        assert_eq!(inner_calls, vec!["nested_call"]);
    }

    fn index_of(sources: &[(&str, &str)]) -> (Vec<(String, FileModel)>, FnIndex) {
        let models: Vec<(String, FileModel)> =
            sources.iter().map(|(name, src)| (name.to_string(), scan(src))).collect();
        let index = FnIndex::build(&models);
        (models, index)
    }

    fn resolved_names(
        models: &[(String, FileModel)],
        index: &FnIndex,
        caller_mi: usize,
        caller_fi: usize,
    ) -> Vec<Vec<String>> {
        let caller = &models[caller_mi].1.fns[caller_fi];
        extract_calls(&models[caller_mi].1, caller)
            .iter()
            .map(|c| {
                index
                    .resolve(models, caller_mi, caller, c)
                    .into_iter()
                    .map(|id| {
                        let (mi, fi) = index.fns[id];
                        format!("{}::{}", models[mi].0, models[mi].1.fns[fi].name)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn self_calls_resolve_to_the_enclosing_impl() {
        let (models, index) = index_of(&[
            ("a.rs", "impl Pool { fn take(&self) { self.refill(); } fn refill(&self) {} }"),
            ("b.rs", "impl Other { fn refill(&self) {} }"),
        ]);
        assert_eq!(resolved_names(&models, &index, 0, 0), vec![vec!["a.rs::refill".to_string()]]);
    }

    #[test]
    fn ufcs_resolves_through_the_trait_owner() {
        let (models, index) = index_of(&[
            ("a.rs", "fn f(x: X) { <X as Enc>::encode(x); }"),
            ("b.rs", "trait Enc { fn encode(&self); } impl Enc for Y { fn encode(&self) {} }"),
        ]);
        // The trait's own declaration is bodyless, so resolution falls
        // through to every `encode` with a body — Y's impl included.
        assert_eq!(
            resolved_names(&models, &index, 0, 0),
            vec![vec!["b.rs::encode".to_string(), "b.rs::encode".to_string()]]
        );
    }

    #[test]
    fn ambiguous_methods_fan_out_to_all_candidates() {
        let (models, index) = index_of(&[
            ("a.rs", "fn f(t: T) { t.record(1); }"),
            ("b.rs", "impl A { fn record(&self, x: u8) {} } impl B { fn record(&self, x: u8) {} }"),
        ]);
        assert_eq!(
            resolved_names(&models, &index, 0, 0),
            vec![vec!["b.rs::record".to_string(), "b.rs::record".to_string()]]
        );
    }

    #[test]
    fn bare_calls_prefer_same_file_helpers() {
        let (models, index) = index_of(&[
            ("a.rs", "fn f() { helper(); } fn helper() {}"),
            ("b.rs", "fn helper() {}"),
        ]);
        assert_eq!(resolved_names(&models, &index, 0, 0), vec![vec!["a.rs::helper".to_string()]]);
    }
}
