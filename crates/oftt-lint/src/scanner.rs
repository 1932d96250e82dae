//! Turns a lexed file into the model the rule families consume: a
//! filtered token stream (attributes and cfg-gated code removed), the
//! function items with their body spans, and every `oftt-lint` directive
//! resolved to its scope.
//!
//! ## Directive scopes
//!
//! * **File-scoped** — `nonblocking`, `no-panic`: opt the whole file into
//!   a rule family, wherever the comment sits (conventionally the top).
//! * **Function-scoped** — `role-choke-point`, `role-mirror`,
//!   `reactor-root`, `arena`, `cold-path`: attach to the next `fn` item
//!   at or below the comment line. A choke point is the transition
//!   apply path itself; a mirror is a confined secondary copy (e.g. the
//!   FTIM shadowing the engine's role for its own dispatch) — both
//!   exempt that one function from the role-confinement rule and
//!   nothing else. A reactor root is an entry point the reactor hot
//!   path rule walks from; an arena fn is a sanctioned allocator
//!   (`BufPool`) whose own allocation primitives are policy-exempt; a
//!   cold-path fn is declared off the hot path (handshake, teardown,
//!   harness-only code) and the hot-path walk stops at it.
//!
//! ## What gets removed
//!
//! Items gated behind `#[cfg(test)]`, `#[test]`, or
//! `#[cfg(feature = "inject_bugs")]` are dropped: test scaffolding
//! legitimately unwraps, sleeps, and leaks watchdogs, and the
//! seeded-defect blocks are *supposed* to violate the rules. All other
//! attributes are stripped from the stream too, so rules never see
//! `#[derive(...)]` idents.

use crate::lexer::{self, Diagnostic, Token, TokenKind};
use std::ops::Range;

/// One declared parameter of a `fn` item — just the facts the
/// interprocedural analyses consume.
#[derive(Debug)]
pub struct Param {
    /// The binding name.
    pub name: String,
    /// The type carries an `Fn`/`FnMut`/`FnOnce` bound (directly or via
    /// a generic parameter's bound): calls *to this name* inside the
    /// body invoke the caller-supplied closure, not a named function.
    pub callable: bool,
}

/// One `fn` item with its body's span in the filtered token stream.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The self type of the enclosing `impl`/`trait` block, if any.
    /// `Self::f()` and `self.f()` call sites resolve against this.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token indices of the body, *including* the outer braces. Empty
    /// for bodyless trait-method declarations.
    pub body: Range<usize>,
    /// Declared parameters, in order (`self` receivers excluded).
    pub params: Vec<Param>,
    /// Function-scoped directives attached to this item.
    pub directives: Vec<String>,
}

impl FnItem {
    /// True if the function carries the given directive.
    pub fn has_directive(&self, name: &str) -> bool {
        self.directives.iter().any(|d| d == name)
    }

    /// The callable (closure-bound) parameter with this name, if any.
    pub fn callable_param(&self, name: &str) -> bool {
        self.params.iter().any(|p| p.callable && p.name == name)
    }
}

/// The scanned model of one file.
#[derive(Debug)]
pub struct FileModel {
    /// File-scoped directives (`nonblocking`, `no-panic`).
    pub file_directives: Vec<String>,
    /// The filtered token stream.
    pub tokens: Vec<Token>,
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnItem>,
    /// Lexer diagnostics plus directive-resolution problems.
    pub diagnostics: Vec<Diagnostic>,
}

impl FileModel {
    /// True if the file carries the given file-scoped directive.
    pub fn has_file_directive(&self, name: &str) -> bool {
        self.file_directives.iter().any(|d| d == name)
    }
}

/// Directives the scanner understands; anything else is a diagnostic so
/// a typo (`non-blocking`, `no panic`) fails loudly instead of
/// silently disabling a rule.
const FILE_DIRECTIVES: &[&str] = &["nonblocking", "no-panic"];
const FN_DIRECTIVES: &[&str] =
    &["role-choke-point", "role-mirror", "reactor-root", "arena", "cold-path"];

/// Scans one file's source. Total, like the lexer underneath it.
pub fn scan(source: &str) -> FileModel {
    let lexed = lexer::lex(source);
    let mut model = FileModel {
        file_directives: Vec::new(),
        tokens: Vec::new(),
        fns: Vec::new(),
        diagnostics: lexed.diagnostics,
    };
    filter_tokens(&lexed.tokens, &mut model);
    extract_fns(&mut model);
    resolve_directives(&lexed.directives, &mut model);
    model
}

fn ident_is(token: Option<&Token>, text: &str) -> bool {
    matches!(token.map(|t| &t.kind), Some(TokenKind::Ident(s)) if s == text)
}

fn punct_is(token: Option<&Token>, c: char) -> bool {
    matches!(token.map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
}

/// Copies the token stream into the model, dropping attribute spans and
/// the items those attributes gate out of the build or into test-only
/// compilation.
fn filter_tokens(tokens: &[Token], model: &mut FileModel) {
    let mut i = 0;
    while i < tokens.len() {
        if punct_is(tokens.get(i), '#') {
            let attr_start = if punct_is(tokens.get(i + 1), '[') {
                Some(i + 1)
            } else if punct_is(tokens.get(i + 1), '!') && punct_is(tokens.get(i + 2), '[') {
                Some(i + 2)
            } else {
                None
            };
            if let Some(open) = attr_start {
                let close = matching(tokens, open, '[', ']');
                let gated = is_gating_attr(&tokens[open..=close.min(tokens.len() - 1)]);
                i = close + 1;
                if gated {
                    // Consume any further attributes stacked on the item.
                    while punct_is(tokens.get(i), '#') && punct_is(tokens.get(i + 1), '[') {
                        i = matching(tokens, i + 1, '[', ']') + 1;
                    }
                    i = skip_item(tokens, i);
                }
                continue;
            }
        }
        model.tokens.push(tokens[i].clone());
        i += 1;
    }
}

/// Index of the token closing the bracket opened at `open` (which must
/// be the opening bracket itself). Clamped to the stream end on
/// malformed input.
fn matching(tokens: &[Token], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if punct_is(tokens.get(i), open_c) {
            depth += 1;
        } else if punct_is(tokens.get(i), close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Does this attribute's token span gate the following item out of the
/// runtime build (or into test-only / seeded-defect compilation)?
fn is_gating_attr(attr: &[Token]) -> bool {
    let mut text = String::new();
    for token in attr {
        match &token.kind {
            TokenKind::Ident(s) => {
                text.push_str(s);
                text.push(' ');
            }
            TokenKind::Str(s) => {
                text.push_str(s);
                text.push(' ');
            }
            _ => {}
        }
    }
    // `cfg(not(test))` is runtime code, not test code.
    if text.contains("not ") {
        return false;
    }
    text.contains("test") || text.contains("inject_bugs")
}

/// Skips the item starting at `i`: either through its balanced `{...}`
/// block, or through the first `;` / `,` at nesting depth zero (gated
/// use-decls, struct fields, expression statements).
fn skip_item(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            TokenKind::Punct(';') | TokenKind::Punct(',') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Spans of `impl`/`trait` block bodies with the self type they define
/// methods on. `impl Trait for Type` records `Type`; `impl Type` and
/// `trait Type` record `Type` directly. The word `impl` in type
/// position (`-> impl Iterator`) is ignored by an item-position check.
fn impl_spans(tokens: &[Token]) -> Vec<(Range<usize>, String)> {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        let keyword = match tokens.get(i).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) if s == "impl" || s == "trait" => s.as_str(),
            _ => continue,
        };
        // Item position: start of file, after a block or statement end,
        // or after `unsafe`. `impl` elsewhere is a type (`-> impl Fn()`).
        let item_pos = match i.checked_sub(1).and_then(|p| tokens.get(p)).map(|t| &t.kind) {
            None => true,
            Some(TokenKind::Punct('{' | '}' | ';')) => true,
            Some(TokenKind::Ident(s)) => s == "unsafe",
            _ => false,
        };
        if !item_pos {
            continue;
        }
        if keyword == "trait" {
            if let Some(TokenKind::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) {
                let open = match (i + 2..tokens.len()).find(|&j| punct_is(tokens.get(j), '{')) {
                    Some(j) => j,
                    None => continue,
                };
                spans.push((open..matching(tokens, open, '{', '}') + 1, name.clone()));
            }
            continue;
        }
        // impl header: skip generics, then the last plain ident at angle
        // depth 0 before `{`/`where` is the self type; a `for` keyword
        // (not HRTB `for<`) restarts the search on its right-hand side.
        let mut owner: Option<String> = None;
        let mut angle = 0isize;
        let mut in_where = false;
        let mut j = i + 1;
        let mut open = None;
        while let Some(token) = tokens.get(j) {
            match &token.kind {
                TokenKind::Punct('<') => angle += 1,
                // `->` in an impl header (e.g. `impl Fn() -> u8`) must
                // not close an angle bracket.
                TokenKind::Punct('>')
                    if !punct_is(j.checked_sub(1).and_then(|p| tokens.get(p)), '-') =>
                {
                    angle -= 1
                }
                TokenKind::Punct('{') if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                TokenKind::Punct(';') if angle <= 0 => break,
                TokenKind::Ident(s) if angle <= 0 && !in_where => {
                    if s == "where" {
                        // Type is complete; scan on for the body brace.
                        in_where = true;
                    } else if s == "for" {
                        // `impl Trait for Type`: the self type is on the
                        // right-hand side. `for<'a>` is an HRTB, not that.
                        if !punct_is(tokens.get(j + 1), '<') {
                            owner = None;
                        }
                    } else if s != "dyn" && s != "mut" && s != "const" && s != "unsafe" {
                        owner = Some(s.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let (Some(open), Some(owner)) = (open, owner) {
            spans.push((open..matching(tokens, open, '{', '}') + 1, owner));
        }
    }
    spans
}

/// Finds every `fn` item in the filtered stream and records its body
/// span. Closures don't use the keyword, so they simply stay inside the
/// enclosing function's span; nested `fn` items are recorded in their
/// own right as well.
fn extract_fns(model: &mut FileModel) {
    let tokens = &model.tokens;
    let impls = impl_spans(tokens);
    let mut i = 0;
    while i < tokens.len() {
        if ident_is(tokens.get(i), "fn") {
            if let Some(TokenKind::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) {
                let line = tokens[i].line;
                let name = name.clone();
                // Innermost impl/trait block containing this fn names
                // the owner type.
                let owner = impls
                    .iter()
                    .filter(|(span, _)| span.contains(&i))
                    .min_by_key(|(span, _)| span.len())
                    .map(|(_, owner)| owner.clone());
                // Find the body `{` (or `;` for a bodyless declaration),
                // ignoring braces inside parens/brackets (const-generic
                // defaults, array-type return values).
                let mut j = i + 2;
                let mut nesting = 0isize;
                let body = loop {
                    match tokens.get(j).map(|t| &t.kind) {
                        Some(TokenKind::Punct('(' | '[')) => nesting += 1,
                        Some(TokenKind::Punct(')' | ']')) => nesting -= 1,
                        Some(TokenKind::Punct('{')) if nesting == 0 => {
                            break j..matching(tokens, j, '{', '}') + 1;
                        }
                        Some(TokenKind::Punct(';')) if nesting == 0 => break j..j,
                        Some(_) => {}
                        None => break j..j,
                    }
                    j += 1;
                };
                let header = &tokens[i..body.start.min(tokens.len())];
                let params = parse_params(header);
                model.fns.push(FnItem { name, owner, line, body, params, directives: Vec::new() });
                // Continue *inside* the body so nested fns are found too.
                i += 2;
                continue;
            }
        }
        i += 1;
    }
}

/// Extracts [`Param`]s from one fn's header tokens (the span from the
/// `fn` keyword up to the body brace, including any `where` clause).
/// Pattern parameters (`(a, b): (u8, u8)`) and receivers are skipped —
/// the analyses only need simple named bindings.
fn parse_params(header: &[Token]) -> Vec<Param> {
    // `>` closes an angle bracket unless it is the tail of `->`.
    let closes_angle = |k: usize| !punct_is(k.checked_sub(1).and_then(|p| header.get(p)), '-');
    // The param list `(` sits outside the generic angle brackets; parens
    // inside generics (`fn f<F: Fn(u8)>(…)`) are at angle depth > 0.
    let mut angle = 0isize;
    let mut open = None;
    for (k, token) in header.iter().enumerate().skip(2) {
        match &token.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') if closes_angle(k) => angle -= 1,
            TokenKind::Punct('(') if angle <= 0 => {
                open = Some(k);
                break;
            }
            _ => {}
        }
    }
    let Some(open) = open else { return Vec::new() };
    let close = matching(header, open, '(', ')');
    // Split the list on commas at bracket depth zero.
    let mut params = Vec::new();
    let mut depth = 0isize;
    let mut angle = 0isize;
    let mut seg_start = open + 1;
    let mut k = open + 1;
    while k <= close.min(header.len().saturating_sub(1)) {
        let at_end = k == close;
        let top_comma = depth == 0 && angle <= 0 && punct_is(header.get(k), ',') && !at_end;
        if top_comma || at_end {
            if let Some(param) = parse_param(&header[seg_start..k], header) {
                params.push(param);
            }
            seg_start = k + 1;
        } else {
            match &header[k].kind {
                TokenKind::Punct('(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth -= 1,
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') if closes_angle(k) => angle -= 1,
                _ => {}
            }
        }
        k += 1;
    }
    params
}

/// Parses one `name: Type` parameter segment; `header` is the whole fn
/// header, searched for the `Fn`-bound of a generic type parameter.
fn parse_param(seg: &[Token], header: &[Token]) -> Option<Param> {
    let mut k = 0;
    if ident_is(seg.first(), "mut") {
        k = 1;
    }
    let name = match seg.get(k).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) if s != "self" => s.clone(),
        _ => return None,
    };
    if !punct_is(seg.get(k + 1), ':') {
        return None;
    }
    let ty = &seg[k + 2..];
    let fn_ident = |t: &Token| matches!(&t.kind, TokenKind::Ident(s) if s.starts_with("Fn"));
    let mut callable = ty.iter().any(fn_ident);
    if !callable {
        // A bare generic type (`f: F`) is callable when `F` carries an
        // `Fn` bound in the generics or where clause.
        if let [Token { kind: TokenKind::Ident(ty_name), .. }] = ty {
            for (j, token) in header.iter().enumerate() {
                let declares_bound = matches!(&token.kind, TokenKind::Ident(s) if s == ty_name)
                    && punct_is(header.get(j + 1), ':');
                if declares_bound {
                    let bound = header[j + 2..]
                        .iter()
                        .take_while(|t| !matches!(&t.kind, TokenKind::Punct(',' | '>' | '{')));
                    callable = bound.into_iter().any(fn_ident);
                    if callable {
                        break;
                    }
                }
            }
        }
    }
    Some(Param { name, callable })
}

/// Sorts every directive comment into its scope; unknown directives and
/// fn-scoped directives with no following function become diagnostics.
fn resolve_directives(directives: &[lexer::Directive], model: &mut FileModel) {
    for d in directives {
        let text = d.text.as_str();
        if FILE_DIRECTIVES.contains(&text) {
            model.file_directives.push(text.to_string());
        } else if FN_DIRECTIVES.contains(&text) {
            // Attach to the first fn at or below the comment.
            match model.fns.iter_mut().filter(|f| f.line >= d.line).min_by_key(|f| f.line) {
                Some(item) => item.directives.push(text.to_string()),
                None => model.diagnostics.push(Diagnostic {
                    line: d.line,
                    message: format!("directive `{text}` is not followed by a function"),
                }),
            }
        } else {
            model.diagnostics.push(Diagnostic {
                line: d.line,
                message: format!("unknown oftt-lint directive `{text}`"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_with_their_bodies() {
        let model = scan("fn a() { 1 } impl X { fn b(&self) -> u32 { 2 } }");
        let names: Vec<&str> = model.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(!model.fns[1].body.is_empty());
    }

    #[test]
    fn bodyless_trait_methods_get_empty_spans() {
        let model = scan("trait T { fn sig(&self) -> u8; fn with_body(&self) {} }");
        assert_eq!(model.fns.len(), 2);
        assert!(model.fns[0].body.is_empty());
        assert!(!model.fns[1].body.is_empty());
    }

    #[test]
    fn cfg_test_mod_is_dropped_from_runtime_files() {
        let source = "fn real() {} #[cfg(test)] mod tests { fn fake() { panic!() } }";
        let model = scan(source);
        let names: Vec<&str> = model.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn inject_bugs_blocks_are_dropped() {
        let source = r#"fn f() { #[cfg(feature = "inject_bugs")] { bad() } good() }"#;
        let model = scan(source);
        let has = |name: &str| {
            model.tokens.iter().any(|t| matches!(&t.kind, TokenKind::Ident(s) if s == name))
        };
        assert!(!has("bad"));
        assert!(has("good"));
    }

    #[test]
    fn cfg_not_test_is_runtime_code() {
        let source = "#[cfg(not(test))] fn real() {}";
        let model = scan(source);
        assert_eq!(model.fns.len(), 1);
    }

    #[test]
    fn directives_resolve_to_their_scopes() {
        let source = "\
// oftt-lint: nonblocking
// oftt-lint: role-choke-point
fn set_role() {}
fn other() {}
";
        let model = scan(source);
        assert!(model.has_file_directive("nonblocking"));
        assert!(model.fns[0].has_directive("role-choke-point"));
        assert!(!model.fns[1].has_directive("role-choke-point"));
        assert!(model.diagnostics.is_empty());
    }

    #[test]
    fn unknown_directives_are_diagnosed() {
        // A typo, and directives whose analyses were retired.
        for directive in ["non-blocking", "pool(staging)", "lock(probe)"] {
            let model = scan(&format!("// oftt-lint: {directive}\nfn f() {{}}"));
            assert_eq!(model.diagnostics.len(), 1, "{directive}");
            assert!(
                model.diagnostics[0].message.contains("unknown oftt-lint directive"),
                "{directive}: {:?}",
                model.diagnostics
            );
        }
    }

    #[test]
    fn dangling_fn_directive_is_diagnosed() {
        let model = scan("fn f() {}\n// oftt-lint: role-choke-point\n");
        assert_eq!(model.diagnostics.len(), 1);
        assert!(model.diagnostics[0].message.contains("not followed by a function"));
    }

    #[test]
    fn attributes_are_stripped_from_the_stream() {
        let model = scan("#[derive(Debug, Clone)] struct S; #[inline] fn f() {}");
        assert!(!model.tokens.iter().any(|t| matches!(
            &t.kind, TokenKind::Ident(s) if s == "derive" || s == "inline"
        )));
        assert_eq!(model.fns.len(), 1);
    }

    #[test]
    fn impl_owners_attach_to_methods() {
        let model = scan(
            "fn free() {} \
             impl Pool { fn take(&mut self) {} } \
             impl<T: Clone> fmt::Display for Shard<T> { fn fmt(&self) {} } \
             trait Handler: Send { fn on_frame(&self); } \
             unsafe impl Sync for Pool {} \
             fn ret() -> impl Iterator<Item = u8> { std::iter::empty() }",
        );
        let owners: Vec<(&str, Option<&str>)> =
            model.fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect();
        assert_eq!(
            owners,
            vec![
                ("free", None),
                ("take", Some("Pool")),
                ("fmt", Some("Shard")),
                ("on_frame", Some("Handler")),
                ("ret", None),
            ]
        );
    }

    #[test]
    fn where_clauses_do_not_confuse_impl_owners() {
        let model = scan("impl<T> Queues<T> where T: Clone + Send { fn push(&self) {} }");
        assert_eq!(model.fns[0].owner.as_deref(), Some("Queues"));
    }

    #[test]
    fn reactor_root_directive_attaches_to_fn() {
        let model = scan("// oftt-lint: reactor-root\nfn on_frame() {}\nfn other() {}");
        assert!(model.fns[0].has_directive("reactor-root"));
        assert!(!model.fns[1].has_directive("reactor-root"));
        assert!(model.diagnostics.is_empty());
    }

    #[test]
    fn params_capture_callable_bounds() {
        let model = scan(
            "fn with_queue<R>(&self, dest: DestId, f: impl FnOnce(&mut Q) -> R) -> R { f() } \
             fn generic<F>(cb: F) where F: FnMut(u8) { cb(1) } \
             fn ship(mut buf: Vec<u8>, n: usize) {}",
        );
        let wq = &model.fns[0].params;
        assert_eq!(wq.len(), 2);
        assert!(!wq[0].callable);
        assert!(wq[1].callable && wq[1].name == "f");
        assert!(model.fns[1].callable_param("cb"));
        // `mut` is skipped; a plain type is not callable.
        let ship = &model.fns[2].params;
        assert!(ship[0].name == "buf" && !ship[0].callable);
    }

    #[test]
    fn malformed_source_never_panics() {
        for source in ["fn", "fn f(", "#[cfg(test)]", "#[", "fn f() { {", "impl {"] {
            let _ = scan(source);
        }
    }
}
