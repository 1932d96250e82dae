//! The static lock-order graph: nested `.lock()` acquisitions across
//! the whole workspace and cycle detection over the merged graph. It is
//! the workspace's one deadlock gate; no dynamic lock records exist.
//!
//! Each runtime function is interpreted abstractly: the walk tracks
//! brace depth and a held-set of guards. A guard bound by `let g = …`
//! lives until `drop(g)` or the end of its binding block; an unbound
//! guard (`x.lock().do_thing()`) lives to the end of its statement —
//! conservatively through any `{}` nesting the statement contains, which
//! matches Rust's temporary-lifetime rules for `match x.lock() { … }`.
//! Acquiring `B` while holding `A` adds the merged edge `A → B` (the
//! lockdep construction); any cycle in the merged static graph is a
//! potential deadlock under some thread interleaving.
//!
//! A site's lock name is the receiver's base identifier
//! (`self.probe.lock()` → `probe`). `try_lock` never blocks and is
//! ignored.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::scanner::FileModel;

use super::{ident, punct, receiver_base};

/// The merged static acquisition graph plus any lock-order findings.
#[derive(Debug, Default)]
pub struct LockScan {
    /// Cycle findings.
    pub findings: Vec<Finding>,
    /// Every statically discovered lock name.
    pub names: BTreeSet<String>,
    /// `outer → inner` edges with the site that first created each.
    pub edges: BTreeMap<(String, String), (String, u32)>,
}

/// How a held guard is released.
#[derive(Debug)]
enum Release {
    /// `let g = x.lock()`: released by `drop(g)` or when the block the
    /// binding lives in closes (depth drops below `depth`).
    Binding { var: String, depth: i32 },
    /// A temporary: released at the first `;` at its acquisition depth,
    /// or when a `}` (not continued by `else`) closes back to it.
    Statement { depth: i32 },
}

struct Held {
    name: String,
    release: Release,
}

/// What one function's abstract interpretation learned, beyond the
/// edges merged into the global graph: its own acquisitions (the
/// transitive `acquires` effect seeds from these) and the guard set
/// held at each call site the effect engine asked about.
#[derive(Debug, Default)]
pub struct FnLockFacts {
    /// Every `(lock name, line)` this function acquires directly.
    pub acquisitions: Vec<(String, u32)>,
    /// Guard names held when the walk passed each requested call token.
    pub held_at: BTreeMap<usize, Vec<String>>,
}

/// Interprets every runtime function in `models` and builds the merged
/// graph. `models` pairs each workspace-relative path with its scan.
/// This is the *intra*-procedural graph; [`crate::effects`] extends it
/// with call-derived edges before cycle detection in the full scan.
pub fn check(models: &[(String, FileModel)]) -> LockScan {
    let mut scan = LockScan::default();
    for (file, model) in models {
        for item in &model.fns {
            interpret_fn(file, model, item, &[], &mut scan);
        }
    }
    scan.findings.extend(find_cycles(&scan.edges));
    scan
}

/// Abstractly interprets one function: merges its nested-acquisition
/// edges into `scan` and returns its [`FnLockFacts`]. `call_toks` are
/// the (sorted) token indices of call sites whose held sets the caller
/// wants recorded.
pub(crate) fn interpret_fn(
    file: &str,
    model: &FileModel,
    item: &crate::scanner::FnItem,
    call_toks: &[usize],
    scan: &mut LockScan,
) -> FnLockFacts {
    let tokens = &model.tokens;
    let mut facts = FnLockFacts::default();
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    let mut i = item.body.start;
    while i < item.body.end {
        if call_toks.binary_search(&i).is_ok() {
            facts.held_at.insert(i, held.iter().map(|h| h.name.clone()).collect());
        }
        // A nested fn's sites belong to the nested item; jump over it.
        if let Some(nested) = model.fns.iter().find(|g| {
            g.body.start == i && g.body.start > item.body.start && g.body.end <= item.body.end
        }) {
            i = nested.body.end;
            continue;
        }
        match tokens.get(i).map(|t| &t.kind) {
            Some(TokenKind::Punct('{')) => depth += 1,
            Some(TokenKind::Punct('}')) => {
                depth -= 1;
                // A `}` closing back to a temporary's acquisition depth
                // ends the construct that owned it (`match m.lock() {…}`,
                // `if let … = m.lock().x() {…}`) — except `} else`,
                // which continues the same construct.
                let continues = ident(tokens, i + 1) == Some("else");
                held.retain(|h| match &h.release {
                    Release::Binding { depth: d, .. } => *d <= depth,
                    Release::Statement { depth: d } => *d < depth || (*d == depth && continues),
                });
            }
            Some(TokenKind::Punct(';')) => {
                held.retain(
                    |h| !matches!(&h.release, Release::Statement { depth: d } if *d == depth),
                );
            }
            Some(TokenKind::Ident(name)) if name == "drop" && punct(tokens, i + 1) == Some('(') => {
                if let (Some(var), Some(')')) = (ident(tokens, i + 2), punct(tokens, i + 3)) {
                    held.retain(
                        |h| !matches!(&h.release, Release::Binding { var: v, .. } if v == var),
                    );
                }
            }
            Some(TokenKind::Punct('.'))
                if ident(tokens, i + 1) == Some("lock")
                    && punct(tokens, i + 2) == Some('(')
                    && punct(tokens, i + 3) == Some(')') =>
            {
                let line = tokens[i].line;
                let name = receiver_base(tokens, i).unwrap_or_else(|| "<receiver>".to_string());
                scan.names.insert(name.clone());
                facts.acquisitions.push((name.clone(), line));
                for outer in &held {
                    if outer.name != name {
                        scan.edges
                            .entry((outer.name.clone(), name.clone()))
                            .or_insert_with(|| (file.to_string(), line));
                    }
                }
                held.push(Held { name, release: binding_release(model, item, i, depth) });
                i += 4;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

/// Decides how the guard acquired by the `.lock()` whose `.` sits at
/// `dot` is released. The guard is let-bound only when the lock call is
/// the *entire* initializer — `let g = receiver.lock();` — which the
/// token stream shows as a `;` right after the call and a statement
/// beginning `let NAME =` whose initializer starts with an identifier.
/// Anything else (`let i = x.lock().field;`, `let t = *v.lock();`,
/// `let p = if m.lock().ok() { … }`) copies *through* a temporary guard
/// that Rust drops at the end of the statement.
fn binding_release(
    model: &FileModel,
    item: &crate::scanner::FnItem,
    dot: usize,
    depth: i32,
) -> Release {
    let tokens = &model.tokens;
    if punct(tokens, dot + 4) != Some(';') {
        return Release::Statement { depth };
    }
    let mut start = dot;
    while start > item.body.start {
        match punct(tokens, start - 1) {
            Some(';') | Some('{') | Some('}') => break,
            _ => start -= 1,
        }
    }
    if ident(tokens, start) == Some("let") {
        let name_at = if ident(tokens, start + 1) == Some("mut") { start + 2 } else { start + 1 };
        if let Some(var) = ident(tokens, name_at) {
            let eq = (name_at + 1..dot)
                .find(|&j| punct(tokens, j) == Some('=') && punct(tokens, j + 1) != Some('='));
            let init_is_the_lock_expr = match eq {
                // `let g = self.x.lock();` — initializer starts with the
                // receiver path. A leading `*`/`&`/`(` means the guard is
                // a temporary being dereferenced or wrapped instead.
                Some(j) => ident(tokens, j + 1).is_some(),
                None => false,
            };
            if init_is_the_lock_expr {
                return Release::Binding { var: var.to_string(), depth };
            }
        }
    }
    Release::Statement { depth }
}

/// Tarjan's strongly-connected components over the merged edge set; any
/// component with more than one lock is an acquisition-order cycle.
pub(crate) fn find_cycles(edges: &BTreeMap<(String, String), (String, u32)>) -> Vec<Finding> {
    let mut succs: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        succs.entry(a).or_default().insert(b);
        succs.entry(b).or_default();
    }
    struct State<'a> {
        index: BTreeMap<&'a str, usize>,
        lowlink: BTreeMap<&'a str, usize>,
        on_stack: BTreeSet<&'a str>,
        stack: Vec<&'a str>,
        next: usize,
        cycles: Vec<Vec<&'a str>>,
    }
    fn visit<'a>(node: &'a str, succs: &BTreeMap<&'a str, BTreeSet<&'a str>>, st: &mut State<'a>) {
        st.index.insert(node, st.next);
        st.lowlink.insert(node, st.next);
        st.next += 1;
        st.stack.push(node);
        st.on_stack.insert(node);
        if let Some(out) = succs.get(node) {
            for succ in out {
                if !st.index.contains_key(succ) {
                    visit(succ, succs, st);
                    let low = st.lowlink[succ].min(st.lowlink[node]);
                    st.lowlink.insert(node, low);
                } else if st.on_stack.contains(succ) {
                    let low = st.index[succ].min(st.lowlink[node]);
                    st.lowlink.insert(node, low);
                }
            }
        }
        if st.lowlink[node] == st.index[node] {
            let mut component = Vec::new();
            while let Some(top) = st.stack.pop() {
                st.on_stack.remove(top);
                component.push(top);
                if top == node {
                    break;
                }
            }
            if component.len() > 1 {
                component.sort_unstable();
                st.cycles.push(component);
            }
        }
    }
    let mut st = State {
        index: BTreeMap::new(),
        lowlink: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        next: 0,
        cycles: Vec::new(),
    };
    let nodes: Vec<&str> = succs.keys().copied().collect();
    for node in nodes {
        if !st.index.contains_key(node) {
            visit(node, &succs, &mut st);
        }
    }
    st.cycles
        .into_iter()
        .map(|component| {
            // Anchor the finding at the earliest edge inside the cycle.
            let (file, line) = edges
                .iter()
                .filter(|((a, b), _)| {
                    component.contains(&a.as_str()) && component.contains(&b.as_str())
                })
                .map(|(_, site)| site.clone())
                .min_by_key(|(f, l)| (f.clone(), *l))
                .unwrap_or_else(|| (String::from("<graph>"), 0));
            Finding {
                rule: "lock-order",
                file,
                line,
                message: format!(
                    "locks {{{}}} are acquired in conflicting nesting orders \
                     (potential deadlock)",
                    component.join(", ")
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn scan_files(sources: &[(&str, &str)]) -> LockScan {
        let models: Vec<(String, FileModel)> =
            sources.iter().map(|(name, src)| (name.to_string(), scan(src))).collect();
        check(&models)
    }

    #[test]
    fn nested_let_guards_form_an_edge() {
        let scan = scan_files(&[(
            "a.rs",
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); a.x(); b.y(); }",
        )]);
        assert!(scan.edges.contains_key(&("alpha".into(), "beta".into())));
        assert!(scan.findings.is_empty());
    }

    #[test]
    fn conflicting_orders_are_a_cycle() {
        let scan = scan_files(&[(
            "a.rs",
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }",
        )]);
        assert_eq!(scan.findings.len(), 1);
        assert!(scan.findings[0].message.contains("alpha, beta"));
    }

    #[test]
    fn drop_releases_the_guard_before_the_next_acquisition() {
        let scan = scan_files(&[(
            "a.rs",
            "fn f(&self) { let a = self.alpha.lock(); drop(a); let b = self.beta.lock(); }\n\
             fn g(&self) { let b = self.beta.lock(); drop(b); let a = self.alpha.lock(); }",
        )]);
        assert!(scan.edges.is_empty());
        assert!(scan.findings.is_empty());
    }

    #[test]
    fn block_scope_releases_let_guards() {
        let scan = scan_files(&[(
            "a.rs",
            "fn f(&self) { { let a = self.alpha.lock(); } let b = self.beta.lock(); }",
        )]);
        assert!(scan.edges.is_empty());
    }

    #[test]
    fn temporary_guard_ends_at_the_statement() {
        let scan = scan_files(&[(
            "a.rs",
            "fn f(&self) { self.alpha.lock().poke(); let b = self.beta.lock(); }",
        )]);
        assert!(scan.edges.is_empty());
        assert_eq!(scan.names.len(), 2);
    }

    #[test]
    fn copying_through_a_guard_is_not_a_binding() {
        // `idx`, `t`, and `b2` bind copied values, not guards — the
        // temporaries die at each statement's `;`, so no edges form.
        let scan = scan_files(&[(
            "a.rs",
            "fn f(&self) {\n\
                 let idx = if self.alpha.lock().ready() { 0 } else { 1 };\n\
                 let t = *self.beta.lock();\n\
                 let b2 = self.gamma.lock().bytes_sent;\n\
                 let g = self.alpha.lock();\n\
             }",
        )]);
        assert!(scan.edges.is_empty(), "{:?}", scan.edges);
    }

    #[test]
    fn temporary_guard_spans_a_match_it_scrutinizes() {
        let scan = scan_files(&[(
            "a.rs",
            "fn f(&self) { match self.alpha.lock().kind { K::A => { let b = self.beta.lock(); } _ => {} }; }",
        )]);
        assert!(scan.edges.contains_key(&("alpha".into(), "beta".into())));
    }

    #[test]
    fn indexed_receivers_resolve_to_the_collection() {
        let scan = scan_files(&[("a.rs", "fn f(&self) { self.cells[&key].lock().bump(); }")]);
        assert!(scan.names.contains("cells"));
    }

    #[test]
    fn try_lock_is_ignored() {
        let scan = scan_files(&[("a.rs", "fn f(&self) { let g = self.alpha.try_lock(); }")]);
        assert!(scan.names.is_empty());
    }

    #[test]
    fn edges_merge_across_files() {
        let scan = scan_files(&[
            ("a.rs", "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }"),
            ("b.rs", "fn g(&self) { let b = self.beta.lock(); let c = self.gamma.lock(); }"),
        ]);
        assert_eq!(scan.edges.len(), 2);
        assert!(scan.findings.is_empty());
    }

    #[test]
    fn three_way_cycle_across_files_is_found() {
        let scan = scan_files(&[
            ("a.rs", "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }"),
            ("b.rs", "fn g(&self) { let b = self.beta.lock(); let c = self.gamma.lock(); }"),
            ("c.rs", "fn h(&self) { let c = self.gamma.lock(); let a = self.alpha.lock(); }"),
        ]);
        assert_eq!(scan.findings.len(), 1);
        assert!(scan.findings[0].message.contains("alpha, beta, gamma"));
    }
}
