//! The interprocedural effect analysis: a bottom-up fixpoint over the
//! workspace call graph ([`crate::callgraph`]) inferring four effects
//! per function —
//!
//! * **blocks** — the function can transitively reach a blocking
//!   primitive (sleep, channel/condvar wait, park/join, synchronous
//!   socket/file I/O, stdio macros). Taking a `parking_lot`-style mutex
//!   is deliberately *not* `blocks`: short lock sections are legitimate
//!   on the hot path and tracked separately as `acquires`.
//! * **may_panic** — a panic macro (`panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, `assert*!`), `.unwrap()`/`.expect()`, or an
//!   index expression (`buf[i]`, `raw[1..3]`) is transitively
//!   reachable.
//! * **allocates** — fresh heap memory is transitively requested
//!   (`with_capacity`, `to_vec`/`to_owned`/`to_string`, `collect`,
//!   `format!`/`vec!`, `Box/Arc/Rc/String/Vec::from|new`). Amortized
//!   container growth (`push`, `insert`, `extend`, `reserve`) is *not*
//!   counted — the policy targets per-event fresh allocation, the kind
//!   the `BufPool` arena exists to absorb. Functions annotated
//!   `// oftt-lint: arena` are the sanctioned allocators: their own
//!   allocation is exempt and not propagated to callers.
//! * **acquires** — the set of lock names the function (transitively)
//!   acquires, seeded from the same guard interpreter the lock-order
//!   rule uses.
//!
//! A fifth pseudo-effect, **havoc**, marks functions that call
//! something name resolution cannot see (an unknown name, a
//! call-through-value). Havoc is a *proof obligation*, not a verdict:
//! only the reactor-hot-path rule treats it as a violation (the proof
//! cannot close there); the lock-across-blocking and annotation-drift
//! rules use only *definite* effects — chains that end in a known
//! primitive — so an unresolved call never manufactures a false
//! positive in them.
//!
//! Every effect carries a [`Source`] so findings can print a witness
//! chain from the function to the primitive that grounds the effect.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::callgraph::{self, Call, FnId, FnIndex};
use crate::rules::locks::{self, LockScan};
use crate::rules::panics::{indexes_value, PANIC_MACROS};
use crate::rules::{blocking, punct};
use crate::scanner::FileModel;

/// Blocking call names for the *effect*, derived from the syntactic
/// deny-list minus `lock` (tracked as `acquires` instead) plus DNS
/// resolution, which the syntactic rule predates.
fn is_blocking_effect(name: &str) -> bool {
    (name != "lock" && blocking::BLOCKING_CALLS.contains(&name)) || name == "to_socket_addrs"
}

/// Macros that lock and write stdio — blocking on the hot path.
const BLOCKING_MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];

/// Calls that request fresh heap memory.
const ALLOC_CALLS: &[&str] = &[
    "with_capacity",
    "to_vec",
    "to_owned",
    "to_string",
    "to_uppercase",
    "to_lowercase",
    "collect",
    "concat",
    "join",
    "repeat",
    "split_off",
    "into_owned",
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// `Type::new` qualifiers that mean a heap allocation. Container `new`
/// (`Vec::new`, `String::new`, `BTreeMap::new`, …) starts at capacity
/// zero and touches the allocator only on first growth (policy-exempt
/// amortized growth, same as `push`), so only the boxing constructors
/// count.
const ALLOC_NEW_OWNERS: &[&str] = &["Box", "Arc", "Rc", "CString"];

/// `Type::from` qualifiers that mean a heap allocation — the conversion
/// copies or moves into a fresh heap block.
const ALLOC_FROM_OWNERS: &[&str] = &[
    "Box", "Arc", "Rc", "String", "Vec", "VecDeque", "HashMap", "BTreeMap", "HashSet", "BTreeSet",
    "CString",
];

/// Macros that expand to non-effectful code (formatter `write!` goes to
/// an in-memory buffer everywhere this workspace uses it; socket writes
/// flow through the named blocking calls instead).
const BENIGN_MACROS: &[&str] = &[
    "write",
    "writeln",
    "matches",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "cfg",
    "env",
    "option_env",
    "concat",
    "stringify",
    "include_str",
    "include_bytes",
    "line",
    "file",
    "column",
    "module_path",
];

/// Known-effect-free call names: accessors, iterator adapters, checked
/// arithmetic, atomics, time math, in-place container ops (amortized
/// growth is policy-exempt, see the module docs). Anything *not* here,
/// not an intrinsic above, and not resolvable to a workspace function
/// is havoc'd.
const BENIGN_CALLS: &[&str] = &[
    // accessors / predicates
    "len",
    "is_empty",
    "capacity",
    "get",
    "get_mut",
    "first",
    "last",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "is_finite",
    "is_nan",
    "is_alphanumeric",
    "is_ascii_digit",
    "is_char_boundary",
    "kind",
    "raw_os_error",
    "last_os_error",
    "local_addr",
    "peer_addr",
    "as_raw_fd",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_mut_slice",
    "as_bytes",
    "as_deref",
    "as_ptr",
    "as_mut_ptr",
    "borrow",
    "borrow_mut",
    "deref",
    "id",
    "name",
    // iterator construction / adapters (lazy, no effect of their own)
    "iter",
    "iter_mut",
    "into_iter",
    "chars",
    "bytes",
    "lines",
    "split",
    "splitn",
    "split_whitespace",
    "split_terminator",
    "windows",
    "chunks",
    "chunks_exact",
    "next",
    "peek",
    "peekable",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "fold",
    "try_fold",
    "sum",
    "product",
    "count",
    "rev",
    "enumerate",
    "zip",
    "chain",
    "take_while",
    "skip",
    "skip_while",
    "step_by",
    "all",
    "any",
    "find",
    "find_map",
    "position",
    "rposition",
    "max_by_key",
    "min_by_key",
    "max_by",
    "min_by",
    "copied",
    "cloned",
    "by_ref",
    "empty",
    "once",
    "from_fn",
    "successors",
    // Option/Result plumbing
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "map_err",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "and_then",
    "or_else",
    "ok_or_default",
    "take",
    "replace",
    "insert_with",
    "get_or_insert_with",
    "as_opt",
    // comparison / arithmetic / bits
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "min",
    "max",
    "clamp",
    "abs",
    "pow",
    "signum",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "checked_rem",
    "overflowing_add",
    "rotate_left",
    "rotate_right",
    "count_ones",
    "leading_zeros",
    "trailing_zeros",
    "next_power_of_two",
    "is_power_of_two",
    "checked_next_power_of_two",
    "rem_euclid",
    "div_euclid",
    "floor",
    "ceil",
    "round",
    "sqrt",
    "trunc",
    "to_le_bytes",
    "to_be_bytes",
    "to_ne_bytes",
    "from_le_bytes",
    "from_be_bytes",
    "swap_bytes",
    "parse",
    "trim",
    "trim_start",
    "trim_end",
    "strip_prefix",
    "strip_suffix",
    "find_char",
    // in-place container ops (amortized growth policy-exempt)
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "append",
    "extend",
    "extend_from_slice",
    "drain",
    "clear",
    "truncate",
    "retain",
    "swap",
    "swap_remove",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "keys",
    "values",
    "values_mut",
    "range",
    "front",
    "back",
    "front_mut",
    "back_mut",
    "reserve",
    "resize",
    "shrink_to_fit",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search",
    "binary_search_by",
    "binary_search_by_key",
    "fill",
    "copy_from_slice",
    "clone_from_slice",
    "rotate_left_slice",
    "split_at",
    "split_at_mut",
    "split_first",
    "split_last",
    "dedup",
    "concat_idents",
    "get_unchecked",
    "make_ascii_lowercase",
    // moves / clones (Arc/handle clones dominate this workspace)
    "clone",
    "drop",
    "into",
    "from",
    "try_from",
    "try_into",
    "to_bits",
    "from_bits",
    "into_inner",
    "unzip",
    "leak",
    "forget",
    // atomics
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
    // time (clock reads are vDSO calls, not syscal-blocking)
    "now",
    "elapsed",
    "duration_since",
    "checked_duration_since",
    "saturating_duration_since",
    "as_secs",
    "as_millis",
    "as_micros",
    "as_nanos",
    "as_secs_f64",
    "subsec_millis",
    "subsec_micros",
    "subsec_nanos",
    "from_secs",
    "from_millis",
    "from_micros",
    "from_nanos",
    "checked_sub_duration",
    "mul_f64",
    "checked_mul_duration",
    // serde-shaped decoding: the workspace's only `deserialize` is
    // `comsim::marshal`'s visitor entry point, dispatched through the
    // `Deserialize` trait so name resolution cannot see through it.
    // The marshal `Deserializer` is total over arbitrary bytes (typed
    // errors, no panic), bounded (no I/O), and allocates only into the
    // caller-supplied value — a table fact standing in for the trait
    // dispatch the resolver declines.
    "deserialize",
    // sync constructs that never wait (`spawn` creates a thread and
    // returns; what the thread *does* is its own effect, see
    // `spawn_arg_spans`)
    "try_lock",
    "try_recv",
    "try_send",
    "notify_one",
    "notify_all",
    "unpark",
    "spawn",
    // non-blocking socket/fd plumbing (readiness-driven I/O: `read`
    // and `write` on a nonblocking fd return WouldBlock, they do not
    // block; the blocking loops are the *_all/_exact/_to_end forms)
    "read",
    "write",
    "write_vectored",
    "read_vectored",
    "set_nonblocking",
    "set_nodelay",
    "set_read_timeout",
    "set_write_timeout",
    "shutdown",
    "take_error",
    "try_clone",
    // readiness-registry ops: `epoll_ctl`-class syscalls and the
    // eventfd poke behind `wake` return immediately
    "register",
    "reregister",
    "deregister",
    "wake",
    // range-bound accessors
    "start_bound",
    "end_bound",
    // std free functions
    "min_by_key_free",
    "size_of",
    "align_of",
    "available_parallelism",
    "current",
    "spawn_local",
    "from_utf8",
];

/// One effect dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectKind {
    /// Can reach a blocking primitive.
    Blocks,
    /// Can reach a panic primitive.
    Panics,
    /// Can reach a fresh-heap allocation outside the arena.
    Allocs,
    /// Calls something resolution cannot see — the proof obligation.
    Havoc,
}

impl EffectKind {
    /// Human label used in findings.
    pub fn label(self) -> &'static str {
        match self {
            EffectKind::Blocks => "blocking call",
            EffectKind::Panics => "panic path",
            EffectKind::Allocs => "allocation",
            EffectKind::Havoc => "unresolvable call",
        }
    }
}

/// Why a function has an effect: its own primitive, or a call to a
/// function that has it.
#[derive(Debug, Clone)]
pub enum Source {
    /// A primitive inside this very function.
    Prim {
        /// What the primitive is (`sleep`, `unwrap`, `index`, …).
        what: String,
        /// Its 1-based line.
        line: u32,
    },
    /// Propagated through a call.
    Call {
        /// The call site's line in the *caller*.
        line: u32,
        /// The callee carrying the effect.
        callee: FnId,
    },
}

/// A direct effect primitive found in a function body.
#[derive(Debug, Clone)]
pub struct Prim {
    /// Which effect it grounds.
    pub kind: EffectKind,
    /// What it is (`sleep`, `unwrap`, `index`, a havoc'd name, …).
    pub what: String,
    /// Its 1-based line.
    pub line: u32,
}

/// One call site after resolution.
#[derive(Debug)]
pub struct ResolvedCall {
    /// The callee name as written.
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Workspace functions this may dispatch to (empty for intrinsics
    /// and havoc'd calls).
    pub targets: Vec<FnId>,
    /// Lock guards held when the call executes.
    pub held: Vec<String>,
    /// The intrinsic effect of the call itself, if it is a primitive.
    pub prim: Option<EffectKind>,
    /// Zero-based argument positions holding closure literals (see
    /// [`Call::closure_args`]).
    pub closure_args: Vec<usize>,
}

/// One function in the analysis universe.
pub struct FnInfo {
    /// Workspace-relative file the function lives in.
    pub file: String,
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Index of the file's model in the scanned set.
    pub model: usize,
    /// Index of the item within the model.
    pub item: usize,
    /// Annotated `// oftt-lint: reactor-root`.
    pub root: bool,
    /// Annotated `// oftt-lint: arena` (sanctioned allocator).
    pub arena: bool,
    /// Annotated `// oftt-lint: cold-path` (declared off the reactor
    /// hot path — handshake, teardown, harness-only code).
    pub cold: bool,
    /// Direct effect primitives, in source order.
    pub prims: Vec<Prim>,
    /// Resolved call sites, in source order.
    pub calls: Vec<ResolvedCall>,
    /// Locks this function acquires directly.
    pub acquisitions: Vec<(String, u32)>,
    /// Parameter indices this function *invokes* as closures (`f(…)`
    /// where `f` is an `Fn*`-bound parameter). Callers must bind these
    /// positions to closure literals — their scan then owns the body's
    /// effects — or the call havocs at the caller.
    pub invoked_closure_params: Vec<usize>,
}

/// The inferred effect vector of one function.
#[derive(Debug, Default, Clone)]
pub struct Effects {
    /// Transitively reaches a blocking primitive.
    pub blocks: Option<Source>,
    /// Transitively reaches a panic primitive.
    pub panics: Option<Source>,
    /// Transitively reaches a fresh allocation outside the arena.
    pub allocs: Option<Source>,
    /// Transitively reaches an unresolvable call.
    pub havoc: Option<Source>,
    /// Lock names transitively acquired, each with its ground.
    pub acquires: BTreeMap<String, Source>,
}

impl Effects {
    /// The source grounding `kind`, if the effect is present.
    pub fn get(&self, kind: EffectKind) -> Option<&Source> {
        match kind {
            EffectKind::Blocks => self.blocks.as_ref(),
            EffectKind::Panics => self.panics.as_ref(),
            EffectKind::Allocs => self.allocs.as_ref(),
            EffectKind::Havoc => self.havoc.as_ref(),
        }
    }
}

/// The whole interprocedural analysis result.
pub struct Analysis {
    /// Every runtime function, indexed by [`FnId`].
    pub fns: Vec<FnInfo>,
    /// The fixpoint's effect vector per function.
    pub effects: Vec<Effects>,
    /// Merged lock graph: intra-procedural edges plus call-derived
    /// (transitive) edges. Cycle findings are computed over this.
    pub lock: LockScan,
    /// Number of resolved call edges.
    pub edge_count: usize,
    /// Fixpoint passes until stabilization.
    pub iterations: usize,
    /// Reactor roots (functions annotated `reactor-root`).
    pub roots: Vec<FnId>,
}

impl Analysis {
    /// Runs extraction, resolution, the guard interpreter, and the
    /// effect fixpoint over every `Runtime` model in `models`.
    pub fn analyze(models: &[(String, FileModel)]) -> Analysis {
        let index = FnIndex::build(models);
        let mut lock = LockScan::default();
        let mut fns: Vec<FnInfo> = Vec::new();
        let mut edge_count = 0usize;
        for &(mi, fi) in &index.fns {
            let (file, model) = &models[mi];
            let item = &model.fns[fi];
            let mut calls = callgraph::extract_calls(model, item);
            let spawn_spans = spawn_arg_spans(model, &calls);
            calls.retain(|c| !spawn_spans.iter().any(|s| s.contains(&c.tok)));
            let mut call_toks: Vec<usize> = calls.iter().map(|c| c.tok).collect();
            call_toks.sort_unstable();
            let facts = locks::interpret_fn(file, model, item, &call_toks, &mut lock);
            let arena = item.has_directive("arena");
            let mut info = FnInfo {
                file: file.clone(),
                name: item.name.clone(),
                line: item.line,
                model: mi,
                item: fi,
                root: item.has_directive("reactor-root"),
                arena,
                cold: item.has_directive("cold-path"),
                prims: Vec::new(),
                calls: Vec::new(),
                acquisitions: facts.acquisitions,
                invoked_closure_params: Vec::new(),
            };
            // Locks taken inside a spawned closure are the new thread's
            // acquisitions, not an ordering under the spawner's guards.
            if !spawn_spans.is_empty() {
                let spawned_lines: std::collections::BTreeSet<u32> = spawn_spans
                    .iter()
                    .flat_map(|s| {
                        let lo = model.tokens[s.start].line;
                        let hi = model.tokens[s.end.saturating_sub(1).max(s.start)].line;
                        lo..=hi
                    })
                    .collect();
                info.acquisitions.retain(|(_, line)| !spawned_lines.contains(line));
            }
            index_prims(model, item, &spawn_spans, &mut info);
            for call in &calls {
                let resolved = classify(&index, models, mi, item, call, &mut info);
                edge_count += resolved.targets.len();
                let mut resolved = resolved;
                resolved.held = facts.held_at.get(&call.tok).cloned().unwrap_or_default();
                info.calls.push(resolved);
            }
            if arena {
                info.prims.retain(|p| p.kind != EffectKind::Allocs);
            }
            fns.push(info);
        }
        // Closure-argument check: a callee that invokes its `Fn*`-bound
        // parameter is only transparent when the caller binds that
        // position to a closure *literal* — the caller's own scan then
        // walked the body. Any other shape (a forwarded function value,
        // a field-stored callback) re-havocs at the caller, restoring
        // the conservative policy exactly where the evidence ends.
        let mut opaque: Vec<(FnId, Prim)> = Vec::new();
        for (f, info) in fns.iter().enumerate() {
            for call in &info.calls {
                for &g in &call.targets {
                    for &p in &fns[g].invoked_closure_params {
                        if !call.closure_args.contains(&p) {
                            opaque.push((
                                f,
                                Prim {
                                    kind: EffectKind::Havoc,
                                    what: format!(
                                        "{} (callable argument {} is not a closure literal)",
                                        call.name,
                                        p + 1
                                    ),
                                    line: call.line,
                                },
                            ));
                        }
                    }
                }
            }
        }
        for (f, prim) in opaque {
            fns[f].prims.push(prim);
        }
        let (effects, iterations) = fixpoint(&fns);
        // Call-derived lock edges: a guard held at a call site orders
        // before everything the callee transitively acquires.
        for info in &fns {
            for call in &info.calls {
                if call.held.is_empty() {
                    continue;
                }
                for &g in &call.targets {
                    for inner in effects[g].acquires.keys() {
                        for outer in &call.held {
                            if outer != inner {
                                lock.edges
                                    .entry((outer.clone(), inner.clone()))
                                    .or_insert_with(|| (info.file.clone(), call.line));
                            }
                        }
                    }
                }
            }
        }
        lock.findings.extend(locks::find_cycles(&lock.edges));
        let roots: Vec<FnId> = (0..fns.len()).filter(|&i| fns[i].root).collect();
        Analysis { fns, effects, lock, edge_count, iterations, roots }
    }

    /// The functions reachable from the reactor roots, as
    /// `(FnId, parent FnId or self for roots)` — BFS order, so parent
    /// chains are shortest paths. Functions annotated
    /// `// oftt-lint: cold-path` and everything reachable only through
    /// them are excluded: the annotation declares a subtree (handshake,
    /// teardown, harness-only code) off the hot path by policy.
    pub fn reactor_reachable(&self) -> Vec<(FnId, FnId)> {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnId> = Default::default();
        for &r in &self.roots {
            parent.insert(r, r);
            queue.push_back(r);
        }
        let mut order = Vec::new();
        while let Some(f) = queue.pop_front() {
            order.push((f, parent[&f]));
            for call in &self.fns[f].calls {
                for &g in &call.targets {
                    if self.fns[g].cold {
                        continue;
                    }
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(g) {
                        e.insert(f);
                        queue.push_back(g);
                    }
                }
            }
        }
        order
    }

    /// The shortest root→…→`f` path as `root → a → b`, given the
    /// parent map from [`Self::reactor_reachable`].
    pub fn root_chain(&self, parents: &BTreeMap<FnId, FnId>, f: FnId) -> String {
        let mut names = vec![self.fns[f].name.clone()];
        let mut cur = f;
        while parents.get(&cur).copied().unwrap_or(cur) != cur {
            cur = parents[&cur];
            names.push(self.fns[cur].name.clone());
        }
        names.reverse();
        names.join(" → ")
    }

    /// Renders the witness chain grounding `kind` on `f`:
    /// `f → g → h: sleep (file.rs:42)`. Returns `None` if the effect
    /// is absent.
    pub fn witness(&self, f: FnId, kind: EffectKind) -> Option<String> {
        let mut names = vec![self.fns[f].name.clone()];
        let mut cur = f;
        for _ in 0..64 {
            match self.effects[cur].get(kind)? {
                Source::Prim { what, line } => {
                    return Some(format!(
                        "{}: {} ({}:{})",
                        names.join(" → "),
                        what,
                        self.fns[cur].file,
                        line
                    ));
                }
                Source::Call { callee, .. } => {
                    cur = *callee;
                    names.push(self.fns[cur].name.clone());
                }
            }
        }
        Some(format!("{} → …", names.join(" → ")))
    }

    /// Renders the chain grounding the transitive acquisition of lock
    /// `name` by `f`.
    pub fn acquire_witness(&self, f: FnId, name: &str) -> Option<String> {
        let mut names = vec![self.fns[f].name.clone()];
        let mut cur = f;
        for _ in 0..64 {
            match self.effects[cur].acquires.get(name)? {
                Source::Prim { line, .. } => {
                    return Some(format!(
                        "{}: lock({}) ({}:{})",
                        names.join(" → "),
                        name,
                        self.fns[cur].file,
                        line
                    ));
                }
                Source::Call { callee, .. } => {
                    cur = *callee;
                    names.push(self.fns[cur].name.clone());
                }
            }
        }
        None
    }
}

/// Index expressions are effect primitives the call extractor cannot
/// see (no name token); scan for them directly. Spans inside `spawn`
/// arguments execute on the new thread and are skipped.
fn index_prims(
    model: &FileModel,
    item: &crate::scanner::FnItem,
    spawn_spans: &[std::ops::Range<usize>],
    info: &mut FnInfo,
) {
    let tokens = &model.tokens;
    let mut i = item.body.start;
    while i < item.body.end {
        if let Some(nested) = model.fns.iter().find(|g| {
            g.body.start == i && g.body.start > item.body.start && g.body.end <= item.body.end
        }) {
            i = nested.body.end;
            continue;
        }
        if let Some(span) = spawn_spans.iter().find(|s| s.contains(&i)) {
            i = span.end;
            continue;
        }
        if punct(tokens, i) == Some('[') && indexes_value(tokens, i) {
            info.prims.push(Prim {
                kind: EffectKind::Panics,
                what: "index".to_string(),
                line: tokens[i].line,
            });
        }
        i += 1;
    }
}

/// Token spans of the argument lists of `spawn(…)` calls. A closure
/// shipped to `thread::spawn` (or a builder's `.spawn`) executes on the
/// *new* thread — its blocking loops, panics, and locks are that
/// thread's effects, not the spawner's, so everything inside these
/// spans is excluded from the spawning function's effect vector.
fn spawn_arg_spans(model: &FileModel, calls: &[Call]) -> Vec<std::ops::Range<usize>> {
    let tokens = &model.tokens;
    let mut spans = Vec::new();
    for c in calls {
        if c.name != "spawn" || c.is_macro {
            continue;
        }
        // Find the argument list's opening paren (possibly past a
        // turbofish), then its matching close.
        let mut open = c.tok + 1;
        while open < tokens.len()
            && punct(tokens, open) != Some('(')
            && !matches!(punct(tokens, open), Some('{') | Some(';') | Some('}'))
        {
            open += 1;
        }
        if punct(tokens, open) != Some('(') {
            continue;
        }
        let mut depth = 0usize;
        let mut close = open;
        while close < tokens.len() {
            match punct(tokens, close) {
                Some('(') => depth += 1,
                Some(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        if close > open + 1 {
            spans.push(open + 1..close);
        }
    }
    spans
}

/// Classifies one call: resolved workspace targets, intrinsic
/// primitive, benign, or havoc. Primitives are appended to
/// `info.prims` too, anchored at the call line.
fn classify(
    index: &FnIndex,
    models: &[(String, FileModel)],
    caller_mi: usize,
    caller: &crate::scanner::FnItem,
    call: &Call,
    info: &mut FnInfo,
) -> ResolvedCall {
    let mut out = ResolvedCall {
        name: call.name.clone(),
        line: call.line,
        targets: Vec::new(),
        held: Vec::new(),
        prim: None,
        closure_args: call.closure_args.clone(),
    };
    let prim = |info: &mut FnInfo, out: &mut ResolvedCall, kind: EffectKind, what: String| {
        info.prims.push(Prim { kind, what, line: call.line });
        out.prim = Some(kind);
    };
    let name = call.name.as_str();
    if call.is_macro {
        if PANIC_MACROS.contains(&name) {
            prim(info, &mut out, EffectKind::Panics, format!("{name}!"));
        } else if BLOCKING_MACROS.contains(&name) {
            prim(info, &mut out, EffectKind::Blocks, format!("{name}!"));
        } else if ALLOC_MACROS.contains(&name) {
            prim(info, &mut out, EffectKind::Allocs, format!("{name}!"));
        } else if !BENIGN_MACROS.contains(&name) {
            prim(info, &mut out, EffectKind::Havoc, format!("{name}!"));
        }
        return out;
    }
    // The lock machinery owns `.lock()`; `try_lock` never blocks.
    if name == "lock" || name == "try_lock" {
        return out;
    }
    // Strong ownership evidence (`Self::f`, `Type::f`, `self.f(…)`,
    // `recv.f(…)` with a type-naming receiver) beats the intrinsic
    // tables: a workspace type's own `push` is its `push` and
    // `Reactor::flush` is a wakeup post, whatever std calls those
    // names.
    out.targets = index.resolve_strong(models, caller, call);
    if !out.targets.is_empty() {
        return out;
    }
    // A bare call whose name is an `Fn*`-bound parameter of the caller
    // invokes the caller-supplied closure, not a named function. The
    // invocation itself is effect-free *here*: the closure's body lives
    // at some call site of this function, whose own scan walked those
    // tokens and owns their effects. The invoked position is recorded
    // so the post-resolution pass can verify every caller actually
    // binds it to a closure literal (anything else re-havocs at the
    // caller — see [`Analysis::analyze`]).
    if call.qualifier.is_none() && call.receiver.is_none() && caller.callable_param(name) {
        if let Some(p) = caller.params.iter().position(|p| p.callable && p.name == name) {
            if !info.invoked_closure_params.contains(&p) {
                info.invoked_closure_params.push(p);
            }
        }
        return out;
    }
    if is_blocking_effect(name) {
        prim(info, &mut out, EffectKind::Blocks, name.to_string());
        return out;
    }
    if (name == "unwrap" || name == "expect") && call.receiver.is_some() {
        prim(info, &mut out, EffectKind::Panics, format!(".{name}()"));
        return out;
    }
    // `iter::repeat/once/...` never allocate even though the `str`
    // methods of the same names do.
    if call.qualifier.as_deref() == Some("iter") {
        return out;
    }
    if ALLOC_CALLS.contains(&name)
        || (name == "new"
            && call.qualifier.as_deref().is_some_and(|q| ALLOC_NEW_OWNERS.contains(&q)))
        || (name == "from"
            && call.qualifier.as_deref().is_some_and(|q| ALLOC_FROM_OWNERS.contains(&q)))
    {
        prim(info, &mut out, EffectKind::Allocs, name.to_string());
        return out;
    }
    if BENIGN_CALLS.contains(&name) {
        return out;
    }
    // Capitalized names are tuple-struct / enum-variant constructors
    // (`Some(x)`, `ReadError::Io(e)`), not function calls — any
    // workspace fn genuinely named that way is caught by strong
    // resolution above.
    if name.chars().next().is_some_and(char::is_uppercase) {
        return out;
    }
    // `Type::method` on a non-workspace type with a benign-looking
    // constructor name: `Duration::from_millis` etc. are already in the
    // benign table; `Foo::new` on a foreign type constructs without
    // declared effects only if the name says so.
    if (name == "new" || name == "default") && call.receiver.is_none() {
        return out;
    }
    // An ALL_CAPS receiver is a constant, and the workspace defines no
    // callable constants — `Interest::READABLE.add(WRITABLE)` is a
    // method of a foreign library type, never a workspace fn. Without
    // this, such calls fan out by bare name to arbitrary same-named
    // workspace fns (operator impls especially).
    if call.receiver.as_deref().is_some_and(|r| {
        r.len() > 1 && r.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
    }) {
        return out;
    }
    // Weak name evidence comes after the tables — `q.len()` means
    // `Vec::len`, not whichever workspace fn happens to be called
    // `len`.
    out.targets = index.resolve_weak(models, caller_mi, call);
    if !out.targets.is_empty() {
        return out;
    }
    prim(info, &mut out, EffectKind::Havoc, name.to_string());
    out
}

/// The bottom-up fixpoint: monotone over a finite lattice (four option
/// bits plus a finite lock-name set per function), so it terminates;
/// passes run in `FnId` order and the first source to set an effect is
/// kept, which keeps witnesses short and deterministic.
fn fixpoint(fns: &[FnInfo]) -> (Vec<Effects>, usize) {
    let mut effects: Vec<Effects> = fns
        .iter()
        .map(|info| {
            let mut e = Effects::default();
            for p in &info.prims {
                let slot = match p.kind {
                    EffectKind::Blocks => &mut e.blocks,
                    EffectKind::Panics => &mut e.panics,
                    EffectKind::Allocs => &mut e.allocs,
                    EffectKind::Havoc => &mut e.havoc,
                };
                if slot.is_none() {
                    *slot = Some(Source::Prim { what: p.what.clone(), line: p.line });
                }
            }
            for (name, line) in &info.acquisitions {
                e.acquires
                    .entry(name.clone())
                    .or_insert(Source::Prim { what: name.clone(), line: *line });
            }
            e
        })
        .collect();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut changed = false;
        for f in 0..fns.len() {
            for call in &fns[f].calls {
                for &g in &call.targets {
                    if g == f {
                        continue;
                    }
                    let (gb, gp, ga, gh, gacq) = {
                        let ge = &effects[g];
                        (
                            ge.blocks.is_some(),
                            ge.panics.is_some(),
                            ge.allocs.is_some(),
                            ge.havoc.is_some(),
                            ge.acquires.keys().cloned().collect::<Vec<_>>(),
                        )
                    };
                    let src = || Source::Call { line: call.line, callee: g };
                    let fe = &mut effects[f];
                    if gb && fe.blocks.is_none() {
                        fe.blocks = Some(src());
                        changed = true;
                    }
                    if gp && fe.panics.is_none() {
                        fe.panics = Some(src());
                        changed = true;
                    }
                    if ga && fe.allocs.is_none() && !fns[f].arena {
                        fe.allocs = Some(src());
                        changed = true;
                    }
                    if gh && fe.havoc.is_none() {
                        fe.havoc = Some(src());
                        changed = true;
                    }
                    for name in gacq {
                        if let Entry::Vacant(e) = fe.acquires.entry(name) {
                            e.insert(src());
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    (effects, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn analyze(sources: &[(&str, &str)]) -> Analysis {
        let models: Vec<(String, FileModel)> =
            sources.iter().map(|(name, src)| (name.to_string(), scan(src))).collect();
        Analysis::analyze(&models)
    }

    fn fid(a: &Analysis, name: &str) -> FnId {
        a.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn blocking_effect_propagates_two_calls_deep() {
        let a = analyze(&[(
            "a.rs",
            "fn top() { mid(); }\n\
             fn mid() { bot(); }\n\
             fn bot() { std::thread::sleep(d); }",
        )]);
        let w = a.witness(fid(&a, "top"), EffectKind::Blocks).unwrap();
        assert_eq!(w, "top → mid → bot: sleep (a.rs:3)");
        assert!(a.effects[fid(&a, "top")].panics.is_none());
    }

    #[test]
    fn panic_effect_covers_the_extended_deny_list() {
        let a = analyze(&[(
            "a.rs",
            "fn u() { unreachable!() }\n\
             fn t() { todo!() }\n\
             fn n() { unimplemented!() }\n\
             fn r(raw: &[u8]) -> &[u8] { &raw[1..3] }\n\
             fn calls_them(raw: &[u8]) { u(); }",
        )]);
        for f in ["u", "t", "n", "r", "calls_them"] {
            assert!(a.effects[fid(&a, f)].panics.is_some(), "{f} should may_panic");
        }
    }

    #[test]
    fn alloc_effect_stops_at_the_arena() {
        let a = analyze(&[(
            "a.rs",
            "// oftt-lint: arena\n\
             fn take() -> Vec<u8> { Vec::with_capacity(64) }\n\
             fn hot() { take(); }\n\
             fn cold() -> Vec<u8> { data.to_vec() }",
        )]);
        assert!(a.effects[fid(&a, "take")].allocs.is_none());
        assert!(a.effects[fid(&a, "hot")].allocs.is_none());
        assert!(a.effects[fid(&a, "cold")].allocs.is_some());
    }

    #[test]
    fn havoc_marks_unresolvable_calls_only() {
        let a = analyze(&[(
            "a.rs",
            "fn f() { mystery_syscall(); }\n\
             fn g(v: &[u8]) { v.len(); }",
        )]);
        assert!(a.effects[fid(&a, "f")].havoc.is_some());
        assert!(a.effects[fid(&a, "g")].havoc.is_none());
    }

    #[test]
    fn acquires_flow_through_calls_and_form_transitive_edges() {
        let a = analyze(&[(
            "a.rs",
            "fn outer(&self) { let g = self.alpha.lock(); inner(); }\n\
             fn inner(&self) { let h = self.beta.lock(); }",
        )]);
        assert!(a.effects[fid(&a, "outer")].acquires.contains_key("beta"));
        assert!(a.lock.edges.contains_key(&("alpha".into(), "beta".into())));
        let w = a.acquire_witness(fid(&a, "outer"), "beta").unwrap();
        assert_eq!(w, "outer → inner: lock(beta) (a.rs:2)");
    }

    #[test]
    fn cross_function_lock_cycle_is_found() {
        let a = analyze(&[(
            "a.rs",
            "fn f(&self) { let g = self.alpha.lock(); helper(); }\n\
             fn helper(&self) { let h = self.beta.lock(); }\n\
             fn rev(&self) { let h = self.beta.lock(); helper2(); }\n\
             fn helper2(&self) { let g = self.alpha.lock(); }",
        )]);
        assert_eq!(a.lock.findings.len(), 1);
        assert!(a.lock.findings[0].message.contains("alpha, beta"));
    }

    #[test]
    fn recursion_reaches_a_fixpoint() {
        let a = analyze(&[(
            "a.rs",
            "fn ping(n: u32) { pong(n); }\n\
             fn pong(n: u32) { ping(n); std::thread::sleep(d); }",
        )]);
        assert!(a.effects[fid(&a, "ping")].blocks.is_some());
        assert!(a.iterations >= 2);
    }

    #[test]
    fn invoked_closure_params_resolve_through_literal_arguments() {
        let a = analyze(&[(
            "a.rs",
            "impl Shard { fn with_queue<R>(&self, dest: u64, f: impl FnOnce(&mut u8) -> R) -> R \
             { let mut q = self.shard.lock(); f(&mut q) }\n\
             fn drain_into(&self) { self.with_queue(7, |q| q.wrapping_add(1)); } }",
        )]);
        // `f(…)` inside with_queue is the closure parameter, not havoc.
        let wq = fid(&a, "with_queue");
        assert!(a.effects[wq].havoc.is_none(), "closure invocation must not havoc");
        assert_eq!(a.fns[wq].invoked_closure_params, vec![1]);
        // The literal-closure caller stays clean too.
        assert!(a.effects[fid(&a, "drain_into")].havoc.is_none());
    }

    #[test]
    fn non_literal_callable_argument_re_havocs_at_the_caller() {
        let a = analyze(&[(
            "a.rs",
            "fn apply(f: impl Fn()) { f() }\n\
             fn forwards(g: impl Fn()) { apply(g); }\n\
             fn literal() { apply(|| ()); }",
        )]);
        assert!(a.effects[fid(&a, "apply")].havoc.is_none());
        assert!(
            a.effects[fid(&a, "forwards")].havoc.is_some(),
            "a forwarded callable is opaque to the caller's scan"
        );
        assert!(a.effects[fid(&a, "literal")].havoc.is_none());
    }

    #[test]
    fn deserialize_is_a_table_fact_not_a_havoc() {
        let a = analyze(&[("a.rs", "fn decode(b: &[u8]) { d.deserialize(v); }")]);
        assert!(a.effects[fid(&a, "decode")].havoc.is_none());
    }

    #[test]
    fn reactor_reachability_follows_resolved_edges() {
        let a = analyze(&[(
            "a.rs",
            "// oftt-lint: reactor-root\n\
             fn on_frame(&self) { self.helper(); }\n\
             fn helper(&self) {}\n\
             fn unrelated(&self) { std::thread::sleep(d); }",
        )]);
        let reach = a.reactor_reachable();
        let names: Vec<&str> = reach.iter().map(|&(f, _)| a.fns[f].name.as_str()).collect();
        assert_eq!(names, vec!["on_frame", "helper"]);
    }
}
