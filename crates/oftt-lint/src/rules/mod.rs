//! The rule families, plus the small token-pattern helpers they
//! share. Each rule consumes a [`crate::scanner::FileModel`] and returns
//! [`crate::report::Finding`]s; none of them re-tokenizes anything.

pub mod blocking;
pub mod drift;
pub mod hotpath;
pub mod lock_block;
pub mod locks;
pub mod panics;
pub mod role;

use crate::lexer::{Token, TokenKind};
use crate::scanner::{FileModel, FnItem};

/// The identifier text at `i`, if the token is an identifier.
pub(crate) fn ident(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The punctuation character at `i`, if the token is punctuation.
pub(crate) fn punct(tokens: &[Token], i: usize) -> Option<char> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// The base identifier of the receiver expression ending just before the
/// `.` at index `dot`: the last path segment for `a.b.c.lock()` (`c`),
/// looking through one trailing `(...)` or `[...]` group so
/// `map[&k].lock()` and `cell.get().lock()` resolve to `map` / `get`.
pub(crate) fn receiver_base(tokens: &[Token], dot: usize) -> Option<String> {
    let mut i = dot.checked_sub(1)?;
    if let Some(close @ (')' | ']')) = punct(tokens, i) {
        let open = if close == ')' { '(' } else { '[' };
        let mut depth = 0usize;
        loop {
            match punct(tokens, i) {
                Some(c) if c == close => depth += 1,
                Some(c) if c == open => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i = i.checked_sub(1)?;
        }
        i = i.checked_sub(1)?;
    }
    ident(tokens, i).map(str::to_string)
}

/// True if token index `i` falls inside the body of a *different* fn
/// nested within `item`'s body — rules scanning `item` skip those spans
/// so a nested fn's code is attributed (and exempted) only once, under
/// its own item.
pub(crate) fn in_nested_fn(model: &FileModel, item: &FnItem, i: usize) -> bool {
    model.fns.iter().any(|g| {
        g.body.start > item.body.start && g.body.end <= item.body.end && g.body.contains(&i)
    })
}

/// True if the identifier at `i` is a *call* (followed by `(`) and not a
/// function definition's own name (preceded by `fn`).
pub(crate) fn is_call(tokens: &[Token], i: usize) -> bool {
    punct(tokens, i + 1) == Some('(')
        && !matches!(i.checked_sub(1).and_then(|p| ident(tokens, p)), Some("fn"))
}
