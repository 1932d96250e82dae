//! A hand-rolled Rust lexer for source-level analysis.
//!
//! The workspace deliberately carries no rustc plugin or external parser;
//! this lexer covers exactly the token surface the rule families need:
//! identifiers, lifetimes, every literal form (including raw/byte strings
//! and nested block comments), and single-character punctuation. It is
//! *total*: any input — truncated, adversarial, or not Rust at all —
//! produces a token stream plus diagnostics, never a panic. All position
//! arithmetic goes through checked `get`s for that reason.
//!
//! Line comments of the form `// oftt-lint: <directive>` are surfaced as
//! [`Directive`]s; they are how source opts into (or out of) rule
//! families — see [`crate::scanner`] for attachment semantics.

/// What a token is. Multi-character operators (`==`, `+=`, `::`) appear
/// as consecutive [`TokenKind::Punct`] tokens; rules match the sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw `r#ident` forms, with the
    /// `r#` stripped).
    Ident(String),
    /// A lifetime such as `'a` (the label is irrelevant to every rule).
    Lifetime,
    /// A numeric literal.
    Number,
    /// A string, raw-string, byte-string, or character literal. The
    /// *content* (without quotes or escapes processed) is kept because
    /// the scanner matches `feature = "inject_bugs"` gates on it.
    Str(String),
    /// One punctuation character.
    Punct(char),
}

/// One token with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: u32,
}

/// A `// oftt-lint: ...` comment, with the text after the marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line the comment appears on.
    pub line: u32,
    /// The directive text, trimmed (e.g. `nonblocking`, `reactor-root`).
    pub text: String,
}

/// A lexing problem. Diagnostics are findings in their own right: a file
/// the lexer cannot tokenize is a file the analyzer cannot vouch for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based line of the problem.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// The complete result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace stripped.
    pub tokens: Vec<Token>,
    /// Every `// oftt-lint:` directive comment, in order.
    pub directives: Vec<Directive>,
    /// Problems encountered; lexing continues past each.
    pub diagnostics: Vec<Diagnostic>,
}

/// The marker introducing a directive comment.
const DIRECTIVE_MARKER: &str = "oftt-lint:";

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

/// Tokenizes `source`. Total: never panics, whatever the input.
pub fn lex(source: &str) -> Lexed {
    let mut lx = Lexer { bytes: source.as_bytes(), pos: 0, line: 1, out: Lexed::default() };
    lx.run();
    lx.out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

impl Lexer<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn diag(&mut self, line: u32, message: impl Into<String>) {
        self.out.diagnostics.push(Diagnostic { line, message: message.into() });
    }

    fn push(&mut self, line: u32, kind: TokenKind) {
        self.out.tokens.push(Token { kind, line });
    }

    fn run(&mut self) {
        while let Some(b) = self.peek() {
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string_literal(line, "string"),
                b'\'' => self.char_or_lifetime(line),
                b'r' | b'b' => {
                    if !self.raw_or_byte_prefix(line) {
                        self.ident(line);
                    }
                }
                _ if is_ident_start(b) => self.ident(line),
                _ if b.is_ascii_digit() => self.number(line),
                _ if b.is_ascii_punctuation() => {
                    self.bump();
                    self.push(line, TokenKind::Punct(b as char));
                }
                other => {
                    self.bump();
                    self.diag(line, format!("unexpected byte 0x{other:02x}"));
                }
            }
        }
    }

    /// Consumes `//...` to end of line; surfaces `oftt-lint:` directives.
    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        let body = text.trim_start_matches('/').trim_start_matches('!').trim();
        if let Some(rest) = body.strip_prefix(DIRECTIVE_MARKER) {
            self.out.directives.push(Directive { line, text: rest.trim().to_string() });
        }
    }

    /// Consumes a (nested) `/* ... */` comment.
    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => {
                    self.diag(line, "unterminated block comment");
                    return;
                }
            }
        }
    }

    /// Consumes a `"..."` literal starting at the opening quote.
    fn string_literal(&mut self, line: u32, what: &str) {
        self.bump(); // opening quote
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let content =
                        std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("").to_string();
                    self.bump();
                    self.push(line, TokenKind::Str(content));
                    return;
                }
                Some(b'\\') => {
                    self.bump();
                    self.bump(); // the escaped character, whatever it is
                }
                Some(_) => {
                    self.bump();
                }
                None => {
                    self.diag(line, format!("unterminated {what} literal"));
                    return;
                }
            }
        }
    }

    /// Handles `r"..."`, `r#"..."#`, `br#"..."#`, `b"..."`, `b'x'`, and
    /// `r#ident`. Returns false if the prefix is just an ordinary
    /// identifier starting with `r`/`b`.
    fn raw_or_byte_prefix(&mut self, line: u32) -> bool {
        let first = self.peek().unwrap_or(0);
        let mut offset = 1;
        if first == b'b' && self.peek_at(1) == Some(b'r') {
            offset = 2;
        }
        // Count `#`s after the prefix.
        let mut hashes = 0;
        while self.peek_at(offset + hashes) == Some(b'#') {
            hashes += 1;
        }
        match self.peek_at(offset + hashes) {
            Some(b'"') if first == b'b' || hashes > 0 || first == b'r' => {
                if first == b'b' && offset == 1 && hashes == 0 {
                    // b"...": an ordinary (byte) string after the prefix.
                    self.bump();
                    self.string_literal(line, "byte-string");
                    return true;
                }
                // Raw string: consume prefix, hashes, and opening quote.
                for _ in 0..offset + hashes + 1 {
                    self.bump();
                }
                let start = self.pos;
                loop {
                    match self.peek() {
                        Some(b'"') => {
                            let mut closing = 0;
                            while closing < hashes && self.peek_at(1 + closing) == Some(b'#') {
                                closing += 1;
                            }
                            if closing == hashes {
                                let content = std::str::from_utf8(&self.bytes[start..self.pos])
                                    .unwrap_or("")
                                    .to_string();
                                for _ in 0..hashes + 1 {
                                    self.bump();
                                }
                                self.push(line, TokenKind::Str(content));
                                return true;
                            }
                            self.bump();
                        }
                        Some(_) => {
                            self.bump();
                        }
                        None => {
                            self.diag(line, "unterminated raw string literal");
                            return true;
                        }
                    }
                }
            }
            Some(b'\'') if first == b'b' && offset == 1 && hashes == 0 => {
                // b'x': a byte literal.
                self.bump();
                self.char_or_lifetime(line);
                true
            }
            Some(next) if first == b'r' && hashes == 1 && is_ident_start(next) => {
                // r#ident: a raw identifier; strip the prefix.
                self.bump();
                self.bump();
                self.ident(line);
                true
            }
            _ => false,
        }
    }

    /// At a `'`: a lifetime (`'a`) or a char literal (`'x'`, `'\n'`).
    fn char_or_lifetime(&mut self, line: u32) {
        self.bump(); // the quote
        match self.peek() {
            Some(b'\\') => {
                // Escaped char literal: consume escape then closing quote.
                self.bump();
                self.bump();
                // \u{...} escapes carry extra characters before the quote.
                let mut closed = false;
                while let Some(b) = self.peek() {
                    if b == b'\'' {
                        self.bump();
                        closed = true;
                        break;
                    }
                    if b == b'\n' {
                        break;
                    }
                    self.bump();
                }
                if !closed {
                    // Newline or end of input before the closing quote.
                    self.diag(line, "unterminated character literal");
                }
                self.push(line, TokenKind::Str(String::new()));
            }
            Some(b) if is_ident_start(b) => {
                // 'a' is a char; 'a (no closing quote) is a lifetime.
                let mut end = 1;
                while self.peek_at(end).map(is_ident_continue).unwrap_or(false) {
                    end += 1;
                }
                // One *character*, not one byte: 'λ' is a char literal.
                let char_len = match b {
                    _ if b < 0x80 => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                if self.peek_at(end) == Some(b'\'') && end == char_len {
                    let content = (b as char).to_string();
                    for _ in 0..end + 1 {
                        self.bump();
                    }
                    self.push(line, TokenKind::Str(content));
                } else {
                    for _ in 0..end {
                        self.bump();
                    }
                    self.push(line, TokenKind::Lifetime);
                }
            }
            Some(b'\'') => {
                // '' — empty char literal: malformed.
                self.bump();
                self.diag(line, "empty character literal");
            }
            Some(other) => {
                // A non-identifier char such as '+' — char literal.
                self.bump();
                if other >= 0x80 {
                    // Finish the UTF-8 scalar.
                    while self.peek().map(|b| (0x80..0xC0).contains(&b)).unwrap_or(false) {
                        self.bump();
                    }
                }
                if self.peek() == Some(b'\'') {
                    self.bump();
                    self.push(line, TokenKind::Str(String::new()));
                } else {
                    self.diag(line, "unterminated character literal");
                }
            }
            None => self.diag(line, "unterminated character literal"),
        }
    }

    fn ident(&mut self, line: u32) {
        let start = self.pos;
        while self.peek().map(is_ident_continue).unwrap_or(false) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("").to_string();
        self.push(line, TokenKind::Ident(text));
    }

    /// Numbers, loosely: digits/underscores/hex letters and suffixes, a
    /// fractional part when a digit follows the dot (so `0..10` stays a
    /// range), and signed exponents.
    fn number(&mut self, line: u32) {
        while self.peek().map(|b| b.is_ascii_alphanumeric() || b == b'_').unwrap_or(false) {
            let b = self.bump().unwrap_or(0);
            // Signed exponent: 1e-3, 2.5E+7.
            if (b == b'e' || b == b'E')
                && matches!(self.peek(), Some(b'+') | Some(b'-'))
                && self.peek_at(1).map(|d| d.is_ascii_digit()).unwrap_or(false)
            {
                self.bump();
            }
        }
        if self.peek() == Some(b'.') && self.peek_at(1).map(|b| b.is_ascii_digit()).unwrap_or(false)
        {
            self.bump();
            while self.peek().map(|b| b.is_ascii_alphanumeric() || b == b'_').unwrap_or(false) {
                let b = self.bump().unwrap_or(0);
                if (b == b'e' || b == b'E')
                    && matches!(self.peek(), Some(b'+') | Some(b'-'))
                    && self.peek_at(1).map(|d| d.is_ascii_digit()).unwrap_or(false)
                {
                    self.bump();
                }
            }
        }
        self.push(line, TokenKind::Number);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(lexed: &Lexed) -> Vec<&str> {
        lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lexes_a_plain_function() {
        let lexed = lex("fn main() { let x = 1 + 2; }");
        assert!(lexed.diagnostics.is_empty());
        assert_eq!(idents(&lexed), vec!["fn", "main", "let", "x"]);
    }

    #[test]
    fn directives_are_surfaced() {
        let lexed = lex("// oftt-lint: nonblocking\nfn f() {}\n// oftt-lint: reactor-root\n");
        assert_eq!(lexed.directives.len(), 2);
        assert_eq!(lexed.directives[0].text, "nonblocking");
        assert_eq!(lexed.directives[0].line, 1);
        assert_eq!(lexed.directives[1].text, "reactor-root");
        assert_eq!(lexed.directives[1].line, 3);
    }

    #[test]
    fn strings_keep_their_content() {
        let lexed = lex(r##"f("watchdog", r"raw", r#"hashed"#, b"bytes")"##);
        let strs: Vec<&str> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["watchdog", "raw", "hashed", "bytes"]);
    }

    #[test]
    fn lifetimes_and_chars_are_distinguished() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'y' }");
        assert!(lexed.diagnostics.is_empty());
        let lifetimes = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Lifetime).count();
        assert_eq!(lifetimes, 2);
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Str("y".into())));
    }

    #[test]
    fn unicode_char_literal_is_not_a_lifetime() {
        let lexed = lex("round_trip('λ'); round_trip('\\u{1F980}');");
        assert!(lexed.diagnostics.is_empty(), "{:?}", lexed.diagnostics);
        assert!(!lexed.tokens.iter().any(|t| t.kind == TokenKind::Lifetime));
    }

    #[test]
    fn nested_block_comments_lex_cleanly() {
        let lexed = lex("/* outer /* inner */ still outer */ fn f() {}");
        assert!(lexed.diagnostics.is_empty());
        assert_eq!(idents(&lexed), vec!["fn", "f"]);
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let lexed = lex("for i in 0..10 { a[i] = i; }");
        assert!(lexed.diagnostics.is_empty());
        let dots = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn unterminated_string_is_a_diagnostic_not_a_panic() {
        let lexed = lex("let s = \"never closed");
        assert_eq!(lexed.diagnostics.len(), 1);
        assert!(lexed.diagnostics[0].message.contains("unterminated string"));
    }

    #[test]
    fn unterminated_block_comment_is_a_diagnostic() {
        let lexed = lex("fn f() {} /* drifting off...");
        assert_eq!(lexed.diagnostics.len(), 1);
        assert!(lexed.diagnostics[0].message.contains("block comment"));
    }

    #[test]
    fn unterminated_raw_string_is_a_diagnostic() {
        let lexed = lex("let s = r#\"no close");
        assert_eq!(lexed.diagnostics.len(), 1);
        assert!(lexed.diagnostics[0].message.contains("raw string"));
    }

    #[test]
    fn raw_identifiers_are_stripped() {
        let lexed = lex("let r#fn = 1;");
        assert!(lexed.diagnostics.is_empty());
        assert!(idents(&lexed).contains(&"fn"));
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // A deliberately hostile soup of prefixes and broken literals.
        for source in [
            "r#",
            "b'",
            "b'x",
            "'",
            "''",
            "'\\",
            "\"\\",
            "r#\"",
            "br##\"x\"#",
            "0x",
            "1e",
            "1e+",
            "#![",
            "macro_rules! m { ($($x:tt)*) => {} }",
            "\u{7f}\u{1}",
            "🦀🦀'a",
        ] {
            let _ = lex(source);
        }
    }
}
