//! Lexer/scanner totality under hostile input: malformed Rust must come
//! back as diagnostics (surfaced as findings), never as a panic. The
//! analyzer runs over every file in the tree unconditionally, so "crash
//! on weird source" would make the whole lint stage flaky.

use oftt_lint::scan_source;

fn scan(source: &str) -> Vec<oftt_lint::report::Finding> {
    scan_source("hostile.rs", source).1
}

#[test]
fn unterminated_string_is_a_diagnostic() {
    let findings = scan("fn f() { let s = \"never closed; }");
    assert!(findings.iter().any(|f| f.rule == "lex"));
}

#[test]
fn unterminated_raw_string_is_a_diagnostic() {
    let findings = scan("fn f() { let s = r#\"still open\" }");
    assert!(findings.iter().any(|f| f.rule == "lex"));
}

#[test]
fn unterminated_block_comment_is_a_diagnostic() {
    let findings = scan("fn f() {} /* outer /* nested */ still open");
    assert!(findings.iter().any(|f| f.rule == "lex"));
}

#[test]
fn unterminated_char_literal_is_a_diagnostic() {
    // `'x` alone would be a valid lifetime token; a backslash escape
    // commits the lexer to a char literal, which then never closes.
    let findings = scan("fn f() { let c = '\\x41 }");
    assert!(findings.iter().any(|f| f.rule == "lex"), "{findings:?}");
}

#[test]
fn unknown_directive_is_a_loud_diagnostic() {
    let findings = scan("// oftt-lint: non-blocking\nfn f() {}");
    assert!(
        findings.iter().any(|f| f.rule == "directive"),
        "a typoed directive must fail loudly, not silently not-apply"
    );
}

#[test]
fn unbalanced_braces_never_panic() {
    for source in
        ["fn f() { { { {", "} } } fn g() {}", "fn f(]) -> ) {", "#[cfg(test)", "impl } for { fn"]
    {
        let _ = scan(source);
    }
}

#[test]
fn deeply_nested_input_never_panics() {
    let mut source = String::from("fn f() ");
    source.push_str(&"{".repeat(4000));
    source.push_str(&"}".repeat(4000));
    let _ = scan(&source);
}

#[test]
fn printable_ascii_soup_never_panics() {
    // Deterministic pseudo-random soup over the full punctuation set —
    // every byte the lexer special-cases, in arbitrary orders.
    let alphabet: Vec<char> = (0x20u8..0x7f).map(char::from).collect();
    let mut state = 0x9e3779b97f4a7c15u64;
    for len in [1usize, 7, 63, 511] {
        let mut source = String::new();
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            source.push(alphabet[(state >> 33) as usize % alphabet.len()]);
        }
        let _ = scan(&source);
    }
}

#[test]
fn multibyte_utf8_never_panics() {
    for source in ["fn f() { 'λ' }", "// λλλ\nfn λ() {}", "fn f() { \"日本語\" }", "'日"] {
        let _ = scan(source);
    }
}

#[test]
fn clean_source_has_no_diagnostics() {
    let findings = scan("fn f(x: u8) -> u8 { x + 1 }");
    assert!(findings.is_empty(), "{findings:?}");
}
