//! The scenario loader's JSON reader.
//!
//! The workspace carries no `serde_json`, so scenario files are read by
//! this hand parser. It covers the JSON a scenario file needs: objects,
//! arrays, strings without escapes beyond `\"` and `\\`, numbers,
//! booleans, and null.
//!
//! Numbers follow the RFC 8259 grammar
//! (`-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`) and must be
//! finite: `+1`, `.5`, `1.`, `01` and `1e999` are errors, not numbers.
//!
//! The parser is strict about object keys: spelling the same key twice in
//! one object is an error, not a silent last-one-wins — a duplicated
//! override would otherwise shadow its first occurrence without a trace.
//! [`parse_doc`] surfaces the offending key as a typed
//! [`JsonErrorKind::DuplicateKey`].

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is irrelevant to the loader.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, if this is an object.
    pub(crate) fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Looks up a key on an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }
}

/// A structured parse failure.
#[derive(Debug, PartialEq)]
pub(crate) struct JsonError {
    /// Byte offset where the failure was detected.
    pub(crate) at: usize,
    /// What went wrong.
    pub(crate) kind: JsonErrorKind,
}

/// The kinds of parse failure, typed so the loader can react per kind.
#[derive(Debug, PartialEq)]
pub(crate) enum JsonErrorKind {
    /// An object spelled the same key twice; carries the key verbatim.
    DuplicateKey(String),
    /// Any other malformation, described.
    Malformed(String),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            JsonErrorKind::DuplicateKey(key) => {
                write!(f, "duplicate key {key:?} at byte {}", self.at)
            }
            JsonErrorKind::Malformed(what) => write!(f, "{what} at byte {}", self.at),
        }
    }
}

fn bad(at: usize, what: impl Into<String>) -> JsonError {
    JsonError { at, kind: JsonErrorKind::Malformed(what.into()) }
}

/// Parses a complete JSON document; trailing garbage is an error.
/// Duplicate object keys and malformations are distinguished, and the
/// byte offset is carried alongside.
pub(crate) fn parse_doc(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(bad(pos, "trailing data"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(bad(*pos, format!("expected '{}'", ch as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err(bad(*pos, "unexpected end of input")),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes.get(*pos..).unwrap_or(&[]).starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(bad(*pos, "bad literal"))
    }
}

/// Advances over a run of ASCII digits and returns its length.
fn digits(bytes: &[u8], pos: &mut usize) -> usize {
    let from = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    *pos - from
}

/// One RFC 8259 number: `-? int frac? exp?`, where `int` is a lone `0`
/// or a digit run without a leading zero. A value that overflows `f64`
/// is rejected rather than read as infinity.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(bytes, pos);
        }
        _ => return Err(bad(*pos, "expected a value")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(bytes, pos) == 0 {
            return Err(bad(*pos, "expected a digit after the decimal point"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(bytes, pos) == 0 {
            return Err(bad(*pos, "expected a digit in the exponent"));
        }
    }
    let text = std::str::from_utf8(bytes.get(start..*pos).unwrap_or(&[]))
        .map_err(|e| bad(start, e.to_string()))?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Number(n)),
        _ => Err(bad(start, format!("number {text} is out of range"))),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    other => return Err(bad(*pos, format!("unsupported escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar worth of bytes.
                let rest = std::str::from_utf8(bytes.get(*pos..).unwrap_or(&[]))
                    .map_err(|e| bad(*pos, e.to_string()))?;
                let ch =
                    rest.chars().next().ok_or_else(|| bad(*pos, "unexpected end of string"))?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
            None => return Err(bad(*pos, "unterminated string")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key_at = *pos;
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        if map.insert(key.clone(), value).is_some() {
            return Err(JsonError { at: key_at, kind: JsonErrorKind::DuplicateKey(key) });
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            other => return Err(bad(*pos, format!("expected ',' or '}}', got {other:?}"))),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            other => return Err(bad(*pos, format!("expected ',' or ']', got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scenario_subset() {
        let doc =
            r#"{"name": "v1", "n": 42.5, "ok": true, "items": [1, {"a": null}], "s": "x\"y"}"#;
        let v = parse_doc(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("v1"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(42.5));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let items = v.get("items").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].get("a"), Some(&Json::Null));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["{", "{} trailing", r#"{"a" 1}"#, "[1,]", "nul"] {
            assert!(parse_doc(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn numbers_follow_rfc_8259_and_are_finite() {
        for (text, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("0.5", 0.5),
            ("-0.25", -0.25),
            ("1e3", 1000.0),
            ("1E+2", 100.0),
            ("25e-1", 2.5),
            ("1.5e308", 1.5e308),
        ] {
            assert_eq!(parse_doc(text).map(|v| v.as_f64()), Ok(Some(want)), "{text:?}");
        }
        for text in
            ["+1", ".5", "1.", "01", "-01", "-", "1e", "1e+", "1.e3", "0x10", "1e999", "-1e999"]
        {
            assert!(parse_doc(text).is_err(), "{text:?} must not parse");
            let in_array = format!("{{\"seeds\": [{text}]}}");
            assert!(parse_doc(&in_array).is_err(), "{in_array:?} must not parse");
        }
    }

    #[test]
    fn duplicate_keys_are_typed_errors_naming_the_key() {
        let err = parse_doc(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::DuplicateKey("a".into()));
        assert!(err.to_string().contains("duplicate key \"a\""));
        // Nested objects are checked too.
        let err = parse_doc(r#"{"outer": {"x": 1, "x": 2}}"#).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::DuplicateKey("x".into()));
    }
}
