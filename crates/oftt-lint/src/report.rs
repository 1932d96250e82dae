//! Findings, the scan report, and the baseline/suppression file.
//!
//! The baseline is a tab-separated `rule \t file \t message` list, one
//! suppressed finding per line, `#` comments allowed. Line numbers are
//! deliberately absent: a baseline keyed on line numbers rots on every
//! unrelated edit, while (rule, file, message) survives drift and still
//! pins *which* finding was accepted. `--write-baseline` regenerates the
//! file from the current findings. A baseline entry that matches *no*
//! current finding is stale — [`apply_baseline`] returns those keys and
//! the CLI turns each into a `stale-baseline` finding, so a fixed
//! defect cannot leave a silent suppression behind.
//!
//! The report has no serialized form. The CLI prints its counts and
//! findings, and its exit code is the verdict: a stale baseline entry is
//! a `stale-baseline` finding, so "no findings" is the whole acceptance.

use std::collections::BTreeSet;
use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// The rule family: `role-confinement`, `lock-order`, `nonblocking`,
    /// `no-panic`, `lex`, or `directive`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The full scan result, ready to print.
#[derive(Debug, Default)]
pub struct Report {
    /// Non-suppressed findings, sorted.
    pub findings: Vec<Finding>,
    /// How many findings the baseline suppressed.
    pub suppressed: usize,
    /// How many files the scan covered.
    pub files_scanned: usize,
    /// Runtime functions in the call-graph universe.
    pub functions: usize,
    /// Resolved call edges between them.
    pub call_edges: usize,
    /// Effect-fixpoint passes until stabilization.
    pub fixpoint_iterations: usize,
    /// Functions annotated `reactor-root`.
    pub reactor_roots: usize,
    /// Functions reachable from the reactor roots.
    pub reactor_reachable: usize,
    /// Every statically discovered lock name.
    pub lock_names: BTreeSet<String>,
    /// Static acquisition-order edges (outer, inner).
    pub lock_edges: BTreeSet<(String, String)>,
}

/// Parses a baseline file into suppression keys. Unparseable lines are
/// returned as errors rather than silently ignored — a malformed
/// baseline must not quietly stop suppressing.
pub fn parse_baseline(text: &str) -> Result<BTreeSet<(String, String, String)>, String> {
    let mut keys = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(file), Some(message)) => {
                keys.insert((rule.to_string(), file.to_string(), message.to_string()));
            }
            _ => {
                return Err(format!(
                    "baseline line {}: expected rule<TAB>file<TAB>message, got {line:?}",
                    i + 1
                ));
            }
        }
    }
    Ok(keys)
}

/// Splits findings into (kept, suppressed-count, stale-keys) against a
/// baseline. A stale key is a baseline entry that matched nothing — the
/// accepted finding no longer exists and the suppression must go.
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &BTreeSet<(String, String, String)>,
) -> (Vec<Finding>, usize, Vec<(String, String, String)>) {
    let mut kept = Vec::new();
    let mut suppressed = 0;
    let mut matched: BTreeSet<&(String, String, String)> = BTreeSet::new();
    for f in findings {
        let key = (f.rule.to_string(), f.file.clone(), f.message.clone());
        if let Some(hit) = baseline.get(&key) {
            suppressed += 1;
            matched.insert(hit);
        } else {
            kept.push(f);
        }
    }
    let stale = baseline.iter().filter(|k| !matched.contains(k)).cloned().collect();
    (kept, suppressed, stale)
}

/// Renders findings as baseline lines (for `--write-baseline`).
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut out = String::from(
        "# oftt-lint baseline: accepted findings, one per line as\n\
         # rule<TAB>file<TAB>message. Regenerate with `oftt-lint --write-baseline`.\n",
    );
    let keys: BTreeSet<(&str, &str, &str)> =
        findings.iter().map(|f| (f.rule, f.file.as_str(), f.message.as_str())).collect();
    for (rule, file, message) in keys {
        out.push_str(&format!("{rule}\t{file}\t{message}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, message: &str) -> Finding {
        Finding { rule, file: file.to_string(), line, message: message.to_string() }
    }

    #[test]
    fn baseline_round_trips() {
        let findings = vec![
            finding("no-panic", "a.rs", 3, "unwrap on a hot path"),
            finding("nonblocking", "b.rs", 9, "call to blocking `sleep`"),
        ];
        let text = render_baseline(&findings);
        let keys = parse_baseline(&text).unwrap();
        let (kept, suppressed, stale) = apply_baseline(findings, &keys);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 2);
        assert!(stale.is_empty());
    }

    #[test]
    fn baseline_suppresses_regardless_of_line_drift() {
        let keys = parse_baseline("no-panic\ta.rs\tunwrap on a hot path\n").unwrap();
        let moved = vec![finding("no-panic", "a.rs", 999, "unwrap on a hot path")];
        let (kept, suppressed, stale) = apply_baseline(moved, &keys);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 1);
        assert!(stale.is_empty());
    }

    #[test]
    fn unmatched_baseline_entries_come_back_stale() {
        let keys = parse_baseline(
            "no-panic\ta.rs\tunwrap on a hot path\nnonblocking\tgone.rs\told accepted finding\n",
        )
        .unwrap();
        let findings = vec![finding("no-panic", "a.rs", 3, "unwrap on a hot path")];
        let (kept, suppressed, stale) = apply_baseline(findings, &keys);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 1);
        assert_eq!(
            stale,
            vec![(
                "nonblocking".to_string(),
                "gone.rs".to_string(),
                "old accepted finding".to_string()
            )]
        );
    }

    #[test]
    fn non_baselined_findings_survive() {
        let keys = parse_baseline("# just a comment\n").unwrap();
        let findings = vec![finding("lex", "c.rs", 1, "unterminated string literal")];
        let (kept, suppressed, stale) = apply_baseline(findings, &keys);
        assert_eq!(kept.len(), 1);
        assert_eq!(suppressed, 0);
        assert!(stale.is_empty());
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(parse_baseline("no tabs here\n").is_err());
    }
}
