//! Versioned trace exports (`oftt-trace-v1`).
//!
//! An export captures one checked run in a stable line-oriented schema:
//! which scenario and configuration produced it, the replayable schedule it
//! took, and the protocol-relevant trace entries it recorded. The schema is
//! the contract between oftt-check (producer) and oftt-verify's refinement
//! checker (consumer) — a reader rejects any version it was not built for
//! rather than guessing.
//!
//! Format:
//!
//! ```text
//! oftt-trace-v1
//! # scenario pair-failover
//! # inject-startup-bug false
//! # seed 3
//! # choices 0 1 0
//! entry 10000000 fault crash nt-a
//! entry 10231072 engine oftt-engine@nt-b: role -> Primary (term 2): peer silent: taking over
//! ...
//! ```
//!
//! Line one is the literal version header. `# key value` lines carry run
//! metadata. Each `entry` line is a [`TraceEntry::to_export_line`]
//! projection. Unknown metadata keys are ignored (minor-revision room);
//! unknown version headers and malformed entry lines are hard errors.

use std::path::Path;

use ds_sim::prelude::{Schedule, Trace, TraceEntry};

use crate::parse::{parse_trace, Event};
use crate::scenario::{RunResult, Scenario};

/// The version header this build writes and the only one it reads.
pub const TRACE_FORMAT: &str = "oftt-trace-v1";

/// One exported run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceExport {
    /// The [`Scenario::named`] name of the run's scenario.
    pub scenario: String,
    /// Whether the §3.2 startup bug was re-introduced for the run.
    pub inject_startup_bug: bool,
    /// The replayable schedule the run took.
    pub schedule: Schedule,
    /// The protocol-relevant trace entries, in recording order.
    pub entries: Vec<TraceEntry>,
}

impl TraceExport {
    /// Captures a finished run of the scenario named `name` as an export.
    pub fn from_run(name: &str, scenario: &Scenario, result: &RunResult) -> Self {
        TraceExport {
            scenario: name.to_string(),
            inject_startup_bug: scenario.has_startup_bug(),
            schedule: result.schedule.clone(),
            entries: result.entries.clone(),
        }
    }

    /// Renders the export in the versioned schema.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(TRACE_FORMAT);
        out.push('\n');
        out.push_str(&format!("# scenario {}\n", self.scenario));
        out.push_str(&format!("# inject-startup-bug {}\n", self.inject_startup_bug));
        out.push_str(&format!("# seed {}\n", self.schedule.seed));
        out.push_str("# choices");
        for choice in &self.schedule.choices {
            out.push_str(&format!(" {choice}"));
        }
        out.push('\n');
        for entry in &self.entries {
            out.push_str(&format!("entry {}\n", entry.to_export_line()));
        }
        out
    }

    /// Parses a [`TraceExport::to_text`] document.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem: an unknown version header
    /// (forward compatibility is rejection, not guessing), missing
    /// metadata, or a malformed entry line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().map(str::trim).unwrap_or("");
        if header != TRACE_FORMAT {
            return Err(format!(
                "unsupported trace export version {header:?}: this build reads {TRACE_FORMAT:?}"
            ));
        }
        let mut scenario = None;
        let mut inject_startup_bug = None;
        let mut seed = None;
        let mut choices = Vec::new();
        let mut entries = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(meta) = line.strip_prefix('#') {
                let meta = meta.trim();
                if let Some(v) = meta.strip_prefix("scenario ") {
                    let name = v.trim();
                    Scenario::named(name).ok_or_else(|| format!("unknown scenario {v:?}"))?;
                    scenario = Some(name.to_string());
                } else if let Some(v) = meta.strip_prefix("inject-startup-bug ") {
                    inject_startup_bug =
                        Some(v.trim().parse::<bool>().map_err(|_| format!("bad bug flag {v:?}"))?);
                } else if let Some(v) = meta.strip_prefix("seed ") {
                    seed = Some(v.trim().parse::<u64>().map_err(|_| format!("bad seed {v:?}"))?);
                } else if let Some(v) = meta.strip_prefix("choices") {
                    choices = v
                        .split_whitespace()
                        .map(|t| t.parse::<u32>().map_err(|_| format!("bad choice {t:?}")))
                        .collect::<Result<_, _>>()?;
                }
                // Unknown metadata keys are ignored: minor-revision room.
            } else if let Some(body) = line.strip_prefix("entry ") {
                entries.push(
                    TraceEntry::parse_export_line(body)
                        .ok_or_else(|| format!("malformed entry line {line:?}"))?,
                );
            } else {
                return Err(format!("unrecognized trace export line {line:?}"));
            }
        }
        Ok(TraceExport {
            scenario: scenario.ok_or("missing scenario metadata")?,
            inject_startup_bug: inject_startup_bug.ok_or("missing inject-startup-bug metadata")?,
            schedule: Schedule::new(seed.ok_or("missing seed metadata")?, choices),
            entries,
        })
    }

    /// Rebuilds a [`Trace`] from the exported entries (recording order is
    /// the file's line order).
    pub fn to_trace(&self) -> Trace {
        let mut trace = Trace::new();
        for e in &self.entries {
            trace.record(e.at, e.category, e.message.clone());
        }
        trace
    }

    /// Parses the exported entries into invariant-relevant [`Event`]s —
    /// the view the refinement checker projects to abstract states.
    pub fn events(&self) -> Vec<Event> {
        parse_trace(&self.to_trace())
    }

    /// Writes the export to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads an export from a file.
    ///
    /// # Errors
    ///
    /// Returns I/O failures and parse problems as text.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        TraceExport::parse(&text)
    }

    /// The conventional file name for an export: scenario, seed, and the
    /// explorer's run index.
    pub fn file_name(name: &str, seed: u64, index: usize) -> String {
        format!("{name}-s{seed}-{index:04}.trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::EventKind;
    use crate::scenario::run;

    fn sample() -> TraceExport {
        let scenario = Scenario::named("pair-failover").unwrap();
        TraceExport::from_run("pair-failover", &scenario, &run(&scenario, 3, &[]))
    }

    #[test]
    fn exports_round_trip_through_text() {
        let export = sample();
        assert!(!export.entries.is_empty());
        let text = export.to_text();
        assert!(text.starts_with("oftt-trace-v1\n"));
        let back = TraceExport::parse(&text).unwrap();
        assert_eq!(back, export);
        // The rebuilt trace parses into the same protocol events the live
        // run produced (modulo vector clocks, which exports strip, and the
        // application-level API misuse reports, which they do not carry).
        let result = run(&Scenario::named("pair-failover").unwrap(), 3, &[]);
        let stripped: Vec<Event> = result
            .events
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::ApiMisuse { .. }))
            .map(|e| Event { clock: None, ..e.clone() })
            .collect();
        assert_eq!(export.events(), stripped);
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let export = sample();
        let future = export.to_text().replacen("oftt-trace-v1", "oftt-trace-v2", 1);
        let err = TraceExport::parse(&future).unwrap_err();
        assert!(err.contains("unsupported trace export version"), "got: {err}");
        assert!(err.contains("oftt-trace-v2"), "got: {err}");
        assert!(TraceExport::parse("").is_err());
        assert!(TraceExport::parse("not a trace\n").is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let export = sample();
        let text = export.to_text();
        assert!(TraceExport::parse(&format!("{text}entry bogus line here\n")).is_err());
        assert!(TraceExport::parse(&format!("{text}free-floating prose\n")).is_err());
        assert!(TraceExport::parse("oftt-trace-v1\n# seed 1\n# choices\n").is_err());
        assert!(TraceExport::parse(&text.replacen("pair-failover", "pair-failure", 1)).is_err());
        // Unknown metadata keys are tolerated (minor-revision room).
        let padded = text.replacen("# seed", "# emitted-by oftt-check-tests\n# seed", 1);
        assert_eq!(TraceExport::parse(&padded).unwrap(), export);
    }

    #[test]
    fn file_names_are_stable() {
        assert_eq!(
            TraceExport::file_name("partitioned-startup", 7, 12),
            "partitioned-startup-s7-0012.trace"
        );
    }
}
