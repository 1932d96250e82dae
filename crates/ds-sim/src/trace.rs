//! Structured simulation tracing.
//!
//! Every interesting occurrence (message delivered, fault injected, role
//! change, checkpoint installed …) is recorded as a [`TraceEntry`]. Tests and
//! the experiment harness query the trace rather than scraping stdout, and
//! determinism tests compare whole traces across runs.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::clock::VectorClock;
use crate::time::SimTime;

/// Categories of trace entries, used for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceCategory {
    /// Network-level: sends, deliveries, drops.
    Net,
    /// Fault injection: crashes, reboots, partitions.
    Fault,
    /// OFTT engine: role changes, detections, switchovers.
    Engine,
    /// Checkpointing: saves, transfers, restores.
    Checkpoint,
    /// Message diverter / queueing.
    Diverter,
    /// Application-level events.
    App,
    /// COM/RPC activity.
    Rpc,
    /// Anything else.
    Other,
}

impl TraceCategory {
    /// Every category, in a stable order (the schema enumeration versioned
    /// trace exports rely on).
    pub const ALL: [TraceCategory; 8] = [
        TraceCategory::Net,
        TraceCategory::Fault,
        TraceCategory::Engine,
        TraceCategory::Checkpoint,
        TraceCategory::Diverter,
        TraceCategory::App,
        TraceCategory::Rpc,
        TraceCategory::Other,
    ];

    /// The stable short name (what `Display` renders).
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Net => "net",
            TraceCategory::Fault => "fault",
            TraceCategory::Engine => "engine",
            TraceCategory::Checkpoint => "ckpt",
            TraceCategory::Diverter => "divert",
            TraceCategory::App => "app",
            TraceCategory::Rpc => "rpc",
            TraceCategory::Other => "other",
        }
    }

    /// Parses a [`TraceCategory::name`] back into the category (the
    /// projection hook trace exports use to round-trip entries).
    pub fn parse_name(name: &str) -> Option<TraceCategory> {
        TraceCategory::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// When it happened.
    pub at: SimTime,
    /// What kind of occurrence.
    pub category: TraceCategory,
    /// Free-form description, stable across runs for a given seed.
    pub message: String,
    /// Vector clock of the recording actor, when causality recording was
    /// enabled for the run. `None` otherwise; excluded from the rendered
    /// text so determinism comparisons are unaffected.
    pub clock: Option<VectorClock>,
}

impl TraceEntry {
    /// The stable one-line projection used by versioned trace exports:
    /// `<at-µs> <category> <message>`. Vector clocks are deliberately
    /// excluded — exported traces must compare equal across causality
    /// recording settings.
    pub fn to_export_line(&self) -> String {
        format!("{} {} {}", self.at.as_micros(), self.category, self.message)
    }

    /// Parses a [`TraceEntry::to_export_line`] line; `None` if the line
    /// does not follow the projection.
    pub fn parse_export_line(line: &str) -> Option<TraceEntry> {
        let (at, rest) = line.split_once(' ')?;
        let (category, message) = rest.split_once(' ')?;
        Some(TraceEntry {
            at: SimTime::from_micros(at.parse().ok()?),
            category: TraceCategory::parse_name(category)?,
            message: message.to_string(),
            clock: None,
        })
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {:>6}] {}", self.at, self.category, self.message)
    }
}

/// An append-only log of simulation occurrences.
///
/// # Examples
///
/// ```
/// use ds_sim::trace::{Trace, TraceCategory};
/// use ds_sim::time::SimTime;
///
/// let mut trace = Trace::new();
/// trace.record(SimTime::from_millis(3), TraceCategory::Fault, "node A crashed");
/// assert_eq!(trace.count(TraceCategory::Fault), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    #[serde(skip)]
    echo: bool,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// When `echo` is on, each entry is also printed to stdout as recorded;
    /// used by the runnable examples.
    pub fn set_echo(&mut self, echo: bool) {
        self.echo = echo;
    }

    /// Appends an entry.
    pub fn record(&mut self, at: SimTime, category: TraceCategory, message: impl Into<String>) {
        self.record_clocked(at, category, message, None);
    }

    /// Appends an entry stamped with the recording actor's vector clock.
    pub fn record_clocked(
        &mut self,
        at: SimTime,
        category: TraceCategory,
        message: impl Into<String>,
        clock: Option<VectorClock>,
    ) {
        let entry = TraceEntry { at, category, message: message.into(), clock };
        if self.echo {
            println!("{entry}");
        }
        self.entries.push(entry);
    }

    /// All entries, in recording order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Iterates over entries in a category.
    pub fn in_category(&self, category: TraceCategory) -> impl Iterator<Item = &TraceEntry> + '_ {
        self.entries.iter().filter(move |e| e.category == category)
    }

    /// Number of entries in a category.
    pub fn count(&self, category: TraceCategory) -> usize {
        self.in_category(category).count()
    }

    /// First entry whose message contains `needle`, if any.
    pub fn find(&self, needle: &str) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.message.contains(needle))
    }

    /// Time of the first entry matching `needle` at or after `from`.
    pub fn first_after(&self, from: SimTime, needle: &str) -> Option<SimTime> {
        self.entries.iter().find(|e| e.at >= from && e.message.contains(needle)).map(|e| e.at)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the whole trace as newline-separated text (used by
    /// determinism tests to compare runs cheaply).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record(SimTime::from_millis(1), TraceCategory::Net, "send a->b");
        t.record(SimTime::from_millis(2), TraceCategory::Fault, "crash b");
        t.record(SimTime::from_millis(3), TraceCategory::Engine, "switchover to a");
        t
    }

    #[test]
    fn records_in_order() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(t.entries()[0].at <= t.entries()[1].at);
    }

    #[test]
    fn category_filtering() {
        let t = sample();
        assert_eq!(t.count(TraceCategory::Fault), 1);
        assert_eq!(t.count(TraceCategory::Checkpoint), 0);
        assert_eq!(t.in_category(TraceCategory::Net).count(), 1);
    }

    #[test]
    fn find_and_first_after() {
        let t = sample();
        assert!(t.find("switchover").is_some());
        assert!(t.find("no such thing").is_none());
        assert_eq!(
            t.first_after(SimTime::from_millis(2), "switchover"),
            Some(SimTime::from_millis(3))
        );
        assert_eq!(t.first_after(SimTime::from_millis(4), "switchover"), None);
    }

    #[test]
    fn text_rendering_is_stable() {
        let a = sample().to_text();
        let b = sample().to_text();
        assert_eq!(a, b);
        assert!(a.contains("crash b"));
    }

    #[test]
    fn category_names_round_trip() {
        for category in TraceCategory::ALL {
            assert_eq!(TraceCategory::parse_name(category.name()), Some(category));
        }
        assert_eq!(TraceCategory::parse_name("nope"), None);
    }

    #[test]
    fn export_lines_round_trip() {
        for entry in sample().entries() {
            let back = TraceEntry::parse_export_line(&entry.to_export_line()).unwrap();
            assert_eq!(&back, entry);
        }
        assert!(TraceEntry::parse_export_line("garbage").is_none());
        assert!(TraceEntry::parse_export_line("12 nosuch message").is_none());
    }
}
