//! Schedule artifacts on disk, and replaying them.
//!
//! A counterexample is only useful if someone else can re-run it. The
//! artifact format is the line-oriented [`Schedule::to_text`] form with a
//! comment header naming the scenario and what was changed about it, so a
//! file is self-describing:
//!
//! ```text
//! # oftt-check counterexample
//! # scenario partitioned-startup
//! # inject-startup-bug true
//! # tie-window-us 500
//! seed 3
//! choices 0 2 1
//! ```
//!
//! The tie window decides which events are choice points, so a forced
//! prefix only means something under the window it was recorded at. Files
//! written before the window was recorded have no `tie-window-us` line and
//! replay under the default 500 µs they were recorded at.

use std::path::Path;

use ds_sim::prelude::{Schedule, SimDuration};

use crate::invariants::{check_all, Violation};
use crate::scenario::{run, Scenario};

/// A schedule artifact plus the run description needed to re-run it.
#[derive(Debug, Clone)]
pub struct ReplayFile {
    /// The [`Scenario::named`] name the run started from.
    pub name: String,
    /// The run description. The artifact records its name, whether it
    /// runs the startup bug, and its tie window.
    pub scenario: Scenario,
    /// The recorded schedule.
    pub schedule: Schedule,
}

impl ReplayFile {
    /// Renders the self-describing artifact text.
    pub fn to_text(&self) -> String {
        format!(
            "# oftt-check counterexample\n# scenario {}\n# inject-startup-bug {}\n\
             # tie-window-us {}\n{}",
            self.name,
            self.scenario.has_startup_bug(),
            self.scenario.tie_window.as_micros(),
            self.schedule.to_text()
        )
    }

    /// Parses artifact text (the inverse of [`ReplayFile::to_text`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut name = None;
        let mut bug = false;
        let mut window = None;
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("# scenario ") {
                name = Some(rest.trim());
            } else if let Some(rest) = line.strip_prefix("# inject-startup-bug ") {
                bug = rest.trim().parse().map_err(|_| format!("bad bug flag {rest:?}"))?;
            } else if let Some(rest) = line.strip_prefix("# tie-window-us ") {
                let us = rest.trim().parse().map_err(|_| format!("bad tie window {rest:?}"))?;
                window = Some(SimDuration::from_micros(us));
            }
        }
        let name = name.ok_or_else(|| "artifact missing `# scenario` line".to_string())?;
        let mut scenario =
            Scenario::named(name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
        if bug {
            scenario = scenario.with_startup_bug();
        }
        if let Some(window) = window {
            scenario.tie_window = window;
        }
        let schedule = Schedule::parse(text)?;
        Ok(ReplayFile { name: name.to_string(), scenario, schedule })
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Loads an artifact from `path`.
    ///
    /// # Errors
    ///
    /// I/O errors and parse errors, as text.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ReplayFile::parse(&text)
    }

    /// Re-runs the recorded schedule and re-checks the invariant catalog.
    pub fn replay(&self) -> ReplayOutcome {
        let result = run(&self.scenario, self.schedule.seed, &self.schedule.choices);
        ReplayOutcome {
            violations: check_all(&result.events),
            schedule_taken: result.schedule,
            trace_text: result.trace_text,
        }
    }
}

/// What replaying an artifact produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Violations the replayed run exhibits.
    pub violations: Vec<Violation>,
    /// The complete schedule the replay took (extends the recorded
    /// prefix with the defaults beyond it).
    pub schedule_taken: Schedule,
    /// The replayed run's rendered trace.
    pub trace_text: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn startup_bug() -> Scenario {
        Scenario::named("partitioned-startup").unwrap().with_startup_bug()
    }

    #[test]
    fn artifact_text_round_trips() {
        let file = ReplayFile {
            name: "partitioned-startup".into(),
            scenario: Scenario { tie_window: SimDuration::from_micros(50), ..startup_bug() },
            schedule: Schedule::new(3, vec![0, 2, 1]),
        };
        let parsed = ReplayFile::parse(&file.to_text()).unwrap();
        assert_eq!(parsed.name, file.name);
        assert_eq!(parsed.scenario, file.scenario);
        assert_eq!(parsed.schedule, file.schedule);
    }

    #[test]
    fn artifacts_without_a_tie_window_replay_under_the_default() {
        let old = "# oftt-check counterexample\n# scenario partitioned-startup\n\
                   # inject-startup-bug true\nseed 1\nchoices\n";
        assert_eq!(ReplayFile::parse(old).unwrap().scenario, startup_bug());
    }

    #[test]
    fn artifact_without_scenario_is_rejected() {
        let body = "seed 1\nchoices 0\n";
        assert!(ReplayFile::parse(body).is_err());
        for header in [
            "# scenario nope\n",
            "# scenario pair-failover\n# inject-startup-bug ture\n",
            "# scenario pair-failover\n# tie-window-us wide\n",
        ] {
            assert!(ReplayFile::parse(&format!("{header}{body}")).is_err(), "{header:?}");
        }
    }

    #[test]
    fn a_schedule_recorded_at_a_narrow_window_replays_under_it() {
        let scenario = Scenario { tie_window: SimDuration::from_micros(50), ..startup_bug() };
        let recorded = run(&scenario, 1, &[]).schedule;
        let file =
            ReplayFile { name: "partitioned-startup".into(), scenario, schedule: recorded.clone() };
        let path = std::env::temp_dir()
            .join(format!("oftt-check-replay-window-{}.sched", std::process::id()));
        file.save(&path).unwrap();
        let loaded = ReplayFile::load(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.unwrap().replay().schedule_taken, recorded);
    }
}
