//! The human-facing summary and the `--out` JSON record.
//!
//! The summary is what a person reads; the JSON adds what the table
//! omits (the p95, `availability_min`, the pins) for tooling and for
//! EXPERIMENTS.md. Neither is a verdict: the gate is
//! [`crate::gate_failures`] and the CLI's exit code. The JSON is
//! hand-formatted (no serializer dependency), keys always in the same
//! order, so diffs between two runs' records are line-diffs.

use crate::stats::ScenarioStats;

/// Renders the campaign's JSON record.
pub fn render_json(
    stats: &[ScenarioStats],
    total_runs: usize,
    elapsed_ms: u64,
    jobs: usize,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"total_runs\": {total_runs},\n"));
    out.push_str(&format!("  \"elapsed_ms\": {elapsed_ms},\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str("  \"scenarios\": [\n");
    let last = stats.len().saturating_sub(1);
    for (i, sc) in stats.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", sc.name));
        out.push_str(&format!("      \"seeds\": {},\n", sc.seeds));
        out.push_str(&format!("      \"horizon_ms\": {},\n", sc.horizon_ms));
        out.push_str(&format!("      \"expect_violations\": {},\n", sc.expect_violations));
        out.push_str(&format!("      \"recovered\": {},\n", sc.recovered));
        out.push_str(&format!("      \"non_recovered\": {},\n", sc.non_recovered));
        out.push_str(&format!("      \"violations\": {},\n", sc.violations));
        out.push_str(&format!("      \"violating_seeds\": {},\n", sc.violating_seeds));
        out.push_str(&format!("      \"failover_samples\": {},\n", sc.failover_samples));
        out.push_str(&format!("      \"failover_ms_p50\": {:.3},\n", sc.failover_ms_p50));
        out.push_str(&format!("      \"failover_ms_p95\": {:.3},\n", sc.failover_ms_p95));
        out.push_str(&format!("      \"failover_ms_p99\": {:.3},\n", sc.failover_ms_p99));
        out.push_str(&format!("      \"failover_ms_max\": {:.3},\n", sc.failover_ms_max));
        out.push_str(&format!("      \"availability_mean\": {:.6},\n", sc.availability_mean));
        out.push_str(&format!("      \"availability_min\": {:.6}", sc.availability_min));
        if sc.pin.is_set() {
            out.push_str(",\n      \"pin\": {");
            let mut parts = Vec::new();
            if let Some(v) = sc.pin.min_availability {
                parts.push(format!("\"min_availability\": {v}"));
            }
            if let Some(v) = sc.pin.max_failover_p99_ms {
                parts.push(format!("\"max_failover_p99_ms\": {v}"));
            }
            if let Some(v) = sc.pin.min_failover_samples {
                parts.push(format!("\"min_failover_samples\": {v}"));
            }
            out.push_str(&parts.join(", "));
            out.push('}');
        }
        out.push_str(if i == last { "\n    }\n" } else { "\n    },\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The per-scenario summary the CLI prints.
pub fn render_summary(stats: &[ScenarioStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>5} {:>5} {:>4} {:>8} {:>9} {:>9} {:>9} {:>10}\n",
        "scenario", "seeds", "recov", "viol", "samples", "p50 ms", "p99 ms", "max ms", "avail"
    ));
    for sc in stats {
        out.push_str(&format!(
            "{:<20} {:>5} {:>5} {:>4} {:>8} {:>9.1} {:>9.1} {:>9.1} {:>10.6}\n",
            sc.name,
            sc.seeds,
            sc.recovered,
            sc.violations,
            sc.failover_samples,
            sc.failover_ms_p50,
            sc.failover_ms_p99,
            sc.failover_ms_max,
            sc.availability_mean,
        ));
        if !sc.violating_seed_list.is_empty() {
            out.push_str(&format!(
                "  {} violating seed(s): {:?}{}\n",
                if sc.expect_violations { "expected" } else { "UNEXPECTED" },
                sc.violating_seed_list.iter().take(10).collect::<Vec<_>>(),
                if sc.violating_seed_list.len() > 10 { " …" } else { "" },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_doc, Json};
    use crate::scenario::Pin;

    fn stats(pin: Pin) -> ScenarioStats {
        ScenarioStats {
            name: "storm".into(),
            seeds: 20,
            horizon_ms: 40000,
            expect_violations: false,
            recovered: 20,
            non_recovered: 0,
            violations: 0,
            violating_seeds: 0,
            violating_seed_list: Vec::new(),
            failover_samples: 41,
            failover_ms_p50: 612.5,
            failover_ms_p95: 840.0,
            failover_ms_p99: 901.25,
            failover_ms_max: 1180.0,
            availability_mean: 0.991234,
            availability_min: 0.972,
            pin,
        }
    }

    /// Reads one scenario object back into stats; the violating seed
    /// list is the summary's alone and comes back empty.
    fn read_back(sc: &Json) -> ScenarioStats {
        let num = |key: &str| sc.get(key).and_then(Json::as_f64).unwrap();
        let pin = |key: &str| sc.get("pin").and_then(|p| p.get(key)).and_then(Json::as_f64);
        ScenarioStats {
            name: sc.get("name").and_then(Json::as_str).unwrap().to_string(),
            seeds: num("seeds") as usize,
            horizon_ms: num("horizon_ms") as u64,
            expect_violations: sc.get("expect_violations").and_then(Json::as_bool).unwrap(),
            recovered: num("recovered") as usize,
            non_recovered: num("non_recovered") as usize,
            violations: num("violations") as usize,
            violating_seeds: num("violating_seeds") as usize,
            violating_seed_list: Vec::new(),
            failover_samples: num("failover_samples") as usize,
            failover_ms_p50: num("failover_ms_p50"),
            failover_ms_p95: num("failover_ms_p95"),
            failover_ms_p99: num("failover_ms_p99"),
            failover_ms_max: num("failover_ms_max"),
            availability_mean: num("availability_mean"),
            availability_min: num("availability_min"),
            pin: Pin {
                min_availability: pin("min_availability"),
                max_failover_p99_ms: pin("max_failover_p99_ms"),
                min_failover_samples: pin("min_failover_samples").map(|n| n as u64),
            },
        }
    }

    #[test]
    fn rendered_json_round_trips_every_field_through_the_reader() {
        let pinned = stats(Pin {
            min_availability: Some(0.9),
            max_failover_p99_ms: Some(3000.0),
            min_failover_samples: Some(20),
        });
        let mut unpinned = stats(Pin::default());
        unpinned.name = "quiet".into();
        unpinned.expect_violations = true;
        unpinned.violations = 3;
        unpinned.violating_seeds = 2;
        let json = render_json(&[pinned.clone(), unpinned.clone()], 40, 1234, 8);
        let doc = parse_doc(&json).unwrap();
        assert_eq!(doc.get("total_runs").and_then(Json::as_f64), Some(40.0));
        assert_eq!(doc.get("elapsed_ms").and_then(Json::as_f64), Some(1234.0));
        assert_eq!(doc.get("jobs").and_then(Json::as_f64), Some(8.0));
        let scenarios = doc.get("scenarios").and_then(Json::as_array).unwrap();
        let back: Vec<ScenarioStats> = scenarios.iter().map(read_back).collect();
        assert_eq!(back, vec![pinned, unpinned]);
    }

    #[test]
    fn summary_mentions_the_scenario() {
        let text = render_summary(&[stats(Pin::default())]);
        assert!(text.contains("storm"));
        assert!(text.contains("0.991234"));
    }
}
