//! The repo's benchmark: four workloads, five end-to-end metrics each, and
//! a traced run that breaks every operation down by layer.
//!
//! ```text
//! oftt-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]
//! ```
//!
//! Every phase is a fixed number of operations derived from `--seconds`
//! (never a stop-watch), set-up is repeated and includes a warm-up made of
//! the same work as the timed phase, and throughput is the median over
//! equal-count segments. See `benchmark/README.md` for why.

mod ckpt;
mod failover;
mod procfs;
mod spans;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::time::Instant;

use procfs::{usage, Who};
use spans::Tracer;

/// `(name, unit)` of the metrics printed with `--trace 0`, in the order of
/// `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the metrics printed with `--trace 1`. A metric whose
/// layer a workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 50] = [
    ("varstore.set_us", "us"),
    ("varstore.sets_per_op", "count"),
    ("varstore.set_elided_share", "share"),
    ("varstore.take_dirty_us", "us"),
    ("varstore.crc_us", "us"),
    ("varstore.image_us", "us"),
    ("checkpoint.build_us", "us"),
    ("checkpoint.verify_us", "us"),
    ("store.offer_us", "us"),
    ("store.rejected_share", "share"),
    ("store.restore_image_us", "us"),
    ("ftim.ckpt_bytes_per_op", "B"),
    ("ftim.fulls_share", "share"),
    ("ftim.refresh_op_ms", "ms"),
    ("ftim.trace_entries_per_op", "count"),
    ("sim.msgs_per_op", "count"),
    ("sim.residual_us", "us"),
    ("marshal.to_bytes_us", "us"),
    ("marshal.from_bytes_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("pool.take_give_us", "us"),
    ("pool.hit_share", "share"),
    ("shard.push_drain_us", "us"),
    ("frame.batch_write_us", "us"),
    ("frame.writes_per_op", "count"),
    ("frame.bytes_per_op", "B"),
    ("frame.assemble_us", "us"),
    ("frame.reads_per_op", "count"),
    ("reactor.cpu_us_per_op", "us"),
    ("reactor.residual_us", "us"),
    ("reactor.bytes_in_per_op", "B"),
    ("reactor.bytes_out_per_op", "B"),
    ("reactor.dropped_frames", "count"),
    ("reactor.shed_heartbeats", "count"),
    ("reactor.purged", "count"),
    ("reactor.queued_max", "count"),
    ("reactor.sat_ckpts_per_s", "1/s"),
    ("loadgen.late_share", "share"),
    ("loadgen.op_ms_p90", "ms"),
    ("loadgen.op_ms_p99", "ms"),
    ("runtime.pair_form_ms", "ms"),
    ("runtime.first_install_ms", "ms"),
    ("engine.detect_ms", "ms"),
    ("ftim.restore_ms", "ms"),
    ("ftim.activate_ms", "ms"),
    ("ftim.first_ship_ms", "ms"),
    ("ftim.restored_vars", "count"),
    ("engine.sim_failover_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 4] = ["ckpt_sparse", "ckpt_dense", "wire_paced", "failover_kill"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Equal-count segments the timed phase is cut into.
const SEGMENTS: usize = 20;

/// What one timed phase measured.
#[derive(Default)]
pub struct Outcome {
    /// Time of every operation that completed, ns.
    pub op_ns: Vec<u64>,
    /// When each attempted operation ended, ns since the phase started.
    pub done_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
    /// [`system_cpu_us`] before the first operation and at the end of every
    /// segment.
    pub cpu_marks: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Per-layer metrics of a traced phase.
    pub layers: BTreeMap<&'static str, f64>,
}

/// CPU the system under test has used so far, in µs: this process plus the
/// children it has reaped. When the calling thread is a load generator
/// separate from the system (`generator_thread`), its own CPU is taken out.
pub fn system_cpu_us(generator_thread: bool) -> f64 {
    let generator = if generator_thread { usage(Who::Thread).cpu_us } else { 0.0 };
    usage(Who::Process).cpu_us + usage(Who::Children).cpu_us - generator
}

/// How many equal-count segments a timed phase of `ops` is cut into.
fn segments(ops: usize) -> usize {
    if ops >= 2 * SEGMENTS {
        SEGMENTS
    } else {
        ops
    }
}

/// Operations per segment.
pub fn segment_ops(ops: usize) -> usize {
    (ops / segments(ops).max(1)).max(1)
}

impl Outcome {
    /// Call before the first operation (`ops_done == 0`) and after every
    /// one: samples the system's CPU at each segment boundary.
    pub fn mark_cpu(&mut self, ops_done: usize, ops: usize, generator_thread: bool) {
        if ops_done.is_multiple_of(segment_ops(ops)) {
            self.cpu_marks.push(system_cpu_us(generator_thread));
        }
    }

    /// The system's CPU per operation, µs: interquartile mean over segments.
    fn cpu_us_per_op(&self, ops: usize) -> f64 {
        let per_op: Vec<f64> =
            self.cpu_marks.windows(2).map(|w| (w[1] - w[0]) / segment_ops(ops) as f64).collect();
        stats::interquartile_mean(&per_op)
    }

    fn op_ms_sorted(&self) -> Vec<f64> {
        stats::sorted(&self.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>())
    }
}

/// Metric names and units are what other tools key on.
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: usize,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 12, trace: false, smoke: false };
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60) as usize,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// Scales a full-length count down for `--smoke` and the traced run.
fn scaled(count: usize, args: &Args) -> usize {
    let count = if args.smoke { count / 20 } else { count };
    (if args.trace { count / 4 } else { count }).max(1)
}

/// Runs one workload: `setup(warmup_ops)` builds the system and warms it
/// up, `timed(system, ops, tracer)` measures it.
fn drive<S>(
    args: &Args,
    started: Instant,
    (warmup_ops, timed_ops): (usize, usize),
    setup: impl Fn(usize) -> S,
    timed: impl Fn(S, usize, &mut Tracer) -> Outcome,
) -> (Outcome, Vec<(&'static str, f64)>) {
    let warmup_ops = if args.smoke { (warmup_ops / 20).max(1) } else { warmup_ops };
    let ops = scaled(timed_ops, args);
    let segments = segments(ops);
    assert!(
        args.smoke || args.trace || segments >= 15,
        "the timed phase needs 15 segments or more"
    );
    eprintln!(
        "{}: warm-up {warmup_ops} ops, timed {ops} ops in {segments} segments",
        args.workload
    );

    if !args.trace {
        // The first set-up is timed from process start, so whatever the
        // program does before it shows too.
        let mut setups = Vec::new();
        let mut system = setup(warmup_ops);
        setups.push(started.elapsed().as_secs_f64());
        for _ in 1..SETUPS {
            drop(system);
            let t = Instant::now();
            system = setup(warmup_ops);
            setups.push(t.elapsed().as_secs_f64());
        }
        let out = timed(system, ops, &mut Tracer::new(false));
        let metrics = vec![
            ("setup_s", stats::median(&setups)),
            ("op_ms", stats::percentile(&out.op_ms_sorted(), 50.0)),
            ("ops_per_s", stats::median(&stats::segment_rates(&out.done_ns, segments))),
            ("cpu_us_per_op", out.cpu_us_per_op(ops)),
            ("peak_rss_mb", out.peak_rss_mb),
        ];
        return (out, metrics);
    }

    // The traced run: the same phase twice, spans off then on, so the
    // overhead of tracing is measured rather than assumed.
    let plain = timed(setup(warmup_ops), ops, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let mut out = timed(setup(warmup_ops), ops, &mut tracer);
    let path = format!("benchmark/out/trace-{}.json", args.workload);
    if let Err(e) = tracer.write_json(std::path::Path::new(&path)) {
        out.problems.push(format!("could not write {path}: {e}"));
    }
    let sorted = plain.op_ms_sorted();
    let (p50, traced_p50) =
        (stats::percentile(&sorted, 50.0), stats::percentile(&out.op_ms_sorted(), 50.0));
    out.layers.insert("loadgen.op_ms_p90", stats::percentile(&sorted, 90.0));
    out.layers.insert("loadgen.op_ms_p99", stats::percentile(&sorted, 99.0));
    out.layers.insert("trace.overhead_pct", (traced_p50 / p50.max(1e-9) - 1.0) * 100.0);
    out.problems.extend(plain.problems);
    out.failed += plain.failed;
    out.attempted += plain.attempted;
    let metrics =
        PER_LAYER.iter().map(|&(n, _)| (n, out.layers.get(n).copied().unwrap_or(0.0))).collect();
    (out, metrics)
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("oftt-benchmark: {why}");
            eprintln!(
                "usage: oftt-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1] [--smoke]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (seed, secs) = (args.seed, args.seconds);
    let ckpt = |shape: ckpt::Shape| {
        drive(
            &args,
            started,
            (shape.warmup_ops, shape.ops_per_second * secs),
            |warmup| ckpt::setup(shape, seed, warmup),
            ckpt::timed,
        )
    };
    let (out, metrics) = match args.workload.as_str() {
        "ckpt_sparse" => ckpt(ckpt::SPARSE),
        "ckpt_dense" => ckpt(ckpt::DENSE),
        "wire_paced" => drive(
            &args,
            started,
            (wire::WARMUP_OPS, wire::OPS_PER_SECOND * secs),
            |warmup| wire::setup(seed, warmup),
            wire::timed,
        ),
        _ => drive(
            &args,
            started,
            (failover::WARMUP_OPS, failover::OPS_PER_SECOND * secs),
            |warmup| failover::setup(seed, warmup),
            failover::timed,
        ),
    };

    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    for problem in &out.problems {
        eprintln!("{}: INCORRECT: {problem}", args.workload);
    }
    println!(
        "{} seed={seed} ops={} failed={} samples={}",
        args.workload,
        out.attempted,
        out.failed,
        out.op_ns.len()
    );
    let mut json = Vec::new();
    for (name, value) in &metrics {
        let unit = units[name];
        debug_assert!(valid_name(name));
        println!("  {name:<28} {value:>16.4} {unit}");
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        json.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for name in ["op_ms", "varstore.set_us", "a-b_c.9", "9lives"] {
            assert!(valid_name(name), "{name}");
        }
        for name in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(name), "{name:?}");
        }
        let all = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).chain(WORKLOADS);
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    /// `BENCHMARK.json` is written by hand; it must declare exactly what
    /// this program prints.
    #[test]
    fn benchmark_json_declares_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let declared = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(text.contains(&declared), "BENCHMARK.json lacks {declared}");
        }
        for name in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{name}\", \"why\": ")), "{name}");
        }
        let declared = text.matches("{\"name\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload wire_paced --seed 7 --seconds 3 --trace 1 --smoke").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.smoke),
            ("wire_paced", 7, 3, true, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload wire_paced --seed x").is_err());
        assert!(parse("--workload wire_paced --bogus 1").is_err());
        assert!(parse("--seed").is_err());
        assert_eq!(scaled(8_000, &a), 100);
    }
}
