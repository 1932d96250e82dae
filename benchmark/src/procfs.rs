//! CPU time and peak memory of this process, its threads and its children.
//!
//! Totals come from `getrusage(2)`, in µs for this process and its threads
//! and in ms steps for reaped children; `/proc/.../stat` reports the same
//! counters rounded down to 10 ms ticks, which is too coarse for a failover
//! cycle that costs 11 ms of CPU. `/proc/self/task/*/stat` is still the only place a thread can be
//! found by name, so the reactor threads' CPU is read there, in ticks.

use std::ffi::{c_int, c_long};
use std::fs;

/// Linux fixes the user-visible tick (`USER_HZ`) at 100 per second on
/// every architecture this repo builds for.
const TICK_US: f64 = 10_000.0;

/// Whose resources [`usage`] reports.
#[derive(Clone, Copy)]
pub enum Who {
    /// Every thread of this process.
    Process = 0,
    /// Every child this process has waited for, and their descendants.
    Children = -1,
    /// The calling thread.
    Thread = 1,
}

/// CPU consumed so far (user + system) and peak resident set.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_us: f64,
    /// For [`Who::Children`], the largest peak among the children.
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen longs
/// of which the first is `ru_maxrss` in kB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

pub fn usage(who: Who) -> Usage {
    let mut raw = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` of the layout the
    // Linux C library documents, and `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(who as c_int, &mut raw) };
    assert_eq!(rc, 0, "getrusage accepts these three targets on Linux");
    let us = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    Usage { cpu_us: us(&raw.utime) + us(&raw.stime), peak_rss_mb: raw.maxrss as f64 / 1024.0 }
}

/// Parses the command name and `utime + stime` (in ticks) out of a
/// `/proc/.../stat` line. The name sits in parentheses and may itself
/// contain spaces or parentheses, so fields are counted from the *last*
/// `)`.
pub fn parse_stat(line: &str) -> Option<(&str, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?;
    // After ") ": state ppid pgrp session tty tpgid flags minflt cminflt
    // majflt cmajflt utime stime ...
    let fields: Vec<&str> = line.get(close + 1..)?.split_ascii_whitespace().collect();
    let num = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((comm, num(11)? + num(12)?))
}

/// CPU consumed so far by this process's live threads whose name starts
/// with `prefix`, in µs (10 ms grain).
pub fn threads_cpu_us(prefix: &str) -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0.0 };
    let ticks: u64 = tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("stat")).ok())
        .filter_map(|stat| {
            parse_stat(&stat).filter(|(comm, _)| comm.starts_with(prefix)).map(|s| s.1)
        })
        .sum();
    ticks as f64 * TICK_US
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (wire reactor) 0) S 17 4242 4242 0 -1 4194304 120 0 0 0 \
                    31 9 1500 250 20 0 3 0 1234 1000000 200 18446744073709551615";
        assert_eq!(parse_stat(line), Some(("wire reactor) 0", 40)));
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
    }

    #[test]
    fn usage_grows_with_work_done_on_this_thread() {
        let before = usage(Who::Thread).cpu_us;
        let mut x = 1u64;
        while usage(Who::Thread).cpu_us - before < 2_000.0 {
            for i in 0..100_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        let process = usage(Who::Process);
        assert!(process.cpu_us >= 2_000.0 && process.peak_rss_mb > 0.0);
        assert!(usage(Who::Children).cpu_us >= 0.0);
    }

    #[test]
    fn threads_are_found_by_name() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let worker = std::thread::Builder::new()
            .name("bench-probe-7".into())
            .spawn(move || {
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
            .expect("spawn");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while threads_cpu_us("bench-probe-") == 0.0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let (busy, stranger) = (threads_cpu_us("bench-probe-"), threads_cpu_us("no-such-thread-"));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        worker.join().expect("worker exits");
        assert!(busy >= TICK_US, "a spinning thread must show at least one tick");
        assert_eq!(stranger, 0.0);
    }
}
