//! Machine-speed gauge: the times a run reports are scaled to a reference
//! speed of the machine they ran on.
//!
//! The benchmark runs on shared virtual machines, where other tenants
//! change how fast the same code runs. On the reference machine a fixed
//! loop of random reads over 16 MiB took from 0.95 to 1.42 times its
//! median from one minute to the next, and the offline median query time
//! moved by a quarter between runs with identical inputs, in step with it
//! (a loop of arithmetic alone moved by a twentieth and did not track
//! it). So a run times short slices of that loop all through its phases
//! and divides each time it measures by the slowdown around that moment:
//! the median slice within [`WINDOW`] of it over the reference slice.
//!
//! A slice counts only when no other thread of the process ran while it
//! did, which [`Gauge::slice`] checks from the threads' CPU time. The
//! program under test runs in this process, so work it does — answering
//! late requests, publishing or releasing epochs — cannot slow a kept
//! slice and be scaled away as the machine's; a slice it overlaps is
//! retaken or dropped. A thread's CPU time is brought up to date when it
//! stops running, or at the scheduler's tick while it runs, so a thread
//! that runs on another CPU without blocking can go unseen for a tick;
//! the served workloads therefore time slices on the CPU the server's
//! threads are pinned to, where any server thread that runs preempts the
//! slice and is counted when it stops.
//!
//! The probe is the benchmark's own code, so a change to the program does
//! not move it; the run prints the slowdown and unscaled figures beside
//! the scaled ones, and a traced run reports them as metrics.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Words in the probe's table: 16 MiB, four times the 4 MiB level-2
/// cache of the reference machine, so the reads reach the shared cache
/// and memory as the solver's position scans do.
const WORDS: usize = 1 << 21;
/// Shift that turns a 64-bit generator state into a table index.
const SHIFT: u32 = 64 - WORDS.trailing_zeros();
/// Random reads per slice.
const READS: usize = 100_000;
/// Median slice on the reference machine (2 vCPUs of a shared Xeon
/// host), in seconds.
const REFERENCE_S: f64 = 9.0e-4;
/// Time a slice attempt needs before its deadline: a slice at up to
/// twice the reference time, plus reading the threads' CPU times.
const ATTEMPT_ROOM: Duration = Duration::from_millis(2);
/// Slices within this distance of a measurement set its slowdown.
/// Shorter windows follow the machine more closely but hold fewer slices
/// (a serve workload times several a second).
pub const WINDOW: Duration = Duration::from_millis(2_500);

/// On-CPU nanoseconds of every thread of this process but the caller,
/// by thread id, from `/proc/self/task/*/schedstat`; `None` where that
/// cannot be read.
fn other_threads_cpu_ns() -> Option<BTreeMap<String, u64>> {
    let me = std::fs::read_link("/proc/thread-self").ok()?;
    let me = me.file_name()?.to_str()?.to_string();
    let mut threads = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let tid = entry.ok()?.file_name().into_string().ok()?;
        if tid == me {
            continue;
        }
        // A thread that ended since the listing is missing from the map
        // read after the slice, which then differs from the one before.
        if let Ok(stat) = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) {
            threads.insert(tid, stat.split_whitespace().next()?.parse().ok()?);
        }
    }
    Some(threads)
}

/// Timed slices of the probe.
#[derive(Debug)]
pub struct Gauge {
    table: Vec<u64>,
    state: u64,
    /// Start and seconds of every kept slice, in time order.
    slices: Vec<(Instant, f64)>,
    /// Slices dropped because another thread ran during them.
    rejected: usize,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// The probe, its table written (resident).
    pub fn new() -> Gauge {
        Gauge {
            table: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            state: 1,
            slices: Vec::new(),
            rejected: 0,
        }
    }

    /// MiB of the probe's own resident memory, which the peak RSS figure
    /// leaves out.
    pub fn resident_mib(&self) -> f64 {
        (self.table.len() * 8) as f64 / (1024.0 * 1024.0)
    }

    /// Runs the probe's loop once: its start and seconds.
    fn time_once(&mut self) -> (Instant, f64) {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..READS {
            self.state = self
                .state
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            acc = acc.wrapping_add(self.table[(self.state >> SHIFT) as usize]);
        }
        black_box(acc);
        (t, t.elapsed().as_secs_f64())
    }

    /// Times slices until one runs while no other thread of the process
    /// ran, or until a further attempt could not end by `until`; returns
    /// whether a slice was kept.
    pub fn slice(&mut self, until: Instant) -> bool {
        self.slice_alone(until, other_threads_cpu_ns)
    }

    /// [`Gauge::slice`], with the other threads' CPU times read by
    /// `others`.
    fn slice_alone(
        &mut self,
        until: Instant,
        mut others: impl FnMut() -> Option<BTreeMap<String, u64>>,
    ) -> bool {
        while Instant::now() + ATTEMPT_ROOM <= until {
            let before = others();
            let slice = self.time_once();
            if before.is_some() && before == others() {
                self.slices.push(slice);
                return true;
            }
            self.rejected += 1;
        }
        false
    }

    /// Slices kept so far.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Slices dropped so far because another thread ran during them.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// The median slowdown over the whole run against the reference
    /// machine; `None` before any slice.
    pub fn slowdown(&self) -> Option<f64> {
        self.slowdown_since(0)
    }

    /// The median slowdown of the slices after the first `first`, or
    /// `None` when there are none.
    pub fn slowdown_since(&self, first: usize) -> Option<f64> {
        let secs: Vec<f64> = self.slices.get(first..)?.iter().map(|&(_, s)| s).collect();
        (!secs.is_empty()).then(|| median(&secs) / REFERENCE_S)
    }

    /// The slowdown around `t`: the median of the slices within
    /// [`WINDOW`] of it, or of all slices when none is that close.
    pub fn slowdown_at(&self, t: Instant) -> Option<f64> {
        let from = self.slices.partition_point(|&(at, _)| at + WINDOW < t);
        let to = self.slices.partition_point(|&(at, _)| at <= t + WINDOW);
        let near: Vec<f64> = self.slices[from..to].iter().map(|&(_, s)| s).collect();
        if near.is_empty() {
            self.slowdown()
        } else {
            Some(median(&near) / REFERENCE_S)
        }
    }

    /// A time measured at `t`, in reference-machine units.
    ///
    /// # Panics
    /// Panics before any slice was kept.
    pub fn scale(&self, t: Instant, value: f64) -> f64 {
        value
            / self
                .slowdown_at(t)
                .expect("the gauge keeps a slice before anything is scaled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_of_nearby_slices_over_the_reference() {
        let mut g = Gauge::new();
        assert_eq!(g.slowdown(), None);
        assert!(g.slice(Instant::now() + Duration::from_secs(5)));
        assert!(g.slowdown().is_some_and(|s| s > 0.0 && s.is_finite()));
        assert_eq!(g.resident_mib(), 16.0);

        let t = Instant::now();
        let r = REFERENCE_S;
        let s = Duration::from_secs;
        let close = |got: Option<f64>, want: f64| got.is_some_and(|g| (g - want).abs() < 1e-9);
        g.slices = [(0, 1.0), (1, 3.0), (2, 2.0), (9, 5.0), (10, 6.0)]
            .map(|(at, k)| (t + s(at), k * r))
            .to_vec();
        assert_eq!(g.len(), 5);
        assert!(close(g.slowdown(), 3.0));
        // Within 2.5 s of t + 1 s: the first three slices.
        assert!(close(g.slowdown_at(t + s(1)), 2.0));
        // Nearest-rank median of {5, 6}.
        assert!(close(g.slowdown_at(t + s(9)), 5.0));
        // Nothing within the window: the whole run's median.
        assert!(close(g.slowdown_at(t + s(6)), 3.0));
        assert!((g.scale(t + s(9), 10.0) - 2.0).abs() < 1e-9);
        // The last two slices alone; none after the fifth.
        assert!(close(g.slowdown_since(3), 5.0));
        assert_eq!(g.slowdown_since(5), None);
    }

    #[test]
    fn a_slice_is_kept_only_when_no_other_thread_ran_during_it() {
        let mut g = Gauge::new();
        let soon = || Instant::now() + Duration::from_millis(20);
        let threads = |ns: u64| Some(BTreeMap::from([("7".to_string(), ns)]));

        // Another thread's CPU time grows across every attempt.
        let mut ns = 0;
        let mut busy = || {
            ns += 1_000;
            threads(ns)
        };
        assert!(!g.slice_alone(soon(), &mut busy));
        assert_eq!(g.len(), 0);
        assert!(g.rejected() > 0);
        // A thread that ended or started during the slice ran in it.
        let mut reads = [threads(5), Some(BTreeMap::new())].into_iter().cycle();
        assert!(!g.slice_alone(soon(), || reads.next().flatten()));
        // Unreadable CPU times prove nothing.
        assert!(!g.slice_alone(soon(), || None));
        // No room before the deadline: no attempt at all.
        let rejected = g.rejected();
        assert!(!g.slice_alone(Instant::now(), || threads(5)));
        assert_eq!(g.rejected(), rejected);
        // Nothing else ran: the first attempt is kept.
        assert!(g.slice_alone(soon(), || threads(5)));
        assert_eq!((g.len(), g.rejected()), (1, rejected));
    }

    #[test]
    fn other_threads_are_read_from_proc_without_the_caller() {
        let me = std::fs::read_link("/proc/thread-self").unwrap();
        let me = me.file_name().unwrap().to_str().unwrap().to_string();
        let before = other_threads_cpu_ns().unwrap();
        assert!(!before.contains_key(&me));
        let (started, ran) = std::sync::mpsc::channel();
        let (finish, wait) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                let tid = std::fs::read_link("/proc/thread-self").unwrap();
                let t = Instant::now();
                while t.elapsed() < Duration::from_millis(2) {
                    std::hint::spin_loop();
                }
                started.send(tid).unwrap();
                let _ = wait.recv();
            });
            let tid = ran.recv().unwrap();
            let tid = tid.file_name().unwrap().to_str().unwrap();
            let during = other_threads_cpu_ns().unwrap();
            assert!(!before.contains_key(tid) && during.contains_key(tid));
            finish.send(()).unwrap();
        });
    }
}
