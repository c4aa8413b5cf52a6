//! Order statistics, resource readings and input fingerprints shared by
//! every workload.

use crate::gauge::Gauge;
use crate::heap;
use std::time::{Duration, Instant};

/// Percentiles the tail search tries, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 80.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9, which have no
    // exact binary form, from rounding one rank too high.
    (p / 100.0 * n as f64 - 1e-9)
        .ceil()
        .clamp(1.0, n.max(1) as f64) as usize
}

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the sample at or below it.
///
/// # Panics
/// Panics on an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile of a histogram: the index of the bucket that
/// holds the `p`th percentile of the samples counted in `counts`, or
/// `None` when it counts none.
pub fn nearest_rank_bucket(counts: &[u64], p: f64) -> Option<usize> {
    let n: u64 = counts.iter().sum();
    let want = u64::try_from(rank(usize::try_from(n).ok()?, p)).ok()?;
    let mut seen = 0;
    counts.iter().position(|&c| {
        seen += c;
        n > 0 && seen >= want
    })
}

/// How many samples lie beyond the nearest-rank `p`th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when the sample is too small for any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// A sorted latency sample in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` into a sample.
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, or `None` on an empty sample.
    pub fn pct(&self, p: f64) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| nearest_rank(&self.sorted, p))
    }

    /// The median, or `None` on an empty sample.
    pub fn median(&self) -> Option<f64> {
        self.pct(50.0)
    }
}

/// Median of a non-empty slice of values (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec())
        .median()
        .expect("median of an empty sample")
}

/// Set-ups per run, each on different inputs drawn from the seed: the
/// cost of a set-up depends on where its candidates lie (60 random
/// venues took from 6 to 9 ms to build a world; offline queries take from
/// 18 to 40 ms), so the median over several inputs keeps the figure from
/// following the seed. The Gowalla-like world takes 0.2 s a set-up and
/// varies less; it sets up fewer times.
pub const SETUP_REPS: usize = 21;
pub const SETUP_REPS_LARGE: usize = 11;

/// How long after a set-up the gauge may try for a slice that runs alone.
const SETUP_GAUGE_WAIT: Duration = Duration::from_millis(50);

/// The median of `reps` set-ups, in seconds: scaled to the reference
/// machine, and as measured. `once(i)` runs the `i`th and returns its
/// seconds, and `gauge` takes a slice after each. The set-ups are scaled
/// by the slowdown of those slices alone; later phases load the machine
/// differently.
pub fn setup_s(
    gauge: &mut Gauge,
    reps: usize,
    mut once: impl FnMut(usize) -> Result<f64, String>,
) -> Result<(f64, f64), String> {
    let first = gauge.len();
    let mut secs = Vec::with_capacity(reps);
    for i in 0..reps {
        secs.push(once(i)?);
        gauge.slice(Instant::now() + SETUP_GAUGE_WAIT);
    }
    let slowdown = gauge
        .slowdown_since(first)
        .ok_or("no gauge slice after a set-up ran alone")?;
    let unscaled = median(&secs);
    Ok((unscaled / slowdown, unscaled))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not exist.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The percentile of the live heap that is the end-to-end memory
/// metric (see [`crate::heap`]).
pub const HEAP_PERCENTILE: f64 = 99.0;

/// How high the process's memory ran, MiB, read right after a timed
/// phase.
#[derive(Debug, Clone, Copy)]
pub struct Peaks {
    /// The [`HEAP_PERCENTILE`]th percentile of the live heap over
    /// allocations: the end-to-end metric.
    pub heap_pct_mib: f64,
    /// The highest live heap: shown, but one more retained epoch moves it.
    pub heap_peak_mib: f64,
    /// The resident set (`VmHWM`), where `/proc` offers it: shown, but
    /// it moves in allocator-sized steps between identical runs.
    pub rss_mib: Option<f64>,
}

/// The record since the start or the last [`reset_peaks`].
pub fn peaks() -> Result<Peaks, String> {
    Ok(Peaks {
        heap_pct_mib: heap::percentile_mib(HEAP_PERCENTILE).ok_or("nothing was allocated")?,
        heap_peak_mib: heap::peak_mib(),
        rss_mib: peak_rss_mib(),
    })
}

/// Starts a new record, so that [`peaks`] covers only what follows: a
/// repeated attempt must not report the checks of the one before. Where
/// the kernel offers no reset of `VmHWM`, that one stays.
pub fn reset_peaks() {
    heap::reset();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// 64-bit FNV-1a over the generated inputs: a generator change shows up
/// as a different fingerprint, not as a speed change.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes an integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 90.0), 9.0);
        assert_eq!(nearest_rank(&s, 91.0), 10.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.1), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        let s = Sample::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.median(), Some(2.0));
        assert_eq!(Sample::default().median(), None);

        // The same ten samples, 1..=10, as a histogram with one bucket
        // per value (bucket 0 empty).
        let mut counts = vec![1u64; 12];
        counts[0] = 0;
        counts[11] = 0;
        assert_eq!(nearest_rank_bucket(&counts, 50.0), Some(5));
        assert_eq!(nearest_rank_bucket(&counts, 91.0), Some(10));
        assert_eq!(nearest_rank_bucket(&counts, 0.1), Some(1));
        counts[3] += 100;
        assert_eq!(nearest_rank_bucket(&counts, 50.0), Some(3));
        assert_eq!(nearest_rank_bucket(&[0, 0], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(50), Some(80.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        for n in [20, 50, 100, 200, 1_000, 10_000] {
            let p = highest_supported(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let mut a = Fnv::default();
        a.f64(1.0);
        let mut b = Fnv::default();
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::default();
        c.f64(1.0);
        assert_eq!(a.finish(), c.finish());
    }
}
