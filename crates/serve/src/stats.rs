//! `ServeStats` — the server's observability counter block.
//!
//! The serving layer obeys the same accounting discipline as the
//! solvers' [`SolveStats`](pinocchio_core::SolveStats): every request
//! line the server reads ends up in exactly one counter, mergeable
//! partials via `AddAssign`, and the invariants are asserted by tests
//! (and by the soak suite after every graceful shutdown). The block is
//! queryable in-band through the wire protocol's `stats` request.

use serde_json::{json, Value};

/// Upper bounds (microseconds, inclusive) of the queue-to-response
/// latency histogram buckets; one implicit overflow bucket follows.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 7] = [50, 100, 250, 500, 1_000, 5_000, 25_000];

/// Number of latency buckets (the bounds plus the overflow bucket).
pub const LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// Counters collected while serving.
///
/// ## Accounting invariant
///
/// Once the server has shut down gracefully, every request line it ever
/// read is accounted exactly once:
///
/// ```text
/// lines_received = malformed + shed + rejected_shutdown + control
///                + queries_completed() + updates_applied + update_errors
/// ```
///
/// and every completed query landed in exactly one latency bucket:
/// `queries_completed() == latency histogram total`. The writer's cost
/// is accounted per published epoch: `publish_us_total == 0` exactly
/// when `epochs_published == 0`. Mid-flight the
/// right-hand side lags `lines_received` by the requests still queued —
/// the `stats` endpoint reports live values, the invariant is asserted
/// at quiescence (see `accounting_is_complete_after_shutdown` in the
/// soak suite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Request lines read off all connections (every parse attempt).
    pub lines_received: u64,
    /// Lines rejected by the wire layer before admission (bad JSON,
    /// unknown op, unsupported version, invalid arguments).
    pub malformed: u64,
    /// Requests shed by the bounded admission/ingest queues (the typed
    /// `Overloaded` rejection — explicit backpressure, never blocking).
    pub shed: u64,
    /// Requests rejected because the server was already draining.
    pub rejected_shutdown: u64,
    /// Control commands honoured (`shutdown`).
    pub control: u64,
    /// Completed `best` queries.
    pub queries_best: u64,
    /// Completed `top_k` queries.
    pub queries_top_k: u64,
    /// Completed `influence_of` queries.
    pub queries_influence_of: u64,
    /// Completed `solve` queries (from-scratch solver dispatch).
    pub queries_solve: u64,
    /// Completed `heatmap` queries (each counted once, however many
    /// tile batches it streamed).
    pub queries_heatmap: u64,
    /// Completed `top_region` queries.
    pub queries_top_region: u64,
    /// Completed `stats` queries.
    pub queries_stats: u64,
    /// Completed `ping` queries.
    pub queries_ping: u64,
    /// Updates applied by the writer thread (each advanced the state).
    pub updates_applied: u64,
    /// Updates that failed validation (unknown id, duplicate id, …).
    pub update_errors: u64,
    /// Batches dispatched by the worker pool.
    pub batches: u64,
    /// Jobs carried by those batches (`>= batches`; the surplus is the
    /// batching win).
    pub batched_jobs: u64,
    /// From-scratch solver runs. `queries_solve - solve_runs` solves
    /// were answered from a batch-mate's shared result.
    pub solve_runs: u64,
    /// Snapshots published by the writer (monotone epoch count).
    pub epochs_published: u64,
    /// Writer time spent on published epochs, microseconds: clone the
    /// current world, apply the batch, publish. At least 1 per epoch.
    pub publish_us_total: u64,
    /// The slowest single epoch of `publish_us_total` (a level: merge
    /// takes the max).
    pub publish_us_max: u64,
    /// High-water mark of the admission queue depth (merge takes the
    /// max, not the sum — it is a level, not a flow).
    pub queue_high_water: u64,
    /// Queue-to-response latency histogram; bucket `i` counts completed
    /// queries with latency `<= LATENCY_BUCKET_BOUNDS_US[i]` (last
    /// bucket: everything slower).
    pub latency_us: [u64; LATENCY_BUCKETS],
}

impl std::ops::AddAssign for ServeStats {
    /// Merges a partial counter block (e.g. one worker's) into `self`.
    /// Every flow counter is a sum; the level counters
    /// (`queue_high_water`, `publish_us_max`) merge via `max`, so merging
    /// partials in any order reproduces the global totals.
    fn add_assign(&mut self, rhs: ServeStats) {
        self.lines_received += rhs.lines_received;
        self.malformed += rhs.malformed;
        self.shed += rhs.shed;
        self.rejected_shutdown += rhs.rejected_shutdown;
        self.control += rhs.control;
        self.queries_best += rhs.queries_best;
        self.queries_top_k += rhs.queries_top_k;
        self.queries_influence_of += rhs.queries_influence_of;
        self.queries_solve += rhs.queries_solve;
        self.queries_heatmap += rhs.queries_heatmap;
        self.queries_top_region += rhs.queries_top_region;
        self.queries_stats += rhs.queries_stats;
        self.queries_ping += rhs.queries_ping;
        self.updates_applied += rhs.updates_applied;
        self.update_errors += rhs.update_errors;
        self.batches += rhs.batches;
        self.batched_jobs += rhs.batched_jobs;
        self.solve_runs += rhs.solve_runs;
        self.epochs_published += rhs.epochs_published;
        self.publish_us_total += rhs.publish_us_total;
        self.publish_us_max = self.publish_us_max.max(rhs.publish_us_max);
        self.queue_high_water = self.queue_high_water.max(rhs.queue_high_water);
        for (acc, v) in self.latency_us.iter_mut().zip(rhs.latency_us) {
            *acc += v;
        }
    }
}

impl ServeStats {
    /// Total queries completed by the worker pool.
    pub fn queries_completed(&self) -> u64 {
        self.queries_best
            + self.queries_top_k
            + self.queries_influence_of
            + self.queries_solve
            + self.queries_heatmap
            + self.queries_top_region
            + self.queries_stats
            + self.queries_ping
    }

    /// Total entries in the latency histogram.
    pub fn latency_total(&self) -> u64 {
        self.latency_us.iter().sum()
    }

    /// Request lines accounted for by some terminal outcome — at
    /// quiescence this must equal [`Self::lines_received`].
    pub fn accounted_lines(&self) -> u64 {
        self.malformed
            + self.shed
            + self.rejected_shutdown
            + self.control
            + self.queries_completed()
            + self.updates_applied
            + self.update_errors
    }

    /// Records one completed query's latency into the histogram.
    pub fn record_latency(&mut self, micros: u64) {
        let bucket = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(LATENCY_BUCKETS - 1);
        self.latency_us[bucket] += 1;
    }

    /// The block as a JSON object — the body of a `stats` response.
    pub fn to_json(&self) -> Value {
        let mut buckets = serde_json::Map::new();
        for (i, &count) in self.latency_us.iter().enumerate() {
            let label = match LATENCY_BUCKET_BOUNDS_US.get(i) {
                Some(bound) => format!("le_{bound}us"),
                None => "overflow".to_string(),
            };
            buckets.insert(label, json!(count));
        }
        json!({
            "lines_received": self.lines_received,
            "malformed": self.malformed,
            "shed": self.shed,
            "rejected_shutdown": self.rejected_shutdown,
            "control": self.control,
            "queries_best": self.queries_best,
            "queries_top_k": self.queries_top_k,
            "queries_influence_of": self.queries_influence_of,
            "queries_solve": self.queries_solve,
            "queries_heatmap": self.queries_heatmap,
            "queries_top_region": self.queries_top_region,
            "queries_stats": self.queries_stats,
            "queries_ping": self.queries_ping,
            "updates_applied": self.updates_applied,
            "update_errors": self.update_errors,
            "batches": self.batches,
            "batched_jobs": self.batched_jobs,
            "solve_runs": self.solve_runs,
            "epochs_published": self.epochs_published,
            "publish_us_total": self.publish_us_total,
            "publish_us_max": self.publish_us_max,
            "queue_high_water": self.queue_high_water,
            "latency_us": Value::Object(buckets),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(step: u64) -> ServeStats {
        let mut s = ServeStats {
            lines_received: step,
            malformed: step + 1,
            shed: step + 2,
            rejected_shutdown: step + 3,
            control: step + 4,
            queries_best: step + 5,
            queries_top_k: step + 6,
            queries_influence_of: step + 7,
            queries_solve: step + 8,
            queries_stats: step + 9,
            queries_ping: step + 10,
            updates_applied: step + 11,
            update_errors: step + 12,
            batches: step + 13,
            batched_jobs: step + 14,
            solve_runs: step + 15,
            epochs_published: step + 16,
            queue_high_water: step + 17,
            queries_heatmap: step + 18,
            queries_top_region: step + 19,
            publish_us_total: step + 20,
            publish_us_max: step + 21,
            ..Default::default()
        };
        for (i, b) in s.latency_us.iter_mut().enumerate() {
            *b = step + i as u64;
        }
        s
    }

    #[test]
    fn merge_is_fieldwise_sum_with_max_high_water() {
        let a = filled(1);
        let b = filled(100);
        let mut merged = a;
        merged += b;
        assert_eq!(merged.lines_received, a.lines_received + b.lines_received);
        assert_eq!(merged.malformed, a.malformed + b.malformed);
        assert_eq!(merged.queries_solve, a.queries_solve + b.queries_solve);
        assert_eq!(merged.solve_runs, a.solve_runs + b.solve_runs);
        assert_eq!(
            merged.queue_high_water,
            a.queue_high_water.max(b.queue_high_water),
            "high-water is a level: merge takes the max"
        );
        assert_eq!(
            merged.publish_us_total,
            a.publish_us_total + b.publish_us_total
        );
        assert_eq!(
            merged.publish_us_max,
            a.publish_us_max.max(b.publish_us_max),
            "the slowest epoch is a level: merge takes the max"
        );
        for i in 0..LATENCY_BUCKETS {
            assert_eq!(merged.latency_us[i], a.latency_us[i] + b.latency_us[i]);
        }
        // Merging in either order agrees (commutative).
        let mut other = b;
        other += a;
        assert_eq!(merged, other);
    }

    #[test]
    fn accounting_identity_is_structural() {
        // A block built exclusively through terminal outcomes satisfies
        // the identity by construction.
        let mut s = ServeStats::default();
        for _ in 0..7 {
            s.lines_received += 1;
            s.malformed += 1;
        }
        for _ in 0..5 {
            s.lines_received += 1;
            s.shed += 1;
        }
        for _ in 0..11 {
            s.lines_received += 1;
            s.queries_best += 1;
            s.record_latency(40);
        }
        for _ in 0..3 {
            s.lines_received += 1;
            s.updates_applied += 1;
        }
        s.lines_received += 1;
        s.control += 1;
        assert_eq!(s.accounted_lines(), s.lines_received);
        assert_eq!(s.queries_completed(), s.latency_total());
    }

    #[test]
    fn latency_buckets_cover_the_full_range() {
        let mut s = ServeStats::default();
        s.record_latency(0);
        s.record_latency(50); // inclusive upper bound
        s.record_latency(51);
        s.record_latency(25_000);
        s.record_latency(25_001); // overflow
        s.record_latency(u64::MAX);
        assert_eq!(s.latency_us[0], 2);
        assert_eq!(s.latency_us[1], 1);
        assert_eq!(s.latency_us[LATENCY_BUCKETS - 2], 1);
        assert_eq!(s.latency_us[LATENCY_BUCKETS - 1], 2);
        assert_eq!(s.latency_total(), 6);
    }

    #[test]
    fn json_shape_is_stable() {
        let s = filled(3);
        let v = s.to_json();
        assert_eq!(v.get("lines_received").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("queue_high_water").and_then(Value::as_u64), Some(20));
        assert_eq!(v.get("queries_heatmap").and_then(Value::as_u64), Some(21));
        assert_eq!(
            v.get("queries_top_region").and_then(Value::as_u64),
            Some(22)
        );
        assert_eq!(v.get("publish_us_total").and_then(Value::as_u64), Some(23));
        assert_eq!(v.get("publish_us_max").and_then(Value::as_u64), Some(24));
        let buckets = v
            .get("latency_us")
            .and_then(Value::as_object)
            .expect("histogram object");
        assert_eq!(buckets.len(), LATENCY_BUCKETS);
        assert!(buckets.get("le_50us").is_some());
        assert!(buckets.get("overflow").is_some());
    }
}
