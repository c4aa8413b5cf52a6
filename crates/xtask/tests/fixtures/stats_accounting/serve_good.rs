//! Fixture: a service entry point wired into `ServeStats`.
//!
//! Mirrors the real server's discipline: workers accumulate batch-local
//! counters and merge them under the shared lock at batch boundaries,
//! so the accounting identity (`lines_received` equals the sum of every
//! terminal outcome) holds at quiescence. The writer accounts its time
//! per published epoch, so `publish_us_total` is zero exactly when
//! `epochs_published` is.

use crate::stats::ServeStats;

/// Serves and reports the merged counters on drain.
pub fn serve_requests() -> ServeStats {
    let mut stats = ServeStats::default();
    stats.lines_received += 1;
    stats.queries_best += 1;
    let publish_us = 1;
    stats.epochs_published += 1;
    stats.publish_us_total += publish_us;
    stats.publish_us_max = stats.publish_us_max.max(publish_us);
    stats
}
