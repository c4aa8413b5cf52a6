//! The one solve call: [`SolveOptions`] in, a [`SolveResult`] out, for
//! every algorithm, thread count, shard count and `k`.
//!
//! The paper has two solve shapes, and each is written once here:
//!
//! * **Counting pass** (NA, and Algorithm 2's PIN) — a per-object body
//!   (`naive::count`, `pinocchio::count`) counts objects `lo..hi` of one
//!   shard into an influence vector and [`SolveStats`]. A work item is
//!   one (shard, object stripe), and the pass sums the partials.
//!   `inf(c)` is a plain sum over objects and every counter is per
//!   object, so both sums are exact for every split: influences *and*
//!   stats equal the sequential solver's.
//! * **Bounded pass** (Algorithm 3's PIN-VO, PIN-VO\* and PIN-JOIN) —
//!   one filter per shard (`vo::prepare` with or without pruning, or
//!   `join::prepare`), then the one Strategy 1 driver, `vo::validate`,
//!   over the merged partials. It certifies the `k` best candidates
//!   and reports no influence vector.
//!
//! An unsharded solve is the one-shard solve. Every thread either pass
//! starts comes from `parallel::fan_out`, which never starts more
//! workers than the core count, and at one worker runs on the calling
//! thread: a one-thread solve is the sequential algorithm, cost
//! counters included.

use crate::parallel::{fan_out, worker_count};
use crate::problem::PrimeLs;
use crate::result::{Algorithm, SolveError, SolveResult, SolveStats};
use crate::shard::ShardTimings;
use crate::topk::TopKEntry;
use crate::vo::Prepared;
use crate::{join, naive, pinocchio, vo};
use pinocchio_prob::ProbabilityFunction;
use std::ops::Range;
use std::time::Instant;

/// What to solve and how: the algorithm, the worker-thread budget and
/// the length of [`SolveResult::top`].
///
/// ```
/// use pinocchio_core::{Algorithm, PrimeLs, SolveOptions};
/// use pinocchio_data::MovingObject;
/// use pinocchio_geo::Point;
/// use pinocchio_prob::PowerLawPf;
///
/// let problem = PrimeLs::builder()
///     .objects(vec![
///         MovingObject::new(0, vec![Point::new(0.0, 0.0)]),
///         MovingObject::new(1, vec![Point::new(0.2, 0.0)]),
///         MovingObject::new(2, vec![Point::new(30.0, 0.0)]),
///     ])
///     .candidates(vec![Point::new(0.1, 0.0), Point::new(30.1, 0.0), Point::new(99.0, 0.0)])
///     .probability_function(PowerLawPf::paper_default())
///     .tau(0.7)
///     .build()
///     .unwrap();
/// let options = SolveOptions { k: 2, ..SolveOptions::new(Algorithm::PinocchioVo) };
/// let top2 = problem.try_solve(&options).unwrap().top;
/// assert_eq!((top2[0].candidate, top2[0].influence), (0, 2)); // both downtown users
/// assert_eq!((top2[1].candidate, top2[1].influence), (1, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOptions {
    /// The solver to run.
    pub algorithm: Algorithm,
    /// Worker threads to use at most; the solve never starts more than
    /// the core count or its number of work items. Zero is
    /// [`SolveError::ZeroThreads`].
    pub threads: usize,
    /// How many of the best candidates [`SolveResult::top`] ranks (all
    /// of them when `k` exceeds the candidate count). Zero is
    /// [`SolveError::ZeroK`].
    pub k: usize,
}

impl SolveOptions {
    /// `algorithm` on one thread, ranking only the optimum.
    pub fn new(algorithm: Algorithm) -> Self {
        SolveOptions {
            algorithm,
            threads: 1,
            k: 1,
        }
    }
}

/// Parallel NA with the full influence vector, for callers that need
/// an exact oracle of every candidate's influence.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn solve_naive_par<P: ProbabilityFunction + Clone>(
    problem: &PrimeLs<P>,
    threads: usize,
) -> SolveResult {
    let options = SolveOptions {
        threads,
        ..SolveOptions::new(Algorithm::Naive)
    };
    match problem.try_solve(&options) {
        Ok(result) => result,
        // pinocchio-lint: allow(panic-path) -- documented `# Panics` contract for zero threads; NoValidatedCandidate is impossible for builder-validated problems
        Err(e) => panic!("{e}"),
    }
}

/// Solves one object partition: `shards` hold disjoint objects and the
/// same candidates in the same order. Reports per-shard filter time.
pub(crate) fn run<P: ProbabilityFunction + Clone>(
    shards: &[&PrimeLs<P>],
    options: &SolveOptions,
) -> Result<(SolveResult, ShardTimings), SolveError> {
    let &SolveOptions {
        algorithm,
        threads,
        k,
    } = options;
    if threads == 0 {
        return Err(SolveError::ZeroThreads);
    }
    if k == 0 {
        return Err(SolveError::ZeroK);
    }
    let start = Instant::now();
    let Pass {
        ranked,
        influences,
        stats,
        shard_seconds,
        merge_start,
    } = match algorithm {
        Algorithm::Naive | Algorithm::Pinocchio => {
            let (influences, stats, shard_seconds) = count_influences(shards, algorithm, threads);
            let merge_start = Instant::now();
            Pass {
                ranked: rank(influences.iter().copied().zip(0..).collect(), k),
                influences: Some(influences),
                stats,
                shard_seconds,
                merge_start,
            }
        }
        Algorithm::PinocchioVo => bound(shards, |p| vo::prepare(p, true), k, threads),
        Algorithm::PinocchioVoStar => bound(shards, |p| vo::prepare(p, false), k, threads),
        Algorithm::PinocchioJoin => bound(shards, join::prepare, k, threads),
    };
    let candidates = shards.first().map_or(&[][..], |p| p.candidates());
    let &(max_influence, best_candidate) =
        ranked.first().ok_or(SolveError::NoValidatedCandidate)?;
    let top = ranked
        .iter()
        .map(|&(influence, candidate)| TopKEntry {
            candidate,
            location: candidates[candidate],
            influence,
        })
        .collect();
    let timings = ShardTimings {
        prepare_seconds: shard_seconds,
        coordinator_seconds: merge_start.elapsed().as_secs_f64(),
    };
    let result = SolveResult {
        algorithm,
        best_candidate,
        best_location: candidates[best_candidate],
        max_influence,
        influences,
        top,
        stats,
        elapsed: start.elapsed(),
    };
    Ok((result, timings))
}

/// The counting pass: NA's (`Naive`) or PIN's exact influence vector
/// over `shards`, its counters and the seconds each shard took.
pub(crate) fn count_influences<P: ProbabilityFunction + Clone>(
    shards: &[&PrimeLs<P>],
    algorithm: Algorithm,
    threads: usize,
) -> (Vec<u32>, SolveStats, Vec<f64>) {
    // A work item is one stripe of a shard's objects, at most one
    // stripe per worker.
    let stripes = worker_count(threads, shards.iter().map(|p| p.objects().len()).sum());
    let items: Vec<(usize, Range<usize>)> = shards
        .iter()
        .enumerate()
        .flat_map(|(s, p)| {
            let n = p.objects().len();
            let chunk = n.div_ceil(stripes).max(1);
            (0..n)
                .step_by(chunk)
                .map(move |lo| (s, lo..n.min(lo + chunk)))
        })
        .collect();
    let partials = fan_out(items.len(), threads, |i| {
        let t = Instant::now();
        let (s, objects) = items[i].clone();
        let problem = shards[s];
        let mut influences = vec![0u32; problem.candidates().len()];
        let mut stats = SolveStats::default();
        let mut pair = problem.pair_eval();
        if algorithm == Algorithm::Naive {
            let candidates = problem.candidates();
            naive::count(&mut pair, candidates, objects, &mut influences, &mut stats);
        } else {
            let entries = problem.a2d().entries().get(objects).unwrap_or_default();
            let tree = problem.candidate_tree();
            let credit = |j: usize, _| influences[j] += 1;
            pinocchio::count(&mut pair, tree, entries, false, &mut stats, credit);
        }
        (s, influences, stats, t.elapsed().as_secs_f64())
    });

    let m = shards.first().map_or(0, |p| p.candidates().len());
    let mut influences = vec![0u32; m];
    let mut stats = SolveStats::default();
    let mut seconds = vec![0.0f64; shards.len()];
    for (s, partial, partial_stats, secs) in partials {
        for (acc, v) in influences.iter_mut().zip(partial) {
            *acc += v;
        }
        stats += partial_stats;
        seconds[s] += secs;
    }
    (influences, stats, seconds)
}

/// What a pass hands back to [`run`].
struct Pass {
    /// `(exact influence, candidate)`, ranked, at most `k` of them.
    ranked: Vec<(u32, usize)>,
    /// Every candidate's exact influence (counting pass only).
    influences: Option<Vec<u32>>,
    stats: SolveStats,
    /// Seconds of filter (or counting) work per shard.
    shard_seconds: Vec<f64>,
    /// When the merge began.
    merge_start: Instant,
}

/// The bounded pass: one `filter` per shard, then the Strategy 1
/// driver over the merged partials.
fn bound<P: ProbabilityFunction + Clone>(
    shards: &[&PrimeLs<P>],
    filter: impl Fn(&PrimeLs<P>) -> Prepared + Sync,
    k: usize,
    threads: usize,
) -> Pass {
    let filtered = fan_out(shards.len(), threads, |s| {
        let t = Instant::now();
        let partial = filter(shards[s]);
        (partial, t.elapsed().as_secs_f64())
    });
    let merge_start = Instant::now();
    let (partials, shard_seconds): (Vec<Prepared>, Vec<f64>) = filtered.into_iter().unzip();
    let validated = vo::validate(shards, &partials, k, threads);
    Pass {
        ranked: validated.ranked,
        influences: None,
        stats: validated.stats,
        shard_seconds,
        merge_start,
    }
}

/// The `k` best `(influence, candidate)` pairs, ranked by influence
/// descending, ties towards the smaller candidate index — the one
/// ranking every solve reports.
pub(crate) fn rank(mut pairs: Vec<(u32, usize)>, k: usize) -> Vec<(u32, usize)> {
    let by_rank = |a: &(u32, usize), b: &(u32, usize)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
    if k < pairs.len() {
        pairs.select_nth_unstable_by(k, by_rank);
        pairs.truncate(k);
    }
    pairs.sort_unstable_by(by_rank);
    pairs
}
