//! In-process sharded solving — object-partitioned shard workers with
//! merged influence partials.
//!
//! `inf(c)` is a plain sum over objects (Definition 3), so the object
//! universe `Ω` shards cleanly: each shard owns a disjoint subset of the
//! objects (routed by a deterministic hash of the object id, see
//! [`shard_of`]) together with its own [`PrimeLs`] instance — position
//! arena, candidate R-tree, cached `A_2D`, μ-aggregate object tree and
//! log-PF table — while the candidate set is broadcast to every shard.
//!
//! A solve runs in two phases:
//!
//! 1. **Per-shard filter** — every shard runs the existing filter
//!    machinery (`vo::prepare` for PIN-VO/PIN-VO*, the μ-tree
//!    traversal `join::prepare` for PIN-JOIN, or a full
//!    per-shard solve for NA/PIN) producing per-candidate
//!    `{minInf, maxInf, verification set}` partials plus a partial
//!    [`SolveStats`].
//! 2. **Coordinator merge + residual verify** — the partials go to the
//!    one Strategy 1 driver (`vo::validate`), which merges them with the
//!    existing [`SolveStats`] `AddAssign` machinery and elementwise bound
//!    sums. Because the IA/NIB verdict of an (object, candidate) pair
//!    depends only on that object and the candidate — never on the other
//!    objects — the merged bounds are *equal* to the unsharded filter's
//!    bounds, and the merged verification sets are the disjoint union of
//!    the unsharded ones. The driver then runs the same schedule as every
//!    unsharded solve: a shared best-first candidate queue, a monotone
//!    atomic `maxminInf` cut-off, and workers that fan the residual
//!    to-verify pairs back out to the owning shard's evaluator.
//!
//! The exactness argument is the driver's (see `vo.rs`): the cut-off
//! only ever holds exact counts `≤ I*`, and skips or kills require
//! `maxInf` *strictly* below it, so every candidate attaining `I*` is
//! fully validated under every schedule and the smallest-index
//! tie-break returns the same `(j*, I*)` as every other solver — best
//! answers are bit-identical for every shard count.
//!
//! This module is the in-process seam for multi-process sharding: the
//! per-shard inputs ([`PrimeLs`]) and outputs (bounds + verification
//! sets + [`SolveStats`]) are plain data, so a future transport can move
//! them across processes without touching the merge. `pinocchio-serve`
//! holds its shards as plain in-process worlds; a transport trait comes
//! back when a second transport exists (DESIGN.md §16).

use crate::eval::EvalKernel;
use crate::problem::{BuildError, PrimeLs};
use crate::result::{argmax_smallest_index, Algorithm, SolveError, SolveResult, SolveStats};
use crate::vo;
use pinocchio_data::MovingObject;
use pinocchio_geo::Point;
use pinocchio_prob::ProbabilityFunction;
use std::time::Instant;

/// The shard that owns an object, from a deterministic hash of its wire
/// id — stable across processes, epochs and restarts, so routing never
/// depends on insertion order. The mixer is the splitmix64 finalizer
/// (full-avalanche, so sequential ids spread evenly).
pub fn shard_of(object_id: u64, shard_count: usize) -> usize {
    assert!(shard_count > 0, "need at least one shard");
    let mut h = object_id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    usize::try_from(h % (shard_count as u64)).unwrap_or(0)
}

/// An object-partitioned PRIME-LS instance: one [`PrimeLs`] per
/// non-empty shard (empty shards hold `None` and contribute zero to
/// every merge), all sharing one broadcast candidate set.
#[derive(Debug, Clone)]
pub struct ShardedPrimeLs<P> {
    /// Shard slot → that shard's problem instance (`None` when the hash
    /// routed no objects there).
    shards: Vec<Option<PrimeLs<P>>>,
    /// The broadcast candidate set (identical, in identical order, on
    /// every shard).
    candidates: Vec<Point>,
}

impl<P: ProbabilityFunction + Clone> ShardedPrimeLs<P> {
    /// Partitions `objects` across `shard_count` shards by
    /// [`shard_of`] and builds one [`PrimeLs`] per non-empty shard,
    /// broadcasting `candidates` to all of them. Validation is the
    /// builder's: an entirely empty object set is
    /// [`BuildError::NoObjects`], and candidate/τ/PF validation applies
    /// per shard exactly as unsharded.
    pub fn partition(
        objects: Vec<MovingObject>,
        candidates: Vec<Point>,
        pf: P,
        tau: f64,
        kernel: EvalKernel,
        shard_count: usize,
    ) -> Result<Self, BuildError> {
        let n = shard_count.max(1);
        let mut buckets: Vec<Vec<MovingObject>> = vec![Vec::new(); n];
        for object in objects {
            buckets[shard_of(object.id(), n)].push(object);
        }
        if buckets.iter().all(Vec::is_empty) {
            return Err(BuildError::NoObjects);
        }
        let mut shards = Vec::with_capacity(n);
        for bucket in buckets {
            if bucket.is_empty() {
                shards.push(None);
            } else {
                shards.push(Some(
                    PrimeLs::builder()
                        .objects(bucket)
                        .candidates(candidates.clone())
                        .probability_function(pf.clone())
                        .tau(tau)
                        .evaluation_kernel(kernel)
                        .build()?,
                ));
            }
        }
        Ok(ShardedPrimeLs { shards, candidates })
    }

    /// Assembles a sharded instance from already-built per-shard
    /// problems (the serve layer constructs these from its per-shard
    /// dynamic state). Every `Some` shard must carry the same candidate
    /// set in the same order; all-`None` is [`BuildError::NoObjects`].
    pub fn from_problems(shards: Vec<Option<PrimeLs<P>>>) -> Result<Self, BuildError> {
        let Some(first) = shards.iter().flatten().next() else {
            return Err(BuildError::NoObjects);
        };
        let candidates = first.candidates().to_vec();
        debug_assert!(
            shards
                .iter()
                .flatten()
                .all(|p| p.candidates().len() == candidates.len()),
            "every shard must broadcast the same candidate set"
        );
        Ok(ShardedPrimeLs { shards, candidates })
    }

    /// Number of shard slots (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-slot problem instances (`None` = empty shard).
    pub fn shards(&self) -> &[Option<PrimeLs<P>>] {
        &self.shards
    }

    /// The broadcast candidate set.
    pub fn candidates(&self) -> &[Point] {
        &self.candidates
    }

    /// Objects owned by each shard slot (0 for empty shards).
    pub fn object_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.as_ref().map_or(0, |p| p.objects().len()))
            .collect()
    }
}

/// Per-phase wall-clock of a sharded solve, measured per shard so the
/// scaling analysis does not depend on the host's core count: on a
/// machine with at least `shard_count` cores the solve's wall-clock is
/// the critical path `max(prepare) + coordinator`, which this type
/// reports directly even when the shards were timed on fewer cores.
#[derive(Debug, Clone)]
pub struct ShardTimings {
    /// Seconds each shard slot spent in its filter phase (0.0 for empty
    /// shards).
    pub prepare_seconds: Vec<f64>,
    /// Seconds the coordinator spent merging partials and running the
    /// residual verification.
    pub coordinator_seconds: f64,
}

impl ShardTimings {
    /// `max(prepare) + coordinator` — the wall-clock lower bound of this
    /// solve on a host with one core per shard.
    pub fn critical_path_seconds(&self) -> f64 {
        let slowest = self.prepare_seconds.iter().copied().fold(0.0, f64::max);
        slowest + self.coordinator_seconds
    }
}

/// Solves the sharded instance, merging per-shard partials at the
/// coordinator — same answers as the unsharded solvers, for every shard
/// count and thread count.
///
/// `threads` sets the residual-verify worker count; the filter phase
/// additionally runs one worker per non-empty shard whenever
/// `threads > 1` (with `threads == 1` everything runs on the calling
/// thread, reproducing a fully sequential schedule).
///
/// # Panics
/// Panics if `threads == 0`.
pub fn solve_sharded<P: ProbabilityFunction + Clone + Sync>(
    sharded: &ShardedPrimeLs<P>,
    algorithm: Algorithm,
    threads: usize,
) -> SolveResult {
    assert!(threads > 0, "need at least one thread");
    match try_solve_sharded(sharded, algorithm, threads) {
        Ok(result) => result,
        // pinocchio-lint: allow(panic-path) -- ZeroThreads is asserted away above and NoValidatedCandidate is impossible for constructor-validated shards; kept panicking to mirror the other solver entry points
        Err(e) => panic!("sharded solve invariant violated: {e}"),
    }
}

/// Fallible form of [`solve_sharded`]: [`SolveError::ZeroThreads`] for
/// `threads == 0`, [`SolveError::NoValidatedCandidate`] if no candidate
/// survives validation (impossible for constructor-validated instances,
/// whose candidate sets are non-empty).
pub fn try_solve_sharded<P: ProbabilityFunction + Clone + Sync>(
    sharded: &ShardedPrimeLs<P>,
    algorithm: Algorithm,
    threads: usize,
) -> Result<SolveResult, SolveError> {
    try_solve_sharded_timed(sharded, algorithm, threads).map(|(result, _)| result)
}

/// As [`try_solve_sharded`], additionally reporting per-shard phase
/// timings ([`ShardTimings`]) for scaling analysis.
pub fn try_solve_sharded_timed<P: ProbabilityFunction + Clone + Sync>(
    sharded: &ShardedPrimeLs<P>,
    algorithm: Algorithm,
    threads: usize,
) -> Result<(SolveResult, ShardTimings), SolveError> {
    if threads == 0 {
        return Err(SolveError::ZeroThreads);
    }
    let start = Instant::now();
    match algorithm {
        Algorithm::Naive | Algorithm::Pinocchio => solve_counts(sharded, algorithm, threads, start),
        Algorithm::PinocchioVo => {
            solve_bounds(sharded, algorithm, |p| vo::prepare(p, true), threads, start)
        }
        Algorithm::PinocchioVoStar => solve_bounds(
            sharded,
            algorithm,
            |p| vo::prepare(p, false),
            threads,
            start,
        ),
        Algorithm::PinocchioJoin => {
            solve_bounds(sharded, algorithm, crate::join::prepare, threads, start)
        }
    }
}

/// NA/PIN path: both compute exact per-candidate influence vectors, so
/// the merge is a plain elementwise sum of the per-shard vectors — the
/// same partial shape `parallel::solve_naive` merges across stripes,
/// with the hash partition standing in for the stripe boundaries.
fn solve_counts<P: ProbabilityFunction + Clone + Sync>(
    sharded: &ShardedPrimeLs<P>,
    algorithm: Algorithm,
    threads: usize,
    start: Instant,
) -> Result<(SolveResult, ShardTimings), SolveError> {
    let solve_one = |p: &PrimeLs<P>| -> SolveResult {
        match algorithm {
            Algorithm::Naive => crate::naive::solve(p),
            _ => crate::pinocchio::solve(p),
        }
    };
    let per_shard: Vec<Option<SolveResult>> = if threads == 1 {
        sharded
            .shards
            .iter()
            .map(|s| s.as_ref().map(solve_one))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = sharded
                .shards
                .iter()
                .map(|s| s.as_ref().map(|p| scope.spawn(|| solve_one(p))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.map(crate::parallel::join_worker))
                .collect()
        })
    };

    let merge_start = Instant::now();
    let m = sharded.candidates.len();
    let mut influences = vec![0u32; m];
    let mut stats = SolveStats::default();
    let mut prepare_seconds = vec![0.0f64; sharded.shards.len()];
    for (slot, result) in per_shard.into_iter().enumerate() {
        let Some(r) = result else { continue };
        prepare_seconds[slot] = r.elapsed.as_secs_f64();
        stats += r.stats;
        if let Some(partial) = r.influences {
            for (acc, v) in influences.iter_mut().zip(partial) {
                *acc += v;
            }
        }
    }
    let (best_candidate, max_influence) =
        argmax_smallest_index(&influences).ok_or(SolveError::NoValidatedCandidate)?;
    let timings = ShardTimings {
        prepare_seconds,
        coordinator_seconds: merge_start.elapsed().as_secs_f64(),
    };
    Ok((
        SolveResult {
            algorithm,
            best_candidate,
            best_location: sharded.candidates[best_candidate],
            max_influence,
            influences: Some(influences),
            stats,
            elapsed: start.elapsed(),
        },
        timings,
    ))
}

/// VO/VO*/JOIN path: per-shard filter fan-out, then the Strategy 1
/// driver over the merged partials.
fn solve_bounds<P: ProbabilityFunction + Clone + Sync>(
    sharded: &ShardedPrimeLs<P>,
    algorithm: Algorithm,
    filter: impl Fn(&PrimeLs<P>) -> vo::Prepared + Sync,
    threads: usize,
    start: Instant,
) -> Result<(SolveResult, ShardTimings), SolveError> {
    let active: Vec<(usize, &PrimeLs<P>)> = sharded
        .shards
        .iter()
        .enumerate()
        .filter_map(|(slot, s)| s.as_ref().map(|p| (slot, p)))
        .collect();

    let prepare_one = |p: &PrimeLs<P>| -> (vo::Prepared, f64) {
        let t = Instant::now();
        let partial = filter(p);
        (partial, t.elapsed().as_secs_f64())
    };
    let prepared: Vec<(vo::Prepared, f64)> = if threads == 1 {
        active.iter().map(|&(_, p)| prepare_one(p)).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = active
                .iter()
                .map(|&(_, p)| scope.spawn(|| prepare_one(p)))
                .collect();
            handles
                .into_iter()
                .map(crate::parallel::join_worker)
                .collect()
        })
    };
    let mut prepare_seconds = vec![0.0f64; sharded.shards.len()];
    let mut partials: Vec<vo::Prepared> = Vec::with_capacity(active.len());
    for ((slot, _), (partial, secs)) in active.iter().zip(prepared) {
        prepare_seconds[*slot] = secs;
        partials.push(partial);
    }

    let coord_start = Instant::now();
    let problems: Vec<&PrimeLs<P>> = active.iter().map(|&(_, p)| p).collect();
    let result = vo::validate(&problems, &partials, 1, threads).into_result(
        algorithm,
        &sharded.candidates,
        start,
    )?;
    let timings = ShardTimings {
        prepare_seconds,
        coordinator_seconds: coord_start.elapsed().as_secs_f64(),
    };
    Ok((result, timings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use pinocchio_data::{sample_candidate_group, GeneratorConfig, SyntheticGenerator};
    use pinocchio_prob::PowerLawPf;

    fn world(seed: u64, users: usize, cands: usize) -> (Vec<MovingObject>, Vec<Point>) {
        let d = SyntheticGenerator::new(GeneratorConfig::small(users, seed)).generate();
        let (_, candidates) = sample_candidate_group(&d, cands, seed);
        (d.objects().to_vec(), candidates)
    }

    fn unsharded(objects: &[MovingObject], candidates: &[Point], tau: f64) -> PrimeLs<PowerLawPf> {
        PrimeLs::builder()
            .objects(objects.to_vec())
            .candidates(candidates.to_vec())
            .probability_function(PowerLawPf::paper_default())
            .tau(tau)
            .build()
            .unwrap()
    }

    fn sharded(
        objects: &[MovingObject],
        candidates: &[Point],
        tau: f64,
        n: usize,
    ) -> ShardedPrimeLs<PowerLawPf> {
        ShardedPrimeLs::partition(
            objects.to_vec(),
            candidates.to_vec(),
            PowerLawPf::paper_default(),
            tau,
            EvalKernel::Scalar,
            n,
        )
        .unwrap()
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for n in [1, 2, 4, 8, 13] {
            for id in 0..500u64 {
                let s = shard_of(id, n);
                assert!(s < n);
                assert_eq!(s, shard_of(id, n), "routing must be stable");
            }
        }
        // Sequential ids must spread: every one of 4 shards sees a share.
        let mut counts = [0usize; 4];
        for id in 0..1000u64 {
            counts[shard_of(id, 4)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 150),
            "splitmix spread too skewed: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_of_rejects_zero_shards() {
        let _ = shard_of(1, 0);
    }

    #[test]
    fn partition_rejects_empty_inputs() {
        let (objects, candidates) = world(1, 10, 5);
        let err = ShardedPrimeLs::partition(
            Vec::new(),
            candidates.clone(),
            PowerLawPf::paper_default(),
            0.7,
            EvalKernel::Scalar,
            4,
        )
        .unwrap_err();
        assert_eq!(err, BuildError::NoObjects);
        let err = ShardedPrimeLs::partition(
            objects,
            Vec::new(),
            PowerLawPf::paper_default(),
            0.7,
            EvalKernel::Scalar,
            4,
        )
        .unwrap_err();
        assert_eq!(err, BuildError::NoCandidates);
        assert_eq!(
            ShardedPrimeLs::<PowerLawPf>::from_problems(vec![None, None]).unwrap_err(),
            BuildError::NoObjects
        );
    }

    #[test]
    fn sharded_matches_unsharded_for_every_algorithm_and_shard_count() {
        for (tau, seed) in [(0.5, 11), (0.7, 12)] {
            let (objects, candidates) = world(seed, 80, 30);
            let reference = unsharded(&objects, &candidates, tau);
            for n in [1, 2, 4, 8] {
                let s = sharded(&objects, &candidates, tau, n);
                assert_eq!(s.shard_count(), n);
                for algorithm in Algorithm::WITH_EXTENSIONS {
                    let seq = reference.solve(algorithm);
                    for threads in [1, 3] {
                        let par = solve_sharded(&s, algorithm, threads);
                        assert_eq!(
                            par.best_candidate, seq.best_candidate,
                            "{algorithm:?} tau={tau} seed={seed} shards={n} threads={threads}"
                        );
                        assert_eq!(par.max_influence, seq.max_influence);
                        assert_eq!(
                            (par.best_location.x.to_bits(), par.best_location.y.to_bits()),
                            (seq.best_location.x.to_bits(), seq.best_location.y.to_bits())
                        );
                        assert_eq!(par.algorithm, algorithm);
                    }
                }
            }
        }
    }

    #[test]
    fn counts_path_reproduces_sequential_influences_and_stats() {
        let (objects, candidates) = world(13, 70, 25);
        let reference = unsharded(&objects, &candidates, 0.7);
        for n in [2, 4, 8] {
            let s = sharded(&objects, &candidates, 0.7, n);
            let na = solve_sharded(&s, Algorithm::Naive, 2);
            let na_seq = naive::solve(&reference);
            assert_eq!(na.influences, na_seq.influences, "shards={n}");
            assert_eq!(na.stats, na_seq.stats, "NA stats are partition-invariant");
            let pin = solve_sharded(&s, Algorithm::Pinocchio, 2);
            let pin_seq = crate::pinocchio::solve(&reference);
            assert_eq!(pin.influences, pin_seq.influences, "shards={n}");
            assert_eq!(
                pin.stats, pin_seq.stats,
                "PIN stats are partition-invariant"
            );
        }
    }

    #[test]
    fn merged_filter_bounds_equal_unsharded_bounds() {
        // The soundness core of the coordinator: elementwise sums of the
        // per-shard prepare partials reproduce the unsharded prepare —
        // bounds and (A2d-derived) counters alike — for 2/4/8 shards.
        let (objects, candidates) = world(14, 90, 30);
        let reference = unsharded(&objects, &candidates, 0.7);
        let whole = vo::prepare(&reference, true);
        let m = candidates.len();
        for n in [2, 4, 8] {
            let s = sharded(&objects, &candidates, 0.7, n);
            let mut min_inf = vec![0u32; m];
            let mut max_inf = vec![0u32; m];
            let mut stats = SolveStats::default();
            let mut vs_sizes = vec![0u64; m];
            for problem in s.shards().iter().flatten() {
                let prep = vo::prepare(problem, true);
                for (acc, v) in min_inf.iter_mut().zip(&prep.min_inf) {
                    *acc += v;
                }
                for (acc, v) in max_inf.iter_mut().zip(&prep.max_inf) {
                    *acc += v;
                }
                for (acc, vs) in vs_sizes.iter_mut().zip(&prep.vs_store) {
                    *acc += vs.len() as u64;
                }
                stats += prep.stats;
            }
            assert_eq!(min_inf, whole.min_inf, "shards={n}");
            assert_eq!(max_inf, whole.max_inf, "shards={n}");
            assert_eq!(stats, whole.stats, "prepare counters merge exactly");
            let whole_sizes: Vec<u64> = whole.vs_store.iter().map(|v| v.len() as u64).collect();
            assert_eq!(vs_sizes, whole_sizes, "vs sets are a disjoint union");
            // skipped + evaluated = total: the filter accounts every
            // influenceable pair as decided or still-to-verify.
            let influenceable = reference.a2d().influenceable() as u64;
            let to_verify: u64 = vs_sizes.iter().sum();
            assert_eq!(
                stats.decided_by_ia + stats.decided_by_nib + to_verify,
                influenceable * m as u64,
                "shards={n}"
            );
        }
    }

    #[test]
    fn solve_stats_merge_survives_every_counter() {
        // AddAssign is a fieldwise sum, so partial order must not matter
        // and no counter may be dropped — including all-zero (empty
        // shard) partials and a partial carrying the whole load.
        let partial = |base: u64| SolveStats {
            decided_by_ia: base + 1,
            decided_by_nib: base + 2,
            validated_pairs: base + 3,
            positions_evaluated: base + 4,
            candidates_fully_validated: base + 5,
            candidates_skipped_by_bounds: base + 6,
            pairs_skipped_by_bounds: base + 7,
            uninfluenceable_objects: base + 8,
            blocks_pruned: base + 9,
            positions_skipped_by_blocks: base + 10,
            subtrees_pruned_ia: base + 11,
            subtrees_pruned_nib: base + 12,
            join_nodes_visited: base + 13,
            log_band_fallbacks: base + 14,
            cells_resolved_ia: base + 15,
            cells_resolved_nib: base + 16,
            cells_refined: base + 17,
        };
        for n in [2usize, 4, 8] {
            // One empty-shard partial, one carrying 10x the load of the
            // rest — the all-objects-on-one-shard shape.
            let mut partials: Vec<SolveStats> = (0..n as u64).map(|s| partial(s * 100)).collect();
            partials[0] = SolveStats::default();
            if n > 1 {
                partials[1] = partial(1000);
            }
            let mut forward = SolveStats::default();
            for p in &partials {
                forward += *p;
            }
            let mut backward = SolveStats::default();
            for p in partials.iter().rev() {
                backward += *p;
            }
            assert_eq!(forward, backward, "merge order must not matter (n={n})");
            assert_eq!(
                forward.accounted_pairs(),
                partials
                    .iter()
                    .map(SolveStats::accounted_pairs)
                    .sum::<u64>(),
                "accounting identity distributes over the merge (n={n})"
            );
            assert_eq!(
                forward.positions_evaluated,
                partials.iter().map(|p| p.positions_evaluated).sum::<u64>()
            );
            assert_eq!(
                forward.join_nodes_visited,
                partials.iter().map(|p| p.join_nodes_visited).sum::<u64>()
            );
            assert_eq!(
                forward.log_band_fallbacks,
                partials.iter().map(|p| p.log_band_fallbacks).sum::<u64>()
            );
        }
    }

    #[test]
    fn sharded_accounting_is_complete() {
        let (objects, candidates) = world(15, 80, 30);
        let reference = unsharded(&objects, &candidates, 0.7);
        let influenceable_pairs = (reference.a2d().influenceable() * candidates.len()) as u64;
        let all_pairs = (objects.len() * candidates.len()) as u64;
        for n in [2, 4, 8] {
            let s = sharded(&objects, &candidates, 0.7, n);
            for threads in [1, 3] {
                let na = solve_sharded(&s, Algorithm::Naive, threads);
                assert_eq!(na.stats.accounted_pairs(), all_pairs, "NA shards={n}");
                for algorithm in [
                    Algorithm::Pinocchio,
                    Algorithm::PinocchioVo,
                    Algorithm::PinocchioVoStar,
                    Algorithm::PinocchioJoin,
                ] {
                    let r = solve_sharded(&s, algorithm, threads);
                    assert_eq!(
                        r.stats.accounted_pairs(),
                        influenceable_pairs,
                        "{algorithm:?} shards={n} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_single_owner_shards_are_handled() {
        // Two objects across 8 shards: at least six slots are empty.
        let (objects, candidates) = world(16, 40, 20);
        let few: Vec<MovingObject> = objects.iter().take(2).cloned().collect();
        let s = sharded(&few, &candidates, 0.7, 8);
        assert!(s.object_counts().iter().filter(|&&c| c == 0).count() >= 6);
        let reference = unsharded(&few, &candidates, 0.7);
        for algorithm in Algorithm::WITH_EXTENSIONS {
            let par = solve_sharded(&s, algorithm, 2);
            let seq = reference.solve(algorithm);
            assert_eq!(par.best_candidate, seq.best_candidate, "{algorithm:?}");
            assert_eq!(par.max_influence, seq.max_influence);
        }

        // All objects routed to one shard: renumber ids so every object
        // hashes to slot 0 of 4.
        let mut owner_ids = (0u64..).filter(|&id| shard_of(id, 4) == 0);
        let skewed: Vec<MovingObject> = objects
            .iter()
            .map(|o| MovingObject::new(owner_ids.next().unwrap(), o.positions().to_vec()))
            .collect();
        let s = sharded(&skewed, &candidates, 0.7, 4);
        let counts = s.object_counts();
        assert_eq!(counts[0], skewed.len(), "hash must route all to slot 0");
        assert_eq!(counts[1..].iter().sum::<usize>(), 0);
        let reference = unsharded(&skewed, &candidates, 0.7);
        for algorithm in Algorithm::WITH_EXTENSIONS {
            let par = solve_sharded(&s, algorithm, 2);
            let seq = reference.solve(algorithm);
            assert_eq!(par.best_candidate, seq.best_candidate, "{algorithm:?}");
            assert_eq!(par.max_influence, seq.max_influence);
        }
    }

    #[test]
    fn zero_threads_is_an_error() {
        let (objects, candidates) = world(17, 20, 10);
        let s = sharded(&objects, &candidates, 0.7, 2);
        assert_eq!(
            try_solve_sharded(&s, Algorithm::PinocchioVo, 0).err(),
            Some(SolveError::ZeroThreads)
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics_on_infallible_entry() {
        let (objects, candidates) = world(17, 20, 10);
        let s = sharded(&objects, &candidates, 0.7, 2);
        let _ = solve_sharded(&s, Algorithm::PinocchioVo, 0);
    }

    #[test]
    fn timings_report_per_shard_prepare_and_critical_path() {
        let (objects, candidates) = world(18, 60, 20);
        let s = sharded(&objects, &candidates, 0.7, 4);
        let (result, timings) =
            try_solve_sharded_timed(&s, Algorithm::PinocchioVo, 1).expect("solvable");
        assert_eq!(result.algorithm, Algorithm::PinocchioVo);
        assert_eq!(timings.prepare_seconds.len(), 4);
        let slowest = timings
            .prepare_seconds
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        assert!(timings.critical_path_seconds() >= slowest);
        assert!(timings.critical_path_seconds() >= timings.coordinator_seconds);
        // Empty slots report exactly zero.
        for (slot, count) in s.object_counts().iter().enumerate() {
            if *count == 0 {
                assert_eq!(timings.prepare_seconds[slot], 0.0);
            }
        }
    }

    #[test]
    fn log_blocked_kernel_shards_bit_identically() {
        let (objects, candidates) = world(19, 80, 30);
        let reference =
            unsharded(&objects, &candidates, 0.7).with_evaluation_kernel(EvalKernel::LogBlocked);
        let s = ShardedPrimeLs::partition(
            objects,
            candidates,
            PowerLawPf::paper_default(),
            0.7,
            EvalKernel::LogBlocked,
            4,
        )
        .unwrap();
        for algorithm in Algorithm::WITH_EXTENSIONS {
            let par = solve_sharded(&s, algorithm, 3);
            let seq = reference.solve(algorithm);
            assert_eq!(par.best_candidate, seq.best_candidate, "{algorithm:?}");
            assert_eq!(par.max_influence, seq.max_influence);
        }
    }
}
