//! PIN-JOIN — candidate-centric influence join over the μ-aggregate
//! object tree (an extension beyond the paper).
//!
//! Every paper solver is *object-centric*: each row of `A_2D` plays its
//! pruning rules against the candidate R-tree, so the outer loop runs
//! `r` times regardless of how many objects a single candidate could
//! have decided at once. This module inverts the join: per candidate
//! `c`, one traversal of the [`MbrTree`] (objects bulk-loaded with
//! per-node aggregate bounds `min_mu`/`max_mu` over `minMaxRadius`,
//! Definition 5) classifies whole *subtrees* of objects:
//!
//! * **Subtree IA** — `maxDist(c, node.mbr) ≤ node.min_mu` lifts
//!   Theorem 1 to the node: for every object `O` below, `maxDist(c, O's
//!   MBR) ≤ maxDist(c, node.mbr) ≤ min_mu ≤ μ(O)` (containment
//!   monotonicity, see `pinocchio_geo::Mbr::max_dist_sq`), hence all of
//!   `O`'s positions lie within `μ(O)` and `c` influences `O`. The
//!   node's `count` objects are credited in O(1).
//! * **Subtree NIB** — `minDist(c, node.mbr) > node.max_mu` (or `c`
//!   outside the node's union-of-inflated-MBRs `nib_mbr`) lifts
//!   Theorem 2: `minDist(c, O) ≥ minDist(c, node.mbr) > max_mu ≥ μ(O)`,
//!   so no object below is influenced. The subtree is discarded in O(1).
//! * **Mixed** nodes descend; surviving leaf entries are re-tested
//!   individually and only the truly undecided ones fall through to the
//!   exact [`PairEval`](crate::eval::PairEval) validation (Definition 2
//!   with Lemma 4 early stopping).
//!
//! The verdicts are identical to NA's — both subtree rules only decide
//! pairs the per-object rules would also decide, conservatively — but
//! the decision cost drops from `Θ(r)` region tests per candidate to
//! one tree descent, with `subtrees_pruned_ia` / `subtrees_pruned_nib`
//! counting the O(1) bulk decisions.
//!
//! [`solve_par`] adds a parallel filter phase: candidates are striped
//! across workers that share PIN-VO's monotone atomic `maxminInf`
//! bound, so a candidate whose post-traversal `maxInf` already trails
//! the best validated influence is skipped without validating a single
//! pair. The exactness argument is the same as `parallel::solve_vo`'s:
//! the bound only ever holds exact counts `≤ I*`, and skips/kills
//! require `maxInf` *strictly* below it, so every candidate attaining
//! `I*` is fully validated under every schedule and the smallest-index
//! tie-break is deterministic.

use crate::parallel::join_worker;
use crate::problem::PrimeLs;
use crate::result::{argmax_smallest_index, Algorithm, SolveError, SolveResult, SolveStats};
use crate::vo;
use pinocchio_geo::Point;
use pinocchio_index::{JoinEvent, MbrTree};
use pinocchio_prob::ProbabilityFunction;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Runs one candidate through the μ-aggregate tree: bulk and per-entry
/// IA/NIB decisions land in `stats` (`decided_by_ia` / `decided_by_nib`
/// count *objects*, the `subtrees_*` counters count O(1) node
/// decisions), the undecided object indices are collected into
/// `undecided`, and the certified influence (IA total) is returned.
pub(crate) fn classify(
    tree: &MbrTree<usize>,
    candidate: &Point,
    undecided: &mut Vec<u32>,
    stats: &mut SolveStats,
) -> u32 {
    undecided.clear();
    let mut influenced = 0u64;
    let mut excluded = 0u64;
    let traversal = tree.influence_join(candidate, |event| match event {
        JoinEvent::SubtreeInfluenced { count } => influenced += count,
        JoinEvent::SubtreeExcluded { count } => excluded += count,
        JoinEvent::EntryInfluenced(_) => influenced += 1,
        JoinEvent::EntryExcluded(_) => excluded += 1,
        JoinEvent::EntryUndecided(&k) => undecided.push(u32::try_from(k).unwrap_or(u32::MAX)),
    });
    stats.decided_by_ia += influenced;
    stats.decided_by_nib += excluded;
    stats.subtrees_pruned_ia += traversal.subtrees_ia;
    stats.subtrees_pruned_nib += traversal.subtrees_nib;
    stats.join_nodes_visited += traversal.nodes_visited;
    u32::try_from(influenced).unwrap_or(u32::MAX)
}

/// Runs the sequential PIN-JOIN solver.
///
/// Computes the exact influence of every candidate (like NA and
/// PINOCCHIO it returns the full vector), so its only cost advantage
/// over PINOCCHIO is the hierarchical bulk classification; the
/// bound-driven candidate skipping needs [`solve_par`].
pub fn solve<P: ProbabilityFunction + Clone>(problem: &PrimeLs<P>) -> SolveResult {
    let start = Instant::now();
    let mut pair = problem.pair_eval();
    let mut stats = SolveStats::default();

    let a2d = problem.a2d();
    stats.uninfluenceable_objects = (a2d.entries().len() - a2d.influenceable()) as u64;
    let tree = problem.object_tree();

    let m = problem.candidates().len();
    let mut influences = vec![0u32; m];
    let tile_width = pair.tile_width();
    if tile_width <= 1 {
        // Historical per-candidate loop (Scalar / Blocked kernels):
        // verdict order, stats and counters exactly as before.
        let mut undecided: Vec<u32> = Vec::new();
        for (j, c) in problem.candidates().iter().enumerate() {
            let mut inf = classify(tree, c, &mut undecided, &mut stats);
            for &k in undecided.iter() {
                if pair.influences(c, k as usize, true, &mut stats) {
                    inf += 1;
                }
            }
            influences[j] = inf;
        }
    } else {
        // Log-blocked kernel: classify a tile of candidates, then
        // validate their (sorted) undecided sets object-major through
        // the shared tile loop, so objects shared across the tile are
        // evaluated while their arena blocks are cache-resident. The
        // zero bound disables the Strategy 1 kill — like the historical
        // loop, the sequential join validates every undecided pair.
        let mut buffers: Vec<Vec<u32>> = vec![Vec::new(); tile_width];
        let mut bounds = [(0u32, 0u32); crate::eval::LOG_TILE_WIDTH];
        let mut lo = 0usize;
        while lo < m {
            let hi = (lo + tile_width).min(m);
            for (s, j) in (lo..hi).enumerate() {
                let inf = classify(tree, &problem.candidates()[j], &mut buffers[s], &mut stats);
                buffers[s].sort_unstable();
                bounds[s] = (
                    inf,
                    inf + u32::try_from(buffers[s].len()).unwrap_or(u32::MAX),
                );
            }
            let tile: Vec<vo::TileCandidate<'_>> = (lo..hi)
                .enumerate()
                .map(|(s, j)| vo::TileCandidate {
                    index: j,
                    candidate: problem.candidates()[j],
                    vs: &buffers[s],
                    bounds: bounds[s],
                })
                .collect();
            vo::validate_tile(
                &mut pair,
                &tile,
                true,
                || 0,
                |j, exact| influences[j] = exact,
                &mut stats,
            );
            lo = hi;
        }
    }

    let (best_candidate, max_influence) = argmax_smallest_index(&influences)
        // pinocchio-lint: allow(panic-path) -- the builder rejects empty candidate sets (BuildError::NoCandidates), so the influence vector is non-empty
        .expect("at least one candidate by construction");

    SolveResult {
        algorithm: Algorithm::PinocchioJoin,
        best_candidate,
        best_location: problem.candidates()[best_candidate],
        max_influence,
        influences: Some(influences),
        stats,
        elapsed: start.elapsed(),
    }
}

/// Parallel PIN-JOIN: candidates striped over `threads` workers sharing
/// one monotone atomic `maxminInf` bound (see the module docs for the
/// exactness argument). Like `parallel::solve_vo` it reports only the
/// optimum (`influences: None`) — candidates whose traversal bounds
/// already lose are never validated — and its cost counters depend on
/// how fast the bound tightens, while the pair accounting stays
/// complete for every schedule.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn solve_par<P: ProbabilityFunction + Clone + Sync>(
    problem: &PrimeLs<P>,
    threads: usize,
) -> SolveResult {
    assert!(threads > 0, "need at least one thread");
    match try_solve_par(problem, threads) {
        Ok(result) => result,
        // pinocchio-lint: allow(panic-path) -- ZeroThreads is asserted away above and NoValidatedCandidate is impossible for builder-constructed problems; kept panicking for signature stability
        Err(e) => panic!("parallel PIN-JOIN invariant violated: {e}"),
    }
}

/// Fallible form of [`solve_par`]: returns [`SolveError::ZeroThreads`]
/// for `threads == 0` and [`SolveError::NoValidatedCandidate`] if no
/// candidate survives validation (impossible for builder-constructed
/// problems: the bound starts at zero, so each worker fully validates
/// its first candidate, and the global optimum is never skipped).
pub fn try_solve_par<P: ProbabilityFunction + Clone + Sync>(
    problem: &PrimeLs<P>,
    threads: usize,
) -> Result<SolveResult, SolveError> {
    if threads == 0 {
        return Err(SolveError::ZeroThreads);
    }
    let start = Instant::now();

    let a2d = problem.a2d();
    let uninfluenceable = (a2d.entries().len() - a2d.influenceable()) as u64;
    let tree = problem.object_tree();
    let m = problem.candidates().len();
    let chunk = m.div_ceil(threads).max(1);

    // The shared monotone bound: holds the largest exact influence
    // validated so far, by any worker. `fetch_max` keeps it monotone
    // under concurrent publishes, which is what makes sharing it safe.
    let bound = AtomicU32::new(0);

    let worker_results: Vec<(SolveStats, Option<(u32, usize)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..m)
            .step_by(chunk)
            .map(|lo| {
                let hi = (lo + chunk).min(m);
                let bound = &bound;
                scope.spawn(move || {
                    let mut pair = problem.pair_eval();
                    // 1 outside the log-blocked kernel — a 1-wide tile
                    // reproduces the historical classify → filter →
                    // validate sequence (and its stats) exactly.
                    let tile_width = pair.tile_width();
                    let mut stats = SolveStats::default();
                    let mut buffers: Vec<Vec<u32>> = vec![Vec::new(); tile_width];
                    let mut bounds = [(0u32, 0u32); crate::eval::LOG_TILE_WIDTH];
                    let mut best: Option<(u32, usize)> = None;
                    let mut tlo = lo;
                    while tlo < hi {
                        let thi = (tlo + tile_width).min(hi);
                        for (s, j) in (tlo..thi).enumerate() {
                            let min_inf = classify(
                                tree,
                                &problem.candidates()[j],
                                &mut buffers[s],
                                &mut stats,
                            );
                            if tile_width > 1 {
                                buffers[s].sort_unstable();
                            }
                            bounds[s] = (
                                min_inf,
                                min_inf + u32::try_from(buffers[s].len()).unwrap_or(u32::MAX),
                            );
                        }
                        // ordering: Acquire pairs with the Release half of the
                        // workers' `fetch_max` publishes below, so the filter
                        // observes every influence count published before it; a
                        // stale (smaller) value only admits a doomed candidate
                        // to validation and can never skip a winner.
                        let cutoff = bound.load(Ordering::Acquire);
                        let tile: Vec<vo::TileCandidate<'_>> = (tlo..thi)
                            .enumerate()
                            .filter(|&(s, _)| {
                                if bounds[s].1 < cutoff {
                                    // Filter-phase skip: the traversal bounds
                                    // alone prove this candidate cannot win, so
                                    // its whole verification set is skipped
                                    // unevaluated.
                                    stats.candidates_skipped_by_bounds += 1;
                                    stats.pairs_skipped_by_bounds += buffers[s].len() as u64;
                                    false
                                } else {
                                    true
                                }
                            })
                            .map(|(s, j)| vo::TileCandidate {
                                index: j,
                                candidate: problem.candidates()[j],
                                vs: &buffers[s],
                                bounds: bounds[s],
                            })
                            .collect();
                        vo::validate_tile(
                            &mut pair,
                            &tile,
                            true,
                            // ordering: Acquire pairs with the `fetch_max` Release
                            // publishes — mid-validation kill tests observe fresh
                            // bounds; staleness is again only a cost, never an
                            // error.
                            || bound.load(Ordering::Acquire),
                            |j, exact| {
                                // ordering: AcqRel — the Release half publishes this
                                // exact count to the other workers' Acquire loads;
                                // the Acquire half orders the read-modify-write
                                // after earlier publishes so the bound is monotone
                                // non-decreasing.
                                bound.fetch_max(exact, Ordering::AcqRel);
                                match best {
                                    Some((inf, idx))
                                        if exact < inf || (exact == inf && idx < j) => {}
                                    _ => best = Some((exact, j)),
                                }
                            },
                            &mut stats,
                        );
                        tlo = thi;
                    }
                    (stats, best)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });

    let mut stats = SolveStats {
        uninfluenceable_objects: uninfluenceable,
        ..SolveStats::default()
    };
    let mut best: Option<(u32, usize)> = None;
    for (partial, local_best) in worker_results {
        stats += partial;
        if let Some((inf, j)) = local_best {
            match best {
                Some((binf, bidx)) if inf < binf || (inf == binf && bidx < j) => {}
                _ => best = Some((inf, j)),
            }
        }
    }
    let (max_influence, best_candidate) = best.ok_or(SolveError::NoValidatedCandidate)?;

    Ok(SolveResult {
        algorithm: Algorithm::PinocchioJoin,
        best_candidate,
        best_location: problem.candidates()[best_candidate],
        max_influence,
        influences: None,
        stats,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalKernel;
    use crate::naive;
    use pinocchio_data::{
        sample_candidate_group, GeneratorConfig, MovingObject, SyntheticGenerator,
    };
    use pinocchio_prob::PowerLawPf;

    fn synthetic_problem(tau: f64, seed: u64) -> PrimeLs<PowerLawPf> {
        let d = SyntheticGenerator::new(GeneratorConfig::small(60, seed)).generate();
        let (_, candidates) = sample_candidate_group(&d, 40, seed);
        PrimeLs::builder()
            .objects(d.objects().to_vec())
            .candidates(candidates)
            .probability_function(PowerLawPf::paper_default())
            .tau(tau)
            .build()
            .unwrap()
    }

    #[test]
    fn agrees_with_naive_on_synthetic_worlds() {
        for tau in [0.3, 0.5, 0.7, 0.9] {
            for seed in [1, 2] {
                let p = synthetic_problem(tau, seed);
                let na = naive::solve(&p);
                let join = solve(&p);
                assert_eq!(
                    join.influences, na.influences,
                    "influence vectors differ at tau={tau} seed={seed}"
                );
                assert_eq!(join.best_candidate, na.best_candidate);
                assert_eq!(join.max_influence, na.max_influence);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_and_naive() {
        for (tau, seed) in [(0.3, 3), (0.7, 4), (0.7, 5)] {
            let p = synthetic_problem(tau, seed);
            let seq = solve(&p);
            let na = naive::solve(&p);
            for threads in [1, 2, 8] {
                let par = solve_par(&p, threads);
                assert_eq!(
                    par.best_candidate, seq.best_candidate,
                    "tau={tau} seed={seed} threads={threads}"
                );
                assert_eq!(par.max_influence, seq.max_influence);
                assert_eq!(par.best_candidate, na.best_candidate);
                assert_eq!(par.max_influence, na.max_influence);
            }
        }
    }

    #[test]
    fn accounting_is_complete() {
        let p = synthetic_problem(0.7, 6);
        let influenceable_pairs = (p.a2d().influenceable() * p.candidates().len()) as u64;
        let seq = solve(&p);
        assert_eq!(seq.stats.accounted_pairs(), influenceable_pairs);
        assert_eq!(
            seq.stats.pairs_skipped_by_bounds, 0,
            "sequential never skips"
        );
        for threads in [1, 2, 8] {
            let par = solve_par(&p, threads);
            assert_eq!(
                par.stats.accounted_pairs(),
                influenceable_pairs,
                "threads={threads}"
            );
            assert_eq!(
                par.stats.uninfluenceable_objects,
                seq.stats.uninfluenceable_objects
            );
        }
    }

    #[test]
    fn subtree_counters_fire() {
        // A bigger world gives the tree internal levels whose aggregate
        // bounds can decide whole subtrees.
        // The aggregates sit in the tree, so every kernel and the
        // parallel filter phase must fire them too.
        let d = SyntheticGenerator::new(GeneratorConfig::small(400, 7)).generate();
        let (_, candidates) = sample_candidate_group(&d, 60, 7);
        for kernel in [EvalKernel::Scalar, EvalKernel::Blocked] {
            let p = PrimeLs::builder()
                .objects(d.objects().to_vec())
                .candidates(candidates.clone())
                .probability_function(PowerLawPf::paper_default())
                .tau(0.7)
                .evaluation_kernel(kernel)
                .build()
                .unwrap();
            for (driver, r) in [("sequential", solve(&p)), ("parallel", solve_par(&p, 4))] {
                assert!(r.stats.join_nodes_visited > 0, "{kernel:?} {driver}");
                assert!(
                    r.stats.subtrees_pruned_ia > 0,
                    "no subtree-IA decisions ({kernel:?} {driver}): {:?}",
                    r.stats
                );
                assert!(
                    r.stats.subtrees_pruned_nib > 0,
                    "no subtree-NIB decisions ({kernel:?} {driver}): {:?}",
                    r.stats
                );
            }
        }
    }

    #[test]
    fn all_uninfluenceable_world_returns_zero() {
        // Single-position objects cannot reach τ = 0.95 > PF(0) = 0.9.
        let p = PrimeLs::builder()
            .objects(vec![
                MovingObject::new(0, vec![Point::new(0.0, 0.0)]),
                MovingObject::new(1, vec![Point::new(5.0, 5.0)]),
            ])
            .candidates(vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.95)
            .build()
            .unwrap();
        let seq = solve(&p);
        assert_eq!(seq.max_influence, 0);
        assert_eq!(seq.best_candidate, 0, "smallest index wins a 0-tie");
        assert_eq!(seq.stats.uninfluenceable_objects, 2);
        for threads in [1, 2, 8] {
            let par = solve_par(&p, threads);
            assert_eq!(par.max_influence, 0);
            assert_eq!(par.best_candidate, 0, "threads={threads}");
            assert_eq!(par.stats.uninfluenceable_objects, 2);
        }
    }

    #[test]
    fn tie_break_prefers_smallest_index() {
        // Two symmetric clusters: candidates 0 and 1 each influence
        // exactly one object, so the verdict is a tie broken by index.
        let p = PrimeLs::builder()
            .objects(vec![
                MovingObject::new(0, vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)]),
                MovingObject::new(1, vec![Point::new(20.0, 0.0), Point::new(20.1, 0.0)]),
            ])
            .candidates(vec![Point::new(20.05, 0.0), Point::new(0.05, 0.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.7)
            .build()
            .unwrap();
        let na = naive::solve(&p);
        assert_eq!(na.max_influence, 1);
        let seq = solve(&p);
        assert_eq!(seq.best_candidate, 0);
        assert_eq!(seq.max_influence, 1);
        for threads in [1, 2, 8] {
            let par = solve_par(&p, threads);
            assert_eq!(par.best_candidate, 0, "threads={threads}");
            assert_eq!(par.max_influence, 1);
        }
    }

    #[test]
    fn try_solve_par_reports_zero_threads_as_error() {
        let p = synthetic_problem(0.7, 8);
        assert_eq!(try_solve_par(&p, 0).err(), Some(SolveError::ZeroThreads));
        assert!(try_solve_par(&p, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let p = synthetic_problem(0.7, 8);
        let _ = solve_par(&p, 0);
    }
}
