//! Parallel solvers — an extension beyond the paper.
//!
//! The paper's future work mentions scaling to dynamic scenarios; an
//! obvious first step is exploiting cores. [`try_solve`] is the one
//! entry point, for every algorithm and thread count. Two
//! parallelisation shapes are used:
//!
//! * **Object striping** ([`solve_naive`], [`solve_pinocchio`]) —
//!   influence counting is embarrassingly parallel over *objects*: each
//!   thread processes an object stripe against all candidates and
//!   produces a partial influence vector plus partial [`SolveStats`];
//!   partials are merged at the end. The pruning rules apply per-object,
//!   so PINOCCHIO stripes the same way.
//!
//! * **Work-stealing validation** (PIN-VO, PIN-VO*, PIN-JOIN) — the
//!   filter runs once, then the Strategy 1 driver (`vo::validate`) lets
//!   worker threads pull candidates from a shared priority queue ordered
//!   by `(maxInf, minInf)` under one monotone atomic cut-off. A stale
//!   (too small) cut-off only costs wasted work, never a wrong verdict,
//!   so the parallel solve returns exactly the sequential answer (the
//!   exactness argument is in the module docs of `vo.rs`).
//!
//! Scoped threads from `std` are used; workers own their partial state
//! and the only shared mutables are the candidate queue (mutex) and the
//! cut-off (atomic).

use crate::problem::PrimeLs;
use crate::result::{argmax_smallest_index, Algorithm, SolveError, SolveResult, SolveStats};
use crate::vo;
use pinocchio_prob::ProbabilityFunction;
use std::time::Instant;

/// Joins a worker, re-raising its panic payload on the calling thread.
///
/// `resume_unwind` propagates the worker's original panic (message and
/// all) instead of wrapping it in a second, less informative one — the
/// solver itself never panics here, it only forwards.
pub(crate) fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Solves `problem` with `algorithm` on `threads` worker threads —
/// the same answer as [`PrimeLs::solve`] for every thread count.
///
/// NA and PIN stripe objects ([`solve_naive`], [`solve_pinocchio`]).
/// PIN-VO, PIN-VO* and PIN-JOIN run their filter on the calling thread
/// and validate through the shared Strategy 1 driver; they report only
/// the optimum (`influences: None`), and their cost counters depend on
/// how fast the cut-off tightens, while the pair accounting is complete
/// for every schedule. At `threads == 1` every algorithm runs its
/// sequential solver on the calling thread.
///
/// [`SolveError::ZeroThreads`] for `threads == 0`;
/// [`SolveError::NoValidatedCandidate`] is impossible for
/// builder-constructed problems, whose candidate sets are non-empty.
pub fn try_solve<P: ProbabilityFunction + Clone>(
    problem: &PrimeLs<P>,
    algorithm: Algorithm,
    threads: usize,
) -> Result<SolveResult, SolveError> {
    let start = Instant::now();
    let partial = match algorithm {
        _ if threads == 0 => return Err(SolveError::ZeroThreads),
        _ if threads == 1 => return Ok(problem.solve(algorithm)),
        Algorithm::Naive => return Ok(solve_naive(problem, threads)),
        Algorithm::Pinocchio => return Ok(solve_pinocchio(problem, threads)),
        Algorithm::PinocchioVo => vo::prepare(problem, true),
        Algorithm::PinocchioVoStar => vo::prepare(problem, false),
        Algorithm::PinocchioJoin => crate::join::prepare(problem),
    };
    vo::validate(&[problem], &[partial], 1, threads).into_result(
        algorithm,
        problem.candidates(),
        start,
    )
}

/// Parallel NA: exhaustive counting with `threads` worker threads.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn solve_naive<P: ProbabilityFunction + Clone + Sync>(
    problem: &PrimeLs<P>,
    threads: usize,
) -> SolveResult {
    assert!(threads > 0, "need at least one thread");
    let start = Instant::now();
    let m = problem.candidates().len();
    let objects = problem.objects();
    let chunk = (objects.len().div_ceil(threads)).max(1);

    let partials: Vec<(Vec<u32>, SolveStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..objects.len())
            .step_by(chunk)
            .map(|lo| {
                let hi = (lo + chunk).min(objects.len());
                scope.spawn(move || {
                    let mut pair = problem.pair_eval();
                    let mut inf = vec![0u32; m];
                    let mut stats = SolveStats::default();
                    for k in lo..hi {
                        for (j, c) in problem.candidates().iter().enumerate() {
                            if pair.influences(c, k, false, &mut stats) {
                                inf[j] += 1;
                            }
                        }
                    }
                    (inf, stats)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });

    finish(problem, partials, Algorithm::Naive, start)
}

/// Parallel PINOCCHIO: per-object pruning and validation distributed
/// over `threads` worker threads (the candidate R-tree is shared
/// read-only). Every pruning counter is accumulated per worker and
/// merged, so the stats are identical to the sequential solver's.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn solve_pinocchio<P: ProbabilityFunction + Clone + Sync>(
    problem: &PrimeLs<P>,
    threads: usize,
) -> SolveResult {
    assert!(threads > 0, "need at least one thread");
    let start = Instant::now();
    let m = problem.candidates().len();

    let tree = problem.candidate_tree();
    let entries = problem.a2d().entries();
    let chunk = entries.len().div_ceil(threads);

    let partials: Vec<(Vec<u32>, SolveStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = entries
            .chunks(chunk.max(1))
            .map(|stripe| {
                scope.spawn(move || {
                    let mut pair = problem.pair_eval();
                    let mut inf = vec![0u32; m];
                    let mut stats = SolveStats::default();
                    let mut undecided: Vec<usize> = Vec::new();
                    for entry in stripe {
                        let Some(regions) = entry.regions else {
                            stats.uninfluenceable_objects += 1;
                            continue;
                        };
                        undecided.clear();
                        let mut ia_hits = 0u64;
                        let mut nib_members = 0u64;
                        tree.query_region(
                            |node| node.intersects(&regions.nib_mbr()),
                            |p| regions.in_non_influence_boundary(p),
                            &mut |p, &j| {
                                nib_members += 1;
                                if regions.in_influence_arcs(p) {
                                    ia_hits += 1;
                                    inf[j] += 1;
                                } else {
                                    undecided.push(j);
                                }
                            },
                        );
                        stats.decided_by_ia += ia_hits;
                        stats.decided_by_nib += m as u64 - nib_members;
                        for &j in &undecided {
                            if pair.influences(
                                &problem.candidates()[j],
                                entry.index,
                                false,
                                &mut stats,
                            ) {
                                inf[j] += 1;
                            }
                        }
                    }
                    (inf, stats)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });

    finish(problem, partials, Algorithm::Pinocchio, start)
}

fn finish<P: ProbabilityFunction + Clone>(
    problem: &PrimeLs<P>,
    partials: Vec<(Vec<u32>, SolveStats)>,
    algorithm: Algorithm,
    start: Instant,
) -> SolveResult {
    let m = problem.candidates().len();
    let mut influences = vec![0u32; m];
    let mut stats = SolveStats::default();
    for (partial, partial_stats) in partials {
        for (acc, v) in influences.iter_mut().zip(partial) {
            *acc += v;
        }
        stats += partial_stats;
    }
    let (best_candidate, max_influence) = argmax_smallest_index(&influences)
        // pinocchio-lint: allow(panic-path) -- the builder rejects empty candidate sets (BuildError::NoCandidates), so the merged influence vector is non-empty
        .expect("at least one candidate");
    SolveResult {
        algorithm,
        best_candidate,
        best_location: problem.candidates()[best_candidate],
        max_influence,
        influences: Some(influences),
        stats,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::A2d;
    use crate::{naive, pinocchio};
    use pinocchio_data::{GeneratorConfig, SyntheticGenerator};
    use pinocchio_prob::PowerLawPf;

    fn solve_vo(p: &PrimeLs<PowerLawPf>, threads: usize) -> SolveResult {
        try_solve(p, Algorithm::PinocchioVo, threads).unwrap()
    }

    fn problem(seed: u64) -> PrimeLs<PowerLawPf> {
        let d = SyntheticGenerator::new(GeneratorConfig::small(60, seed)).generate();
        let (_, candidates) = pinocchio_data::sample_candidate_group(&d, 30, seed);
        PrimeLs::builder()
            .objects(d.objects().to_vec())
            .candidates(candidates)
            .probability_function(PowerLawPf::paper_default())
            .tau(0.7)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_naive_matches_sequential() {
        let p = problem(31);
        let seq = naive::solve(&p);
        for threads in [1, 2, 4, 7] {
            let par = solve_naive(&p, threads);
            assert_eq!(par.influences, seq.influences, "threads={threads}");
            assert_eq!(par.best_candidate, seq.best_candidate);
            assert_eq!(par.stats, seq.stats, "stats parity, threads={threads}");
        }
    }

    #[test]
    fn parallel_pinocchio_matches_sequential() {
        let p = problem(32);
        let seq = pinocchio::solve(&p);
        for threads in [1, 3, 8] {
            let par = solve_pinocchio(&p, threads);
            assert_eq!(par.influences, seq.influences, "threads={threads}");
            assert_eq!(par.best_candidate, seq.best_candidate);
            assert_eq!(par.stats, seq.stats, "stats parity, threads={threads}");
        }
    }

    #[test]
    fn parallel_vo_matches_sequential_vo_and_naive() {
        for seed in [32, 35, 36] {
            let p = problem(seed);
            let seq = crate::vo::solve(&p, true);
            let na = naive::solve(&p);
            for threads in [1, 2, 4, 8] {
                let par = solve_vo(&p, threads);
                assert_eq!(
                    par.best_candidate, seq.best_candidate,
                    "seed={seed} threads={threads}"
                );
                assert_eq!(
                    par.max_influence, seq.max_influence,
                    "seed={seed} threads={threads}"
                );
                assert_eq!(par.best_candidate, na.best_candidate);
                assert_eq!(par.max_influence, na.max_influence);
            }
        }
    }

    #[test]
    fn parallel_accounting_is_complete() {
        let p = problem(34);
        let a2d = A2d::build(p.objects(), p.pf(), p.tau());
        let influenceable_pairs = (a2d.influenceable() * p.candidates().len()) as u64;
        let all_pairs = (p.objects().len() * p.candidates().len()) as u64;
        for threads in [1, 3, 8] {
            let na = solve_naive(&p, threads);
            assert_eq!(
                na.stats.accounted_pairs(),
                all_pairs,
                "NA threads={threads}"
            );
            let pin = solve_pinocchio(&p, threads);
            assert_eq!(
                pin.stats.accounted_pairs(),
                influenceable_pairs,
                "PIN threads={threads}"
            );
            let vo = solve_vo(&p, threads);
            assert_eq!(
                vo.stats.accounted_pairs(),
                influenceable_pairs,
                "VO threads={threads}"
            );
        }
    }

    #[test]
    fn more_threads_than_objects_is_fine() {
        let p = problem(33);
        let par = solve_naive(&p, 500);
        let seq = naive::solve(&p);
        assert_eq!(par.influences, seq.influences);
        let vo_par = solve_vo(&p, 500);
        let vo_seq = crate::vo::solve(&p, true);
        assert_eq!(vo_par.best_candidate, vo_seq.best_candidate);
        assert_eq!(vo_par.max_influence, vo_seq.max_influence);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let p = problem(34);
        let _ = solve_naive(&p, 0);
    }

    #[test]
    fn one_thread_is_the_sequential_solver() {
        let p = problem(33);
        for algorithm in Algorithm::WITH_EXTENSIONS {
            let seq = p.solve(algorithm);
            let one = try_solve(&p, algorithm, 1).unwrap();
            assert_eq!(one.influences, seq.influences, "{algorithm:?}");
            assert_eq!(
                (one.best_candidate, one.max_influence),
                (seq.best_candidate, seq.max_influence),
                "{algorithm:?}"
            );
            assert_eq!(one.stats, seq.stats, "{algorithm:?}");
        }
    }

    #[test]
    fn try_solve_reports_zero_threads_as_error() {
        let p = problem(34);
        for algorithm in Algorithm::WITH_EXTENSIONS {
            assert_eq!(
                try_solve(&p, algorithm, 0).err(),
                Some(SolveError::ZeroThreads),
                "{algorithm:?}"
            );
            assert!(try_solve(&p, algorithm, 2).is_ok(), "{algorithm:?}");
        }
    }
}
