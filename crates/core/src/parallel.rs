//! The one fan-out every solve runs its threads through — an extension
//! beyond the paper.
//!
//! [`fan_out`] runs a closure over `0..items` on scoped worker threads
//! and returns the results in item order. Its worker count,
//! [`worker_count`], is `min(threads, cores, items)`: no solve starts
//! more workers than `available_parallelism()` reports, whatever thread
//! count a caller asks for. At one worker everything runs inline on the
//! calling thread, so a one-thread solve is the sequential algorithm.
//!
//! Three callers share it: the counting pass (one item per shard and
//! object stripe), the bounded pass's per-shard filter (one item per
//! shard) and the Strategy 1 driver's validation workers (one item per
//! worker). Workers own their partial state; the only shared mutables
//! are the driver's candidate queue (mutex) and cut-off (atomic).

use std::num::NonZeroUsize;

/// Worker threads for `items` work items under a budget of `threads`:
/// never more than the budget, the items or the cores, and never zero.
/// The core count is only asked for when more than one worker could run.
pub(crate) fn worker_count(threads: usize, items: usize) -> usize {
    let wanted = threads.min(items);
    if wanted <= 1 {
        return 1;
    }
    wanted.min(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs `f(i)` for every `i` in `0..items` and returns the results in
/// item order, on [`worker_count`]`(threads, items)` scoped workers;
/// worker `w` takes items `w`, `w + workers`, …. At one worker every
/// item runs on the calling thread. A worker's panic is re-raised on the
/// calling thread with its original payload (`resume_unwind`), so the
/// fan-out itself never panics, it only forwards.
///
/// The scope's join is the happens-before edge that publishes every
/// worker's result to the caller (DESIGN.md §8).
pub(crate) fn fan_out<R: Send>(
    items: usize,
    threads: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let workers = worker_count(threads, items);
    if workers == 1 {
        return (0..items).map(f).collect();
    }
    let f = &f;
    let mut lanes: Vec<std::vec::IntoIter<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || (w..items).step_by(workers).map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                    .into_iter()
            })
            .collect()
    });
    (0..items)
        .filter_map(|i| lanes[i % workers].next())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalKernel;
    use crate::problem::tests::solve_on;
    use crate::problem::PrimeLs;
    use crate::result::{Algorithm, SolveError, SolveResult};
    use crate::solve::solve_naive_par;
    use crate::state::A2d;
    use pinocchio_prob::PowerLawPf;

    fn solve_with(
        p: &PrimeLs<PowerLawPf>,
        algorithm: Algorithm,
        threads: usize,
    ) -> Result<SolveResult, SolveError> {
        solve_on(p, algorithm, threads, 1)
    }

    fn solve_vo(p: &PrimeLs<PowerLawPf>, threads: usize) -> SolveResult {
        solve_with(p, Algorithm::PinocchioVo, threads).unwrap()
    }

    fn problem(seed: u64) -> PrimeLs<PowerLawPf> {
        crate::problem::tests::synthetic(60, 30, seed, 0.7)
    }

    #[test]
    fn worker_count_never_exceeds_cores_or_items() {
        // Computes the cap only: no thread is started.
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert!(worker_count(10_000, 60) <= cores.min(60));
        assert_eq!(worker_count(10_000, 1), 1, "one item runs inline");
        for (threads, items) in [(0, 0), (0, 5), (5, 0), (1, 10_000), (3, 2), (2, 3)] {
            let w = worker_count(threads, items);
            assert!(w >= 1, "never zero workers ({threads}, {items})");
            assert!(w <= threads.max(1) && w <= items.max(1) && w <= cores);
        }
    }

    #[test]
    fn parallel_naive_matches_sequential() {
        // Every stripe runs NA's tiled loop, so stats match under the
        // candidate-tiling kernel too.
        for kernel in [EvalKernel::Scalar, EvalKernel::LogBlocked] {
            let p = problem(31).with_evaluation_kernel(kernel);
            let seq = p.solve(Algorithm::Naive);
            for threads in [1, 2, 4, 7] {
                let par = solve_with(&p, Algorithm::Naive, threads).unwrap();
                assert_eq!(par.influences, seq.influences, "threads={threads}");
                assert_eq!(par.best_candidate, seq.best_candidate);
                assert_eq!(par.stats, seq.stats, "{kernel:?} stats, threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_pinocchio_matches_sequential() {
        let p = problem(32);
        let seq = p.solve(Algorithm::Pinocchio);
        for threads in [1, 3, 8] {
            let par = solve_with(&p, Algorithm::Pinocchio, threads).unwrap();
            assert_eq!(par.influences, seq.influences, "threads={threads}");
            assert_eq!(par.best_candidate, seq.best_candidate);
            assert_eq!(par.stats, seq.stats, "stats parity, threads={threads}");
        }
    }

    #[test]
    fn parallel_vo_matches_sequential_vo_and_naive() {
        for seed in [32, 35, 36] {
            let p = problem(seed);
            let seq = p.solve(Algorithm::PinocchioVo);
            let na = p.solve(Algorithm::Naive);
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
            let na = solve_with(&p, Algorithm::Naive, threads).unwrap();
            assert_eq!(
                na.stats.accounted_pairs(),
                all_pairs,
                "NA threads={threads}"
            );
            let pin = solve_with(&p, Algorithm::Pinocchio, threads).unwrap();
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
        // Asks for 500 threads; the fan-out starts at most one per core.
        let p = problem(33);
        let par = solve_naive_par(&p, 500);
        let seq = p.solve(Algorithm::Naive);
        assert_eq!(par.influences, seq.influences);
        let vo_par = solve_vo(&p, 500);
        let vo_seq = p.solve(Algorithm::PinocchioVo);
        assert_eq!(vo_par.best_candidate, vo_seq.best_candidate);
        assert_eq!(vo_par.max_influence, vo_seq.max_influence);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let p = problem(34);
        let _ = solve_naive_par(&p, 0);
    }

    #[test]
    fn one_thread_is_the_sequential_solver() {
        let p = problem(33);
        for algorithm in Algorithm::WITH_EXTENSIONS {
            let seq = p.solve(algorithm);
            let one = solve_with(&p, algorithm, 1).unwrap();
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
                solve_with(&p, algorithm, 0).err(),
                Some(SolveError::ZeroThreads),
                "{algorithm:?}"
            );
            assert!(solve_with(&p, algorithm, 2).is_ok(), "{algorithm:?}");
        }
    }
}
