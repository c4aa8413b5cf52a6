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
//! [`prepare`] shapes the traversal into the same filter partial as
//! `vo::prepare`, so every PIN-JOIN solve hands it to the one Strategy 1
//! driver (`vo::validate`): a candidate whose post-traversal `maxInf`
//! already trails the cut-off is skipped without validating a single
//! pair.

use crate::problem::PrimeLs;
use crate::result::SolveStats;
use crate::vo;
use pinocchio_geo::Point;
use pinocchio_index::{JoinEvent, MbrTree};
use pinocchio_prob::ProbabilityFunction;

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

/// Runs the PIN-JOIN filter, shaped into the same partial as
/// `vo::prepare`: per candidate, one μ-tree traversal yields the
/// certified influence (subtree/entry IA), the excluded count
/// (subtree/entry NIB) and the sorted undecided set.
pub(crate) fn prepare<P: ProbabilityFunction + Clone>(problem: &PrimeLs<P>) -> vo::Prepared {
    let mut stats = SolveStats::default();
    let a2d = problem.a2d();
    stats.uninfluenceable_objects = (a2d.entries().len() - a2d.influenceable()) as u64;
    let tree = problem.object_tree();
    let m = problem.candidates().len();
    let mut min_inf = vec![0u32; m];
    let mut max_inf = vec![0u32; m];
    let mut vs_store: Vec<Vec<u32>> = vec![Vec::new(); m];
    for (j, c) in problem.candidates().iter().enumerate() {
        let inf = classify(tree, c, &mut vs_store[j], &mut stats);
        // Ascending object order, matching `vo::prepare`'s A2d sweep, so
        // validation walks the arena front to back.
        vs_store[j].sort_unstable();
        min_inf[j] = inf;
        max_inf[j] = inf + u32::try_from(vs_store[j].len()).unwrap_or(u32::MAX);
    }
    vo::Prepared {
        min_inf,
        max_inf,
        vs_store,
        vs_all: Vec::new(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalKernel;
    use crate::problem::tests::solve_on;
    use crate::result::{Algorithm, SolveError, SolveResult};
    use pinocchio_data::{
        sample_candidate_group, GeneratorConfig, MovingObject, SyntheticGenerator,
    };
    use pinocchio_prob::PowerLawPf;

    fn solve(p: &PrimeLs<PowerLawPf>) -> SolveResult {
        p.solve(Algorithm::PinocchioJoin)
    }

    fn parallel_join(p: &PrimeLs<PowerLawPf>, threads: usize) -> SolveResult {
        try_solve(p, threads).unwrap()
    }

    fn try_solve(p: &PrimeLs<PowerLawPf>, threads: usize) -> Result<SolveResult, SolveError> {
        solve_on(p, Algorithm::PinocchioJoin, threads, 1)
    }

    fn synthetic_problem(tau: f64, seed: u64) -> PrimeLs<PowerLawPf> {
        crate::problem::tests::synthetic(60, 40, seed, tau)
    }

    #[test]
    fn agrees_with_naive_on_synthetic_worlds() {
        for tau in [0.3, 0.5, 0.7, 0.9] {
            for seed in [1, 2] {
                let p = synthetic_problem(tau, seed);
                let na = p.solve(Algorithm::Naive);
                let join = solve(&p);
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
            let na = p.solve(Algorithm::Naive);
            for threads in [1, 2, 8] {
                let par = parallel_join(&p, threads);
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
        for threads in [1, 2, 8] {
            let par = parallel_join(&p, threads);
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
            for (driver, r) in [
                ("sequential", solve(&p)),
                ("parallel", parallel_join(&p, 4)),
            ] {
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
            let par = parallel_join(&p, threads);
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
        let na = p.solve(Algorithm::Naive);
        assert_eq!(na.max_influence, 1);
        let seq = solve(&p);
        assert_eq!(seq.best_candidate, 0);
        assert_eq!(seq.max_influence, 1);
        for threads in [1, 2, 8] {
            let par = parallel_join(&p, threads);
            assert_eq!(par.best_candidate, 0, "threads={threads}");
            assert_eq!(par.max_influence, 1);
        }
    }

    #[test]
    fn try_solve_reports_zero_threads_as_error() {
        let p = synthetic_problem(0.7, 8);
        assert_eq!(try_solve(&p, 0).err(), Some(SolveError::ZeroThreads));
        assert!(try_solve(&p, 2).is_ok());
    }
}
