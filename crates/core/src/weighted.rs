//! Weighted PRIME-LS — objects with non-uniform importance.
//!
//! Classical MAX-INF work defines a location's influence as the *total
//! weight* of the objects it wins (Xia et al., VLDB 2005); the paper's
//! Definition 2 is the unit-weight special case. The generalisation
//! matters in practice: customers have different lifetime values,
//! tracked animals different conservation priorities.
//!
//! `inf_w(c) = Σ_{O : Pr_c(O) ≥ τ} w(O)`, maximised over candidates.
//!
//! Both pruning rules apply verbatim (they reason per object–candidate
//! pair, independent of weights), so the weighted solver is PINOCCHIO's
//! pruning phase plus early-stopping validation with weighted
//! accumulators. A VO-style bounds heap would also carry over; it is
//! omitted because the weighted variant is an extension, not a paper
//! exhibit, and PIN-level pruning already removes the bulk of the work.

use crate::pinocchio;
use crate::problem::PrimeLs;
use crate::result::SolveStats;
use pinocchio_geo::Point;
use pinocchio_prob::ProbabilityFunction;

/// Result of a weighted solve.
#[derive(Debug, Clone)]
pub struct WeightedResult {
    /// Index of the optimal candidate (ties → smaller index).
    pub best_candidate: usize,
    /// Location of the optimal candidate.
    pub best_location: Point,
    /// `inf_w(best)` — the maximum total influenced weight.
    pub max_weighted_influence: f64,
    /// Exact weighted influence of every candidate.
    pub weighted_influences: Vec<f64>,
    /// Cost counters. Pairs of zero-weight objects are reported as
    /// `pairs_skipped_by_bounds` (the weight shortcut plays the role of
    /// a bound), so the pair accounting stays complete.
    pub stats: SolveStats,
}

/// Solves weighted PRIME-LS with per-object weights.
///
/// # Panics
/// Panics when `weights` does not match the object count or contains a
/// non-finite or negative value (negative weights would invalidate the
/// pruning logic: an object you *lose* value by influencing cannot be
/// decided by the influence-arcs shortcut).
pub fn solve_weighted<P: ProbabilityFunction + Clone>(
    problem: &PrimeLs<P>,
    weights: &[f64],
) -> WeightedResult {
    assert_eq!(
        weights.len(),
        problem.objects().len(),
        "one weight per object required"
    );
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    let mut pair = problem.pair_eval();
    let tree = problem.candidate_tree();
    let m = problem.candidates().len();
    let mut stats = SolveStats::default();
    let mut influences = vec![0.0f64; m];
    for entry in problem.a2d().entries() {
        let weight = weights[entry.index];
        if entry.regions.is_some() && weight.abs().total_cmp(&0.0).is_eq() {
            // A zero weight cannot affect any ranking; its pairs are
            // skipped the way a VO bound would skip them.
            stats.pairs_skipped_by_bounds += m as u64;
            continue;
        }
        let credit = |j: usize, _| influences[j] += weight;
        pinocchio::count(
            &mut pair,
            tree,
            std::slice::from_ref(entry),
            true,
            &mut stats,
            credit,
        );
    }

    let (best_candidate, _) = influences
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        // pinocchio-lint: allow(panic-path) -- the builder rejects empty candidate sets (BuildError::NoCandidates), so max_by over the influence vector is Some
        .expect("at least one candidate by construction");
    WeightedResult {
        best_candidate,
        best_location: problem.candidates()[best_candidate],
        max_weighted_influence: influences[best_candidate],
        weighted_influences: influences,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Algorithm;
    use crate::state::A2d;
    use pinocchio_data::MovingObject;
    use pinocchio_prob::PowerLawPf;

    fn problem(seed: u64) -> PrimeLs<PowerLawPf> {
        crate::problem::tests::synthetic(60, 30, seed, 0.7)
    }

    #[test]
    fn unit_weights_reduce_to_plain_prime_ls() {
        for seed in [1u64, 2] {
            let p = problem(seed);
            let unweighted = p.solve(Algorithm::Pinocchio);
            let weighted = solve_weighted(&p, &vec![1.0; p.objects().len()]);
            assert_eq!(weighted.best_candidate, unweighted.best_candidate);
            let plain = unweighted.influences.unwrap();
            for (w, &u) in weighted.weighted_influences.iter().zip(&plain) {
                assert!((w - u as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn weights_scale_influence_linearly() {
        let p = problem(3);
        let base = solve_weighted(&p, &vec![1.0; p.objects().len()]);
        let scaled = solve_weighted(&p, &vec![2.5; p.objects().len()]);
        for (a, b) in base
            .weighted_influences
            .iter()
            .zip(&scaled.weighted_influences)
        {
            assert!((a * 2.5 - b).abs() < 1e-9);
        }
        assert_eq!(base.best_candidate, scaled.best_candidate);
    }

    #[test]
    fn a_heavy_object_moves_the_optimum() {
        // Two objects in different places; weight decides the winner.
        let p = PrimeLs::builder()
            .objects(vec![
                MovingObject::new(0, vec![pinocchio_geo::Point::new(0.0, 0.0)]),
                MovingObject::new(1, vec![pinocchio_geo::Point::new(20.0, 0.0)]),
            ])
            .candidates(vec![
                pinocchio_geo::Point::new(0.1, 0.0),
                pinocchio_geo::Point::new(20.1, 0.0),
            ])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.7)
            .build()
            .unwrap();
        let west = solve_weighted(&p, &[5.0, 1.0]);
        assert_eq!(west.best_candidate, 0);
        assert!((west.max_weighted_influence - 5.0).abs() < 1e-12);
        let east = solve_weighted(&p, &[1.0, 5.0]);
        assert_eq!(east.best_candidate, 1);
    }

    #[test]
    fn zero_weight_objects_are_ignored() {
        let p = problem(5);
        let mut weights = vec![1.0; p.objects().len()];
        weights[0] = 0.0;
        let r = solve_weighted(&p, &weights);
        // Consistency: recompute with the object physically removed.
        let without = PrimeLs::builder()
            .objects(p.objects()[1..].to_vec())
            .candidates(p.candidates().to_vec())
            .probability_function(*p.pf())
            .tau(p.tau())
            .build()
            .unwrap();
        let reference = solve_weighted(&without, &vec![1.0; without.objects().len()]);
        for (a, b) in r
            .weighted_influences
            .iter()
            .zip(&reference.weighted_influences)
        {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_accounting_is_complete() {
        let p = problem(5);
        let a2d = A2d::build(p.objects(), p.pf(), p.tau());
        let influenceable_pairs = (a2d.influenceable() * p.candidates().len()) as u64;
        let mut weights = vec![1.0; p.objects().len()];
        weights[0] = 0.0; // zero-weight pairs must still be accounted
        let r = solve_weighted(&p, &weights);
        assert_eq!(r.stats.accounted_pairs(), influenceable_pairs);
    }

    #[test]
    #[should_panic(expected = "one weight per object")]
    fn weight_count_mismatch_rejected() {
        let p = problem(7);
        let _ = solve_weighted(&p, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let p = problem(9);
        let _ = solve_weighted(&p, &vec![-1.0; p.objects().len()]);
    }
}
