//! PINOCCHIO — Algorithm 2 (pruning + plain validation).
//!
//! For each object row of `A_2D`:
//!
//! 1. an influence-arcs range query against the candidate R-tree finds
//!    the candidates that *certainly* influence the object (Lemma 2) —
//!    their counters increase without any probability computation;
//! 2. candidates outside the non-influence boundary *certainly* do not
//!    influence it (Lemma 3) and are skipped;
//! 3. the undecided candidates (inside NIB, outside IA) are validated by
//!    evaluating the cumulative probability over all positions
//!    (Definition 2).
//!
//! The R-tree queries use the generic two-predicate traversal: node
//! admission via conservative `minDist` tests against the region
//! geometry, exact point membership via [`InfluenceRegions`].

use crate::eval::PairEval;
use crate::result::SolveStats;
use crate::state::ObjectEntry;
use pinocchio_geo::{InfluenceRegions, Point, RegionVerdict};
use pinocchio_index::RTree;
use pinocchio_prob::ProbabilityFunction;

/// Algorithm 2's per-object body: for each of `entries`, one traversal
/// of the candidate R-tree (payload: dense candidate index) classifies
/// every candidate inside the NIB's rectangular over-approximation;
/// everything the traversal never reaches is outside the NIB MBR, hence
/// outside the NIB. IA members are credited without a probability; the
/// undecided ones are validated (with Strategy 2's early stop when
/// `early_stop`), and each influenced pair calls `credit(candidate,
/// object)`. The counting pass in `solve.rs` runs it over object
/// stripes; the weighted solver credits weights instead of counts.
// pinocchio-hot: PIN's per-object classification and per-pair validation
pub(crate) fn count<P: ProbabilityFunction + Clone>(
    pair: &mut PairEval<'_, P>,
    tree: &RTree<usize>,
    entries: &[ObjectEntry],
    early_stop: bool,
    stats: &mut SolveStats,
    mut credit: impl FnMut(usize, usize),
) {
    for entry in entries {
        let Some(regions) = entry.regions else {
            stats.uninfluenceable_objects += 1;
            continue;
        };
        let mut nib_members = 0u64;
        tree.query_region(
            |node| node.intersects(&regions.nib_mbr()),
            |p| regions.in_non_influence_boundary(p),
            &mut |p, &j| {
                nib_members += 1;
                if regions.in_influence_arcs(p) {
                    stats.decided_by_ia += 1;
                    credit(j, entry.index);
                } else if pair.influences(p, entry.index, early_stop, stats) {
                    credit(j, entry.index);
                }
            },
        );
        stats.decided_by_nib += tree.len() as u64 - nib_members;
    }
}

/// Classifies one candidate against one object's regions — exposed for
/// the pruning-effect experiment (Fig. 10), which reports how many
/// candidates each rule decides as `τ` varies.
pub fn classify_candidate(regions: &InfluenceRegions, candidate: &Point) -> RegionVerdict {
    regions.classify(candidate)
}

/// Convenience for experiments: per-object counts of candidates decided
/// by IA, decided by NIB, and left undecided.
pub fn pruning_breakdown(
    regions: &InfluenceRegions,
    candidates: &[Point],
) -> (usize, usize, usize) {
    let (mut ia, mut nib, mut undecided) = (0, 0, 0);
    for c in candidates {
        match regions.classify(c) {
            RegionVerdict::Influences => ia += 1,
            RegionVerdict::CannotInfluence => nib += 1,
            RegionVerdict::Undecided => undecided += 1,
        }
    }
    (ia, nib, undecided)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PrimeLs;
    use crate::result::{Algorithm, SolveResult};
    use crate::state::A2d;
    use pinocchio_data::MovingObject;
    use pinocchio_prob::PowerLawPf;

    fn solve(p: &PrimeLs<PowerLawPf>) -> SolveResult {
        p.solve(Algorithm::Pinocchio)
    }

    fn synthetic_problem(tau: f64, seed: u64) -> PrimeLs<PowerLawPf> {
        crate::problem::tests::synthetic(60, 40, seed, tau)
    }

    #[test]
    fn agrees_with_naive_on_synthetic_worlds() {
        for tau in [0.1, 0.5, 0.7, 0.9] {
            for seed in [1, 2] {
                let p = synthetic_problem(tau, seed);
                let na = p.solve(Algorithm::Naive);
                let pin = solve(&p);
                assert_eq!(
                    pin.influences, na.influences,
                    "influence vectors differ at tau={tau} seed={seed}"
                );
                assert_eq!(pin.best_candidate, na.best_candidate);
                assert_eq!(pin.max_influence, na.max_influence);
            }
        }
    }

    #[test]
    fn pruning_reduces_validation_work() {
        let p = synthetic_problem(0.7, 3);
        let na = p.solve(Algorithm::Naive);
        let pin = solve(&p);
        assert!(
            pin.stats.validated_pairs < na.stats.validated_pairs,
            "pruning should cut validated pairs: {} vs {}",
            pin.stats.validated_pairs,
            na.stats.validated_pairs
        );
        assert!(pin.stats.pruned_pairs() > 0);
    }

    #[test]
    fn accounting_is_complete() {
        // Every (influenceable object, candidate) pair is either decided
        // by a rule or validated.
        let p = synthetic_problem(0.7, 4);
        let r = solve(&p);
        let a2d = A2d::build(p.objects(), p.pf(), p.tau());
        let expected_pairs = (a2d.influenceable() * p.candidates().len()) as u64;
        assert_eq!(
            r.stats.decided_by_ia + r.stats.decided_by_nib + r.stats.validated_pairs,
            expected_pairs
        );
    }

    #[test]
    fn handles_uninfluenceable_objects() {
        // One object with a single far position and τ above PF(0).
        let p = PrimeLs::builder()
            .objects(vec![
                MovingObject::new(0, vec![Point::new(0.0, 0.0)]),
                MovingObject::new(1, vec![Point::new(0.1, 0.0), Point::new(0.0, 0.1)]),
            ])
            .candidates(vec![Point::new(0.0, 0.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.95)
            .build()
            .unwrap();
        let r = solve(&p);
        assert_eq!(r.stats.uninfluenceable_objects, 1);
        // Object 1 (two positions at distance ~0.1) reaches 0.95? Each
        // position has PF(~0.1) ≈ 0.9/1.1 ≈ 0.818; cumulative ≈ 0.967.
        assert_eq!(r.max_influence, 1);
        let na = p.solve(Algorithm::Naive);
        assert_eq!(na.max_influence, 1);
    }

    #[test]
    fn pruning_breakdown_partitions_candidates() {
        let p = synthetic_problem(0.7, 5);
        let a2d = A2d::build(p.objects(), p.pf(), p.tau());
        let regions = a2d.entries()[0].regions.unwrap();
        let (ia, nib, und) = pruning_breakdown(&regions, p.candidates());
        assert_eq!(ia + nib + und, p.candidates().len());
    }
}
