//! NA — the exhaustive baseline (§6.1).
//!
//! Computes the cumulative influence probability for every
//! object–candidate pair and picks the candidate with the highest
//! influence. `O(m · r · n̄)` position evaluations; the yardstick every
//! other solver is measured against, and the correctness oracle for the
//! test suite. [`count`] is its per-object body; the counting pass in
//! `solve.rs` runs it over object stripes and sums the partials.

use crate::eval::PairEval;
use crate::result::SolveStats;
use pinocchio_geo::Point;
use pinocchio_prob::ProbabilityFunction;
use std::ops::Range;

/// Counts, for objects `objects`, every candidate that influences them
/// into `influences` (indexed like `candidates`).
///
/// Candidate-tiled sweep: under the log-blocked kernel each object
/// validates `tile_width()` candidates per dispatch (the O(1)
/// object-MBR pre-check runs across the whole tile with the object
/// state in registers); under the other kernels the width is 1 and
/// this is exactly the per-pair loop.
// pinocchio-hot: NA's per-pair loop
pub(crate) fn count<P: ProbabilityFunction + Clone>(
    pair: &mut PairEval<'_, P>,
    candidates: &[Point],
    objects: Range<usize>,
    influences: &mut [u32],
    stats: &mut SolveStats,
) {
    let width = pair.tile_width();
    for k in objects {
        for (tile, counts) in candidates.chunks(width).zip(influences.chunks_mut(width)) {
            let mut mask = pair.influences_tile(tile, k, false, stats);
            while mask != 0 {
                // Bit `j` of the mask is candidate `j` of this tile.
                if let Some(count) = counts.get_mut(mask.trailing_zeros() as usize) {
                    *count += 1;
                }
                mask &= mask - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::problem::PrimeLs;
    use crate::result::{Algorithm, SolveResult};
    use pinocchio_data::MovingObject;
    use pinocchio_geo::Point;
    use pinocchio_prob::PowerLawPf;

    fn solve(p: &PrimeLs<PowerLawPf>) -> SolveResult {
        p.solve(Algorithm::Naive)
    }

    fn problem() -> PrimeLs<PowerLawPf> {
        // Object 0 clusters near (0,0); object 1 near (10,10); object 2
        // has one position at each cluster.
        PrimeLs::builder()
            .objects(vec![
                MovingObject::new(0, vec![Point::new(0.0, 0.0), Point::new(0.5, 0.5)]),
                MovingObject::new(1, vec![Point::new(10.0, 10.0), Point::new(10.5, 9.5)]),
                MovingObject::new(2, vec![Point::new(0.2, 0.0), Point::new(10.0, 10.2)]),
            ])
            .candidates(vec![Point::new(0.2, 0.2), Point::new(10.2, 10.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.7)
            .build()
            .unwrap()
    }

    #[test]
    fn counts_influences_exactly() {
        let p = problem();
        let r = solve(&p);
        // Candidate 0 sits inside cluster A: influences objects 0 and 2
        // (object 2's near position contributes PF(~0.28) ≈ 0.7 plus the
        // far one) — verify against direct computation.
        let eval = p.evaluator();
        let mut expected = vec![0u32; 2];
        for (j, c) in p.candidates().iter().enumerate() {
            for o in p.objects() {
                if eval.influences(c, o.positions(), p.tau()) {
                    expected[j] += 1;
                }
            }
        }
        assert_eq!(r.influences.as_ref().unwrap(), &expected);
        let max = *expected.iter().max().unwrap();
        assert_eq!(r.max_influence, max);
        assert_eq!(
            r.best_candidate,
            expected.iter().position(|&v| v == max).unwrap(),
            "ties must break towards the smallest index"
        );
    }

    #[test]
    fn stats_count_all_pairs() {
        let p = problem();
        let r = solve(&p);
        assert_eq!(r.stats.validated_pairs, 6); // 3 objects × 2 candidates
        assert_eq!(r.stats.positions_evaluated, 12); // every pair scans 2 positions
        assert_eq!(r.stats.pruned_pairs(), 0);
    }

    #[test]
    fn multi_influence_is_possible() {
        // A single candidate equidistant-ish from everything with a lax
        // threshold influences multiple objects — the paper's key departure
        // from BRNN semantics.
        let p = PrimeLs::builder()
            .objects(vec![
                MovingObject::new(0, vec![Point::new(-1.0, 0.0)]),
                MovingObject::new(1, vec![Point::new(1.0, 0.0)]),
            ])
            .candidates(vec![Point::new(0.0, 0.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.2)
            .build()
            .unwrap();
        assert_eq!(solve(&p).max_influence, 2);
    }
}
