//! Top-k PRIME-LS — an extension in the spirit of the top-t most
//! influential facility literature the paper builds on (Xia et al.,
//! VLDB 2005; Zhan et al., CIKM 2012): return the `k` candidates with
//! the highest influence, not just the single optimum.
//!
//! Every solve ranks its `k` best candidates into `SolveResult::top`
//! (`SolveOptions::k`, 1 by default). The counting pass ranks its exact
//! influence vector. The bounded pass generalises PINOCCHIO-VO
//! directly: Strategy 1's global cut-off becomes the *k-th best*
//! certified influence instead of the best one, inside the one driver
//! (`vo::validate`). Candidates are still popped in descending `maxInf`
//! order; once the heap's top `maxInf` falls strictly below the
//! cut-off, no remaining candidate can enter the top-k (ties cannot be
//! lost either — a skipped candidate's influence is strictly below the
//! cut-off).

use pinocchio_geo::Point;

/// One entry of a top-k ranking, ranked by `(influence desc, index
/// asc)` — the convention of `SolveResult::ranking`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEntry {
    /// Candidate index into the problem's candidate slice.
    pub candidate: usize,
    /// The candidate's location.
    pub location: Point,
    /// Exact influence `inf(c)`.
    pub influence: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests::solve_on;
    use crate::problem::PrimeLs;
    use crate::result::{Algorithm, SolveError, SolveResult};
    use pinocchio_prob::PowerLawPf;

    /// Sequential PIN-VO ranking its `k` best candidates.
    fn try_solve_top(p: &PrimeLs<PowerLawPf>, k: usize) -> Result<SolveResult, SolveError> {
        solve_on(p, Algorithm::PinocchioVo, 1, k)
    }

    fn top(p: &PrimeLs<PowerLawPf>, k: usize) -> Vec<TopKEntry> {
        try_solve_top(p, k).unwrap().top
    }

    fn problem(seed: u64) -> PrimeLs<PowerLawPf> {
        crate::problem::tests::synthetic(80, 40, seed, 0.7)
    }

    /// Every candidate ties with its mirror image: objects and
    /// candidates come in pairs symmetric about x = 0, so influence ties
    /// are everywhere and the index tie-break decides the ranking.
    fn tie_heavy_problem() -> PrimeLs<PowerLawPf> {
        let mut objects = Vec::new();
        for i in 0..12u64 {
            let x = 1.0 + (i % 4) as f64 * 0.6;
            let y = (i / 4) as f64 * 0.7;
            for (id, sx) in [(2 * i, x), (2 * i + 1, -x)] {
                objects.push(pinocchio_data::MovingObject::new(
                    id,
                    vec![Point::new(sx, y), Point::new(sx + 0.05, y + 0.05)],
                ));
            }
        }
        let candidates = (0..10)
            .flat_map(|i| {
                let x = 0.8 + (i % 5) as f64 * 0.5;
                let y = (i / 5) as f64 * 0.9;
                [Point::new(x, y), Point::new(-x, y)]
            })
            .collect();
        PrimeLs::builder()
            .objects(objects)
            .candidates(candidates)
            .probability_function(PowerLawPf::paper_default())
            .tau(0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn top_k_matches_full_ranking() {
        let worlds = [problem(1), problem(2), problem(3), tie_heavy_problem()];
        for (w, p) in worlds.iter().enumerate() {
            let full = p.solve(Algorithm::Pinocchio);
            let ranking = full.ranking().unwrap();
            let influences = full.influences.unwrap();
            let m = p.candidates().len();
            for k in [1usize, 3, 10, 40, m + 7] {
                let top = top(p, k);
                assert_eq!(top.len(), k.min(m), "world {w} k {k}");
                for (entry, &expect) in top.iter().zip(&ranking) {
                    assert_eq!(entry.candidate, expect, "world {w} k {k}");
                    assert_eq!(entry.influence, influences[expect]);
                }
            }
        }
        // The tie-heavy world must really tie, or it tests nothing.
        let tied = tie_heavy_problem().solve(Algorithm::Naive);
        let ranking = tied.ranking().unwrap();
        let inf = tied.influences.unwrap();
        assert!(
            ranking
                .windows(2)
                .any(|w| inf[w[0]] == inf[w[1]] && inf[w[0]] > 0),
            "no non-zero influence tie: {inf:?}"
        );
    }

    #[test]
    fn top_1_matches_solve() {
        let p = problem(9);
        let top = top(&p, 1);
        let best = p.solve(Algorithm::PinocchioVo);
        assert_eq!(top[0].candidate, best.best_candidate);
        assert_eq!(top[0].influence, best.max_influence);
        assert_eq!(try_solve_top(&p, 1).unwrap().stats, best.stats);
    }

    #[test]
    fn k_larger_than_m_returns_everything_sorted() {
        let p = problem(11);
        let top = top(&p, 1000);
        assert_eq!(top.len(), p.candidates().len());
        for w in top.windows(2) {
            assert!(
                w[0].influence > w[1].influence
                    || (w[0].influence == w[1].influence && w[0].candidate < w[1].candidate)
            );
        }
    }

    #[test]
    fn try_solve_reports_zero_k_as_error() {
        let p = problem(13);
        for algorithm in Algorithm::WITH_EXTENSIONS {
            let zero_k = solve_on(&p, algorithm, 1, 0);
            assert_eq!(zero_k.err(), Some(SolveError::ZeroK), "{algorithm:?}");
        }
    }

    #[test]
    fn top_k_accounting_is_complete() {
        let p = problem(5);
        let a2d = crate::state::A2d::build(p.objects(), p.pf(), p.tau());
        let influenceable_pairs = (a2d.influenceable() * p.candidates().len()) as u64;
        for k in [1usize, 5, 40] {
            let r = try_solve_top(&p, k).expect("k >= 1");
            assert_eq!(r.stats.accounted_pairs(), influenceable_pairs, "k={k}");
        }
    }
}
