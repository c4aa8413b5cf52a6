//! Top-k PRIME-LS — an extension in the spirit of the top-t most
//! influential facility literature the paper builds on (Xia et al.,
//! VLDB 2005; Zhan et al., CIKM 2012): return the `k` candidates with
//! the highest influence, not just the single optimum.
//!
//! The PINOCCHIO-VO machinery generalises directly: Strategy 1's global
//! cut-off becomes the *k-th best* certified influence instead of the
//! best one, and the PIN-VO driver (`vo::validate`) takes `k` as a
//! parameter. Candidates are still popped in descending `maxInf` order;
//! once the heap's top `maxInf` falls strictly below the cut-off, no
//! remaining candidate can enter the top-k (ties cannot be lost either —
//! a skipped candidate's influence is strictly below the cut-off).

use crate::problem::PrimeLs;
use crate::result::{SolveError, SolveStats};
use crate::vo;
use pinocchio_geo::Point;
use pinocchio_prob::ProbabilityFunction;

/// One entry of a top-k result, ranked by `(influence desc, index asc)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEntry {
    /// Candidate index into the problem's candidate slice.
    pub candidate: usize,
    /// The candidate's location.
    pub location: Point,
    /// Exact influence `inf(c)`.
    pub influence: u32,
}

/// The outcome of a top-k solve: the ranked entries plus the same cost
/// counters every other solver reports, so the pruning/validation
/// economics of the k-th-best cut-off are measurable.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// The top-`k` candidates, ranked `(influence desc, index asc)`.
    pub entries: Vec<TopKEntry>,
    /// Cost counters; pair accounting is complete (see
    /// `top_k_accounting_is_complete`).
    pub stats: SolveStats,
}

/// Computes the exact top-`k` candidates by influence using the
/// bound-driven validation of PINOCCHIO-VO.
///
/// Returns fewer than `k` entries only when the problem has fewer than
/// `k` candidates. The ranking convention matches
/// `SolveResult::ranking`: descending influence, ties towards the
/// smaller candidate index.
///
/// ```
/// use pinocchio_core::{solve_top_k, PrimeLs};
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
/// let top2 = solve_top_k(&problem, 2);
/// assert_eq!(top2[0].candidate, 0); // influences both downtown users
/// assert_eq!(top2[0].influence, 2);
/// assert_eq!(top2[1].candidate, 1);
/// assert_eq!(top2[1].influence, 1);
/// ```
///
/// # Panics
/// Panics if `k == 0`.
pub fn solve_top_k<P: ProbabilityFunction + Clone>(
    problem: &PrimeLs<P>,
    k: usize,
) -> Vec<TopKEntry> {
    assert!(k > 0, "top-k needs k >= 1");
    match try_solve_top_k(problem, k) {
        Ok(result) => result.entries,
        // pinocchio-lint: allow(panic-path) -- ZeroK is asserted away above and try_solve_top_k has no other error path; kept panicking for signature stability
        Err(e) => panic!("top-k invariant violated: {e}"),
    }
}

/// Fallible form of [`solve_top_k`] that also reports [`SolveStats`]:
/// returns [`SolveError::ZeroK`] instead of panicking on `k == 0`.
///
/// The validation is PINOCCHIO-VO's own driver on the calling thread;
/// only the cut-off differs — the k-th best certified influence instead
/// of the single best — so the pair accounting identity
/// (`accounted_pairs()` equals the influenceable pair space) holds for
/// every `k`, and at `k = 1` the stats equal PIN-VO's.
pub fn try_solve_top_k<P: ProbabilityFunction + Clone>(
    problem: &PrimeLs<P>,
    k: usize,
) -> Result<TopKResult, SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroK);
    }
    let partial = vo::prepare(problem, true);
    let validated = vo::validate(&[problem], &[partial], k, 1);
    let entries = validated
        .ranked
        .into_iter()
        .map(|(influence, candidate)| TopKEntry {
            candidate,
            location: problem.candidates()[candidate],
            influence,
        })
        .collect();
    Ok(TopKResult {
        entries,
        stats: validated.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Algorithm;
    use pinocchio_data::{sample_candidate_group, GeneratorConfig, SyntheticGenerator};
    use pinocchio_prob::PowerLawPf;

    fn problem(seed: u64) -> PrimeLs<PowerLawPf> {
        let d = SyntheticGenerator::new(GeneratorConfig::small(80, seed)).generate();
        let (_, candidates) = sample_candidate_group(&d, 40, seed);
        PrimeLs::builder()
            .objects(d.objects().to_vec())
            .candidates(candidates)
            .probability_function(PowerLawPf::paper_default())
            .tau(0.7)
            .build()
            .unwrap()
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
                let top = solve_top_k(p, k);
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
        let top = solve_top_k(&p, 1);
        let best = p.solve(Algorithm::PinocchioVo);
        assert_eq!(top[0].candidate, best.best_candidate);
        assert_eq!(top[0].influence, best.max_influence);
        assert_eq!(try_solve_top_k(&p, 1).unwrap().stats, best.stats);
    }

    #[test]
    fn k_larger_than_m_returns_everything_sorted() {
        let p = problem(11);
        let top = solve_top_k(&p, 1000);
        assert_eq!(top.len(), p.candidates().len());
        for w in top.windows(2) {
            assert!(
                w[0].influence > w[1].influence
                    || (w[0].influence == w[1].influence && w[0].candidate < w[1].candidate)
            );
        }
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let p = problem(13);
        let _ = solve_top_k(&p, 0);
    }

    #[test]
    fn try_solve_reports_zero_k_as_error() {
        let p = problem(13);
        assert_eq!(try_solve_top_k(&p, 0).err(), Some(SolveError::ZeroK));
    }

    #[test]
    fn top_k_accounting_is_complete() {
        let p = problem(5);
        let a2d = crate::state::A2d::build(p.objects(), p.pf(), p.tau());
        let influenceable_pairs = (a2d.influenceable() * p.candidates().len()) as u64;
        for k in [1usize, 5, 40] {
            let r = try_solve_top_k(&p, k).expect("k >= 1");
            assert_eq!(r.stats.accounted_pairs(), influenceable_pairs, "k={k}");
        }
    }
}
