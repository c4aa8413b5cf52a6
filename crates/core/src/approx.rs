//! Sampling-based approximate PRIME-LS.
//!
//! The approximate-location-selection literature the paper builds on
//! (Yan et al., CIKM 2011; Tao et al., VLDB 2013) trades exactness for
//! speed with user-chosen error bounds. The natural analogue for
//! PRIME-LS is *object sampling*: the influence fraction
//! `f(c) = inf(c) / r` is a mean of i.i.d. Bernoulli variables over a
//! uniform object sample, so Hoeffding's inequality with a union bound
//! over the `m` candidates gives, for sample size
//!
//! ```text
//! s = ⌈ ln(2m / δ) / (2ε²) ⌉ ,
//! ```
//!
//! `Pr[ ∀c: |f̂(c) − f(c)| ≤ ε ] ≥ 1 − δ`. The candidate maximising the
//! sampled influence is therefore within `2ε·r` of the true optimum's
//! influence with probability at least `1 − δ` — independent of the
//! number of objects `r`, which is what makes the approach attractive
//! for the dynamic, ever-growing datasets the paper's future work
//! targets.
//!
//! The sampled sub-problem is solved with the full PINOCCHIO pruning
//! machinery, so the speedup multiplies with — rather than replaces —
//! the paper's optimizations.

use crate::problem::PrimeLs;
use crate::result::{Algorithm, SolveStats};
use pinocchio_geo::Point;
use pinocchio_prob::ProbabilityFunction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Accuracy parameters for [`solve_approx`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Additive error on the influence *fraction* (`ε ∈ (0, 1)`); the
    /// returned candidate's true influence is within `2ε·r` of the
    /// optimum with probability `1 − δ`.
    pub epsilon: f64,
    /// Failure probability (`δ ∈ (0, 1)`).
    pub delta: f64,
    /// RNG seed for the object sample.
    pub seed: u64,
}

impl ApproxConfig {
    /// A sensible default: `ε = 0.02`, `δ = 0.01`.
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must be in (0, 1), got {delta}"
        );
        ApproxConfig {
            epsilon,
            delta,
            seed,
        }
    }

    /// The Hoeffding sample size for `m` candidates.
    pub fn sample_size(&self, m: usize) -> usize {
        assert!(m > 0);
        #[allow(clippy::cast_possible_truncation)]
        // `.max(1.0)` keeps it in [1, 2^52): ε, δ are sanity-checked at construction
        {
            ((2.0 * m as f64 / self.delta).ln() / (2.0 * self.epsilon * self.epsilon))
                .ceil()
                .max(1.0) as usize
        }
    }
}

/// Result of an approximate solve.
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// Index of the selected candidate.
    pub best_candidate: usize,
    /// The selected candidate's location.
    pub best_location: Point,
    /// Estimated influence fraction `f̂(best) ∈ [0, 1]`.
    pub estimated_fraction: f64,
    /// Estimated influence count `f̂(best) · r` (rounded).
    pub estimated_influence: u32,
    /// Objects actually sampled (capped at `r`, where the solve is
    /// exact).
    pub sample_size: usize,
    /// Whether the sample covered every object (result then exact).
    pub exact: bool,
    /// Cost counters of the underlying (sampled or exact) PINOCCHIO
    /// solve; on a sampled run the pair space is `s · m`, not `r · m`.
    pub stats: SolveStats,
}

/// Approximately solves PRIME-LS by uniform object sampling (with
/// replacement) and an exact PINOCCHIO solve on the sample.
pub fn solve_approx<P: ProbabilityFunction + Clone>(
    problem: &PrimeLs<P>,
    config: ApproxConfig,
) -> ApproxResult {
    let r = problem.objects().len();
    let m = problem.candidates().len();
    let s = config.sample_size(m);

    if s >= r {
        // Sampling would cost at least as much as the exact solve.
        let exact = problem.solve(Algorithm::Pinocchio);
        return ApproxResult {
            best_candidate: exact.best_candidate,
            best_location: exact.best_location,
            estimated_fraction: exact.max_influence as f64 / r as f64,
            estimated_influence: exact.max_influence,
            sample_size: r,
            exact: true,
            stats: exact.stats,
        };
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let sampled: Vec<_> = (0..s)
        .map(|_| problem.objects()[rng.gen_range(0..r)].clone())
        .collect();
    let sub = PrimeLs::builder()
        .objects(sampled)
        .candidates(problem.candidates().to_vec())
        .probability_function(problem.pf().clone())
        .tau(problem.tau())
        .build()
        // pinocchio-lint: allow(panic-path) -- the sub-problem reuses the parent's validated candidates/pf/tau and a non-empty sample, so every BuildError is ruled out
        .expect("sub-problem inherits validity");
    let result = sub.solve(Algorithm::Pinocchio);

    let fraction = result.max_influence as f64 / s as f64;
    #[allow(clippy::cast_possible_truncation)]
    let estimated_influence = (fraction * r as f64).round() as u32; // pinocchio-lint: allow(cast-truncation) -- fraction is in [0, 1] and r is an in-memory object count, so the product fits u32
    ApproxResult {
        best_candidate: result.best_candidate,
        best_location: result.best_location,
        estimated_fraction: fraction,
        estimated_influence,
        sample_size: s,
        exact: false,
        stats: result.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinocchio_prob::PowerLawPf;

    fn problem(users: usize, seed: u64) -> PrimeLs<PowerLawPf> {
        crate::problem::tests::synthetic(users, 30, seed, 0.7)
    }

    #[test]
    fn sample_size_follows_hoeffding() {
        let cfg = ApproxConfig::new(0.05, 0.01, 1);
        // ln(2·100/0.01) / (2·0.0025) = ln(20000)·200 ≈ 1981.
        let s = cfg.sample_size(100);
        assert!((1900..2100).contains(&s), "s = {s}");
        // Larger ε shrinks the sample quadratically.
        let s2 = ApproxConfig::new(0.1, 0.01, 1).sample_size(100);
        assert!(s2 < s / 3);
        // Smaller δ grows it only logarithmically.
        let s3 = ApproxConfig::new(0.05, 0.001, 1).sample_size(100);
        assert!(s3 > s && s3 < s * 2);
    }

    #[test]
    fn falls_back_to_exact_on_small_inputs() {
        let p = problem(50, 3);
        // ε small enough that s ≥ r.
        let r = solve_approx(&p, ApproxConfig::new(0.01, 0.01, 7));
        assert!(r.exact);
        assert_eq!(r.sample_size, 50);
        let exact = p.solve(Algorithm::PinocchioVo);
        assert_eq!(r.best_candidate, exact.best_candidate);
        assert_eq!(r.estimated_influence, exact.max_influence);
    }

    #[test]
    fn estimate_is_within_the_advertised_bound() {
        let p = problem(600, 5);
        let exact = p.solve(Algorithm::Pinocchio);
        let influences = exact.influences.as_ref().unwrap();
        let r_count = p.objects().len() as f64;
        let epsilon = 0.12; // s ≈ 300 < r = 600: genuinely sampled

        let approx = solve_approx(&p, ApproxConfig::new(epsilon, 0.01, 11));
        assert!(!approx.exact);
        assert!(approx.sample_size < p.objects().len());
        // The selected candidate's *true* influence must be within 2ε·r
        // of the optimum (holds w.p. 0.99; the fixed seed freezes one
        // draw, making the test deterministic).
        let chosen_true = influences[approx.best_candidate] as f64;
        let best_true = exact.max_influence as f64;
        assert!(
            best_true - chosen_true <= 2.0 * epsilon * r_count,
            "true influence {chosen_true} vs optimum {best_true} (bound {})",
            2.0 * epsilon * r_count
        );
        // And the estimated fraction must be ε-close to the chosen
        // candidate's true fraction.
        assert!(
            (approx.estimated_fraction - chosen_true / r_count).abs() <= epsilon,
            "estimate {} vs true {}",
            approx.estimated_fraction,
            chosen_true / r_count
        );
    }

    #[test]
    fn stats_cover_the_sampled_pair_space() {
        let p = problem(300, 9);
        let approx = solve_approx(&p, ApproxConfig::new(0.12, 0.05, 42));
        assert!(!approx.exact);
        let pair_space = (approx.sample_size * p.candidates().len()) as u64;
        let accounted = approx.stats.accounted_pairs();
        assert!(accounted > 0, "stats must be populated");
        assert!(accounted <= pair_space, "{accounted} > {pair_space}");
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem(300, 9);
        let cfg = ApproxConfig::new(0.1, 0.05, 42);
        let a = solve_approx(&p, cfg);
        let b = solve_approx(&p, cfg);
        assert_eq!(a.best_candidate, b.best_candidate);
        assert_eq!(a.estimated_influence, b.estimated_influence);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_rejected() {
        let _ = ApproxConfig::new(0.0, 0.1, 1);
    }
}
