//! Cross-kernel exactness: every solver, run with the blocked
//! structure-of-arrays kernel or the log-domain tiled kernel, must
//! reproduce the scalar kernel's results — winner index, influence
//! vectors, early-stop verdicts — across random worlds, thresholds,
//! thread counts, and the adversarial tie-heavy / all-uninfluenceable
//! corners. The solver loop covers the paper's four algorithms plus the
//! PIN-JOIN extension.
//!
//! Assertion tiers (see DESIGN.md §15):
//! - Scalar vs Blocked: bit-identical verdicts *and* identical pair
//!   sequences (`validated + skipped` equal per solver).
//! - Scalar vs LogBlocked: bit-identical verdicts (the guard band's
//!   exact fallback makes this unconditional) plus the accounting
//!   identity `accounted_pairs()`.

use pinocchio::core::{SolveOptions, SolveStats};
use pinocchio::data::{sample_candidate_group, GeneratorConfig, SyntheticGenerator};
use pinocchio::prelude::*;

fn world(users: usize, candidates: usize, seed: u64) -> (Vec<MovingObject>, Vec<Point>) {
    let d = SyntheticGenerator::new(GeneratorConfig::small(users, seed)).generate();
    let (_, cands) = sample_candidate_group(&d, candidates, seed ^ 0xABCD);
    (d.objects().to_vec(), cands)
}

fn build(
    objects: Vec<MovingObject>,
    candidates: Vec<Point>,
    tau: f64,
    kernel: EvalKernel,
) -> PrimeLs<PowerLawPf> {
    PrimeLs::builder()
        .objects(objects)
        .candidates(candidates)
        .probability_function(PowerLawPf::paper_default())
        .tau(tau)
        .evaluation_kernel(kernel)
        .build()
        .unwrap()
}

/// Runs every solver under both kernels and asserts exact agreement on
/// everything answer-shaped (winners, influence counts, full influence
/// vectors, top-k rankings, weighted optima) for 1/2/8 threads.
fn assert_kernels_identical(
    objects: Vec<MovingObject>,
    candidates: Vec<Point>,
    tau: f64,
    ctx: &str,
) {
    let scalar = build(objects.clone(), candidates.clone(), tau, EvalKernel::Scalar);
    let blocked = build(
        objects.clone(),
        candidates.clone(),
        tau,
        EvalKernel::Blocked,
    );
    let log = build(objects, candidates, tau, EvalKernel::LogBlocked);

    for algorithm in Algorithm::WITH_EXTENSIONS {
        let s = scalar.solve(algorithm);
        let b = blocked.solve(algorithm);
        let l = log.solve(algorithm);
        assert_eq!(
            (s.best_candidate, s.max_influence),
            (b.best_candidate, b.max_influence),
            "{algorithm} winner diverges under the blocked kernel ({ctx})"
        );
        assert_eq!(
            s.influences, b.influences,
            "{algorithm} influence vector diverges ({ctx})"
        );
        assert_eq!(
            s.stats.validated_pairs + s.stats.pairs_skipped_by_bounds,
            b.stats.validated_pairs + b.stats.pairs_skipped_by_bounds,
            "{algorithm}: identical verdicts must walk identical pair sequences ({ctx})"
        );
        assert_eq!(
            (s.best_candidate, s.max_influence),
            (l.best_candidate, l.max_influence),
            "{algorithm} winner diverges under the log-blocked kernel ({ctx})"
        );
        assert_eq!(
            s.influences, l.influences,
            "{algorithm} influence vector diverges under the log-blocked kernel ({ctx})"
        );
        assert_eq!(
            s.stats.accounted_pairs(),
            l.stats.accounted_pairs(),
            "{algorithm}: every kernel must account the same pair space ({ctx})"
        );
        assert_eq!(
            s.stats.log_band_fallbacks + b.stats.log_band_fallbacks,
            0,
            "{algorithm}: only the log-blocked kernel may fall back ({ctx})"
        );
    }

    let par = |problem: &PrimeLs<PowerLawPf>, algorithm: Algorithm, threads: usize| {
        let options = SolveOptions {
            threads,
            ..SolveOptions::new(algorithm)
        };
        problem.try_solve(&options).unwrap()
    };
    for threads in [1usize, 2, 8] {
        let s = par(&scalar, Algorithm::PinocchioVo, threads);
        let b = par(&blocked, Algorithm::PinocchioVo, threads);
        let l = par(&log, Algorithm::PinocchioVo, threads);
        assert_eq!(
            (s.best_candidate, s.max_influence),
            (b.best_candidate, b.max_influence),
            "parallel VO diverges (threads={threads}, {ctx})"
        );
        assert_eq!(
            (s.best_candidate, s.max_influence),
            (l.best_candidate, l.max_influence),
            "parallel VO diverges under the log-blocked kernel (threads={threads}, {ctx})"
        );
        let s = par(&scalar, Algorithm::Naive, threads);
        let b = par(&blocked, Algorithm::Naive, threads);
        let l = par(&log, Algorithm::Naive, threads);
        assert_eq!(
            s.influences, b.influences,
            "parallel NA (threads={threads}, {ctx})"
        );
        assert_eq!(
            s.influences, l.influences,
            "parallel NA under the log-blocked kernel (threads={threads}, {ctx})"
        );
        let s = par(&scalar, Algorithm::Pinocchio, threads);
        let b = par(&blocked, Algorithm::Pinocchio, threads);
        let l = par(&log, Algorithm::Pinocchio, threads);
        assert_eq!(
            s.influences, b.influences,
            "parallel PIN (threads={threads}, {ctx})"
        );
        assert_eq!(
            s.influences, l.influences,
            "parallel PIN under the log-blocked kernel (threads={threads}, {ctx})"
        );
        let s = par(&scalar, Algorithm::PinocchioJoin, threads);
        let b = par(&blocked, Algorithm::PinocchioJoin, threads);
        let l = par(&log, Algorithm::PinocchioJoin, threads);
        assert_eq!(
            (s.best_candidate, s.max_influence),
            (b.best_candidate, b.max_influence),
            "parallel PIN-JOIN diverges (threads={threads}, {ctx})"
        );
        assert_eq!(
            (s.best_candidate, s.max_influence),
            (l.best_candidate, l.max_influence),
            "parallel PIN-JOIN diverges under the log-blocked kernel (threads={threads}, {ctx})"
        );
    }

    for k in [1usize, 5] {
        let top = |problem: &PrimeLs<PowerLawPf>| {
            let options = SolveOptions {
                k,
                ..SolveOptions::new(Algorithm::PinocchioVo)
            };
            problem.try_solve(&options).unwrap().top
        };
        let (s, b, l) = (top(&scalar), top(&blocked), top(&log));
        assert_eq!(s, b, "top-{k} ranking diverges ({ctx})");
        assert_eq!(
            s, l,
            "top-{k} ranking diverges under the log-blocked kernel ({ctx})"
        );
    }

    let weights: Vec<f64> = (0..scalar.objects().len())
        .map(|i| 0.5 + (i % 7) as f64)
        .collect();
    let s = pinocchio::core::solve_weighted(&scalar, &weights);
    let b = pinocchio::core::solve_weighted(&blocked, &weights);
    let l = pinocchio::core::solve_weighted(&log, &weights);
    assert_eq!(
        s.best_candidate, b.best_candidate,
        "weighted winner ({ctx})"
    );
    assert_eq!(
        s.weighted_influences, b.weighted_influences,
        "weighted influence vector ({ctx})"
    );
    assert_eq!(
        s.best_candidate, l.best_candidate,
        "weighted winner under the log-blocked kernel ({ctx})"
    );
    assert_eq!(
        s.weighted_influences, l.weighted_influences,
        "weighted influence vector under the log-blocked kernel ({ctx})"
    );
}

#[test]
fn kernels_agree_on_random_worlds() {
    for seed in [1u64, 7, 42, 1234] {
        for tau in [0.3, 0.5, 0.7] {
            let (objects, candidates) = world(70, 35, seed);
            assert_kernels_identical(objects, candidates, tau, &format!("seed={seed} tau={tau}"));
        }
    }
}

#[test]
fn kernels_agree_on_tie_heavy_worlds() {
    // Two mirror-image clusters with symmetric candidates: influence
    // ties everywhere, so any kernel-induced verdict flip would move the
    // smallest-index tie-break and fail loudly.
    let mut objects = Vec::new();
    for i in 0..12u64 {
        let base = (i % 2) as f64 * 10.0;
        objects.push(MovingObject::new(
            i,
            (0..20)
                .map(|k| Point::new(base + (k % 5) as f64 * 0.1, (k / 5) as f64 * 0.1))
                .collect(),
        ));
    }
    let candidates = vec![
        Point::new(10.2, 0.2),
        Point::new(0.2, 0.2),
        Point::new(10.2, 0.2),
        Point::new(5.0, 5.0),
    ];
    for tau in [0.3, 0.5, 0.7] {
        assert_kernels_identical(
            objects.clone(),
            candidates.clone(),
            tau,
            &format!("ties tau={tau}"),
        );
    }
}

#[test]
fn kernels_agree_on_all_uninfluenceable_worlds() {
    // τ = 0.95 > PF(0) = 0.9 with single-position objects: nothing can
    // ever be influenced; both kernels must return influence 0 at
    // candidate 0 through every solver.
    let objects: Vec<MovingObject> = (0..10)
        .map(|i| MovingObject::new(i, vec![Point::new(i as f64, -(i as f64))]))
        .collect();
    let candidates = vec![
        Point::new(1.0, 1.0),
        Point::new(2.0, 2.0),
        Point::new(3.0, 3.0),
    ];
    assert_kernels_identical(objects, candidates, 0.95, "all-uninfluenceable");
}

#[test]
fn blocked_position_accounting_is_total() {
    // Blocked-kernel invariant at solver level: for NA (which validates
    // every pair exhaustively) evaluated + skipped must equal the full
    // pair-position space, and some blocks must actually prune on a
    // spread-out world.
    let (objects, candidates) = world(60, 30, 9);
    let total_pair_positions: u64 = objects
        .iter()
        .map(|o| o.position_count() as u64)
        .sum::<u64>()
        * candidates.len() as u64;
    let blocked = build(objects, candidates, 0.7, EvalKernel::Blocked);
    let r = blocked.solve(Algorithm::Naive);
    assert_eq!(
        r.stats.positions_evaluated + r.stats.positions_skipped_by_blocks,
        total_pair_positions,
        "skipped + evaluated must cover every (pair, position)"
    );
    assert!(
        r.stats.blocks_pruned > 0,
        "expected some block-level pruning"
    );
    assert!(
        r.stats.positions_evaluated < total_pair_positions,
        "blocked NA should skip a nonzero share of positions"
    );
}

#[test]
fn log_blocked_position_accounting_is_total() {
    // Log-kernel invariant at solver level: for NA, evaluated + skipped
    // must still cover the full pair-position space exactly once — a
    // guard-band fallback re-resolves a pair but must not double-count
    // its positions.
    let (objects, candidates) = world(60, 30, 9);
    let total_pair_positions: u64 = objects
        .iter()
        .map(|o| o.position_count() as u64)
        .sum::<u64>()
        * candidates.len() as u64;
    let log = build(objects, candidates, 0.7, EvalKernel::LogBlocked);
    let r = log.solve(Algorithm::Naive);
    assert_eq!(
        r.stats.positions_evaluated + r.stats.positions_skipped_by_blocks,
        total_pair_positions,
        "skipped + evaluated must cover every (pair, position)"
    );
    assert!(
        r.stats.blocks_pruned > 0,
        "expected some block-level pruning"
    );
    assert!(
        r.stats.positions_evaluated < total_pair_positions,
        "log-blocked NA should skip a nonzero share of positions"
    );
}

/// Evaluates every (object, candidate) pair with the early-stop flag on
/// and off: the verdicts must agree pair by pair and the accumulated
/// stats must be equal.
fn assert_early_stop_flag_ignored(problem: &PrimeLs<PowerLawPf>, kernel: &str) {
    let mut pair = problem.pair_eval();
    let mut with_s2 = SolveStats::default();
    let mut without_s2 = SolveStats::default();
    for k in 0..problem.objects().len() {
        for c in problem.candidates() {
            assert_eq!(
                pair.influences(c, k, true, &mut with_s2),
                pair.influences(c, k, false, &mut without_s2),
                "{kernel}: object {k} candidate {c:?}"
            );
        }
    }
    assert_eq!(
        with_s2, without_s2,
        "the {kernel} kernel must ignore the early-stop flag entirely"
    );
}

#[test]
fn early_stop_toggle_is_irrelevant_under_blocked_kernel() {
    // The blocked kernel subsumes Strategy 2; both flag settings must
    // produce identical verdicts *and identical costs* (the kernel
    // ignores the flag), unlike the scalar path where the flag trades
    // positions for exactness bookkeeping.
    let (objects, candidates) = world(50, 25, 17);
    let blocked = build(objects, candidates, 0.5, EvalKernel::Blocked);
    assert_early_stop_flag_ignored(&blocked, "blocked");
}

#[test]
fn early_stop_toggle_is_irrelevant_under_log_blocked_kernel() {
    // Same contract for the log-domain kernel: block bounds subsume
    // Strategy 2, so the flag changes neither verdicts nor costs.
    let (objects, candidates) = world(50, 25, 17);
    let log = build(objects, candidates, 0.5, EvalKernel::LogBlocked);
    assert_early_stop_flag_ignored(&log, "log-blocked");
}

#[test]
fn log_blocked_downgrades_when_pf_defeats_the_table() {
    // A PF with PF(0) = 1 makes ln(1 − PF) unbounded near zero, so the
    // coefficient table is unbuildable. The problem must transparently
    // downgrade LogBlocked to the blocked kernel and keep every verdict.
    #[derive(Clone, Debug)]
    struct Saturated;
    impl ProbabilityFunction for Saturated {
        fn prob(&self, d: f64) -> f64 {
            1.0 / (1.0 + d * d)
        }
        fn inverse(&self, p: f64) -> Option<f64> {
            (p > 0.0 && p <= 1.0).then(|| (1.0 / p - 1.0).sqrt())
        }
        fn name(&self) -> &'static str {
            "saturated"
        }
    }
    let (objects, candidates) = world(40, 20, 3);
    let mk = |kernel| {
        PrimeLs::builder()
            .objects(objects.clone())
            .candidates(candidates.clone())
            .probability_function(Saturated)
            .tau(0.6)
            .evaluation_kernel(kernel)
            .build()
            .unwrap()
    };
    let scalar = mk(EvalKernel::Scalar);
    let log = mk(EvalKernel::LogBlocked);
    assert!(
        log.log_pf_table().is_none(),
        "PF(0) = 1 must defeat table construction"
    );
    for algorithm in Algorithm::WITH_EXTENSIONS {
        let s = scalar.solve(algorithm);
        let l = log.solve(algorithm);
        assert_eq!(s.influences, l.influences, "{algorithm} downgrade verdicts");
        assert_eq!(
            l.stats.log_band_fallbacks, 0,
            "{algorithm}: a downgraded kernel never reaches the log path"
        );
    }
}
