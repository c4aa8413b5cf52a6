//! Cross-crate integration: all four paper solvers plus the PIN-JOIN
//! extension agree with the exhaustive oracle on realistic generated
//! worlds, across thresholds and probability functions.

use pinocchio::core::{ShardedPrimeLs, SolveOptions};
use pinocchio::data::{sample_candidate_group, GeneratorConfig, SyntheticGenerator};
use pinocchio::prelude::*;
use pinocchio::prob::{ConcavePf, ConvexPf, LinearPf, LogsigPf, ProbabilityFunction};

fn world(users: usize, candidates: usize, seed: u64) -> (Vec<MovingObject>, Vec<Point>) {
    let d = SyntheticGenerator::new(GeneratorConfig::small(users, seed)).generate();
    let (_, cands) = sample_candidate_group(&d, candidates, seed ^ 0xABCD);
    (d.objects().to_vec(), cands)
}

/// `algorithm` on `threads` threads through the one solve call.
fn solve_on<P: ProbabilityFunction + Clone>(
    problem: &PrimeLs<P>,
    algorithm: Algorithm,
    threads: usize,
) -> SolveResult {
    let options = SolveOptions {
        threads,
        ..SolveOptions::new(algorithm)
    };
    problem.try_solve(&options).unwrap()
}

fn assert_all_agree<P: ProbabilityFunction + Clone>(
    objects: Vec<MovingObject>,
    candidates: Vec<Point>,
    pf: P,
    tau: f64,
    context: &str,
) {
    let problem = PrimeLs::builder()
        .objects(objects)
        .candidates(candidates)
        .probability_function(pf)
        .tau(tau)
        .build()
        .unwrap();
    let oracle = problem.solve(Algorithm::Naive);
    for algorithm in [
        Algorithm::Pinocchio,
        Algorithm::PinocchioVo,
        Algorithm::PinocchioVoStar,
        Algorithm::PinocchioJoin,
    ] {
        let r = problem.solve(algorithm);
        assert_eq!(
            (r.best_candidate, r.max_influence),
            (oracle.best_candidate, oracle.max_influence),
            "{algorithm} disagrees with NA ({context})"
        );
    }
}

#[test]
fn agreement_across_thresholds() {
    let (objects, candidates) = world(120, 60, 42);
    for tau in [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
        assert_all_agree(
            objects.clone(),
            candidates.clone(),
            PowerLawPf::paper_default(),
            tau,
            &format!("tau={tau}"),
        );
    }
}

#[test]
fn agreement_across_power_law_parameters() {
    let (objects, candidates) = world(100, 50, 7);
    for lambda in [0.75, 1.0, 1.25] {
        assert_all_agree(
            objects.clone(),
            candidates.clone(),
            PowerLawPf::with_lambda(lambda),
            0.7,
            &format!("lambda={lambda}"),
        );
    }
    for rho in [0.5, 0.7, 0.9] {
        assert_all_agree(
            objects.clone(),
            candidates.clone(),
            PowerLawPf::with_rho(rho),
            0.7,
            &format!("rho={rho}"),
        );
    }
}

#[test]
fn agreement_across_alternative_pfs() {
    // The Fig. 16 sweep: PINOCCHIO is PF-agnostic, including PFs with
    // bounded support (where minMaxRadius can be undefined for most
    // objects).
    let (objects, candidates) = world(90, 40, 13);
    assert_all_agree(
        objects.clone(),
        candidates.clone(),
        LogsigPf::new(0.5, 10.0),
        0.4,
        "logsig",
    );
    assert_all_agree(
        objects.clone(),
        candidates.clone(),
        ConvexPf::new(0.5, 10.0),
        0.4,
        "convex",
    );
    assert_all_agree(
        objects.clone(),
        candidates.clone(),
        ConcavePf::new(0.5, 10.0),
        0.4,
        "concave",
    );
    assert_all_agree(objects, candidates, LinearPf::new(0.5, 10.0), 0.4, "linear");
}

#[test]
fn influence_vectors_match_between_na_and_pin() {
    let (objects, candidates) = world(150, 80, 99);
    let problem = PrimeLs::builder()
        .objects(objects)
        .candidates(candidates)
        .probability_function(PowerLawPf::paper_default())
        .tau(0.7)
        .build()
        .unwrap();
    let na = problem.solve(Algorithm::Naive);
    let pin = problem.solve(Algorithm::Pinocchio);
    assert_eq!(na.influences, pin.influences);
    assert_eq!(na.ranking(), pin.ranking());
}

#[test]
fn max_influence_is_monotone_decreasing_in_tau() {
    // Fig. 12's right-hand panel: the maximum influence drops as τ grows.
    let (objects, candidates) = world(120, 50, 21);
    let mut last = u32::MAX;
    for tau in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let problem = PrimeLs::builder()
            .objects(objects.clone())
            .candidates(candidates.clone())
            .probability_function(PowerLawPf::paper_default())
            .tau(tau)
            .build()
            .unwrap();
        let inf = problem.solve(Algorithm::PinocchioVo).max_influence;
        assert!(
            inf <= last,
            "influence rose from {last} to {inf} at tau={tau}"
        );
        last = inf;
    }
}

#[test]
fn parallel_solvers_agree_with_sequential() {
    let (objects, candidates) = world(100, 40, 31);
    let problem = PrimeLs::builder()
        .objects(objects)
        .candidates(candidates)
        .probability_function(PowerLawPf::paper_default())
        .tau(0.7)
        .build()
        .unwrap();
    let seq = problem.solve(Algorithm::Naive);
    let par = solve_on(&problem, Algorithm::Naive, 4);
    assert_eq!(par.influences, seq.influences);
    assert_eq!(par.stats, seq.stats, "parallel NA must not drop counters");
    let par = solve_on(&problem, Algorithm::Pinocchio, 4);
    assert_eq!(par.influences, seq.influences);
    let seq = problem.solve(Algorithm::Pinocchio);
    assert_eq!(par.stats, seq.stats, "parallel PIN must not drop counters");
    let seq = problem.solve(Algorithm::PinocchioVo);
    let par = solve_on(&problem, Algorithm::PinocchioVo, 4);
    assert_eq!(
        (par.best_candidate, par.max_influence),
        (seq.best_candidate, seq.max_influence)
    );
    let par = solve_on(&problem, Algorithm::PinocchioJoin, 4);
    assert_eq!(
        (par.best_candidate, par.max_influence),
        (seq.best_candidate, seq.max_influence)
    );
}

mod parallel_vo_property {
    use super::*;
    use proptest::prelude::*;

    fn check_vo_agreement(
        users: usize,
        cands: usize,
        seed: u64,
        tau: f64,
    ) -> Result<(), TestCaseError> {
        let (objects, candidates) = world(users, cands, seed);
        let problem = PrimeLs::builder()
            .objects(objects)
            .candidates(candidates)
            .probability_function(PowerLawPf::paper_default())
            .tau(tau)
            .build()
            .unwrap();
        let oracle = problem.solve(Algorithm::Naive);
        let seq_vo = problem.solve(Algorithm::PinocchioVo);
        prop_assert_eq!(
            (seq_vo.best_candidate, seq_vo.max_influence),
            (oracle.best_candidate, oracle.max_influence),
            "sequential VO vs NA (seed={} tau={})",
            seed,
            tau
        );
        for threads in [1, 2, 8] {
            let par_vo = solve_on(&problem, Algorithm::PinocchioVo, threads);
            prop_assert_eq!(
                (par_vo.best_candidate, par_vo.max_influence),
                (oracle.best_candidate, oracle.max_influence),
                "parallel VO vs NA (seed={} tau={} threads={})",
                seed,
                tau,
                threads
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn agrees_on_random_worlds(seed in 0u64..10_000, tau_idx in 0usize..3) {
            let tau = [0.1, 0.5, 0.9][tau_idx];
            check_vo_agreement(60, 30, seed, tau)?;
        }
    }
}

mod join_property {
    use super::*;
    use pinocchio::core::EvalKernel;
    use proptest::prelude::*;

    fn check_join_agreement(
        users: usize,
        cands: usize,
        seed: u64,
        tau: f64,
    ) -> Result<(), TestCaseError> {
        let (objects, candidates) = world(users, cands, seed);
        for kernel in [EvalKernel::Scalar, EvalKernel::Blocked] {
            let problem = PrimeLs::builder()
                .objects(objects.clone())
                .candidates(candidates.clone())
                .probability_function(PowerLawPf::paper_default())
                .tau(tau)
                .evaluation_kernel(kernel)
                .build()
                .unwrap();
            check_full_ranking(&problem, &problem.solve(Algorithm::Naive), seed)?;
        }
        Ok(())
    }

    /// `k = m` ranks every candidate with NA's exact influence, for
    /// every algorithm (PIN-JOIN included) at 1, 2, 4 and 8 threads,
    /// unsharded (`None`) and at 1, 2 and 4 shards.
    fn check_full_ranking(
        problem: &PrimeLs<PowerLawPf>,
        oracle: &SolveResult,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let exact = oracle.influences.as_ref().unwrap();
        let expect: Vec<_> = oracle
            .ranking()
            .unwrap()
            .into_iter()
            .map(|j| (j, exact[j]))
            .collect();
        let partition = |n| {
            let (objects, candidates) = (problem.objects().to_vec(), problem.candidates().to_vec());
            let (pf, kernel) = (PowerLawPf::paper_default(), problem.evaluation_kernel());
            ShardedPrimeLs::partition(objects, candidates, pf, problem.tau(), kernel, n).unwrap()
        };
        let sharded = [
            None,
            Some(partition(1)),
            Some(partition(2)),
            Some(partition(4)),
        ];
        for algorithm in Algorithm::WITH_EXTENSIONS {
            for threads in [1, 2, 4, 8] {
                let k = problem.candidates().len();
                let options = SolveOptions {
                    algorithm,
                    threads,
                    k,
                };
                for s in &sharded {
                    let top = match s {
                        None => problem.try_solve(&options).unwrap().top,
                        Some(s) => s.try_solve(&options).unwrap().0.top,
                    };
                    let ranked: Vec<_> = top.iter().map(|e| (e.candidate, e.influence)).collect();
                    let shards = s.as_ref().map(ShardedPrimeLs::shard_count);
                    prop_assert_eq!(
                        ranked,
                        expect.clone(),
                        "{} shards={:?} seed={} threads={} kernel={:?}",
                        algorithm,
                        shards,
                        seed,
                        threads,
                        problem.evaluation_kernel()
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn agrees_on_random_worlds(seed in 0u64..10_000, tau_idx in 0usize..3) {
            let tau = [0.3, 0.5, 0.7][tau_idx];
            check_join_agreement(60, 30, seed, tau)?;
        }
    }
}

#[test]
fn parallel_vo_handles_all_uninfluenceable_worlds() {
    // τ = 0.95 > PF(0) with single-position objects: nothing can be
    // influenced; every solver must return influence 0 at candidate 0.
    let problem = PrimeLs::builder()
        .objects(vec![
            MovingObject::new(0, vec![Point::new(0.0, 0.0)]),
            MovingObject::new(1, vec![Point::new(5.0, 5.0)]),
            MovingObject::new(2, vec![Point::new(-3.0, 4.0)]),
        ])
        .candidates(vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(3.0, 3.0),
        ])
        .probability_function(PowerLawPf::paper_default())
        .tau(0.95)
        .build()
        .unwrap();
    for threads in [1, 2, 8] {
        let r = solve_on(&problem, Algorithm::PinocchioVo, threads);
        assert_eq!(r.max_influence, 0, "threads={threads}");
        assert_eq!(r.best_candidate, 0, "ties break to the smallest index");
        let r = solve_on(&problem, Algorithm::PinocchioJoin, threads);
        assert_eq!(r.max_influence, 0, "join threads={threads}");
        assert_eq!(r.best_candidate, 0, "join ties break to the smallest index");
    }
}

#[test]
fn parallel_vo_breaks_ties_towards_smallest_index() {
    // Two identical clusters and symmetric candidates guarantee an
    // influence tie; every thread count must resolve it exactly like the
    // sequential solvers (smallest candidate index wins).
    let problem = PrimeLs::builder()
        .objects(vec![
            MovingObject::new(0, vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)]),
            MovingObject::new(1, vec![Point::new(10.0, 0.0), Point::new(10.1, 0.0)]),
        ])
        .candidates(vec![Point::new(10.05, 0.0), Point::new(0.05, 0.0)])
        .probability_function(PowerLawPf::paper_default())
        .tau(0.7)
        .build()
        .unwrap();
    let na = problem.solve(Algorithm::Naive);
    assert_eq!((na.best_candidate, na.max_influence), (0, 1));
    for threads in [1, 2, 8] {
        let r = solve_on(&problem, Algorithm::PinocchioVo, threads);
        assert_eq!(
            (r.best_candidate, r.max_influence),
            (0, 1),
            "threads={threads}"
        );
        let r = solve_on(&problem, Algorithm::PinocchioJoin, threads);
        assert_eq!(
            (r.best_candidate, r.max_influence),
            (0, 1),
            "join threads={threads}"
        );
    }
}
