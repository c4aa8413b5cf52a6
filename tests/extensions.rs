//! Integration tests of the beyond-the-paper extensions working
//! together through the facade crate: top-k, weighted influence, and
//! dynamic maintenance.

use pinocchio::core::{solve_weighted, DynamicPrimeLs, SolveOptions, TopKEntry};
use pinocchio::data::{sample_candidate_group, GeneratorConfig, SyntheticGenerator};
use pinocchio::prelude::*;

fn world(seed: u64) -> (Vec<MovingObject>, Vec<Point>) {
    let d = SyntheticGenerator::new(GeneratorConfig::small(100, seed)).generate();
    let (_, candidates) = sample_candidate_group(&d, 50, seed);
    (d.objects().to_vec(), candidates)
}

fn problem(objects: Vec<MovingObject>, candidates: Vec<Point>) -> PrimeLs<PowerLawPf> {
    PrimeLs::builder()
        .objects(objects)
        .candidates(candidates)
        .probability_function(PowerLawPf::paper_default())
        .tau(0.7)
        .build()
        .unwrap()
}

/// PIN-VO's exact top `k`.
fn top(p: &PrimeLs<PowerLawPf>, k: usize) -> Vec<TopKEntry> {
    let options = SolveOptions {
        k,
        ..SolveOptions::new(Algorithm::PinocchioVo)
    };
    p.try_solve(&options).unwrap().top
}

#[test]
fn top_k_prefix_property() {
    // Top-k lists are prefixes of each other: top-5 extends top-3.
    let (objects, candidates) = world(41);
    let p = problem(objects, candidates);
    let top10 = top(&p, 10);
    for k in [1usize, 3, 5] {
        let shorter = top(&p, k);
        assert_eq!(&top10[..k], &shorter[..]);
    }
}

#[test]
fn weighted_with_unit_weights_matches_top_k_order() {
    let (objects, candidates) = world(43);
    let p = problem(objects, candidates);
    let weighted = solve_weighted(&p, &vec![1.0; p.objects().len()]);
    let top1 = top(&p, 1);
    assert_eq!(weighted.best_candidate, top1[0].candidate);
    assert_eq!(weighted.max_weighted_influence as u32, top1[0].influence);
}

#[test]
fn dynamic_state_tracks_static_solver_through_world_changes() {
    let (objects, candidates) = world(47);
    let keep = objects.len() / 2;
    let (initial, streamed) = objects.split_at(keep);

    let (mut dynamic, _, _) = DynamicPrimeLs::from_parts(
        PowerLawPf::paper_default(),
        0.7,
        initial.to_vec(),
        candidates.clone(),
    );

    // Stream in the second half; verify against the static solver at
    // checkpoints.
    for (i, o) in streamed.iter().enumerate() {
        dynamic.insert_object(o.clone());
        if i % 17 == 0 {
            dynamic.verify_against_static();
        }
    }
    dynamic.verify_against_static();

    // Final dynamic optimum equals the static optimum on the full world.
    let p = problem(objects.clone(), candidates);
    let static_best = p.solve(Algorithm::PinocchioVo);
    let (_, loc, inf) = dynamic.best().unwrap();
    assert_eq!(inf, static_best.max_influence);
    assert_eq!(loc, static_best.best_location);
}

#[test]
fn weighted_optimum_respects_value_concentration() {
    // Give all the weight to objects influenced by some non-optimal
    // candidate: that candidate must become the weighted optimum.
    let (objects, candidates) = world(53);
    let p = problem(objects.clone(), candidates.clone());
    let influences = p.all_influences();

    // Pick a candidate with at least one influenced object but not the
    // unweighted winner.
    let unweighted_best = p.solve(Algorithm::PinocchioVo).best_candidate;
    let Some(target) = (0..candidates.len()).find(|&j| j != unweighted_best && influences[j] > 0)
    else {
        panic!("need a second influential candidate for this test");
    };

    // Weight = 1000 for objects influenced by `target`, 1 otherwise.
    let eval = p.evaluator();
    let weights: Vec<f64> = objects
        .iter()
        .map(|o| {
            if eval.influences(&candidates[target], o.positions(), 0.7) {
                1000.0
            } else {
                1.0
            }
        })
        .collect();
    let weighted = solve_weighted(&p, &weights);
    // The winner must capture (at least) all the heavy objects that
    // `target` captures.
    assert!(
        weighted.weighted_influences[weighted.best_candidate]
            >= weighted.weighted_influences[target]
    );
    assert!(weighted.max_weighted_influence >= 1000.0);
}
