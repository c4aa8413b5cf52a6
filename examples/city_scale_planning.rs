//! City-scale planning: shortlist sites with the exact top-k solver,
//! then show how the sampling-based approximate solver trades a
//! controlled error bound for speed on a larger population.
//!
//! Run with `cargo run --release --example city_scale_planning`.

use pinocchio::core::{solve_approx, ApproxConfig, SolveOptions};
use pinocchio::data::{sample_candidate_group, GeneratorConfig, SyntheticGenerator};
use pinocchio::prelude::*;
use std::time::Instant;

fn main() {
    // A larger city than the other examples: 2,000 residents.
    let dataset = SyntheticGenerator::new(GeneratorConfig::small(2_000, 7)).generate();
    let (_, candidates) = sample_candidate_group(&dataset, 150, 3);
    let problem = PrimeLs::builder()
        .objects(dataset.objects().to_vec())
        .candidates(candidates)
        .probability_function(PowerLawPf::paper_default())
        .tau(0.7)
        .build()
        .expect("valid problem");
    let r = problem.objects().len();
    println!(
        "{} residents, {} check-ins, {} candidate sites\n",
        r,
        dataset.total_checkins(),
        problem.candidates().len()
    );

    // A planner rarely wants just the argmax — shortlist the top 5.
    let t = Instant::now();
    let options = SolveOptions {
        k: 5,
        ..SolveOptions::new(Algorithm::PinocchioVo)
    };
    let shortlist = problem.try_solve(&options).expect("k >= 1").top;
    println!("exact top-5 (computed in {:.2?}):", t.elapsed());
    for (rank, entry) in shortlist.iter().enumerate() {
        println!(
            "  {}. site #{:3} at {}  influences {:4} residents ({:.1}%)",
            rank + 1,
            entry.candidate,
            entry.location,
            entry.influence,
            entry.influence as f64 / r as f64 * 100.0
        );
    }

    // Early exploration phase: a 10 %-error answer is fine if it is fast.
    let epsilon = 0.1;
    let t = Instant::now();
    let approx = solve_approx(&problem, ApproxConfig::new(epsilon, 0.01, 99));
    println!(
        "\napproximate solve (ε = {epsilon}, δ = 0.01): sampled {} of {} residents in {:.2?}",
        approx.sample_size,
        r,
        t.elapsed()
    );
    println!(
        "  picked site #{} with estimated influence {} (±{:.0} at 99% confidence)",
        approx.best_candidate,
        approx.estimated_influence,
        2.0 * epsilon * r as f64
    );

    let truth = problem.all_influences();
    let regret = shortlist[0].influence as i64 - truth[approx.best_candidate] as i64;
    println!(
        "  true influence of the approximate pick: {} (regret vs optimum: {})",
        truth[approx.best_candidate], regret
    );
    assert!(
        regret as f64 <= 2.0 * epsilon * r as f64,
        "approximation exceeded its guarantee"
    );
    println!("  within the advertised 2ε·r bound ✓");
}
