//! Property suite for the delta-validated update path: a seeded random
//! interleaving of all five [`UpdateOp`]s, checked for exactness after
//! **every** op.
//!
//! Three oracles run in lockstep:
//!
//! * `DynamicPrimeLs::verify_against_static` — the incremental counts,
//!   the cached optimum and the challenger bound against a from-scratch
//!   static solve;
//! * a mirrored world in [`MaintenanceMode::FullScan`] — the pre-delta
//!   reference path, compared op-for-op on `best`, `top_k` and every
//!   per-candidate influence (bit-identical, not approximately);
//! * the wire-id maps — rankings must agree in id space, which catches
//!   slot-reuse bugs that slot-space comparisons would mask.
//!
//! The candidate population is driven across the 64-slot mask-word
//! boundary (past 70 live) mid-sequence and back down, so word-growth
//! and word-straddling bit bookkeeping both get exercised while objects
//! churn.
//!
//! A fourth property checks snapshot isolation: clones taken mid-stream
//! (what the server publishes as epochs) share rows, mask tiles and id
//! maps with the world that keeps changing, and must still answer as a
//! mirror that replayed the same ops from scratch.

use pinocchio_core::Algorithm;
use pinocchio_geo::Point;
use pinocchio_serve::{MaintenanceMode, UpdateOp, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TAU: f64 = 0.7;
/// Live-candidate target crossing the first 64-bit mask word.
const CANDIDATE_HIGH_WATER: usize = 70;
const OPS: usize = 420;

fn random_point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0))
}

fn random_positions(rng: &mut StdRng) -> Vec<Point> {
    let n = rng.gen_range(1..8);
    (0..n).map(|_| random_point(rng)).collect()
}

/// Picks the next op. Phases: grow candidates past the word boundary
/// (first third), churn everything (middle), shrink candidates back
/// under the boundary (last third).
fn next_op(
    rng: &mut StdRng,
    step: usize,
    live_objects: &[u64],
    live_candidates: &[u64],
    next_object: &mut u64,
    next_candidate: &mut u64,
) -> UpdateOp {
    let growing = step < OPS / 3 && live_candidates.len() < CANDIDATE_HIGH_WATER;
    let shrinking = step >= 2 * OPS / 3 && live_candidates.len() > 12;
    let roll = rng.gen_range(0..100);
    if growing && roll < 45 || !shrinking && live_candidates.is_empty() {
        let candidate = *next_candidate;
        *next_candidate += 1;
        return UpdateOp::InsertCandidate {
            candidate,
            location: random_point(rng),
        };
    }
    if shrinking && roll < 40 {
        let candidate = live_candidates[rng.gen_range(0..live_candidates.len())];
        return UpdateOp::RemoveCandidate { candidate };
    }
    match roll {
        0..=39 if !live_objects.is_empty() => UpdateOp::AppendPosition {
            object: live_objects[rng.gen_range(0..live_objects.len())],
            position: random_point(rng),
        },
        40..=64 => {
            let object = *next_object;
            *next_object += 1;
            UpdateOp::InsertObject {
                object,
                positions: random_positions(rng),
            }
        }
        65..=74 if !live_objects.is_empty() => UpdateOp::RemoveObject {
            object: live_objects[rng.gen_range(0..live_objects.len())],
        },
        75..=89 => {
            let candidate = *next_candidate;
            *next_candidate += 1;
            UpdateOp::InsertCandidate {
                candidate,
                location: random_point(rng),
            }
        }
        _ if !live_candidates.is_empty() => UpdateOp::RemoveCandidate {
            candidate: live_candidates[rng.gen_range(0..live_candidates.len())],
        },
        _ => {
            let object = *next_object;
            *next_object += 1;
            UpdateOp::InsertObject {
                object,
                positions: random_positions(rng),
            }
        }
    }
}

/// Both maintenance paths must answer identically after this op.
fn assert_worlds_agree(delta: &World, full: &World, step: usize) {
    assert_eq!(
        delta.best().unwrap(),
        full.best().unwrap(),
        "best, op {step}"
    );
    assert_eq!(
        delta.top_k(5).unwrap(),
        full.top_k(5).unwrap(),
        "top_k(5), op {step}"
    );
    assert_eq!(
        delta.object_ids(),
        full.object_ids(),
        "live object ids, op {step}"
    );
    let ids = delta.candidate_ids();
    assert_eq!(ids, full.candidate_ids(), "live ids, op {step}");
    for id in ids {
        assert_eq!(
            delta.influence_of(id).unwrap(),
            full.influence_of(id).unwrap(),
            "influence of candidate {id}, op {step}"
        );
    }
}

#[test]
fn interleaved_updates_stay_exact_across_word_boundary() {
    let mut rng = StdRng::seed_from_u64(0x50_6f_73);
    let mut delta = World::new(TAU);
    assert_eq!(delta.maintenance_mode(), MaintenanceMode::Delta);
    let mut full = World::new(TAU);
    full.set_maintenance_mode(MaintenanceMode::FullScan);

    let mut next_object = 0u64;
    let mut next_candidate = 0u64;
    let mut crossed_boundary = false;
    for step in 0..OPS {
        let live_objects = delta.object_ids();
        let live_candidates = delta.candidate_ids();
        let op = next_op(
            &mut rng,
            step,
            &live_objects,
            &live_candidates,
            &mut next_object,
            &mut next_candidate,
        );
        delta.apply(&op).unwrap();
        full.apply(&op).unwrap();
        crossed_boundary |= delta.candidate_count() >= CANDIDATE_HIGH_WATER;

        // Exactness after EVERY op: incremental state vs from-scratch
        // static solve, and delta path vs full-scan path.
        delta.verify_against_static();
        full.verify_against_static();
        assert_worlds_agree(&delta, &full, step);
    }
    assert!(
        crossed_boundary,
        "schedule never crossed the {CANDIDATE_HIGH_WATER}-candidate mask-word boundary"
    );
    assert!(
        delta.candidate_count() <= 64,
        "schedule never shrank back under the word boundary (got {})",
        delta.candidate_count()
    );
    assert!(delta.object_count() > 0, "schedule degenerated: no objects");
    // A from-scratch solve of either final state names the same winner,
    // bit for bit.
    let a = delta.solve(Algorithm::PinocchioVo, 1).unwrap();
    let b = full.solve(Algorithm::PinocchioVo, 1).unwrap();
    assert_eq!((a.candidate, a.influence), (b.candidate, b.influence));
    assert_eq!(a.location.x.to_bits(), b.location.x.to_bits());
    assert_eq!(a.location.y.to_bits(), b.location.y.to_bits());
}

#[test]
fn mode_switches_mid_stream_preserve_exactness() {
    // A single world that flips maintenance mode every 60 ops must stay
    // exact throughout — the bookkeeping is maintained in both modes.
    let mut rng = StdRng::seed_from_u64(0xB0A7);
    let mut world = World::new(TAU);
    let mut next_object = 0u64;
    let mut next_candidate = 0u64;
    for step in 0..240 {
        if step % 60 == 30 {
            let flipped = match world.maintenance_mode() {
                MaintenanceMode::Delta => MaintenanceMode::FullScan,
                MaintenanceMode::FullScan => MaintenanceMode::Delta,
            };
            world.set_maintenance_mode(flipped);
        }
        let live_objects = world.object_ids();
        let live_candidates = world.candidate_ids();
        let op = next_op(
            &mut rng,
            step,
            &live_objects,
            &live_candidates,
            &mut next_object,
            &mut next_candidate,
        );
        world.apply(&op).unwrap();
        world.verify_against_static();
    }
}

/// Every answer a held epoch gives equals the from-scratch mirror's.
fn assert_epoch_matches(held: &World, mirror: &World, applied: usize) {
    held.verify_against_static();
    assert_eq!(
        held.object_ids(),
        mirror.object_ids(),
        "object ids, epoch {applied}"
    );
    let ids = held.candidate_ids();
    assert_eq!(
        ids,
        mirror.candidate_ids(),
        "candidate ids, epoch {applied}"
    );
    assert_eq!(
        held.best().unwrap(),
        mirror.best().unwrap(),
        "best, epoch {applied}"
    );
    assert_eq!(
        held.top_k(ids.len()).unwrap(),
        mirror.top_k(ids.len()).unwrap(),
        "full ranking, epoch {applied}"
    );
    for id in ids {
        assert_eq!(
            held.influence_of(id).unwrap(),
            mirror.influence_of(id).unwrap(),
            "influence of candidate {id}, epoch {applied}"
        );
    }
    if held.object_count() > 0 && held.candidate_count() > 0 {
        let a = held.solve(Algorithm::PinocchioVo, 1).unwrap();
        let b = mirror.solve(Algorithm::PinocchioVo, 1).unwrap();
        assert_eq!(
            (a.candidate, a.influence),
            (b.candidate, b.influence),
            "epoch {applied}"
        );
        assert_eq!(a.location.x.to_bits(), b.location.x.to_bits());
        assert_eq!(a.location.y.to_bits(), b.location.y.to_bits());
    }
}

#[test]
fn held_epochs_answer_as_a_from_scratch_mirror_while_updates_continue() {
    // 300 seed objects span several row chunks and mask tiles, so a
    // write that leaked into a chunk or tile an older clone still shares
    // would show up as a changed answer of that clone.
    const SEED_OBJECTS: u64 = 300;
    for mode in [MaintenanceMode::Delta, MaintenanceMode::FullScan] {
        let mut rng = StdRng::seed_from_u64(0x15_0C);
        let mut ops: Vec<UpdateOp> = (0..SEED_OBJECTS)
            .map(|object| UpdateOp::InsertObject {
                object,
                positions: random_positions(&mut rng),
            })
            .collect();
        let mut world = World::new(TAU);
        world.set_maintenance_mode(mode);
        for op in &ops {
            world.apply(op).unwrap();
        }
        let mut held: Vec<(usize, World)> = Vec::new();
        let mut next_object = SEED_OBJECTS;
        let mut next_candidate = 0u64;
        for step in 0..OPS {
            let op = next_op(
                &mut rng,
                step,
                &world.object_ids(),
                &world.candidate_ids(),
                &mut next_object,
                &mut next_candidate,
            );
            world.apply(&op).unwrap();
            ops.push(op);
            if rng.gen_range(0..10) == 0 {
                held.push((ops.len(), world.clone()));
            }
        }
        assert!(held.len() >= 20, "only {} epochs held", held.len());

        // One mirror replays the op log from an empty world, sharing
        // nothing with the held clones, and is compared at each epoch.
        let mut mirror = World::new(TAU);
        let mut replayed = 0;
        for (applied, epoch) in &held {
            for op in &ops[replayed..*applied] {
                mirror.apply(op).unwrap();
            }
            replayed = *applied;
            assert_epoch_matches(epoch, &mirror, *applied);
        }
    }
}
