//! The served state: a [`DynamicPrimeLs`] instance wrapped with stable
//! wire-visible ids.
//!
//! Clients name objects and candidates by `u64` ids of their own
//! choosing; internal slot handles are an implementation detail that
//! must never leak (slots are reused after removals, so a raw handle
//! would be ambiguous across epochs). [`World::apply`] is the single
//! update codepath — the server's writer thread and the CLI `replay`
//! subcommand both stream [`UpdateOp`]s through it, so a replayed
//! dataset and a served one evolve bit-identically.
//!
//! `World` is `Clone`: the writer clones the current world, applies a
//! batch of updates, and publishes the clone as the next epoch, leaving
//! the previous epoch's snapshot untouched for in-flight readers.

use crate::wire::{ErrorCode, UpdateOp, WireError};
use pinocchio_core::{
    Algorithm, CandidateHandle, DynamicPrimeLs, MaintenanceMode, ObjectHandle, SolveOptions,
};
use pinocchio_data::MovingObject;
use pinocchio_geo::Point;
use pinocchio_prob::PowerLawPf;
use std::collections::{BTreeMap, HashMap};

/// The winner of a from-scratch solve, in wire-id terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOutcome {
    /// The algorithm that produced this outcome.
    pub algorithm: Algorithm,
    /// Wire id of the optimal candidate.
    pub candidate: u64,
    /// Its location.
    pub location: Point,
    /// Its exact influence.
    pub influence: u32,
}

/// Exact PRIME-LS state keyed by client-visible ids.
#[derive(Debug, Clone)]
pub struct World {
    state: DynamicPrimeLs<PowerLawPf>,
    objects: BTreeMap<u64, ObjectHandle>,
    candidates: BTreeMap<u64, CandidateHandle>,
    /// Reverse map so query answers can report wire ids. Kept exactly in
    /// sync with `candidates` by the apply paths.
    candidate_ids: HashMap<CandidateHandle, u64>,
}

impl World {
    /// An empty world with the paper's default probability function.
    ///
    /// # Panics
    /// Panics unless `τ ∈ (0, 1)` (validated by callers before here).
    pub fn new(tau: f64) -> World {
        World {
            state: DynamicPrimeLs::new(PowerLawPf::paper_default(), tau),
            objects: BTreeMap::new(),
            candidates: BTreeMap::new(),
            candidate_ids: HashMap::new(),
        }
    }

    /// Bootstraps from a static problem description. Objects keep their
    /// [`MovingObject::id`] as wire id; candidates get ids `0..m` in
    /// order. Fails with [`ErrorCode::DuplicateObject`] if two objects
    /// share an id.
    pub fn from_parts(
        objects: Vec<MovingObject>,
        candidates: Vec<Point>,
        tau: f64,
    ) -> Result<World, WireError> {
        let mut world = World::new(tau);
        for (i, location) in candidates.into_iter().enumerate() {
            world.apply(&UpdateOp::InsertCandidate {
                candidate: i as u64,
                location,
            })?;
        }
        for object in objects {
            world.apply(&UpdateOp::InsertObject {
                object: object.id(),
                positions: object.positions().to_vec(),
            })?;
        }
        Ok(world)
    }

    /// The influence threshold τ of the underlying dynamic state.
    pub fn tau(&self) -> f64 {
        self.state.tau()
    }

    /// Materialises every live object (wire id preserved), slot order —
    /// the O(positions) freeze the shard router uses to re-partition a
    /// seed world.
    pub fn snapshot_objects(&self) -> Vec<MovingObject> {
        self.state.objects().collect()
    }

    /// Every live candidate as `(wire id, location, influence)`, in slot
    /// order — the per-shard partial the sharded world sums elementwise.
    pub fn live_influences(&self) -> Result<Vec<(u64, Point, u32)>, WireError> {
        self.state
            .live_candidates()
            .into_iter()
            .map(|(handle, location, influence)| Ok((self.wire_id(handle)?, location, influence)))
            .collect()
    }

    /// The active maintenance mode of the underlying dynamic state.
    pub fn maintenance_mode(&self) -> MaintenanceMode {
        self.state.maintenance_mode()
    }

    /// Switches how the underlying [`DynamicPrimeLs`] revalidates pairs
    /// on updates. Answers are identical in both modes; benchmarks use
    /// [`MaintenanceMode::FullScan`] as the reference cost.
    pub fn set_maintenance_mode(&mut self, mode: MaintenanceMode) {
        self.state.set_maintenance_mode(mode);
    }

    /// Rebuilds the influence counts from scratch and asserts they match
    /// the incremental state (see
    /// [`DynamicPrimeLs::verify_against_static`]). Test/benchmark gate.
    pub fn verify_against_static(&self) {
        self.state.verify_against_static();
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of live candidates.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// The live object ids, ascending.
    pub fn object_ids(&self) -> Vec<u64> {
        self.objects.keys().copied().collect()
    }

    /// The live candidate ids, ascending.
    pub fn candidate_ids(&self) -> Vec<u64> {
        self.candidates.keys().copied().collect()
    }

    /// Applies one update; on error the world is unchanged.
    ///
    /// All validation happens before any mutation, so the underlying
    /// panicking contracts of [`DynamicPrimeLs`] (stale handles,
    /// non-finite coordinates) are unreachable from here.
    pub fn apply(&mut self, op: &UpdateOp) -> Result<(), WireError> {
        match op {
            UpdateOp::InsertObject { object, positions } => {
                if self.objects.contains_key(object) {
                    return Err(WireError::new(
                        ErrorCode::DuplicateObject,
                        format!("object {object} is already live"),
                    ));
                }
                if positions.is_empty() {
                    return Err(WireError::malformed(
                        "an object needs at least one position",
                    ));
                }
                if let Some(p) = positions.iter().find(|p| !p.is_finite()) {
                    return Err(WireError::new(
                        ErrorCode::NonFinite,
                        format!(
                            "object {object} has a non-finite position ({}, {})",
                            p.x, p.y
                        ),
                    ));
                }
                let handle = self
                    .state
                    .insert_object(MovingObject::new(*object, positions.clone()));
                self.objects.insert(*object, handle);
                Ok(())
            }
            UpdateOp::AppendPosition { object, position } => {
                if !position.is_finite() {
                    return Err(WireError::new(
                        ErrorCode::NonFinite,
                        format!("position for object {object} is not finite"),
                    ));
                }
                let handle = *self.objects.get(object).ok_or_else(|| {
                    WireError::new(ErrorCode::UnknownObject, format!("no live object {object}"))
                })?;
                self.state.append_position(handle, *position);
                Ok(())
            }
            UpdateOp::RemoveObject { object } => {
                let handle = self.objects.remove(object).ok_or_else(|| {
                    WireError::new(ErrorCode::UnknownObject, format!("no live object {object}"))
                })?;
                self.state.remove_object(handle);
                Ok(())
            }
            UpdateOp::InsertCandidate {
                candidate,
                location,
            } => {
                if self.candidates.contains_key(candidate) {
                    return Err(WireError::new(
                        ErrorCode::DuplicateCandidate,
                        format!("candidate {candidate} is already live"),
                    ));
                }
                if !location.is_finite() {
                    return Err(WireError::new(
                        ErrorCode::NonFinite,
                        format!("location for candidate {candidate} is not finite"),
                    ));
                }
                let handle = self.state.insert_candidate(*location);
                self.candidates.insert(*candidate, handle);
                self.candidate_ids.insert(handle, *candidate);
                Ok(())
            }
            UpdateOp::RemoveCandidate { candidate } => {
                let handle = self.candidates.remove(candidate).ok_or_else(|| {
                    WireError::new(
                        ErrorCode::UnknownCandidate,
                        format!("no live candidate {candidate}"),
                    )
                })?;
                self.candidate_ids.remove(&handle);
                self.state.remove_candidate(handle);
                Ok(())
            }
        }
    }

    /// Wire id of a handle; total for handles minted by this world.
    pub(crate) fn wire_id(&self, handle: CandidateHandle) -> Result<u64, WireError> {
        self.candidate_ids.get(&handle).copied().ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownCandidate,
                "internal: candidate handle without a wire id".to_string(),
            )
        })
    }

    /// The current optimum as `(wire id, location, influence)`; ties
    /// break towards the earlier-created candidate (smaller slot).
    pub fn best(&self) -> Result<Option<(u64, Point, u32)>, WireError> {
        match self.state.best() {
            None => Ok(None),
            Some((handle, location, influence)) => {
                Ok(Some((self.wire_id(handle)?, location, influence)))
            }
        }
    }

    /// The `k` highest-influence candidates as
    /// `(wire id, location, influence)`, influence descending, ties by
    /// slot (creation) order — the same order a ranking derived from the
    /// static solvers' influence vector would produce.
    pub fn top_k(&self, k: usize) -> Result<Vec<(u64, Point, u32)>, WireError> {
        if k == 0 {
            return Ok(Vec::new());
        }
        // `live_candidates` yields slot order, so the enumeration index
        // is the tie rank; carrying it explicitly lets the unstable
        // partial selection reproduce what a stable full sort gave.
        let mut live: Vec<(usize, (CandidateHandle, Point, u32))> = self
            .state
            .live_candidates()
            .into_iter()
            .enumerate()
            .collect();
        let rank = |a: &(usize, (CandidateHandle, Point, u32)),
                    b: &(usize, (CandidateHandle, Point, u32))| {
            (std::cmp::Reverse(a.1 .2), a.0).cmp(&(std::cmp::Reverse(b.1 .2), b.0))
        };
        // O(m + k log k) partial selection instead of an O(m log m)
        // full sort: move the top k into the front, then order them.
        if k < live.len() {
            live.select_nth_unstable_by(k - 1, rank);
            live.truncate(k);
        }
        live.sort_unstable_by(rank);
        live.into_iter()
            .map(|(_, (handle, location, influence))| {
                Ok((self.wire_id(handle)?, location, influence))
            })
            .collect()
    }

    /// Exact influence of one candidate, by wire id.
    pub fn influence_of(&self, candidate: u64) -> Result<u32, WireError> {
        let handle = *self.candidates.get(&candidate).ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownCandidate,
                format!("no live candidate {candidate}"),
            )
        })?;
        Ok(self.state.influence(handle))
    }

    /// Freezes the state into a static problem plus the wire id of each
    /// candidate index (index order = slot order) — the per-shard input
    /// of the sharded solve path.
    pub(crate) fn to_problem(
        &self,
    ) -> Result<(pinocchio_core::PrimeLs<PowerLawPf>, Vec<u64>), WireError> {
        let (problem, slots) = self.state.to_prime_ls()?;
        let ids = slots
            .into_iter()
            .map(|handle| self.wire_id(handle))
            .collect::<Result<Vec<u64>, WireError>>()?;
        Ok((problem, ids))
    }

    /// Freezes the world and computes its influence heat map (see
    /// [`pinocchio_heatmap::try_heatmap`]). `frame` defaults to the
    /// influenceable-object bounds of the frozen problem; the sharded
    /// coordinator passes the global frame explicitly so per-shard
    /// grids line up tile-for-tile.
    pub fn heatmap(
        &self,
        resolution: u32,
        frame: Option<pinocchio_geo::Mbr>,
    ) -> Result<pinocchio_heatmap::Heatmap, WireError> {
        let (problem, _) = self.to_problem()?;
        Ok(pinocchio_heatmap::try_heatmap(&problem, resolution, frame)?)
    }

    /// Freezes the world and finds the `k` highest-influence tiles of
    /// its (virtual) heat map (see [`pinocchio_heatmap::try_top_region`]).
    pub fn top_region(
        &self,
        k: usize,
        resolution: u32,
        frame: Option<pinocchio_geo::Mbr>,
    ) -> Result<pinocchio_heatmap::TopRegion, WireError> {
        let (problem, _) = self.to_problem()?;
        Ok(pinocchio_heatmap::try_top_region(
            &problem, k, resolution, frame,
        )?)
    }

    /// Freezes the world and solves it from scratch with the named
    /// algorithm on `threads` threads (0 counts as 1, see
    /// [`pinocchio_core::PrimeLs::try_solve`]). Every algorithm returns
    /// the same winner as [`Self::best`] (ties included) — the exactness
    /// property the soak suite and the benchmark check.
    pub fn solve(&self, algorithm: Algorithm, threads: usize) -> Result<SolveOutcome, WireError> {
        let (problem, slots) = self.state.to_prime_ls()?;
        let result = problem.try_solve(&SolveOptions {
            threads: threads.max(1),
            ..SolveOptions::new(algorithm)
        })?;
        let handle = slots[result.best_candidate];
        Ok(SolveOutcome {
            algorithm: result.algorithm,
            candidate: self.wire_id(handle)?,
            location: result.best_location,
            influence: result.max_influence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn insert_candidate(id: u64, x: f64, y: f64) -> UpdateOp {
        UpdateOp::InsertCandidate {
            candidate: id,
            location: Point::new(x, y),
        }
    }

    fn insert_object(id: u64, positions: Vec<Point>) -> UpdateOp {
        UpdateOp::InsertObject {
            object: id,
            positions,
        }
    }

    fn random_world(seed: u64, objects: usize, candidates: usize) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = World::new(0.7);
        for j in 0..candidates {
            w.apply(&insert_candidate(
                j as u64,
                rng.gen_range(0.0..30.0),
                rng.gen_range(0.0..20.0),
            ))
            .unwrap();
        }
        for i in 0..objects {
            let n = rng.gen_range(1..10);
            let positions = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)))
                .collect();
            w.apply(&insert_object(i as u64, positions)).unwrap();
        }
        w
    }

    #[test]
    fn update_errors_are_typed_and_leave_state_unchanged() {
        let mut w = World::new(0.7);
        w.apply(&insert_candidate(1, 0.0, 0.0)).unwrap();
        let before = w.candidate_ids();

        let dup = w.apply(&insert_candidate(1, 5.0, 5.0)).unwrap_err();
        assert_eq!(dup.code, ErrorCode::DuplicateCandidate);
        let unknown = w
            .apply(&UpdateOp::RemoveCandidate { candidate: 9 })
            .unwrap_err();
        assert_eq!(unknown.code, ErrorCode::UnknownCandidate);
        let nonfinite = w.apply(&insert_candidate(2, f64::NAN, 0.0)).unwrap_err();
        assert_eq!(nonfinite.code, ErrorCode::NonFinite);
        let no_obj = w
            .apply(&UpdateOp::AppendPosition {
                object: 3,
                position: Point::ORIGIN,
            })
            .unwrap_err();
        assert_eq!(no_obj.code, ErrorCode::UnknownObject);
        let empty = w.apply(&insert_object(4, vec![])).unwrap_err();
        assert_eq!(empty.code, ErrorCode::Malformed);

        assert_eq!(w.candidate_ids(), before);
        assert_eq!(w.object_count(), 0);
    }

    #[test]
    fn ids_stay_stable_across_slot_reuse() {
        let mut w = World::new(0.7);
        w.apply(&insert_candidate(10, 0.0, 0.0)).unwrap();
        w.apply(&insert_candidate(20, 10.0, 0.0)).unwrap();
        w.apply(&insert_object(1, vec![Point::new(0.1, 0.0)]))
            .unwrap();
        assert_eq!(w.influence_of(10).unwrap(), 1);
        // Remove candidate 10; a new candidate reuses its slot but must
        // answer under its own id.
        w.apply(&UpdateOp::RemoveCandidate { candidate: 10 })
            .unwrap();
        w.apply(&insert_candidate(30, 0.2, 0.0)).unwrap();
        assert_eq!(w.influence_of(30).unwrap(), 1);
        assert_eq!(
            w.influence_of(10).unwrap_err().code,
            ErrorCode::UnknownCandidate
        );
        let (best, _, inf) = w.best().unwrap().expect("live candidates");
        assert_eq!(inf, 1);
        // Ties break towards the smaller slot: candidate 30 sits in the
        // freed slot 0, ahead of candidate 20 in slot 1.
        assert_eq!(best, 30);
    }

    #[test]
    fn top_k_ranks_by_influence_then_creation_order() {
        let mut w = World::new(0.6);
        w.apply(&insert_candidate(7, 0.0, 0.0)).unwrap();
        w.apply(&insert_candidate(8, 50.0, 50.0)).unwrap();
        w.apply(&insert_candidate(9, 0.1, 0.0)).unwrap();
        for i in 0..3 {
            w.apply(&insert_object(i, vec![Point::new(0.05, 0.0)]))
                .unwrap();
        }
        let ranking = w.top_k(10).unwrap();
        assert_eq!(ranking.len(), 3);
        // Candidates 7 and 9 both reach all three objects; 7 was created
        // first and wins the tie. Candidate 8 is out of range.
        assert_eq!(ranking[0].0, 7);
        assert_eq!(ranking[1].0, 9);
        assert_eq!(ranking[0].2, ranking[1].2);
        assert_eq!(ranking[2], (8, Point::new(50.0, 50.0), 0));
        assert_eq!(w.top_k(1).unwrap().len(), 1);
    }

    #[test]
    fn top_k_partial_selection_matches_full_stable_sort() {
        // The partial selection must reproduce the old full stable sort
        // for every k, including heavy influence ties.
        let w = random_world(17, 40, 23);
        // Build the reference ranking the pre-selection way: stable
        // sort of the slot-ordered live list by descending influence.
        let mut reference: Vec<(u64, Point, u32)> = w
            .state
            .live_candidates()
            .into_iter()
            .map(|(handle, location, influence)| (w.candidate_ids[&handle], location, influence))
            .collect();
        reference.sort_by_key(|entry| std::cmp::Reverse(entry.2));
        for k in [0, 1, 2, 5, 22, 23, 24, 100] {
            let got = w.top_k(k).unwrap();
            assert_eq!(got.len(), k.min(reference.len()), "k = {k}");
            assert_eq!(got, reference[..got.len()], "k = {k}");
        }
    }

    #[test]
    fn maintenance_mode_round_trips_and_keeps_answers() {
        let mut w = random_world(19, 25, 9);
        assert_eq!(w.maintenance_mode(), MaintenanceMode::Delta);
        let before = w.top_k(9).unwrap();
        w.set_maintenance_mode(MaintenanceMode::FullScan);
        assert_eq!(w.maintenance_mode(), MaintenanceMode::FullScan);
        for i in 25..30 {
            w.apply(&insert_object(i, vec![Point::new(1.0, 1.0)]))
                .unwrap();
        }
        w.verify_against_static();
        w.set_maintenance_mode(MaintenanceMode::Delta);
        for i in 30..35 {
            w.apply(&insert_object(i, vec![Point::new(1.0, 1.0)]))
                .unwrap();
        }
        w.verify_against_static();
        assert_eq!(w.top_k(9).unwrap().len(), before.len());
    }

    #[test]
    fn solve_matches_best_for_every_algorithm() {
        let w = random_world(11, 30, 8);
        let (best_id, best_loc, best_inf) = w.best().unwrap().expect("live candidates");
        for algorithm in [
            Algorithm::Naive,
            Algorithm::Pinocchio,
            Algorithm::PinocchioVo,
            Algorithm::PinocchioVoStar,
            Algorithm::PinocchioJoin,
        ] {
            for threads in [1, 3] {
                let outcome = w.solve(algorithm, threads).unwrap();
                assert_eq!(outcome.candidate, best_id, "{algorithm:?} x{threads}");
                assert_eq!(outcome.influence, best_inf, "{algorithm:?} x{threads}");
                assert_eq!(outcome.location, best_loc, "{algorithm:?} x{threads}");
            }
        }
    }

    #[test]
    fn solve_on_an_empty_world_is_a_build_error() {
        let w = World::new(0.7);
        let err = w.solve(Algorithm::PinocchioVo, 1).unwrap_err();
        assert_eq!(err.code, ErrorCode::Build);
    }

    #[test]
    fn from_parts_round_trips_through_apply() {
        let mut rng = StdRng::seed_from_u64(5);
        let objects: Vec<MovingObject> = (0..12)
            .map(|i| {
                let n = rng.gen_range(1..6);
                MovingObject::new(
                    i,
                    (0..n)
                        .map(|_| Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
                        .collect(),
                )
            })
            .collect();
        let candidates: Vec<Point> = (0..5)
            .map(|_| Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
            .collect();
        let w = World::from_parts(objects.clone(), candidates.clone(), 0.7).unwrap();
        assert_eq!(w.object_count(), 12);
        assert_eq!(w.candidate_ids(), (0..5).collect::<Vec<u64>>());
        // Duplicate object ids are rejected.
        let mut dup = objects;
        dup.push(MovingObject::new(0, vec![Point::ORIGIN]));
        let err = World::from_parts(dup, candidates, 0.7).unwrap_err();
        assert_eq!(err.code, ErrorCode::DuplicateObject);
    }
}
