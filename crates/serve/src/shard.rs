//! Object-partitioned serving: N in-process shard worlds behind one
//! shard-transparent coordinator.
//!
//! [`ShardedWorld`] holds one full [`World`] per shard. Objects are
//! routed to the shard [`shard_of`] names for their wire id — stable
//! across epochs and restarts — while candidate updates are broadcast so
//! every shard holds the identical candidate set in identical slot
//! order. Each shard world maintains its own incremental state (the
//! PR 6 delta-validated maintenance path runs per shard, touching only
//! the shard that owns the moved object), and the writer thread's
//! clone-apply-publish cycle clones all N shard worlds — cheap, because
//! a [`World`] clone shares its rows, mask tiles and object-id map
//! behind `Arc`s and an update copies only what it changes.
//!
//! Queries merge per-shard partials:
//!
//! * `influence_of` / `best` / `top_k` — influence is a sum over
//!   objects, so the merged per-candidate influence is the elementwise
//!   sum of the shard worlds' counts; ranking the merged counts by
//!   (influence desc, slot) reproduces the unsharded ranking bit for
//!   bit.
//! * `solve` — each shard freezes its partition into a static
//!   [`PrimeLs`](pinocchio_core::PrimeLs) and the core sharded solver
//!   ([`ShardedPrimeLs::try_solve`]) merges filter partials and
//!   fans residual verification back out to the owning shards.
//!
//! The wire protocol stays shard-transparent: clients see one world,
//! and only the `stats` response gains a per-shard counter block.
//!
//! Shards are plain in-process [`World`]s. A transport trait between the
//! coordinator and its shards comes back when a second transport (a
//! multi-process shard) exists; the coordinator needs only `apply` and
//! the object/candidate counts from a shard for updates, and the serve
//! crate's replay path would double as shard catch-up.

use crate::ingest::{SolveOutcome, World};
use crate::wire::{UpdateOp, WireError};
use pinocchio_core::{shard_of, Algorithm, BuildError, ShardedPrimeLs, SolveOptions};
use pinocchio_geo::{Mbr, Point};
use pinocchio_heatmap::{Heatmap, HeatmapError, TopRegion};
use std::cmp::Reverse;

/// Per-shard counters surfaced in the wire `stats` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard slot index.
    pub shard: usize,
    /// Live objects owned by the shard.
    pub objects: usize,
    /// Live candidates (broadcast; identical on every shard).
    pub candidates: usize,
    /// Object updates routed to this shard since construction
    /// (candidate broadcasts are not counted — they hit every shard).
    pub updates_routed: u64,
}

/// N shard worlds behind one [`World`]-shaped query surface.
///
/// With `shard_count <= 1` this wraps the single world: every query
/// delegates, and `solve` is the same solve call over one partition, so
/// the unsharded server topology is the 1-shard special case, bit for
/// bit.
#[derive(Debug, Clone)]
pub struct ShardedWorld {
    shards: Vec<World>,
    routed_updates: Vec<u64>,
}

impl ShardedWorld {
    /// Re-partitions a seed world across `shard_count` shards: the
    /// candidate set is broadcast in slot order (so every shard assigns
    /// the same slots), then each object is routed by [`shard_of`] on
    /// its wire id. `shard_count <= 1` keeps the seed world as-is.
    pub fn from_world(world: World, shard_count: usize) -> Result<ShardedWorld, WireError> {
        let n = shard_count.max(1);
        if n == 1 {
            return Ok(ShardedWorld {
                shards: vec![world],
                routed_updates: vec![0],
            });
        }
        let tau = world.tau();
        let mode = world.maintenance_mode();
        let candidates = world.live_influences()?;
        let mut shards: Vec<World> = (0..n)
            .map(|_| {
                let mut w = World::new(tau);
                w.set_maintenance_mode(mode);
                w
            })
            .collect();
        for &(id, location, _) in &candidates {
            let op = UpdateOp::InsertCandidate {
                candidate: id,
                location,
            };
            for shard in &mut shards {
                shard.apply(&op)?;
            }
        }
        for object in world.snapshot_objects() {
            let op = UpdateOp::InsertObject {
                object: object.id(),
                positions: object.positions().to_vec(),
            };
            shards[shard_of(object.id(), n)].apply(&op)?;
        }
        Ok(ShardedWorld {
            shards,
            routed_updates: vec![0; n],
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard counters for the `stats` response.
    pub fn shard_summaries(&self) -> Vec<ShardSummary> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardSummary {
                shard,
                objects: s.object_count(),
                candidates: s.candidate_count(),
                updates_routed: self.routed_updates[shard],
            })
            .collect()
    }

    /// Total live objects across all shards.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(World::object_count).sum()
    }

    /// Live candidates (identical on every shard).
    pub fn candidate_count(&self) -> usize {
        self.shards[0].candidate_count()
    }

    /// The live candidate ids, ascending.
    pub fn candidate_ids(&self) -> Vec<u64> {
        self.shards[0].candidate_ids()
    }

    /// The live object ids, ascending, across all shards.
    pub fn object_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.shards.iter().flat_map(|s| s.object_ids()).collect();
        ids.sort_unstable();
        ids
    }

    /// Rebuilds every shard's influence counts from scratch and asserts
    /// they match the incremental state. Test/benchmark gate.
    pub fn verify_against_static(&self) {
        for shard in &self.shards {
            shard.verify_against_static();
        }
    }

    /// Applies one update: object ops are routed to the owning shard,
    /// candidate ops are broadcast to all shards. On error nothing
    /// changed — shard 0 validates broadcasts first, and because every
    /// shard holds the identical candidate state, its verdict is every
    /// shard's verdict.
    pub fn apply(&mut self, op: &UpdateOp) -> Result<(), WireError> {
        match op {
            UpdateOp::InsertObject { object, .. }
            | UpdateOp::AppendPosition { object, .. }
            | UpdateOp::RemoveObject { object } => {
                let s = shard_of(*object, self.shards.len());
                self.shards[s].apply(op)?;
                self.routed_updates[s] += 1;
                Ok(())
            }
            UpdateOp::InsertCandidate { .. } | UpdateOp::RemoveCandidate { .. } => {
                let (first, rest) = self
                    .shards
                    .split_first_mut()
                    .expect("a sharded world always has at least one shard");
                first.apply(op)?;
                for shard in rest {
                    shard
                        .apply(op)
                        .expect("candidate broadcast diverged across shards");
                }
                Ok(())
            }
        }
    }

    /// Every live candidate as `(wire id, location, merged influence)`,
    /// slot order — the elementwise sum of the shard partials.
    fn merged_live(&self) -> Result<Vec<(u64, Point, u32)>, WireError> {
        let mut shards = self.shards.iter();
        let first = shards
            .next()
            .expect("a sharded world always has at least one shard");
        let mut merged = first.live_influences()?;
        for shard in shards {
            let partial = shard.live_influences()?;
            assert_eq!(
                partial.len(),
                merged.len(),
                "candidate broadcast diverged across shards"
            );
            for (acc, (id, _, influence)) in merged.iter_mut().zip(partial) {
                debug_assert_eq!(acc.0, id, "candidate slot order diverged across shards");
                acc.2 += influence;
            }
        }
        Ok(merged)
    }

    /// The current optimum as `(wire id, location, influence)`; ties
    /// break towards the earlier slot — the same rule as the unsharded
    /// [`World::best`].
    pub fn best(&self) -> Result<Option<(u64, Point, u32)>, WireError> {
        let live = self.merged_live()?;
        Ok(live
            .into_iter()
            .enumerate()
            .max_by_key(|&(slot, (_, _, influence))| (influence, Reverse(slot)))
            .map(|(_, entry)| entry))
    }

    /// The `k` highest-influence candidates, influence descending, ties
    /// by slot order — identical ranking to the unsharded
    /// [`World::top_k`] because the merged influences are exact.
    pub fn top_k(&self, k: usize) -> Result<Vec<(u64, Point, u32)>, WireError> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let mut live: Vec<(usize, (u64, Point, u32))> =
            self.merged_live()?.into_iter().enumerate().collect();
        let rank = |a: &(usize, (u64, Point, u32)), b: &(usize, (u64, Point, u32))| {
            (Reverse(a.1 .2), a.0).cmp(&(Reverse(b.1 .2), b.0))
        };
        if k < live.len() {
            live.select_nth_unstable_by(k - 1, rank);
            live.truncate(k);
        }
        live.sort_unstable_by(rank);
        Ok(live.into_iter().map(|(_, entry)| entry).collect())
    }

    /// Exact influence of one candidate: the sum of the shard worlds'
    /// counts (each shard counts its own objects, partitions are
    /// disjoint).
    pub fn influence_of(&self, candidate: u64) -> Result<u32, WireError> {
        let mut total = 0u32;
        for shard in &self.shards {
            total += shard.influence_of(candidate)?;
        }
        Ok(total)
    }

    /// The influence heat map of the full object set: per-shard
    /// descents over the **global** frame (the union of every shard's
    /// influenceable-object bounds — bit-identical to the unsharded
    /// frame, because `f64` min/max is exact and associative), merged
    /// elementwise. Influence is a sum over disjoint object
    /// partitions, so merged `sample` values are exact and equal the
    /// unsharded ones bit for bit; merged `[lo, hi]` bands are sums of
    /// sound per-shard bands — sound, but descent-dependent, so they
    /// may be wider or narrower than the unsharded descent's.
    pub fn heatmap(&self, resolution: u32) -> Result<Heatmap, WireError> {
        if self.shards.len() == 1 {
            return self.shards[0].heatmap(resolution, None);
        }
        let mut problems = Vec::new();
        for shard in &self.shards {
            if shard.object_count() == 0 {
                continue;
            }
            problems.push(shard.to_problem()?.0);
        }
        if problems.is_empty() {
            // No shard owns an object — the same error the unsharded
            // freeze raises on an object-less world.
            return Err(WireError::from(BuildError::NoObjects));
        }
        let mut frame: Option<Mbr> = None;
        for problem in &problems {
            if let Some(bounds) = problem.object_tree().bounds() {
                frame = Some(match frame {
                    Some(f) => f.union(&bounds),
                    None => bounds,
                });
            }
        }
        let Some(frame) = frame else {
            return Err(WireError::from(HeatmapError::EmptyFrame));
        };
        let mut merged: Option<Heatmap> = None;
        for problem in &problems {
            let partial = pinocchio_heatmap::try_heatmap(problem, resolution, Some(frame))?;
            match &mut merged {
                None => merged = Some(partial),
                Some(acc) => {
                    debug_assert_eq!(acc.tiles.len(), partial.tiles.len());
                    for (a, t) in acc.tiles.iter_mut().zip(&partial.tiles) {
                        a.lo += t.lo;
                        a.hi += t.hi;
                        a.sample += t.sample;
                    }
                    acc.stats += partial.stats;
                }
            }
        }
        Ok(merged.expect("at least one shard problem was frozen"))
    }

    /// The `k` highest-influence tiles, `(influence desc, tile index
    /// asc)`. Implemented as an argmax scan over the merged heat map —
    /// merged samples are exact, so this bit-matches the unsharded
    /// branch-and-bound answer (both equal the argmax over exact
    /// per-tile counts).
    pub fn top_region(&self, k: usize, resolution: u32) -> Result<TopRegion, WireError> {
        if self.shards.len() == 1 {
            return self.shards[0].top_region(k, resolution, None);
        }
        if k == 0 {
            return Err(WireError::from(HeatmapError::ZeroK));
        }
        let heatmap = self.heatmap(resolution)?;
        let mut ranked: Vec<(usize, u32)> = heatmap
            .tiles
            .iter()
            .enumerate()
            .map(|(tile, t)| (tile, t.sample))
            .collect();
        let rank =
            |a: &(usize, u32), b: &(usize, u32)| (Reverse(a.1), a.0).cmp(&(Reverse(b.1), b.0));
        if k < ranked.len() {
            ranked.select_nth_unstable_by(k - 1, rank);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(rank);
        let cells = ranked
            .into_iter()
            .map(|(tile, influence)| pinocchio_heatmap::RegionCell {
                tile,
                center: heatmap.tile_center(tile),
                influence,
            })
            .collect();
        Ok(TopRegion {
            frame: heatmap.frame,
            resolution,
            cells,
            stats: heatmap.stats,
        })
    }

    /// Freezes every shard and solves through the core sharded
    /// coordinator ([`ShardedPrimeLs::try_solve`]): per-shard filter
    /// partials, merged bounds, residual verify fan-out. One shard is
    /// the same call over one partition (0 threads count as 1). Same
    /// winner as [`Self::best`], ties included — the exactness property
    /// the soak suite gates on.
    pub fn solve(&self, algorithm: Algorithm, threads: usize) -> Result<SolveOutcome, WireError> {
        let mut problems = Vec::with_capacity(self.shards.len());
        let mut ids: Option<Vec<u64>> = None;
        for shard in &self.shards {
            if shard.object_count() == 0 {
                problems.push(None);
                continue;
            }
            let (problem, shard_ids) = shard.to_problem()?;
            match &ids {
                Some(existing) => {
                    debug_assert_eq!(
                        existing, &shard_ids,
                        "candidate slots diverged across shards"
                    );
                }
                None => ids = Some(shard_ids),
            }
            problems.push(Some(problem));
        }
        let Some(ids) = ids else {
            // No shard owns an object — the same error the unsharded
            // freeze raises on an object-less world.
            return Err(WireError::from(BuildError::NoObjects));
        };
        let sharded = ShardedPrimeLs::from_problems(problems).map_err(WireError::from)?;
        let (result, _) = sharded.try_solve(&SolveOptions {
            threads: threads.max(1),
            ..SolveOptions::new(algorithm)
        })?;
        Ok(SolveOutcome {
            algorithm: result.algorithm,
            candidate: ids[result.best_candidate],
            location: result.best_location,
            influence: result.max_influence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ErrorCode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_world(seed: u64, objects: usize, candidates: usize) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = World::new(0.7);
        for j in 0..candidates {
            w.apply(&UpdateOp::InsertCandidate {
                candidate: j as u64,
                location: Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)),
            })
            .unwrap();
        }
        for i in 0..objects {
            let n = rng.gen_range(1..10);
            let positions = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)))
                .collect();
            w.apply(&UpdateOp::InsertObject {
                object: i as u64,
                positions,
            })
            .unwrap();
        }
        w
    }

    fn random_op(rng: &mut StdRng, live: &mut Vec<u64>, next_id: &mut u64) -> UpdateOp {
        let roll = rng.gen_range(0u32..10);
        if roll < 6 && !live.is_empty() {
            UpdateOp::AppendPosition {
                object: live[rng.gen_range(0..live.len())],
                position: Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)),
            }
        } else if roll < 9 || live.len() <= 5 {
            let object = *next_id;
            *next_id += 1;
            live.push(object);
            UpdateOp::InsertObject {
                object,
                positions: vec![Point::new(
                    rng.gen_range(0.0..30.0),
                    rng.gen_range(0.0..20.0),
                )],
            }
        } else {
            let object = live.swap_remove(rng.gen_range(0..live.len()));
            UpdateOp::RemoveObject { object }
        }
    }

    fn assert_same_answers(sharded: &ShardedWorld, mirror: &World) {
        assert_eq!(sharded.best().unwrap(), mirror.best().unwrap());
        for k in [1, 3, 100] {
            assert_eq!(sharded.top_k(k).unwrap(), mirror.top_k(k).unwrap());
        }
        for id in mirror.candidate_ids() {
            assert_eq!(
                sharded.influence_of(id).unwrap(),
                mirror.influence_of(id).unwrap()
            );
        }
    }

    #[test]
    fn one_shard_wraps_the_world_unchanged() {
        let world = random_world(3, 30, 8);
        let sharded = ShardedWorld::from_world(world.clone(), 1).unwrap();
        assert_eq!(sharded.shard_count(), 1);
        assert_same_answers(&sharded, &world);
        let outcome = sharded.solve(Algorithm::PinocchioVo, 2).unwrap();
        assert_eq!(outcome, world.solve(Algorithm::PinocchioVo, 2).unwrap());
    }

    #[test]
    fn partitioned_queries_and_solves_bit_match_the_unsharded_world() {
        let world = random_world(5, 40, 9);
        for n in [2, 4, 8] {
            let sharded = ShardedWorld::from_world(world.clone(), n).unwrap();
            assert_eq!(sharded.shard_count(), n);
            assert_eq!(sharded.object_count(), world.object_count());
            assert_eq!(sharded.candidate_count(), world.candidate_count());
            assert_eq!(sharded.object_ids(), world.object_ids());
            sharded.verify_against_static();
            assert_same_answers(&sharded, &world);
            for algorithm in Algorithm::WITH_EXTENSIONS {
                for threads in [1, 3] {
                    let got = sharded.solve(algorithm, threads).unwrap();
                    let want = world.solve(algorithm, 1).unwrap();
                    assert_eq!(got.candidate, want.candidate, "{algorithm:?} n={n}");
                    assert_eq!(got.influence, want.influence, "{algorithm:?} n={n}");
                    assert_eq!(
                        (got.location.x.to_bits(), got.location.y.to_bits()),
                        (want.location.x.to_bits(), want.location.y.to_bits())
                    );
                }
            }
        }
    }

    #[test]
    fn routed_updates_stay_in_lockstep_with_an_unsharded_mirror() {
        let mut mirror = random_world(7, 25, 7);
        let mut sharded = ShardedWorld::from_world(mirror.clone(), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0x5AD7);
        let mut live = mirror.object_ids();
        let mut next_id = 1000u64;
        for step in 0..120 {
            let op = random_op(&mut rng, &mut live, &mut next_id);
            sharded.apply(&op).unwrap();
            mirror.apply(&op).unwrap();
            if step % 20 == 19 {
                sharded.verify_against_static();
                assert_same_answers(&sharded, &mirror);
                let outcome = sharded.solve(Algorithm::PinocchioJoin, 2).unwrap();
                assert_eq!(outcome, mirror.solve(Algorithm::PinocchioJoin, 1).unwrap());
            }
        }
        // Routing counters account exactly the object updates applied.
        let routed: u64 = sharded
            .shard_summaries()
            .iter()
            .map(|s| s.updates_routed)
            .sum();
        assert_eq!(routed, 120);
        // Candidate churn broadcasts; both sides keep agreeing.
        sharded
            .apply(&UpdateOp::InsertCandidate {
                candidate: 99,
                location: Point::new(1.0, 1.0),
            })
            .unwrap();
        mirror
            .apply(&UpdateOp::InsertCandidate {
                candidate: 99,
                location: Point::new(1.0, 1.0),
            })
            .unwrap();
        assert_same_answers(&sharded, &mirror);
        sharded
            .apply(&UpdateOp::RemoveCandidate { candidate: 99 })
            .unwrap();
        mirror
            .apply(&UpdateOp::RemoveCandidate { candidate: 99 })
            .unwrap();
        assert_same_answers(&sharded, &mirror);
        for summary in sharded.shard_summaries() {
            assert_eq!(summary.candidates, mirror.candidate_count());
        }
    }

    #[test]
    fn sharded_heatmaps_keep_exact_samples_and_sound_bands() {
        let world = random_world(11, 40, 6);
        let unsharded = ShardedWorld::from_world(world.clone(), 1).unwrap();
        let base = unsharded.heatmap(32).unwrap();
        assert_eq!(base.tiles.len(), 32 * 32);
        for n in [2, 4] {
            let sharded = ShardedWorld::from_world(world.clone(), n).unwrap();
            let merged = sharded.heatmap(32).unwrap();
            // The global frame is the union of per-shard bounds — bit-equal
            // to the unsharded frame because f64 min/max is exact.
            assert_eq!(merged.frame, base.frame, "n={n}");
            assert_eq!(merged.resolution, base.resolution);
            for (i, (m, b)) in merged.tiles.iter().zip(&base.tiles).enumerate() {
                // Samples are exact sums over disjoint partitions.
                assert_eq!(m.sample, b.sample, "tile {i} sample, n={n}");
                // Bands are descent-dependent, but both must stay sound.
                assert!(m.lo <= m.sample && m.sample <= m.hi, "tile {i}, n={n}");
            }
        }
    }

    #[test]
    fn sharded_top_region_bit_matches_the_unsharded_answer() {
        let world = random_world(13, 35, 5);
        let unsharded = ShardedWorld::from_world(world.clone(), 1).unwrap();
        for k in [1, 4, 9] {
            let base = unsharded.top_region(k, 16).unwrap();
            assert_eq!(base.cells.len(), k.min(16 * 16));
            for n in [2, 4] {
                let sharded = ShardedWorld::from_world(world.clone(), n).unwrap();
                let got = sharded.top_region(k, 16).unwrap();
                assert_eq!(got.frame, base.frame);
                assert_eq!(got.resolution, base.resolution);
                assert_eq!(got.cells, base.cells, "k={k} n={n}");
            }
        }
    }

    #[test]
    fn heatmap_on_an_objectless_sharded_world_is_a_typed_error() {
        let mut w = World::new(0.7);
        w.apply(&UpdateOp::InsertCandidate {
            candidate: 0,
            location: Point::ORIGIN,
        })
        .unwrap();
        let sharded = ShardedWorld::from_world(w, 4).unwrap();
        let err = sharded.heatmap(16).unwrap_err();
        assert_eq!(err.code, ErrorCode::Build);
        let err = sharded.top_region(3, 16).unwrap_err();
        assert_eq!(err.code, ErrorCode::Build);
    }

    #[test]
    fn update_errors_are_typed_and_leave_every_shard_unchanged() {
        let world = random_world(9, 20, 6);
        let mut sharded = ShardedWorld::from_world(world, 4).unwrap();
        let before = sharded.shard_summaries();
        let err = sharded
            .apply(&UpdateOp::AppendPosition {
                object: 777,
                position: Point::ORIGIN,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownObject);
        let err = sharded
            .apply(&UpdateOp::InsertCandidate {
                candidate: 0,
                location: Point::ORIGIN,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::DuplicateCandidate);
        assert_eq!(sharded.shard_summaries(), before);
        sharded.verify_against_static();
    }

    #[test]
    fn empty_worlds_error_like_the_unsharded_path() {
        let mut w = World::new(0.7);
        w.apply(&UpdateOp::InsertCandidate {
            candidate: 0,
            location: Point::ORIGIN,
        })
        .unwrap();
        let sharded = ShardedWorld::from_world(w, 4).unwrap();
        let err = sharded.solve(Algorithm::PinocchioVo, 2).unwrap_err();
        assert_eq!(err.code, ErrorCode::Build);
    }
}
