//! Exactness gates, run after the timed phase. Every check returns the
//! first mismatch as an error; any error fails the run.
//!
//! Served answers are checked against a mirror [`World`] rebuilt at the
//! epoch each answer reports: the writer applies updates in arrival
//! order and every ack carries the epoch that first contains its update,
//! so the state at epoch `E` is the initial world plus every update
//! acknowledged at an epoch `≤ E`.

use crate::inputs::{Group, Read};
use pinocchio_core::{argmax_smallest_index, EvalKernel, PrimeLs, SolveStats};
use pinocchio_data::MovingObject;
use pinocchio_geo::Point;
use pinocchio_heatmap::{Heatmap, TopRegion};
use pinocchio_prob::PowerLawPf;
use pinocchio_serve::{parse_request, Request, UpdateOp, World};
use serde_json::Value;

/// Maps epochs to update prefixes, from the acks of one in-order writer.
#[derive(Debug, Clone)]
pub struct EpochIndex {
    /// Ack epoch of each update, in send order.
    epochs: Vec<u64>,
}

impl EpochIndex {
    /// Validates the ack epochs: every update lands in a published epoch
    /// (≥ 1), and epochs never go backwards along the send order.
    pub fn from_acks(epochs: Vec<u64>) -> Result<EpochIndex, String> {
        if let Some(i) = epochs.iter().position(|&e| e == 0) {
            return Err(format!("update {i} acknowledged at epoch 0"));
        }
        if let Some(i) = epochs.windows(2).position(|w| w[1] < w[0]) {
            return Err(format!(
                "ack epochs go backwards at update {}: {} then {}",
                i + 1,
                epochs[i],
                epochs[i + 1]
            ));
        }
        Ok(EpochIndex { epochs })
    }

    /// How many updates the state at `epoch` contains.
    pub fn applied_at(&self, epoch: u64) -> usize {
        self.epochs.partition_point(|&e| e <= epoch)
    }

    /// The newest epoch any ack reported (0 with no updates).
    pub fn last(&self) -> u64 {
        self.epochs.last().copied().unwrap_or(0)
    }
}

/// A mirror world walked forward through the epochs, in ascending order.
#[derive(Debug)]
pub struct Mirror<'a> {
    world: World,
    updates: &'a [String],
    applied: usize,
    index: &'a EpochIndex,
}

impl<'a> Mirror<'a> {
    /// A mirror of `initial` that replays `updates` (the request lines as
    /// sent, parsed by the server's own parser) under `index`.
    pub fn new(initial: World, updates: &'a [String], index: &'a EpochIndex) -> Mirror<'a> {
        Mirror {
            world: initial,
            updates,
            applied: 0,
            index,
        }
    }

    /// The mirror at `epoch`; epochs must be visited in ascending order.
    pub fn at(&mut self, epoch: u64) -> Result<&World, String> {
        if epoch > self.index.last() {
            return Err(format!(
                "answer at epoch {epoch}, but no ack reported past {}",
                self.index.last()
            ));
        }
        let target = self.index.applied_at(epoch);
        if target < self.applied {
            return Err("mirror epochs must be visited in ascending order".to_string());
        }
        for line in &self.updates[self.applied..target] {
            let op = update_op(line)?;
            self.world
                .apply(&op)
                .map_err(|e| format!("mirror rejected {}: {e}", line.trim_end()))?;
        }
        self.applied = target;
        Ok(&self.world)
    }

    /// The mirror after every update.
    pub fn finish(mut self) -> Result<World, String> {
        self.at(self.index.last())?;
        Ok(self.world)
    }
}

/// The update a request line carries, parsed as the server parses it.
pub fn update_op(line: &str) -> Result<UpdateOp, String> {
    match parse_request(line.trim_end()) {
        Ok(Request::Update { op, .. }) => Ok(op),
        other => Err(format!("not an update line: {other:?}")),
    }
}

/// Parses one response line and requires `"ok": true`.
pub fn parse_ok(line: &str) -> Result<Value, String> {
    let v = serde_json::from_str(line).map_err(|_| format!("response is not JSON: {line}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("request failed: {line}"));
    }
    Ok(v)
}

/// The `epoch` field of a response.
pub fn epoch_of(v: &Value) -> Result<u64, String> {
    uint(v, "epoch")
}

fn uint(v: &Value, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer \"{field}\" in {v:?}"))
}

fn float_bits(v: &Value, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(Value::as_f64)
        .map(f64::to_bits)
        .ok_or_else(|| format!("missing number \"{field}\" in {v:?}"))
}

/// `(candidate, x, y, influence)` of a served entry matches exactly.
fn entry_matches(v: &Value, want: (u64, Point, u32)) -> Result<(), String> {
    let got = (
        uint(v, "candidate")?,
        float_bits(v, "x")?,
        float_bits(v, "y")?,
        uint(v, "influence")?,
    );
    let (id, at, inf) = want;
    if got == (id, at.x.to_bits(), at.y.to_bits(), u64::from(inf)) {
        Ok(())
    } else {
        Err(format!(
            "served ({}, {}, {}, {}) but the mirror has ({id}, {}, {}, {inf})",
            got.0,
            f64::from_bits(got.1),
            f64::from_bits(got.2),
            got.3,
            at.x,
            at.y
        ))
    }
}

/// A point read or a solve matches the mirror at its epoch bit for bit.
/// A solve must name the mirror's maintained optimum.
pub fn check_answer(read: &Read, v: &Value, world: &World) -> Result<(), String> {
    let best = || -> Result<(u64, Point, u32), String> {
        world
            .best()
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "mirror has no live candidate".to_string())
    };
    match *read {
        Read::Best | Read::Solve => entry_matches(v, best()?),
        Read::TopK(k) => {
            let want = world.top_k(k).map_err(|e| e.to_string())?;
            let got = v
                .get("entries")
                .and_then(Value::as_array)
                .ok_or("top_k answer without entries")?;
            if got.len() != want.len() {
                return Err(format!(
                    "top_k({k}) served {} entries, mirror {}",
                    got.len(),
                    want.len()
                ));
            }
            got.iter()
                .zip(want)
                .try_for_each(|(g, w)| entry_matches(g, w))
        }
        Read::InfluenceOf(c) => {
            let want = world.influence_of(c).map_err(|e| e.to_string())?;
            if uint(v, "candidate")? == c && uint(v, "influence")? == u64::from(want) {
                Ok(())
            } else {
                Err(format!("influence_of({c}) served {v:?}, mirror has {want}"))
            }
        }
        Read::Heatmap(_) | Read::TopRegion(..) => {
            Err("region answers are checked by their own gates".to_string())
        }
    }
}

/// A streamed heat map, reassembled.
#[derive(Debug)]
pub struct StreamedMap {
    /// `[x0, y0, x1, y1]` bit patterns from the terminal line.
    pub frame: [u64; 4],
    /// `(lo, hi, sample)` per tile, row-major.
    pub tiles: Vec<(u64, u64, u64)>,
}

/// Reassembles a heat-map stream and checks its framing: one epoch on
/// every line, offsets that tile the grid in order, a terminal line whose
/// totals match, and `lo ≤ sample ≤ hi` on every tile.
pub fn reassemble_heatmap(response: &str, resolution: u32) -> Result<StreamedMap, String> {
    let mut lines = response.lines().map(parse_ok).peekable();
    let mut tiles = Vec::new();
    let mut epoch = None;
    while let Some(v) = lines.next() {
        let v = v?;
        let e = epoch_of(&v)?;
        if *epoch.get_or_insert(e) != e {
            return Err(format!("heat-map stream mixes epochs {epoch:?} and {e}"));
        }
        if lines.peek().is_none() {
            if v.get("done").and_then(Value::as_bool) != Some(true) {
                return Err("heat-map stream ends without its done line".to_string());
            }
            let total = uint(&v, "tiles_total")?;
            let want = u64::from(resolution) * u64::from(resolution);
            if total != want || tiles.len() as u64 != want {
                return Err(format!(
                    "heat map at {resolution}² streamed {} tiles, reported {total}",
                    tiles.len()
                ));
            }
            let frame = v
                .get("frame")
                .and_then(Value::as_array)
                .filter(|f| f.len() == 4)
                .ok_or("heat map without a frame")?;
            let mut bits = [0u64; 4];
            for (b, f) in bits.iter_mut().zip(frame) {
                *b = f.as_f64().ok_or("non-numeric frame")?.to_bits();
            }
            return Ok(StreamedMap { frame: bits, tiles });
        }
        if uint(&v, "offset")? != tiles.len() as u64 {
            return Err("heat-map batches arrived out of order".to_string());
        }
        for t in v
            .get("tiles")
            .and_then(Value::as_array)
            .ok_or("batch without tiles")?
        {
            let t = t
                .as_array()
                .filter(|t| t.len() == 3)
                .ok_or("tile is not a triple")?;
            let n = |i: usize| t[i].as_u64().ok_or("non-integer tile value");
            let (lo, hi, sample) = (n(0)?, n(1)?, n(2)?);
            if !(lo <= sample && sample <= hi) {
                return Err(format!("tile band [{lo}, {hi}] misses its sample {sample}"));
            }
            tiles.push((lo, hi, sample));
        }
    }
    Err("empty heat-map response".to_string())
}

/// A streamed heat map equals the mirror's, tile for tile.
pub fn check_heatmap(got: &StreamedMap, want: &Heatmap) -> Result<(), String> {
    let frame = [
        want.frame.lo().x.to_bits(),
        want.frame.lo().y.to_bits(),
        want.frame.hi().x.to_bits(),
        want.frame.hi().y.to_bits(),
    ];
    if got.frame != frame {
        return Err("heat-map frame differs from the mirror's".to_string());
    }
    if got.tiles.len() != want.tiles.len() {
        return Err("heat-map tile count differs from the mirror's".to_string());
    }
    for (i, (g, w)) in got.tiles.iter().zip(&want.tiles).enumerate() {
        if *g != (u64::from(w.lo), u64::from(w.hi), u64::from(w.sample)) {
            return Err(format!("heat-map tile {i} is {g:?}, mirror {w:?}"));
        }
    }
    Ok(())
}

/// A world's live objects and candidate locations, in the slot order its
/// own solves freeze them in.
pub fn frozen_parts(world: &World) -> Result<(Vec<MovingObject>, Vec<Point>), String> {
    let candidates = world
        .live_influences()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(_, at, _)| at)
        .collect();
    Ok((world.snapshot_objects(), candidates))
}

/// The static problem over `objects` and `candidates` at `tau`, with the
/// paper's probability function, evaluated by `kernel`.
pub fn problem(
    objects: Vec<MovingObject>,
    candidates: Vec<Point>,
    tau: f64,
    kernel: EvalKernel,
) -> Result<PrimeLs<PowerLawPf>, String> {
    PrimeLs::builder()
        .objects(objects)
        .candidates(candidates)
        .probability_function(PowerLawPf::paper_default())
        .tau(tau)
        .evaluation_kernel(kernel)
        .build()
        .map_err(|e| e.to_string())
}

/// Freezes a world into the static problem its solves run on, under
/// `kernel`.
pub fn freeze(world: &World, kernel: EvalKernel) -> Result<PrimeLs<PowerLawPf>, String> {
    let (objects, candidates) = frozen_parts(world)?;
    problem(objects, candidates, world.tau(), kernel)
}

/// Every tile sample of `map` equals a dense count over `world`: each
/// tile centre evaluated against every object with the scalar kernel,
/// no pruning at all.
pub fn check_dense(world: &World, map: &Heatmap) -> Result<(), String> {
    let problem = freeze(world, EvalKernel::Scalar)?;
    let mut eval = problem.pair_eval();
    let mut stats = SolveStats::default();
    for (i, tile) in map.tiles.iter().enumerate() {
        let center = map.tile_center(i);
        let count = (0..problem.objects().len())
            .filter(|&k| eval.influences(&center, k, true, &mut stats))
            .count();
        if count != tile.sample as usize {
            return Err(format!(
                "tile {i}: descent sample {} but a dense count gives {count}",
                tile.sample
            ));
        }
    }
    Ok(())
}

/// A `top_region` answer equals the mirror's, cell for cell.
pub fn check_top_region(v: &Value, want: &TopRegion) -> Result<(), String> {
    let cells = v
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("top_region answer without cells")?;
    if cells.len() != want.cells.len() {
        return Err(format!(
            "top_region served {} cells, mirror {}",
            cells.len(),
            want.cells.len()
        ));
    }
    for (g, w) in cells.iter().zip(&want.cells) {
        let got = (
            uint(g, "tile")?,
            float_bits(g, "x")?,
            float_bits(g, "y")?,
            uint(g, "influence")?,
        );
        let exp = (
            w.tile as u64,
            w.center.x.to_bits(),
            w.center.y.to_bits(),
            u64::from(w.influence),
        );
        if got != exp {
            return Err(format!("top_region cell {got:?}, mirror {exp:?}"));
        }
    }
    Ok(())
}

/// An offline answer `(best index, influence, location)` equals the
/// smallest-index argmax of its group's exact influences.
pub fn check_offline(
    answer: (usize, u32, Point),
    group: &Group,
    exact: &[u32],
) -> Result<(), String> {
    let influences: Vec<u32> = group.venues.iter().map(|&v| exact[v]).collect();
    let (j, inf) = argmax_smallest_index(&influences).ok_or("empty candidate group")?;
    let at = group.points[j];
    let (got_j, got_inf, got_at) = answer;
    if (got_j, got_inf, got_at.x.to_bits(), got_at.y.to_bits())
        == (j, inf, at.x.to_bits(), at.y.to_bits())
    {
        Ok(())
    } else {
        Err(format!(
            "solver picked candidate {got_j} (influence {got_inf}); exact answer is {j} ({inf})"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::update_line;
    use pinocchio_serve::ShardedWorld;

    fn world() -> World {
        let mut w = World::new(0.7);
        for (id, (x, y)) in [(0.0, 0.0), (10.0, 0.0), (0.2, 0.1)]
            .into_iter()
            .enumerate()
        {
            w.apply(&UpdateOp::InsertCandidate {
                candidate: id as u64,
                location: Point::new(x, y),
            })
            .unwrap();
        }
        for id in 0..4u64 {
            w.apply(&UpdateOp::InsertObject {
                object: id,
                positions: vec![Point::new(0.05 * id as f64, 0.0)],
            })
            .unwrap();
        }
        w
    }

    fn best_response(w: &World, epoch: u64) -> String {
        let (c, at, inf) = w.best().unwrap().unwrap();
        format!(
            r#"{{"id":1,"ok":true,"epoch":{epoch},"candidate":{c},"x":{},"y":{},"influence":{inf}}}"#,
            at.x, at.y
        )
    }

    #[test]
    fn epochs_reconstruct_update_prefixes() {
        // Five updates published in batches: {0}, {1, 2}, {3, 4}.
        let index = EpochIndex::from_acks(vec![1, 2, 2, 3, 3]).unwrap();
        assert_eq!(index.applied_at(0), 0);
        assert_eq!(index.applied_at(1), 1);
        assert_eq!(index.applied_at(2), 3);
        assert_eq!(index.applied_at(3), 5);
        assert_eq!(index.applied_at(9), 5);
        assert!(EpochIndex::from_acks(vec![1, 3, 2]).is_err());
        assert!(EpochIndex::from_acks(vec![0, 1]).is_err());
    }

    #[test]
    fn mirror_follows_the_epochs() {
        let updates: Vec<String> = (10..13u64)
            .map(|id| {
                update_line(
                    &UpdateOp::InsertObject {
                        object: id,
                        positions: vec![Point::new(10.0, 0.05)],
                    },
                    id,
                )
            })
            .collect();
        let index = EpochIndex::from_acks(vec![1, 1, 2]).unwrap();
        let mut mirror = Mirror::new(world(), &updates, &index);
        assert_eq!(mirror.at(0).unwrap().object_count(), 4);
        assert_eq!(mirror.at(1).unwrap().object_count(), 6);
        assert!(mirror.at(0).is_err(), "epochs only move forward");
        let mut again = Mirror::new(world(), &updates, &index);
        assert!(again.at(3).is_err(), "no ack reported epoch 3");
        assert_eq!(again.finish().unwrap().object_count(), 7);
    }

    #[test]
    fn each_checker_rejects_a_corrupted_answer() {
        let w = world();
        let good = parse_ok(&best_response(&w, 0)).unwrap();
        assert_eq!(check_answer(&Read::Best, &good, &w), Ok(()));
        assert_eq!(check_answer(&Read::Solve, &good, &w), Ok(()));
        let bad = best_response(&w, 0).replace("\"influence\":", "\"influence\":1");
        assert!(check_answer(&Read::Best, &parse_ok(&bad).unwrap(), &w).is_err());
        assert!(parse_ok(r#"{"id":1,"ok":false,"error":{"code":"overloaded"}}"#).is_err());

        let top = r#"{"id":1,"ok":true,"epoch":0,"entries":[]}"#;
        assert!(check_answer(&Read::TopK(2), &parse_ok(top).unwrap(), &w).is_err());
        let inf = w.influence_of(1).unwrap() + 1;
        let wrong = format!(r#"{{"id":1,"ok":true,"epoch":0,"candidate":1,"influence":{inf}}}"#);
        assert!(check_answer(&Read::InfluenceOf(1), &parse_ok(&wrong).unwrap(), &w).is_err());

        let sharded = ShardedWorld::from_world(w.clone(), 1).unwrap();
        let map = sharded.heatmap(4).unwrap();
        let render = |tiles: &[String]| {
            format!(
                "{{\"id\":1,\"ok\":true,\"epoch\":0,\"op\":\"heatmap\",\"offset\":0,\"tiles\":[{}]}}\n\
                 {{\"id\":1,\"ok\":true,\"epoch\":0,\"op\":\"heatmap\",\"done\":true,\"resolution\":4,\
                 \"frame\":[{},{},{},{}],\"tiles_total\":16}}",
                tiles.join(","),
                map.frame.lo().x,
                map.frame.lo().y,
                map.frame.hi().x,
                map.frame.hi().y
            )
        };
        let mut tiles: Vec<String> = map
            .tiles
            .iter()
            .map(|t| format!("[{},{},{}]", t.lo, t.hi, t.sample))
            .collect();
        let streamed = reassemble_heatmap(&render(&tiles), 4).unwrap();
        assert_eq!(check_heatmap(&streamed, &map), Ok(()));
        let mut corrupted = streamed;
        corrupted.tiles[5].2 += 1;
        corrupted.tiles[5].1 += 1;
        assert!(check_heatmap(&corrupted, &map).is_err());
        tiles[0] = "[9,9,0]".to_string();
        assert!(
            reassemble_heatmap(&render(&tiles), 4).is_err(),
            "band misses sample"
        );

        assert_eq!(check_dense(&w, &map), Ok(()));
        let mut wrong_map = map.clone();
        wrong_map.tiles[0].sample += 1;
        assert!(check_dense(&w, &wrong_map).is_err());

        let region = sharded.top_region(3, 4).unwrap();
        let cells: Vec<String> = region
            .cells
            .iter()
            .map(|c| {
                format!(
                    r#"{{"tile":{},"x":{},"y":{},"influence":{}}}"#,
                    c.tile, c.center.x, c.center.y, c.influence
                )
            })
            .collect();
        let answer = format!(
            r#"{{"id":1,"ok":true,"epoch":0,"cells":[{}]}}"#,
            cells.join(",")
        );
        assert_eq!(
            check_top_region(&parse_ok(&answer).unwrap(), &region),
            Ok(())
        );
        let first_tile = format!("\"tile\":{}", region.cells[0].tile);
        let moved = answer.replacen(&first_tile, "\"tile\":99999", 1);
        assert!(check_top_region(&parse_ok(&moved).unwrap(), &region).is_err());

        let group = Group {
            venues: vec![0, 1, 2],
            points: vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
            ],
        };
        let exact = [3, 5, 5];
        assert_eq!(
            check_offline((1, 5, group.points[1]), &group, &exact),
            Ok(())
        );
        assert!(check_offline((2, 5, group.points[2]), &group, &exact).is_err());
        assert!(check_offline((1, 4, group.points[1]), &group, &exact).is_err());
    }
}
