//! Every input a run uses: the two synthetic datasets at full scale, and,
//! drawn from them with `--seed`, the candidate groups, the offline query
//! list and the request and update streams of the serve workloads. The
//! same seed gives the same inputs; the program under test receives only
//! these.
//!
//! The datasets themselves keep their calibrated generator seeds. A
//! dataset drawn per run seed moved the offline median by up to 40 %
//! between seeds (position counts and hotspot layout change with it),
//! several times the run-to-run noise, so every seed measures the same
//! two worlds and varies what is asked of them.

use crate::stats::Fnv;
use pinocchio_data::{sample_candidate_group, Dataset, GeneratorConfig, SyntheticGenerator};
use pinocchio_geo::Point;
use pinocchio_serve::UpdateOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// τ of every served world (the paper's default).
pub const SERVE_TAU: f64 = 0.7;
/// Thresholds the offline queries interleave; τ = 0.9 prunes least and
/// sets the tail.
pub const OFFLINE_TAUS: [f64; 3] = [0.5, 0.7, 0.9];
/// Candidate-group seeds of the offline workload (three τ per group).
pub const OFFLINE_GROUPS: usize = 400;
/// Candidates per offline query and per read-heavy served world.
pub const CANDIDATES: usize = 600;
/// Jitter (km) of a generated position around an existing one — the
/// generator's own venue jitter.
const JITTER_KM: f64 = 0.15;

/// Purposes a derived seed is drawn for; one independent stream each.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Groups = 1,
    Candidates,
    Reads,
    Updates,
    Probe,
}

/// SplitMix64 of the run seed and a stream tag.
pub fn derive(seed: u64, stream: Stream) -> u64 {
    let mut z = seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Foursquare-like dataset (2,321 objects, 5,594 venues).
pub fn foursquare() -> Dataset {
    SyntheticGenerator::new(GeneratorConfig::foursquare_like()).generate()
}

/// The Gowalla-like dataset (10,162 objects, 24,081 venues).
pub fn gowalla() -> Dataset {
    SyntheticGenerator::new(GeneratorConfig::gowalla_like()).generate()
}

/// Total positions over a dataset's objects.
pub fn positions(dataset: &Dataset) -> usize {
    dataset.objects().iter().map(|o| o.position_count()).sum()
}

/// A candidate set drawn from a dataset's venues.
#[derive(Debug, Clone)]
pub struct Group {
    /// Venue indices, in candidate order.
    pub venues: Vec<usize>,
    /// The venues' locations.
    pub points: Vec<Point>,
}

/// `size` distinct venues of `dataset`, drawn with `seed`.
pub fn group(dataset: &Dataset, size: usize, seed: u64) -> Group {
    let (venues, points) = sample_candidate_group(dataset, size.min(dataset.venues().len()), seed);
    Group { venues, points }
}

/// One offline query: a candidate group and a threshold.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Index into the group list.
    pub group: usize,
    /// τ.
    pub tau: f64,
}

/// The offline workload's inputs: 400 groups × 3 τ = 1,200 distinct
/// queries, τ interleaved query by query.
pub fn offline_queries(dataset: &Dataset, seed: u64) -> (Vec<Group>, Vec<Query>) {
    let base = derive(seed, Stream::Groups);
    let groups = (0..OFFLINE_GROUPS as u64)
        .map(|g| group(dataset, CANDIDATES, base.wrapping_add(g)))
        .collect();
    let queries = (0..OFFLINE_GROUPS * OFFLINE_TAUS.len())
        .map(|q| Query {
            group: q / OFFLINE_TAUS.len(),
            tau: OFFLINE_TAUS[q % OFFLINE_TAUS.len()],
        })
        .collect();
    (groups, queries)
}

/// A read-only query the serve workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// `best`.
    Best,
    /// `top_k` with this `k`.
    TopK(usize),
    /// `influence_of` this candidate id.
    InfluenceOf(u64),
    /// `solve` with PIN-VO.
    Solve,
    /// `heatmap` at this resolution.
    Heatmap(u32),
    /// `top_region` with `k` tiles at a resolution.
    TopRegion(usize, u32),
}

impl Read {
    /// The request line (newline included) carrying correlation id `id`.
    pub fn line(&self, id: u64) -> String {
        match *self {
            Read::Best => format!("{{\"v\":1,\"id\":{id},\"op\":\"best\"}}\n"),
            Read::TopK(k) => format!("{{\"v\":1,\"id\":{id},\"op\":\"top_k\",\"k\":{k}}}\n"),
            Read::InfluenceOf(c) => {
                format!("{{\"v\":1,\"id\":{id},\"op\":\"influence_of\",\"candidate\":{c}}}\n")
            }
            Read::Solve => {
                format!("{{\"v\":1,\"id\":{id},\"op\":\"solve\",\"algo\":\"pin-vo\"}}\n")
            }
            Read::Heatmap(r) => {
                format!("{{\"v\":1,\"id\":{id},\"op\":\"heatmap\",\"resolution\":{r}}}\n")
            }
            Read::TopRegion(k, r) => format!(
                "{{\"v\":1,\"id\":{id},\"op\":\"top_region\",\"k\":{k},\"resolution\":{r}}}\n"
            ),
        }
    }
}

/// `serve_reads`' mix: 40 % `best`, 30 % `top_k` (k ∈ 1..=10), 30 %
/// `influence_of` over candidate ids `0..candidates`.
pub fn read_mix(rng: &mut StdRng, candidates: u64) -> Read {
    match rng.gen_range(0..10u32) {
        0..=3 => Read::Best,
        4..=6 => Read::TopK(rng.gen_range(1..=10usize)),
        _ => Read::InfluenceOf(rng.gen_range(0..candidates)),
    }
}

/// `serve_updates`' reads: `best` or `top_k`, which stay valid while
/// candidates come and go.
pub fn best_or_top_k(rng: &mut StdRng) -> Read {
    if rng.gen_bool(0.5) {
        Read::Best
    } else {
        Read::TopK(rng.gen_range(1..=10usize))
    }
}

/// The request line (newline included) of an update with id `id`.
pub fn update_line(op: &UpdateOp, id: u64) -> String {
    match op {
        UpdateOp::InsertObject { object, positions } => {
            let mut coords = String::with_capacity(40 * positions.len());
            for (i, p) in positions.iter().enumerate() {
                if i > 0 {
                    coords.push(',');
                }
                coords.push_str(&format!("[{},{}]", p.x, p.y));
            }
            format!(
                "{{\"v\":1,\"id\":{id},\"op\":\"insert_object\",\"object\":{object},\"positions\":[{coords}]}}\n"
            )
        }
        UpdateOp::AppendPosition { object, position } => format!(
            "{{\"v\":1,\"id\":{id},\"op\":\"append_position\",\"object\":{object},\"x\":{},\"y\":{}}}\n",
            position.x, position.y
        ),
        UpdateOp::RemoveObject { object } => {
            format!("{{\"v\":1,\"id\":{id},\"op\":\"remove_object\",\"object\":{object}}}\n")
        }
        UpdateOp::InsertCandidate {
            candidate,
            location,
        } => format!(
            "{{\"v\":1,\"id\":{id},\"op\":\"insert_candidate\",\"candidate\":{candidate},\"x\":{},\"y\":{}}}\n",
            location.x, location.y
        ),
        UpdateOp::RemoveCandidate { candidate } => {
            format!("{{\"v\":1,\"id\":{id},\"op\":\"remove_candidate\",\"candidate\":{candidate}}}\n")
        }
    }
}

fn jitter(rng: &mut StdRng, p: Point) -> Point {
    Point::new(
        p.x + rng.gen_range(-JITTER_KM..JITTER_KM),
        p.y + rng.gen_range(-JITTER_KM..JITTER_KM),
    )
}

/// Where a live object's positions live, for appends near them.
#[derive(Debug, Clone, Copy)]
enum Owner {
    Dataset(usize),
    Inserted(usize),
}

/// A stateful generator of valid updates: it tracks the live objects and
/// candidates so every op it emits is valid at its point in the stream.
#[derive(Debug)]
pub struct UpdateGen<'a> {
    dataset: &'a Dataset,
    rng: StdRng,
    live_objects: Vec<(u64, Owner)>,
    inserted: Vec<Vec<Point>>,
    live_candidates: Vec<u64>,
    unused_venues: Vec<usize>,
    floor_objects: usize,
    floor_candidates: usize,
    next_object: u64,
    next_candidate: u64,
}

impl<'a> UpdateGen<'a> {
    /// A generator over the world `World::from_parts(dataset objects,
    /// candidates at `group`'s venues)`: objects keep their dataset ids,
    /// candidates are `0..m`.
    pub fn new(dataset: &'a Dataset, group: &Group, seed: u64) -> UpdateGen<'a> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut used = vec![false; dataset.venues().len()];
        for &v in &group.venues {
            used[v] = true;
        }
        let mut unused_venues: Vec<usize> = (0..used.len()).filter(|&v| !used[v]).collect();
        for i in (1..unused_venues.len()).rev() {
            unused_venues.swap(i, rng.gen_range(0..=i));
        }
        let objects = dataset.objects();
        UpdateGen {
            dataset,
            rng,
            live_objects: objects
                .iter()
                .enumerate()
                .map(|(i, o)| (o.id(), Owner::Dataset(i)))
                .collect(),
            inserted: Vec::new(),
            live_candidates: (0..group.points.len() as u64).collect(),
            unused_venues,
            floor_objects: objects.len() / 2,
            floor_candidates: group.points.len() / 2,
            next_object: objects.iter().map(|o| o.id()).max().map_or(0, |m| m + 1),
            next_candidate: group.points.len() as u64,
        }
    }

    fn own_positions(&self, owner: Owner) -> &[Point] {
        match owner {
            Owner::Dataset(i) => self.dataset.objects()[i].positions(),
            Owner::Inserted(i) => &self.inserted[i],
        }
    }

    /// An append near one of a random live object's own positions.
    pub fn append(&mut self) -> UpdateOp {
        let (object, owner) = self.live_objects[self.rng.gen_range(0..self.live_objects.len())];
        let n = self.own_positions(owner).len();
        let pick = self.rng.gen_range(0..n);
        let anchor = self.own_positions(owner)[pick];
        UpdateOp::AppendPosition {
            object,
            position: jitter(&mut self.rng, anchor),
        }
    }

    /// The update-heavy mix: 70 % appends, 10 % object inserts (a dataset
    /// object's positions, jittered), 5 % object removals, 10 % candidate
    /// inserts at unused venues, 5 % candidate removals. Removals stop at
    /// half the initial population and are redrawn.
    pub fn mixed(&mut self) -> UpdateOp {
        loop {
            match self.rng.gen_range(0..20u32) {
                0..=13 => return self.append(),
                14 | 15 => {
                    let objects = self.dataset.objects();
                    let source = &objects[self.rng.gen_range(0..objects.len())];
                    let positions: Vec<Point> = source
                        .positions()
                        .iter()
                        .map(|&p| jitter(&mut self.rng, p))
                        .collect();
                    let object = self.next_object;
                    self.next_object += 1;
                    self.inserted.push(positions.clone());
                    self.live_objects
                        .push((object, Owner::Inserted(self.inserted.len() - 1)));
                    return UpdateOp::InsertObject { object, positions };
                }
                16 if self.live_objects.len() > self.floor_objects => {
                    let i = self.rng.gen_range(0..self.live_objects.len());
                    let (object, _) = self.live_objects.swap_remove(i);
                    return UpdateOp::RemoveObject { object };
                }
                17 | 18 => {
                    let Some(venue) = self.unused_venues.pop() else {
                        continue;
                    };
                    let candidate = self.next_candidate;
                    self.next_candidate += 1;
                    self.live_candidates.push(candidate);
                    return UpdateOp::InsertCandidate {
                        candidate,
                        location: self.dataset.venues()[venue].position,
                    };
                }
                19 if self.live_candidates.len() > self.floor_candidates => {
                    let i = self.rng.gen_range(0..self.live_candidates.len());
                    let candidate = self.live_candidates.swap_remove(i);
                    return UpdateOp::RemoveCandidate { candidate };
                }
                _ => {}
            }
        }
    }
}

/// Fingerprint of a dataset and the candidate groups drawn from it.
pub fn fingerprint(dataset: &Dataset, groups: &[&Group]) -> u64 {
    let mut h = Fnv::default();
    for o in dataset.objects() {
        h.u64(o.id());
        for p in o.positions() {
            h.f64(p.x);
            h.f64(p.y);
        }
    }
    for v in dataset.venues() {
        h.f64(v.position.x);
        h.f64(v.position.y);
    }
    for g in groups {
        for &v in &g.venues {
            h.u64(v as u64);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinocchio_serve::{parse_request, Request, World};

    fn small() -> Dataset {
        SyntheticGenerator::new(GeneratorConfig::small(80, 3)).generate()
    }

    #[test]
    fn same_seed_same_inputs() {
        let d = small();
        let a = group(&d, 20, 5);
        let b = group(&d, 20, 5);
        assert_eq!(a.venues, b.venues);
        let fa = fingerprint(&d, &[&a]);
        assert_eq!(fa, fingerprint(&d, &[&b]));
        assert_ne!(fa, fingerprint(&d, &[&group(&d, 20, 6)]));
        assert_ne!(derive(1, Stream::Reads), derive(2, Stream::Reads));
        assert_ne!(derive(1, Stream::Reads), derive(1, Stream::Updates));
    }

    #[test]
    fn generated_updates_are_valid_and_round_trip_the_wire() {
        let d = small();
        let g = group(&d, 30, 1);
        let mut world =
            World::from_parts(d.objects().to_vec(), g.points.clone(), SERVE_TAU).expect("world");
        let mut gen = UpdateGen::new(&d, &g, 9);
        for id in 0..2_000u64 {
            let op = gen.mixed();
            let line = update_line(&op, id);
            match parse_request(line.trim_end()).expect("line parses") {
                Request::Update {
                    id: Some(echo),
                    op: parsed,
                } => {
                    assert_eq!(echo, id);
                    assert_eq!(parsed, op, "wire round trip is exact");
                }
                other => panic!("not an update: {other:?}"),
            }
            world.apply(&op).expect("generated update is valid");
        }
        world.verify_against_static();
        for read in [
            Read::Best,
            Read::TopK(3),
            Read::InfluenceOf(2),
            Read::Solve,
            Read::Heatmap(32),
            Read::TopRegion(10, 32),
        ] {
            assert!(matches!(
                parse_request(read.line(4).trim_end()),
                Ok(Request::Query { id: Some(4), .. })
            ));
        }
    }
}
