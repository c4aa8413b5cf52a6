//! The traced per-layer probe.
//!
//! After a traced run's timed phase, the probe measures each workspace
//! crate ("layer") from outside, recording spans in this file around
//! calls to the layer's public functions, all on one thread:
//!
//! * **data / core / index / prob** — a sample of the workload's own
//!   problems (offline queries, or the served world frozen at points of
//!   its update stream) built, prepared and solved phase by phase, plus
//!   every evaluation kernel over the sample's undecided pairs;
//! * **serve / dynamic** — the workload's own request and update
//!   sequence replayed in epoch order through the calls the server makes
//!   (`wire::parse_request`, `ShardedWorld` queries and `apply`, clone +
//!   `Publisher::publish`, `wire::response_ok`). Op kinds the workload
//!   never sends are replayed from a fixed synthetic sample on the same
//!   world, so every layer metric is measured on every workload;
//! * **heatmap** — descent, `top_region` and the streamed encoding on
//!   the served world, plus the freeze cost `ShardedWorld::solve` adds.
//!
//! The replay runs twice with the recorder off and twice with it on; the
//! difference is the tracing overhead.

use crate::check::{self, freeze, frozen_parts};
use crate::client::Exchange;
use crate::inputs::{self, Group};
use crate::stats::{median, Sample};
use crate::trace::Recorder;
use pinocchio_core::pinocchio::classify_candidate;
use pinocchio_core::{try_solve_sharded_timed, Algorithm, EvalKernel, ShardedPrimeLs, SolveStats};
use pinocchio_data::{Dataset, MovingObject};
use pinocchio_geo::{Point, RegionVerdict};
use pinocchio_prob::PowerLawPf;
use pinocchio_serve::{
    parse_request, response_ok, Publisher, QueryOp, Request, ShardedWorld, UpdateOp, World,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Problems in the solver sample.
pub const SAMPLE: usize = 20;
/// Undecided pairs per sample problem each kernel evaluates (strided).
const PAIRS_PER_PROBLEM: usize = 2_000;
/// Replay steps taken from the workload's own sequence.
const REPLAY_STEPS: usize = 1_500;
/// Own solves, heat maps and `top_region`s replayed, per kind; the
/// region probes below measure those layers on their own.
const HEAVY_PER_KIND: usize = 4;
/// Synthetic ops per op kind the workload never sends.
const SUPPLEMENT: usize = 100;
/// Repetitions of each region probe, and of the paired solves that
/// measure the freeze.
const REGION_REPS: usize = 5;
const FREEZE_REPS: usize = 9;
/// Heat-map resolution of the region probes (the explore workload's).
const RESOLUTION: u32 = 32;
/// Tiles per `top_region` probe.
const TOP_REGION_K: usize = 10;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One problem of the solver sample, materialised on demand.
#[derive(Debug, Clone)]
pub enum Problem {
    /// An offline query: the dataset's objects against a candidate group.
    Query {
        /// Candidate locations.
        candidates: Vec<Point>,
        /// τ.
        tau: f64,
    },
    /// The served world frozen at one epoch.
    State(Box<World>),
}

impl Problem {
    fn inputs(&self, dataset: &Dataset) -> Result<(Vec<MovingObject>, Vec<Point>, f64), String> {
        match self {
            Problem::Query { candidates, tau } => {
                Ok((dataset.objects().to_vec(), candidates.clone(), *tau))
            }
            Problem::State(world) => {
                let (objects, candidates) = frozen_parts(world)?;
                Ok((objects, candidates, world.tau()))
            }
        }
    }
}

/// One step of the server's work, in the order the server did it.
#[derive(Debug, Clone)]
pub enum Step {
    /// Update lines the writer applied as one epoch.
    Batch(Vec<String>),
    /// One query line.
    Query(String),
}

/// Counters read from the live server's `stats` op.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveStats {
    /// Jobs per worker batch.
    pub jobs_per_batch: f64,
    /// Deepest the admission queue got.
    pub queue_high_water: f64,
    /// Updates per published epoch.
    pub updates_per_epoch: f64,
}

impl LiveStats {
    /// Reads the counters from a `stats` response.
    pub fn from_response(v: &Value) -> Result<LiveStats, String> {
        let s = v
            .get("stats")
            .ok_or("stats response without a stats block")?;
        let n = |k: &str| {
            s.get(k)
                .and_then(Value::as_u64)
                .map(|x| x as f64)
                .ok_or_else(|| format!("stats block without {k}"))
        };
        Ok(LiveStats {
            jobs_per_batch: n("batched_jobs")? / n("batches")?.max(1.0),
            queue_high_water: n("queue_high_water")?,
            updates_per_epoch: n("updates_applied")? / n("epochs_published")?.max(1.0),
        })
    }
}

/// Everything the probe measures from.
#[derive(Debug)]
pub struct Probe<'a> {
    /// The workload's dataset.
    pub dataset: &'a Dataset,
    /// The served world's initial candidates (for synthetic updates).
    pub group: &'a Group,
    /// The served world before any update.
    pub world: World,
    /// The solver sample.
    pub problems: Vec<Problem>,
    /// The workload's own steps, in server order.
    pub steps: Vec<Step>,
    /// Live server counters (`None` without a server).
    pub live: Option<LiveStats>,
    /// Seed of the synthetic supplement.
    pub seed: u64,
}

fn ms(ns: &[f64]) -> f64 {
    median(ns) / 1e6
}

fn us(ns: &[f64]) -> f64 {
    median(ns) / 1e3
}

/// Runs every probe and returns the per-layer metrics.
pub fn run(probe: Probe<'_>, rec: &mut Recorder) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    solver_layers(&probe, rec, &mut m)?;
    serve_layers(&probe, rec, &mut m)?;
    region_layers(&probe.world, rec, &mut m)?;
    let live = probe.live.unwrap_or_default();
    m.insert("serve.jobs_per_batch", live.jobs_per_batch);
    m.insert("serve.queue_high_water", live.queue_high_water);
    m.insert("serve.updates_per_epoch", live.updates_per_epoch);
    Ok(m)
}

const KERNELS: [(EvalKernel, &str, &str); 3] = [
    (
        EvalKernel::Scalar,
        "prob.verdict.scalar",
        "prob.verdict_ns.scalar",
    ),
    (
        EvalKernel::Blocked,
        "prob.verdict.blocked",
        "prob.verdict_ns.blocked",
    ),
    (
        EvalKernel::LogBlocked,
        "prob.verdict.log_blocked",
        "prob.verdict_ns.log_blocked",
    ),
];

fn solver_layers(probe: &Probe<'_>, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let mut vo = SolveStats::default();
    let mut candidates = 0u64;
    let mut solves = 0u64;
    let mut join_nodes = 0u64;
    let mut critical_ms = Vec::new();
    let mut pairs_total = 0u64;
    let mut fallbacks = 0u64;
    for (i, sample) in probe.problems.iter().enumerate() {
        let request = Some(i as u64);
        let (objects, points, tau) = sample.inputs(probe.dataset)?;
        let kernel = EvalKernel::default();
        let problem = rec.span("data.build", None, request, |_, _| {
            check::problem(objects.clone(), points.clone(), tau, kernel)
        })?;
        rec.span("core.prepare", None, request, |_, _| {
            problem.a2d();
        });
        rec.span("index.candidate_tree", None, request, |_, _| {
            problem.candidate_tree();
        });
        let best = rec.span("core.solve", None, request, |_, _| {
            problem.solve(Algorithm::PinocchioVo)
        });
        vo += best.stats;
        candidates += points.len() as u64;
        solves += 1;
        let winner = (best.best_candidate, best.max_influence);

        let pin = rec.span("core.solve.pin", None, request, |_, _| {
            problem.solve(Algorithm::Pinocchio)
        });
        let join = rec.span("core.solve.pin_join", None, request, |_, _| {
            problem.solve(Algorithm::PinocchioJoin)
        });
        join_nodes += join.stats.join_nodes_visited;
        let sharded = ShardedPrimeLs::partition(
            objects.clone(),
            points.clone(),
            PowerLawPf::paper_default(),
            tau,
            kernel,
            2,
        )
        .map_err(|e| e.to_string())?;
        let (shard, timings) = try_solve_sharded_timed(&sharded, Algorithm::PinocchioVo, 1)
            .map_err(|e| e.to_string())?;
        critical_ms.push(timings.critical_path_seconds() * 1e3);
        for (label, r) in [
            ("PIN", &pin),
            ("PIN-JOIN", &join),
            ("2-shard PIN-VO", &shard),
        ] {
            if (r.best_candidate, r.max_influence) != winner {
                return Err(format!(
                    "{label} disagrees with PIN-VO on sample problem {i}"
                ));
            }
        }

        // Undecided pairs: inside the non-influence boundary, outside the
        // influence arcs — the pairs a solver must evaluate.
        let mut pairs = Vec::new();
        for entry in problem.a2d().entries() {
            let Some(regions) = entry.regions else {
                continue;
            };
            for (j, c) in points.iter().enumerate() {
                if classify_candidate(&regions, c) == RegionVerdict::Undecided {
                    pairs.push((j, entry.index));
                }
            }
        }
        let stride = pairs.len().div_ceil(PAIRS_PER_PROBLEM).max(1);
        let pairs: Vec<(usize, usize)> = pairs.into_iter().step_by(stride).collect();
        pairs_total += pairs.len() as u64;
        let mut reference: Option<Vec<bool>> = None;
        for (kernel, span, _) in KERNELS {
            let p = check::problem(objects.clone(), points.clone(), tau, kernel)?;
            p.log_pf_table();
            let mut eval = p.pair_eval();
            let mut stats = SolveStats::default();
            let verdicts: Vec<bool> = rec.span(span, None, request, |_, _| {
                pairs
                    .iter()
                    .map(|&(j, k)| eval.influences(&points[j], k, true, &mut stats))
                    .collect()
            });
            fallbacks += stats.log_band_fallbacks;
            match &reference {
                None => reference = Some(verdicts),
                Some(r) if *r != verdicts => {
                    return Err(format!("kernel {kernel:?} disagrees on sample problem {i}"))
                }
                Some(_) => {}
            }
        }
    }
    if solves == 0 || pairs_total == 0 {
        return Err("the solver sample is empty".to_string());
    }
    m.insert("data.build_ms", ms(&rec.durations_ns("data.build")));
    m.insert("core.prepare_ms", ms(&rec.durations_ns("core.prepare")));
    m.insert(
        "index.candidate_tree_ms",
        ms(&rec.durations_ns("index.candidate_tree")),
    );
    let solve_ns = Sample::new(rec.durations_ns("core.solve"));
    m.insert("core.solve_ms", solve_ns.median().unwrap_or(0.0) / 1e6);
    m.insert("core.solve_p90_ms", solve_ns.pct(90.0).unwrap_or(0.0) / 1e6);
    m.insert("core.pruned_fraction", vo.pruned_fraction().unwrap_or(0.0));
    m.insert(
        "core.validated_pairs",
        vo.validated_pairs as f64 / solves as f64,
    );
    m.insert(
        "core.candidates_skipped_fraction",
        vo.candidates_skipped_by_bounds as f64 / candidates as f64,
    );
    m.insert(
        "prob.positions_per_pair",
        vo.positions_evaluated as f64 / vo.validated_pairs.max(1) as f64,
    );
    m.insert("prob.log_band_fallbacks", fallbacks as f64);
    let per_pair = |span: &str| rec.durations_ns(span).iter().sum::<f64>() / pairs_total as f64;
    for (kernel, span, name) in KERNELS {
        let ns = per_pair(span);
        m.insert(name, ns);
        if kernel == EvalKernel::default() {
            m.insert("prob.verdict_ns", ns);
        }
    }
    m.insert("core.solve_ms.pin", ms(&rec.durations_ns("core.solve.pin")));
    m.insert(
        "core.solve_ms.pin_join",
        ms(&rec.durations_ns("core.solve.pin_join")),
    );
    m.insert(
        "index.join_nodes_per_solve",
        join_nodes as f64 / solves as f64,
    );
    m.insert("core.shard_critical_path_ms", median(&critical_ms));
    Ok(())
}

/// The kind of an update, for its span name.
fn apply_span(op: &UpdateOp) -> &'static str {
    match op {
        UpdateOp::AppendPosition { .. } => "dynamic.apply.append",
        UpdateOp::InsertObject { .. } => "dynamic.apply.insert_object",
        UpdateOp::RemoveObject { .. } => "dynamic.apply.remove_object",
        UpdateOp::InsertCandidate { .. } => "dynamic.apply.insert_candidate",
        UpdateOp::RemoveCandidate { .. } => "dynamic.apply.remove_candidate",
    }
}

const UPDATE_SPANS: [&str; 5] = [
    "dynamic.apply.append",
    "dynamic.apply.insert_object",
    "dynamic.apply.remove_object",
    "dynamic.apply.insert_candidate",
    "dynamic.apply.remove_candidate",
];

fn entry(candidate: u64, at: Point, influence: u32) -> Value {
    json!({"candidate": candidate, "x": at.x, "y": at.y, "influence": influence})
}

/// One request through the serve stage: parse, query, encode — the
/// response body built as the server builds it.
fn replay_query(
    line: &str,
    world: &ShardedWorld,
    epoch: u64,
    rec: &mut Recorder,
    request: Option<u64>,
) -> Result<String, String> {
    rec.span("serve.request", None, request, |rec, parent| {
        let parsed = rec.span("serve.parse", parent, request, |_, _| {
            parse_request(line.trim_end())
        });
        let (id, op) = match parsed.map_err(|e| e.to_string())? {
            Request::Query { id, op } => (id, op),
            other => return Err(format!("not a query: {other:?}")),
        };
        let fail = |e: pinocchio_serve::WireError| e.to_string();
        let body = match op {
            QueryOp::Best => {
                let best = rec.span("serve.query", parent, request, |_, _| world.best());
                rec.span("serve.encode", parent, request, |_, _| {
                    best.map_err(fail)?
                        .map(|(c, at, inf)| {
                            let mut body = Map::new();
                            body.insert("candidate".to_string(), json!(c));
                            body.insert("x".to_string(), json!(at.x));
                            body.insert("y".to_string(), json!(at.y));
                            body.insert("influence".to_string(), json!(inf));
                            response_ok(id, epoch, body)
                        })
                        .ok_or_else(|| "no live candidate".to_string())
                })?
            }
            QueryOp::TopK { k } => {
                let top = rec.span("serve.query", parent, request, |_, _| world.top_k(k));
                rec.span("serve.encode", parent, request, |_, _| {
                    let entries = top
                        .map_err(fail)?
                        .into_iter()
                        .map(|(c, at, inf)| entry(c, at, inf));
                    let mut body = Map::new();
                    body.insert("entries".to_string(), Value::Array(entries.collect()));
                    Ok::<_, String>(response_ok(id, epoch, body))
                })?
            }
            QueryOp::InfluenceOf { candidate } => {
                let inf = rec.span("serve.query", parent, request, |_, _| {
                    world.influence_of(candidate)
                });
                rec.span("serve.encode", parent, request, |_, _| {
                    let mut body = Map::new();
                    body.insert("candidate".to_string(), json!(candidate));
                    body.insert("influence".to_string(), json!(inf.map_err(fail)?));
                    Ok::<_, String>(response_ok(id, epoch, body))
                })?
            }
            QueryOp::Solve { algorithm } => rec.span("serve.solve", parent, request, |_, _| {
                let o = world.solve(algorithm, 1).map_err(fail)?;
                let mut body = Map::new();
                body.insert("candidate".to_string(), json!(o.candidate));
                body.insert("influence".to_string(), json!(o.influence));
                Ok::<_, String>(response_ok(id, epoch, body))
            })?,
            QueryOp::Heatmap { resolution } => {
                let map = rec.span("serve.heatmap", parent, request, |_, _| {
                    world.heatmap(resolution)
                });
                let map = map.map_err(fail)?;
                rec.span("serve.stream_encode", parent, request, |_, _| {
                    encode_batches(id, epoch, &map)
                })
            }
            QueryOp::TopRegion { k, resolution } => {
                rec.span("serve.top_region", parent, request, |_, _| {
                    let r = world.top_region(k, resolution).map_err(fail)?;
                    let mut body = Map::new();
                    body.insert("cells".to_string(), json!(r.cells.len()));
                    Ok::<_, String>(response_ok(id, epoch, body))
                })?
            }
            QueryOp::Stats | QueryOp::Ping => response_ok(id, epoch, Map::new()),
        };
        Ok(body)
    })
}

/// The streamed batch lines of one heat map, encoded as the server
/// encodes them; returns the last line.
fn encode_batches(id: Option<u64>, epoch: u64, map: &pinocchio_heatmap::Heatmap) -> String {
    let mut last = String::new();
    for (i, chunk) in map
        .tiles
        .chunks(pinocchio_serve::wire::TILES_PER_BATCH)
        .enumerate()
    {
        let tiles: Vec<Value> = chunk
            .iter()
            .map(|t| json!([t.lo, t.hi, t.sample]))
            .collect();
        let mut body = Map::new();
        body.insert("op".to_string(), json!("heatmap"));
        body.insert(
            "offset".to_string(),
            json!(i * pinocchio_serve::wire::TILES_PER_BATCH),
        );
        body.insert("tiles".to_string(), Value::Array(tiles));
        last = response_ok(id, epoch, body);
    }
    last
}

/// Replays `steps` from `world` the way the server's threads run them:
/// a batch is clone + apply each + publish; a query is answered on the
/// current epoch. Returns how many response bytes were produced, which
/// keeps the work from being optimised away.
fn replay(world: &World, steps: &[Step], rec: &mut Recorder) -> Result<usize, String> {
    let sharded = ShardedWorld::from_world(world.clone(), 1).map_err(|e| e.to_string())?;
    let (mut publisher, _reader) = Publisher::new(sharded);
    let mut produced = 0usize;
    for (i, step) in steps.iter().enumerate() {
        let request = Some(i as u64);
        match step {
            Step::Batch(lines) => {
                let mut next = rec.span("serve.clone", None, request, |_, _| {
                    publisher.current().state.clone()
                });
                for line in lines {
                    let parsed = rec.span("serve.parse", None, request, |_, _| {
                        parse_request(line.trim_end())
                    });
                    let Ok(Request::Update { op, .. }) = parsed else {
                        return Err(format!("not an update: {line}"));
                    };
                    rec.span(apply_span(&op), None, request, |_, _| next.apply(&op))
                        .map_err(|e| format!("replay rejected {}: {e}", line.trim_end()))?;
                }
                rec.span("serve.publish", None, request, |_, _| {
                    publisher.publish(next)
                });
            }
            Step::Query(line) => {
                let snapshot = publisher.current();
                produced +=
                    replay_query(line, &snapshot.state, snapshot.epoch, rec, request)?.len();
            }
        }
    }
    Ok(produced)
}

/// Synthetic steps for the op kinds `steps` never contains: point reads
/// and every update kind, [`SUPPLEMENT`] each, replayed from a fresh
/// copy of the initial world.
fn supplement(probe: &Probe<'_>, steps: &[Step]) -> Vec<Step> {
    let mut seen_updates = [false; 5];
    let mut seen_point_read = false;
    for step in steps {
        match step {
            Step::Batch(lines) => {
                for line in lines {
                    if let Ok(Request::Update { op, .. }) = parse_request(line.trim_end()) {
                        let kind = UPDATE_SPANS.iter().position(|&s| s == apply_span(&op));
                        if let Some(k) = kind {
                            seen_updates[k] = true;
                        }
                    }
                }
            }
            Step::Query(line) => {
                seen_point_read |= matches!(
                    parse_request(line.trim_end()),
                    Ok(Request::Query {
                        op: QueryOp::Best | QueryOp::TopK { .. } | QueryOp::InfluenceOf { .. },
                        ..
                    })
                );
            }
        }
    }
    let mut out = Vec::new();
    let mut id = 0u64;
    if !seen_point_read {
        let mut rng = StdRng::seed_from_u64(probe.seed);
        for _ in 0..3 * SUPPLEMENT {
            let read = inputs::read_mix(&mut rng, probe.group.points.len() as u64);
            out.push(Step::Query(read.line(id)));
            id += 1;
        }
    }
    let mut missing = seen_updates.map(|seen| if seen { 0 } else { SUPPLEMENT });
    let mut gen = inputs::UpdateGen::new(probe.dataset, probe.group, probe.seed);
    let mut draws = 0;
    while missing.iter().any(|&n| n > 0) && draws < 100 * SUPPLEMENT {
        draws += 1;
        let op = gen.mixed();
        let kind = UPDATE_SPANS
            .iter()
            .position(|&s| s == apply_span(&op))
            .unwrap_or(0);
        // Skipped appends never invalidate later ops; every other kind is
        // either fresh or drawn from the generator's live set.
        if missing[kind] > 0 || !matches!(op, UpdateOp::AppendPosition { .. }) {
            missing[kind] = missing[kind].saturating_sub(1);
            out.push(Step::Batch(vec![inputs::update_line(&op, id)]));
            id += 1;
        }
    }
    out
}

/// The first [`REPLAY_STEPS`] own steps, keeping at most
/// [`HEAVY_PER_KIND`] solves, heat maps and `top_region`s each.
fn own_steps(steps: &[Step]) -> Vec<Step> {
    let mut heavy = [0usize; 3];
    steps
        .iter()
        .filter(|step| {
            let Step::Query(line) = step else {
                return true;
            };
            let kind = match parse_request(line.trim_end()) {
                Ok(Request::Query {
                    op: QueryOp::Solve { .. },
                    ..
                }) => 0,
                Ok(Request::Query {
                    op: QueryOp::Heatmap { .. },
                    ..
                }) => 1,
                Ok(Request::Query {
                    op: QueryOp::TopRegion { .. },
                    ..
                }) => 2,
                _ => return true,
            };
            heavy[kind] += 1;
            heavy[kind] <= HEAVY_PER_KIND
        })
        .take(REPLAY_STEPS)
        .cloned()
        .collect()
}

fn serve_layers(probe: &Probe<'_>, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let own = own_steps(&probe.steps);
    let extra = supplement(probe, &own);
    let mut untraced = 0.0;
    let mut traced = 0.0;
    let mut produced = Vec::new();
    // Pass 0 warms caches and the allocator and is not timed; then the
    // recorder alternates off and on.
    for pass in 0..5 {
        let on = pass % 2 == 0 && pass > 0;
        let mut off = Recorder::new(false);
        let r: &mut Recorder = if on { &mut *rec } else { &mut off };
        let t = Instant::now();
        let bytes = replay(&probe.world, &own, r)? + replay(&probe.world, &extra, r)?;
        let secs = t.elapsed().as_secs_f64();
        produced.push(bytes);
        if on {
            traced += secs;
        } else if pass > 0 {
            untraced += secs;
        }
    }
    if produced.windows(2).any(|w| w[0] != w[1]) {
        return Err("traced and untraced replays produced different responses".to_string());
    }
    m.insert("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
    m.insert("serve.parse_us", us(&rec.durations_ns("serve.parse")));
    m.insert("serve.query_us", us(&rec.durations_ns("serve.query")));
    m.insert("serve.encode_us", us(&rec.durations_ns("serve.encode")));
    let clones = rec.durations_ns("serve.clone");
    let publishes = rec.durations_ns("serve.publish");
    let publish: Vec<f64> = clones.iter().zip(&publishes).map(|(c, p)| c + p).collect();
    m.insert("serve.publish_us", us(&publish));
    for (span, name) in UPDATE_SPANS.iter().zip([
        "dynamic.apply_us.append",
        "dynamic.apply_us.insert_object",
        "dynamic.apply_us.remove_object",
        "dynamic.apply_us.insert_candidate",
        "dynamic.apply_us.remove_candidate",
    ]) {
        m.insert(name, us(&rec.durations_ns(span)));
    }
    let appends = Sample::new(rec.durations_ns("dynamic.apply.append"));
    m.insert(
        "dynamic.apply_us.append_p99",
        appends.pct(99.0).unwrap_or(0.0) / 1e3,
    );
    Ok(())
}

fn region_layers(world: &World, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let problem = freeze(world, EvalKernel::default())?;
    let sharded = ShardedWorld::from_world(world.clone(), 1).map_err(|e| e.to_string())?;
    let mut map = None;
    for rep in 0..REGION_REPS {
        let request = Some(rep as u64);
        let h = rec.span("heatmap.descent", None, request, |_, _| {
            pinocchio_heatmap::try_heatmap(&problem, RESOLUTION, None)
        });
        let h = h.map_err(|e| e.to_string())?;
        rec.span("heatmap.top_region", None, request, |_, _| {
            pinocchio_heatmap::try_top_region(&problem, TOP_REGION_K, RESOLUTION, None)
        })
        .map_err(|e| e.to_string())?;
        rec.span("serve.stream_encode", None, request, |_, _| {
            encode_batches(None, 0, &h)
        });
        map = Some(h);
    }
    problem.a2d();
    problem.candidate_tree();
    for rep in 0..FREEZE_REPS {
        let request = Some(rep as u64);
        let served = rec.span("serve.sharded_solve", None, request, |_, _| {
            sharded.solve(Algorithm::PinocchioVo, 1)
        });
        let frozen = rec.span("serve.frozen_solve", None, request, |_, _| {
            problem.solve(Algorithm::PinocchioVo)
        });
        let served = served.map_err(|e| e.to_string())?;
        if (served.influence, served.location) != (frozen.max_influence, frozen.best_location) {
            return Err("ShardedWorld::solve disagrees with the frozen problem".to_string());
        }
    }
    let map = map.ok_or("no region probe ran")?;
    m.insert(
        "heatmap.descent_ms",
        ms(&rec.durations_ns("heatmap.descent")),
    );
    m.insert(
        "heatmap.refined_tile_fraction",
        map.stats.cells_refined as f64 / map.tiles.len() as f64,
    );
    m.insert("heatmap.validated_pairs", map.stats.validated_pairs as f64);
    m.insert(
        "heatmap.top_region_ms",
        ms(&rec.durations_ns("heatmap.top_region")),
    );
    m.insert(
        "serve.stream_encode_ms",
        ms(&rec.durations_ns("serve.stream_encode")),
    );
    // The median of paired differences: solve noise on the larger world
    // can exceed the freeze itself, and pairing cancels slow drifts.
    let frozen = rec.durations_ns("serve.frozen_solve");
    let freeze: Vec<f64> = rec
        .durations_ns("serve.sharded_solve")
        .iter()
        .zip(&frozen)
        .map(|(served, frozen)| served - frozen)
        .collect();
    m.insert("serve.freeze_ms", ms(&freeze));
    Ok(())
}

/// Client request spans from a connection log, so the trace file shows
/// the timed phase next to the layer replay.
pub fn client_spans(
    rec: &mut Recorder,
    connection: &'static str,
    exchanges: &[Exchange],
    kind: impl Fn(usize) -> &'static str,
) {
    for (i, e) in exchanges.iter().enumerate() {
        if let Some(done) = e.done {
            // The parent runs from the due time, so it includes any wait
            // the schedule imposed; the child is the wire round trip.
            let parent = rec.push(connection, None, Some(i as u64), e.due, done);
            rec.push(kind(i), parent, Some(i as u64), e.sent, done);
        }
    }
}

/// Solver-sample states spread over the update prefix the replay covers:
/// the initial world, then the world after evenly spaced batches.
pub fn sample_states(world: &World, steps: &[Step]) -> Result<Vec<Problem>, String> {
    let own = own_steps(steps);
    let batches: Vec<&Vec<String>> = own
        .iter()
        .filter_map(|s| match s {
            Step::Batch(lines) => Some(lines),
            Step::Query(_) => None,
        })
        .collect();
    let mut w = world.clone();
    let mut out = vec![Problem::State(Box::new(w.clone()))];
    let marks: Vec<usize> = (1..SAMPLE)
        .map(|k| k * batches.len() / (SAMPLE - 1))
        .collect();
    let mut applied = 0;
    for mark in marks {
        for lines in &batches[applied..mark] {
            for line in lines.iter() {
                let op = crate::check::update_op(line)?;
                w.apply(&op).map_err(|e| e.to_string())?;
            }
        }
        applied = mark;
        out.push(Problem::State(Box::new(w.clone())));
    }
    Ok(out)
}

/// Serve-stage client overhead: a client's median point-read latency
/// minus the in-process parse, query and encode medians.
pub fn overhead_us(client_p50_ms: f64, m: &Metrics) -> f64 {
    client_p50_ms * 1e3
        - ["serve.parse_us", "serve.query_us", "serve.encode_us"]
            .iter()
            .map(|k| m.get(k).copied().unwrap_or(0.0))
            .sum::<f64>()
}
