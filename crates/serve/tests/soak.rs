//! Soak test: concurrent readers query a live server over TCP while a
//! writer client streams random updates through the ingest path.
//!
//! The exactness property under test: every response carries the epoch
//! it was answered at, and its payload must **bit-match** a from-scratch
//! computation over an independently maintained mirror of the world at
//! that exact epoch — floats compared via `to_bits`, never with a
//! tolerance. The mirror is reconstructible because the writer sends
//! updates one at a time and each ack names the epoch that first
//! includes it, so epoch `e` is exactly "initial world + the first `k`
//! acked updates".
//!
//! The test ends with a graceful drain: a `shutdown` wire command, then
//! `ServerHandle::join`, whose final counters must satisfy the
//! [`ServeStats`] accounting identity. `join` returning at all proves
//! every thread exited and no mutex was poisoned.

use pinocchio_core::Algorithm;
use pinocchio_geo::Point;
use pinocchio_serve::{serve, ServerConfig, ShardedWorld, UpdateOp, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;

const READERS: usize = 4;
const QUERIES_PER_READER: usize = 60;
const UPDATES: usize = 80;
const CANDIDATES: u64 = 8;
const TAU: f64 = 0.7;

/// A blocking line-oriented client: send one request, read one reply.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn round_trip(&mut self, request: &str) -> Value {
        writeln!(self.stream, "{request}").expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        serde_json::from_str(line.trim_end()).expect("response is JSON")
    }

    /// Sends one request and reads lines until the terminal one: an
    /// error, a `"done":true` marker, or any non-batch single line.
    fn stream(&mut self, request: &str) -> Vec<Value> {
        writeln!(self.stream, "{request}").expect("send");
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("recv");
            let v: Value = serde_json::from_str(line.trim_end()).expect("response is JSON");
            let terminal = v.get("ok").and_then(Value::as_bool) != Some(true)
                || v.get("done").and_then(Value::as_bool) == Some(true)
                || v.get("tiles").is_none();
            lines.push(v);
            if terminal {
                return lines;
            }
        }
    }
}

fn seed_world(rng: &mut StdRng) -> World {
    let mut world = World::new(TAU);
    for j in 0..CANDIDATES {
        world
            .apply(&UpdateOp::InsertCandidate {
                candidate: j,
                location: Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)),
            })
            .unwrap();
    }
    for i in 0..40u64 {
        let n = rng.gen_range(1..8);
        let positions = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)))
            .collect();
        world
            .apply(&UpdateOp::InsertObject {
                object: i,
                positions,
            })
            .unwrap();
    }
    world
}

/// One of the query shapes a reader cycles through.
#[derive(Clone, Copy)]
enum Probe {
    Best,
    TopK(usize),
    InfluenceOf(u64),
    Solve(Algorithm, &'static str),
    Heatmap(u32),
    TopRegion(usize, u32),
}

const SOLVES: [(Algorithm, &str); 4] = [
    (Algorithm::Naive, "na"),
    (Algorithm::Pinocchio, "pin"),
    (Algorithm::PinocchioVo, "pin-vo"),
    (Algorithm::PinocchioVoStar, "pin-vo*"),
];

fn probe_request(probe: Probe) -> String {
    match probe {
        Probe::Best => r#"{"v":1,"op":"best"}"#.to_string(),
        Probe::TopK(k) => format!(r#"{{"v":1,"op":"top_k","k":{k}}}"#),
        Probe::InfluenceOf(c) => format!(r#"{{"v":1,"op":"influence_of","candidate":{c}}}"#),
        Probe::Solve(_, wire) => format!(r#"{{"v":1,"op":"solve","algo":"{wire}"}}"#),
        Probe::Heatmap(resolution) => {
            format!(r#"{{"v":1,"id":7,"op":"heatmap","resolution":{resolution}}}"#)
        }
        Probe::TopRegion(k, resolution) => {
            format!(r#"{{"v":1,"op":"top_region","k":{k},"resolution":{resolution}}}"#)
        }
    }
}

fn update_request(op: &UpdateOp) -> String {
    match op {
        UpdateOp::InsertObject { object, positions } => {
            let coords: Vec<String> = positions
                .iter()
                .map(|p| format!("[{},{}]", p.x, p.y))
                .collect();
            format!(
                r#"{{"v":1,"op":"insert_object","object":{object},"positions":[{}]}}"#,
                coords.join(",")
            )
        }
        UpdateOp::AppendPosition { object, position } => format!(
            r#"{{"v":1,"op":"append_position","object":{object},"x":{},"y":{}}}"#,
            position.x, position.y
        ),
        UpdateOp::RemoveObject { object } => {
            format!(r#"{{"v":1,"op":"remove_object","object":{object}}}"#)
        }
        other => panic!("soak writer does not emit {other:?}"),
    }
}

fn bits(v: &Value, field: &str) -> u64 {
    v.get(field)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing f64 field {field} in {v}"))
        .to_bits()
}

fn uint(v: &Value, field: &str) -> u64 {
    v.get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {field} in {v}"))
}

/// Checks one recorded response (every line of it, for streamed ones)
/// against the mirror world of its epoch.
fn verify(probe: Probe, lines: &[Value], reference: &World, shards: usize) {
    let response = lines.last().expect("at least one response line");
    for line in lines {
        assert_eq!(
            line.get("ok").and_then(Value::as_bool),
            Some(true),
            "reader got an error response: {line}"
        );
        // One snapshot answers the whole job: every batch of a stream
        // carries the same epoch as its terminal line.
        assert_eq!(uint(line, "epoch"), uint(response, "epoch"));
    }
    match probe {
        Probe::Best => {
            let (id, loc, inf) = reference.best().unwrap().expect("world is never empty");
            assert_eq!(uint(response, "candidate"), id);
            assert_eq!(bits(response, "x"), loc.x.to_bits());
            assert_eq!(bits(response, "y"), loc.y.to_bits());
            assert_eq!(uint(response, "influence"), u64::from(inf));
        }
        Probe::TopK(k) => {
            let expected = reference.top_k(k).unwrap();
            let entries = response
                .get("entries")
                .and_then(Value::as_array)
                .expect("top_k entries");
            assert_eq!(entries.len(), expected.len());
            for (entry, (id, loc, inf)) in entries.iter().zip(expected) {
                assert_eq!(uint(entry, "candidate"), id);
                assert_eq!(bits(entry, "x"), loc.x.to_bits());
                assert_eq!(bits(entry, "y"), loc.y.to_bits());
                assert_eq!(uint(entry, "influence"), u64::from(inf));
            }
        }
        Probe::InfluenceOf(c) => {
            let inf = reference.influence_of(c).unwrap();
            assert_eq!(uint(response, "candidate"), c);
            assert_eq!(uint(response, "influence"), u64::from(inf));
        }
        Probe::Solve(algorithm, _) => {
            // From-scratch single-thread solve of the mirrored epoch; the
            // server may have answered with its parallel drivers or
            // shared a batch mate's run — the bits must not care.
            let outcome = reference.solve(algorithm, 1).unwrap();
            assert_eq!(
                response.get("algorithm").and_then(Value::as_str),
                Some(format!("{algorithm:?}").as_str())
            );
            assert_eq!(uint(response, "candidate"), outcome.candidate);
            assert_eq!(bits(response, "x"), outcome.location.x.to_bits());
            assert_eq!(bits(response, "y"), outcome.location.y.to_bits());
            assert_eq!(uint(response, "influence"), u64::from(outcome.influence));
        }
        Probe::Heatmap(resolution) => {
            // Re-solve the mirrored epoch from scratch. Samples are
            // exact influence counts, identical for every shard
            // topology; bands are descent-dependent, so full tile
            // bit-equality is asserted against a mirror of the *same*
            // topology the server ran.
            let mirror = ShardedWorld::from_world(reference.clone(), shards)
                .expect("mirror repartition")
                .heatmap(resolution)
                .expect("mirror heatmap");
            assert_eq!(response.get("done").and_then(Value::as_bool), Some(true));
            assert_eq!(uint(response, "resolution"), u64::from(resolution));
            let n_tiles = (resolution as usize) * (resolution as usize);
            assert_eq!(uint(response, "tiles_total") as usize, n_tiles);
            assert_eq!(mirror.tiles.len(), n_tiles);
            let frame = response
                .get("frame")
                .and_then(Value::as_array)
                .expect("frame [x0,y0,x1,y1]");
            let frame_bits: Vec<u64> = frame
                .iter()
                .map(|v| v.as_f64().expect("frame coordinate").to_bits())
                .collect();
            let want = [
                mirror.frame.lo().x,
                mirror.frame.lo().y,
                mirror.frame.hi().x,
                mirror.frame.hi().y,
            ];
            for (got, want) in frame_bits.iter().zip(want) {
                assert_eq!(*got, want.to_bits(), "frame diverged from the mirror");
            }
            let mut streamed = 0usize;
            for batch in &lines[..lines.len() - 1] {
                assert_eq!(uint(batch, "offset") as usize, streamed);
                let tiles = batch
                    .get("tiles")
                    .and_then(Value::as_array)
                    .expect("tiles array");
                for tile in tiles {
                    let t = tile.as_array().expect("[lo,hi,sample]");
                    let (lo, hi, sample) = (
                        t[0].as_u64().unwrap(),
                        t[1].as_u64().unwrap(),
                        t[2].as_u64().unwrap(),
                    );
                    let m = mirror.tiles[streamed];
                    assert_eq!(sample, u64::from(m.sample), "tile {streamed} sample");
                    assert_eq!(lo, u64::from(m.lo), "tile {streamed} lower band");
                    assert_eq!(hi, u64::from(m.hi), "tile {streamed} upper band");
                    assert!(lo <= sample && sample <= hi);
                    streamed += 1;
                }
            }
            assert_eq!(streamed, n_tiles, "the stream covered the whole grid");
        }
        Probe::TopRegion(k, resolution) => {
            // top_region is exact, so it must bit-match the unsharded
            // mirror whatever topology the server runs.
            let mirror = ShardedWorld::from_world(reference.clone(), 1)
                .expect("mirror wrap")
                .top_region(k, resolution)
                .expect("mirror top_region");
            let cells = response
                .get("cells")
                .and_then(Value::as_array)
                .expect("cells");
            assert_eq!(cells.len(), mirror.cells.len());
            for (cell, want) in cells.iter().zip(&mirror.cells) {
                assert_eq!(uint(cell, "tile") as usize, want.tile);
                assert_eq!(bits(cell, "x"), want.center.x.to_bits());
                assert_eq!(bits(cell, "y"), want.center.y.to_bits());
                assert_eq!(uint(cell, "influence"), u64::from(want.influence));
            }
        }
    }
}

/// Runs the full soak at the given shard count. The mirror worlds are
/// always **unsharded**, so every verified response is a bit-match of a
/// sharded server answer against a from-scratch unsharded computation
/// of its epoch.
fn soak(shards: usize) {
    let mut rng = StdRng::seed_from_u64(0x50A4);
    let initial = seed_world(&mut rng);
    let candidate_ids = initial.candidate_ids();

    let handle = serve(
        initial.clone(),
        ServerConfig {
            queue_capacity: 512,
            batch_max: 8,
            workers: 3,
            solve_threads: 2,
            shards,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    // Writer: streams random object churn one update at a time, mirrors
    // each acked op locally, and snapshots the mirror per acked epoch.
    let writer_seed = rng.gen::<u64>();
    let writer = thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(writer_seed);
        let mut client = Client::connect(addr);
        let mut mirror = initial;
        let mut live: Vec<u64> = mirror.object_ids();
        let mut next_id = 1000u64;
        let mut epochs: Vec<(u64, World)> = vec![(0, mirror.clone())];
        for _ in 0..UPDATES {
            let roll = rng.gen_range(0u32..10);
            let op = if roll < 7 {
                let object = live[rng.gen_range(0..live.len())];
                UpdateOp::AppendPosition {
                    object,
                    position: Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..20.0)),
                }
            } else if roll < 9 || live.len() <= 10 {
                let object = next_id;
                next_id += 1;
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
            };
            let ack = client.round_trip(&update_request(&op));
            assert_eq!(
                ack.get("ok").and_then(Value::as_bool),
                Some(true),
                "update rejected: {ack}"
            );
            assert_eq!(ack.get("applied").and_then(Value::as_bool), Some(true));
            mirror
                .apply(&op)
                .expect("mirror accepts what the server did");
            epochs.push((uint(&ack, "epoch"), mirror.clone()));
        }
        epochs
    });

    // Readers: hammer the query path concurrently with the churn above,
    // recording every (probe, response) pair for post-hoc verification.
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let candidate_ids = candidate_ids.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut recorded = Vec::with_capacity(QUERIES_PER_READER);
                for i in 0..QUERIES_PER_READER {
                    let probe = match i % 6 {
                        0 => Probe::Best,
                        1 => Probe::TopK(1 + (i + r) % 5),
                        2 => Probe::InfluenceOf(candidate_ids[(i + r) % candidate_ids.len()]),
                        3 => Probe::Heatmap(if (i + r) % 2 == 0 { 8 } else { 16 }),
                        4 => Probe::TopRegion(1 + (i + r) % 6, 16),
                        _ => {
                            let (algorithm, wire) = SOLVES[(i / 6 + r) % SOLVES.len()];
                            Probe::Solve(algorithm, wire)
                        }
                    };
                    let lines = client.stream(&probe_request(probe));
                    recorded.push((probe, lines));
                }
                recorded
            })
        })
        .collect();

    let epochs = writer.join().expect("writer thread");
    let recordings: Vec<_> = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .collect();

    // Serial acked updates publish one epoch each: 0..=UPDATES, dense.
    assert_eq!(epochs.len(), UPDATES + 1);
    for (expected, (epoch, _)) in epochs.iter().enumerate() {
        assert_eq!(*epoch, expected as u64);
    }

    let mut verified = 0usize;
    for recorded in &recordings {
        for (probe, lines) in recorded {
            let epoch = uint(lines.last().expect("terminal line"), "epoch") as usize;
            let (_, reference) = &epochs[epoch];
            verify(*probe, lines, reference, shards);
            verified += 1;
        }
    }
    assert_eq!(verified, READERS * QUERIES_PER_READER);

    // Graceful drain: shutdown over the wire, then join every thread.
    let mut control = Client::connect(addr);
    let ack = control.round_trip(r#"{"v":1,"op":"shutdown"}"#);
    assert_eq!(ack.get("draining").and_then(Value::as_bool), Some(true));
    drop(control);

    let stats = handle.join();
    assert_eq!(stats.updates_applied, UPDATES as u64);
    assert_eq!(stats.epochs_published, UPDATES as u64);
    assert_eq!(
        stats.queries_completed(),
        (READERS * QUERIES_PER_READER) as u64
    );
    assert_eq!(stats.queries_completed(), stats.latency_total());
    assert_eq!(stats.shed, 0, "queue_capacity 512 must never shed here");
    assert_eq!(
        stats.lines_received,
        stats.accounted_lines(),
        "every received line must be accounted for exactly once: {stats:?}"
    );
}

#[test]
fn concurrent_readers_bit_match_every_epoch_and_shutdown_is_clean() {
    soak(1);
}

#[test]
fn four_shard_server_bit_matches_unsharded_mirrors_every_epoch() {
    soak(4);
}
