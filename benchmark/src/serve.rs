//! The served workloads. The world runs behind the TCP server in this
//! process with `ServerConfig { workers: 2, solve_threads: 1, ..default }`
//! — every other field at its default, so a change of default shows up
//! in the numbers — and the load comes from two client threads, one per
//! connection:
//!
//! * `serve_reads` — connection 1 sends point reads open-loop at
//!   2,000/s, interleaved with capacity bursts of 128 reads in flight;
//!   connection 2 appends open-loop at 10/s. Each answer costs
//!   microseconds, so the wire, the queue, thread hops and epoch reads
//!   dominate.
//! * `serve_updates` — connection 1 is a closed-loop writer with 8
//!   updates in flight (70 % appends, the rest object and candidate
//!   churn) on the larger Gowalla-like world, in bursts of 200;
//!   connection 2 reads open-loop at 500/s. Dynamic maintenance and the
//!   per-epoch world clone do the work, and the writer competes with
//!   readers for cores.
//! * `serve_explore` — connection 1 runs closed-loop cycles of one heat
//!   map, one `top_region` and six PIN-VO solves on a 60-candidate world;
//!   connection 2 appends at 20/s so epochs keep changing. Every request
//!   freezes the world; this is the only workload that reaches the
//!   heat-map crate.

use crate::check::{self, check_answer, EpochIndex, Mirror};
use crate::client::{bursts, open_loop, Burst, Conn, Exchange, Log, Placement, Quiet};
use crate::gauge::Gauge;
use crate::inputs::{self, Group, Read, Stream, UpdateGen, SERVE_TAU};
use crate::layers::{self, LiveStats, Probe, Step};
use crate::stats::{
    highest_supported, median, peaks, reset_peaks, setup_s, Peaks, Sample, SETUP_REPS,
    SETUP_REPS_LARGE,
};
use crate::trace::Recorder;
use crate::{json_string, trace_dir, Args, Report, Timings, Workload};
use pinocchio_data::Dataset;
use pinocchio_serve::{serve, ServerConfig, ServerHandle, World};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// Unrecorded warm-up before the timed phase.
const WARMUP: Duration = Duration::from_secs(2);
/// A response still missing this long after its phase counts as failed.
const GRACE: Duration = Duration::from_secs(5);
/// Quiet windows (see [`Quiet`]): `serve_reads` keeps the last [`QUIET`]
/// of every [`QUIET_PERIOD`] quiet, and `serve_explore` holds [`QUIET`]
/// after each cycle. The server needs a connection idle for its 25 ms
/// read poll (rounded up to scheduler ticks) before it moves that
/// connection's epoch cursor.
const QUIET_PERIOD: Duration = Duration::from_millis(250);
const QUIET: Duration = Duration::from_millis(50);
/// `serve_updates` holds a longer window after each burst, in which the
/// ~35 Gowalla-like epochs the burst published are released. With
/// 50 ms windows the first eight acks of every burst waited 20–55 ms and
/// update p99 read 64 ms; with this window it reads 18 ms.
const UPDATE_QUIET: Duration = Duration::from_millis(150);
/// An open-loop send this late (ms) counts against the generator...
const LATE_MS: f64 = 5.0;
/// ...and more than this share of late sends makes the run invalid, when
/// they are more than [`LATE_MIN`]: `serve_explore` paces only 440
/// appends, of which a calm machine sends two or three late.
const LATE_SHARE: f64 = 0.01;
const LATE_MIN: usize = 20;
/// Most times a served workload runs while its measurement is invalid.
const ATTEMPTS: u32 = 3;

const READ_RATE: f64 = 2_000.0;
/// Appends beside the reads. Each publish clones the world on the
/// server's CPU and the reads that arrive meanwhile queue behind it: at
/// 40/s that was 6 % of reads, p95 sat on the edge of that group and
/// moved from 0.26 to 0.95 ms between runs; at 10/s the group is small
/// enough to leave the tail alone. Publish costs are `serve_updates`'
/// subject.
const READ_APPEND_RATE: f64 = 10.0;
/// Capacity: bursts of this many reads, all in flight at once, this many
/// times. A closed loop with 32 reads in flight settled into batching
/// patterns that held for a whole run, and its throughput ranged from 26k
/// to 46k reads/s between identical runs; a burst starts from an idle
/// server every time. The fixed count keeps the answers the client holds,
/// and so the peak heap, independent of speed.
const CAPACITY_BURST: usize = 128;
const CAPACITY_BURSTS: usize = 300;
/// Quiet window after each capacity burst, in which the speed gauge
/// takes a slice on the server's CPU once the server has stopped. Burst
/// times drift with the machine: in one 20 s run, with only slices that
/// no other thread overlapped kept, a burst's time correlated 0.51 with
/// the slice after it.
const CAPACITY_PAUSE: Duration = Duration::from_millis(10);
/// The timed phase of `serve_reads` is cut into this many segments, each
/// open-loop reads for [`OPEN_SHARE`] of it and then its share of the
/// capacity bursts. With all bursts at the end of the phase one slow
/// stretch decided the run, and capacity moved by 40 % between runs.
const SEGMENTS: u32 = 10;
const OPEN_SHARE: f64 = 0.8;
/// The read tail is p90 (160 samples beyond it per 1 s block). Higher
/// percentiles sit on stalls of the host's CPUs: in a busy hour of a
/// 2-vCPU KVM guest on a shared Xeon host, 10 % of reads met one, and p95
/// moved from 0.23 to 0.58 ms between runs where p90 moved from 0.18 to
/// 0.28 ms.
const READ_TAIL: f64 = 90.0;

const WRITER_IN_FLIGHT: usize = 8;
/// Updates per writer burst: about 0.2 s of acks.
const WRITER_BURST: usize = 200;
const UPDATE_READ_RATE: f64 = 500.0;
/// The update tail is p95 (70 acks beyond it per 2 s block). A slower
/// machine lengthens the queue behind the writer's eight updates in
/// flight, so the tail grows faster than the gauge's slowdown: over six
/// runs the p99 moved by 18 % between runs where the median moved by 5 %.
const UPDATE_TAIL: f64 = 95.0;

const EXPLORE_CANDIDATES: usize = 60;
const EXPLORE_APPEND_RATE: f64 = 20.0;
const RESOLUTION: u32 = 32;
const TOP_K: usize = 10;
const SOLVES_PER_CYCLE: usize = 6;
/// Every n-th heat map and `top_region` is compared with the mirror's;
/// every one is checked for framing and band soundness.
const REGION_CHECK_EVERY: usize = 4;
/// About 70 heat maps in 20 s leave 14 beyond p80; p90 would need 100.
const EXPLORE_TAIL: f64 = 80.0;
/// Latency percentiles are taken per block and the median over blocks
/// is reported: 1 s of open-loop reads (~1,600, 16 beyond p99) and 2 s
/// of update acks (~1,400). The explore workload's heat maps are too
/// few per block and use the whole phase.
const READ_BLOCK: Duration = Duration::from_secs(1);
const UPDATE_BLOCK: Duration = Duration::from_secs(2);

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        solve_threads: 1,
        ..ServerConfig::default()
    }
}

/// Runs a served workload, again from the start while its measurement is
/// invalid, at most [`ATTEMPTS`] times in all. Across more than 50 runs
/// of `serve_reads` and `serve_updates` the generator was late on at most
/// 0.4 % of sends, except in one minute of the host when both passed
/// 1.6 %; the read p90 was 15 times its usual value then.
pub fn run(args: &Args) -> Result<Report, String> {
    let once = match args.workload {
        Workload::ServeReads => reads,
        Workload::ServeUpdates => updates,
        Workload::ServeExplore => explore,
        Workload::OfflineSolve => return Err("offline_solve has no server".to_string()),
    };
    if args.trace {
        // Per-layer metrics come from the in-process probe, which a late
        // generator does not disturb.
        return once(args);
    }
    until_valid(|| once(args))
}

fn until_valid(mut once: impl FnMut() -> Result<Report, String>) -> Result<Report, String> {
    let mut attempt = 1;
    loop {
        reset_peaks();
        let mut report = once()?;
        match report.invalid.take() {
            Some(why) if report.correct() && attempt < ATTEMPTS => {
                eprintln!("warning: attempt {attempt} is invalid ({why}); running it again");
                attempt += 1;
            }
            why => {
                if let Some(why) = why {
                    eprintln!("warning: attempt {attempt} is invalid ({why}); reporting it");
                }
                report.info("attempts", f64::from(attempt), "count");
                return Ok(report);
            }
        }
    }
}

fn connect(handle: &ServerHandle) -> Result<Conn, String> {
    Conn::connect(handle.addr()).map_err(|e| format!("cannot connect: {e}"))
}

fn joined<T>(h: ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    h.join()
        .map_err(|_| "a client thread panicked".to_string())?
}

fn world(dataset: &Dataset, group: &Group) -> Result<World, String> {
    World::from_parts(dataset.objects().to_vec(), group.points.clone(), SERVE_TAU)
        .map_err(|e| e.to_string())
}

/// The candidate groups of a served workload: one per set-up, the served
/// group last.
fn groups(dataset: &Dataset, size: usize, reps: usize, seed: u64) -> Vec<Group> {
    let base = inputs::derive(seed, Stream::Candidates);
    (0..reps as u64)
        .rev()
        .map(|i| inputs::group(dataset, size, base.wrapping_add(i)))
        .collect()
}

fn describe(report: &mut Report, dataset: &Dataset, groups: &[Group]) {
    report.meta("objects", dataset.objects().len());
    report.meta("positions", inputs::positions(dataset));
    report.meta("candidates", groups.last().map_or(0, |g| g.points.len()));
    report.meta("venues", dataset.venues().len());
    let all: Vec<&Group> = groups.iter().collect();
    report.meta(
        "fingerprint",
        format!("\"{:016x}\"", inputs::fingerprint(dataset, &all)),
    );
}

/// The server a workload drives, and what starting it took.
struct Served {
    /// Median set-up, seconds: scaled to the reference machine, and as
    /// measured.
    setup_s: (f64, f64),
    handle: ServerHandle,
    /// The connection the first `ping` went over.
    conn: Conn,
}

/// Set-up, repeated (see [`setup_s`]) once per group, the served group
/// last: generated inputs in memory → world built → server listening →
/// first `ping` answered. Keeps the last server and its connection. The
/// wait from listening to the ping's answer is reported apart as well
/// (info `first_ping_ms`).
fn setup(
    report: &mut Report,
    dataset: &Dataset,
    groups: &[Group],
    gauge: &mut Gauge,
) -> Result<Served, String> {
    Placement::Server.apply();
    let mut pings = Vec::new();
    let mut live: Option<(ServerHandle, Conn)> = None;
    let setup_s = setup_s(gauge, groups.len(), |i| {
        if let Some((handle, conn)) = live.take() {
            drop(conn);
            handle.shutdown();
            handle.join();
        }
        let objects = dataset.objects().to_vec();
        let candidates = groups[i].points.clone();
        let t = Instant::now();
        let world = World::from_parts(objects, candidates, SERVE_TAU).map_err(|e| e.to_string())?;
        let handle = serve(world, config()).map_err(|e| format!("cannot serve: {e}"))?;
        let ready = Instant::now();
        let mut conn = connect(&handle)?;
        let pong = conn.round_trip("{\"v\":1,\"id\":0,\"op\":\"ping\"}\n", GRACE)?;
        let answered = Instant::now();
        check::parse_ok(&pong)?;
        pings.push((answered - ready).as_secs_f64() * 1e3);
        live = Some((handle, conn));
        Ok((answered - t).as_secs_f64())
    })?;
    let (handle, conn) = live.ok_or("no set-up ran")?;
    report.info("first_ping_ms", median(&pings), "ms");
    Ok(Served {
        setup_s,
        handle,
        conn,
    })
}

/// After the load: the live `stats` op, an optional final `best`, then a
/// drained shutdown and the server's accounting identities.
fn finish(
    handle: ServerHandle,
    report: &mut Report,
    final_best: bool,
) -> Result<(LiveStats, Option<Value>), String> {
    let mut ctl = connect(&handle)?;
    let stats = check::parse_ok(&ctl.round_trip("{\"v\":1,\"id\":0,\"op\":\"stats\"}\n", GRACE)?)?;
    let live = LiveStats::from_response(&stats)?;
    let best = if final_best {
        Some(check::parse_ok(
            &ctl.round_trip(&Read::Best.line(1), GRACE)?,
        )?)
    } else {
        None
    };
    check::parse_ok(&ctl.round_trip("{\"v\":1,\"id\":2,\"op\":\"shutdown\"}\n", GRACE)?)?;
    drop(ctl);
    let served = handle.join();
    report.check(if served.lines_received == served.accounted_lines() {
        Ok(())
    } else {
        Err(format!("server accounting identity broken: {served:?}"))
    });
    report.check(if served.queries_completed() == served.latency_total() {
        Ok(())
    } else {
        Err("server latency histogram misses completed queries".to_string())
    });
    Ok((live, best))
}

/// Ack epochs of an update connection. Every generated update is valid,
/// so a refused or missing ack makes the mirror, and the run, invalid.
fn ack_epochs(log: &Log) -> Result<Vec<u64>, String> {
    log.exchanges
        .iter()
        .enumerate()
        .map(|(i, e)| {
            if e.done.is_none() {
                return Err(format!("update {i} was never acknowledged"));
            }
            check::epoch_of(&check::parse_ok(&e.response)?)
        })
        .collect()
}

/// The `epoch` of a response's first line, without a full parse.
fn epoch_field(response: &str) -> Option<u64> {
    let line = response.lines().next()?;
    if !line.contains("\"ok\":true") {
        return None;
    }
    let rest = &line[line.find("\"epoch\":")? + "\"epoch\":".len()..];
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// Checks every answered query against the mirror at the epoch it
/// reports, visiting epochs in ascending order; unanswered or refused
/// queries count as failed. Returns the mirror after every update.
fn check_queries(
    report: &mut Report,
    initial: World,
    updates: &[String],
    index: &EpochIndex,
    queries: &[(Read, &Exchange)],
) -> Result<World, String> {
    let mut seen = [0usize; 2];
    let mut order = Vec::with_capacity(queries.len());
    for (i, (read, e)) in queries.iter().enumerate() {
        // Send-order ordinal per region kind: the deterministic sample.
        let ordinal = match read {
            Read::Heatmap(_) => post_inc(&mut seen[0]),
            Read::TopRegion(..) => post_inc(&mut seen[1]),
            _ => 0,
        };
        match e.done.and_then(|_| epoch_field(&e.response)) {
            Some(epoch) => order.push((epoch, i, ordinal)),
            None => report.failed += 1,
        }
    }
    order.sort_unstable();
    let mut mirror = Mirror::new(initial, updates, index);
    for (epoch, i, ordinal) in order {
        let (read, e) = &queries[i];
        let world = mirror.at(epoch)?;
        let sampled = ordinal % REGION_CHECK_EVERY == 0;
        let outcome = match *read {
            Read::Heatmap(resolution) => check::reassemble_heatmap(&e.response, resolution)
                .and_then(|got| {
                    if !sampled {
                        return Ok(());
                    }
                    let want = world.heatmap(resolution, None).map_err(|e| e.to_string())?;
                    check::check_heatmap(&got, &want)?;
                    if ordinal == 0 {
                        check::check_dense(world, &want)?;
                    }
                    Ok(())
                }),
            Read::TopRegion(k, resolution) => check::parse_ok(&e.response).and_then(|v| {
                let cells = v
                    .get("cells")
                    .and_then(Value::as_array)
                    .map_or(0, |c| c.len());
                if cells != k {
                    return Err(format!("top_region({k}) served {cells} cells"));
                }
                if !sampled {
                    return Ok(());
                }
                let want = world
                    .top_region(k, resolution, None)
                    .map_err(|e| e.to_string())?;
                check::check_top_region(&v, &want)
            }),
            _ => check::parse_ok(&e.response).and_then(|v| check_answer(read, &v, world)),
        };
        report.check(outcome);
    }
    mirror.finish()
}

fn post_inc(n: &mut usize) -> usize {
    *n += 1;
    *n - 1
}

/// The final state passes the dynamic engine's own from-scratch audit.
fn audit(world: &World) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.verify_against_static()
    }))
    .map_err(|_| "the final state fails verify_against_static".to_string())
}

/// The latencies of latency points, as a sample.
fn sample(points: Vec<(Instant, f64)>) -> Sample {
    Sample::new(points.into_iter().map(|(_, ms)| ms).collect())
}

/// Reports the open-loop generator's lateness, and marks the run invalid
/// when more than [`LATE_SHARE`] of sends, and more than [`LATE_MIN`],
/// were over [`LATE_MS`] late. Latency is timed from the due time, so a
/// late send is charged to the latency figures either way; lateness says
/// the machine stalled the client, which sends on its own CPU whatever
/// the server does.
fn lateness<'a>(report: &mut Report, open_loop: impl IntoIterator<Item = &'a Exchange>) {
    let late: Vec<f64> = open_loop.into_iter().map(Exchange::lateness_ms).collect();
    let over = late.iter().filter(|&&l| l > LATE_MS).count();
    let share = over as f64 / late.len().max(1) as f64;
    report.info("generator_late_share", share, "ratio");
    report.info(
        "generator_late_max_ms",
        late.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    if share > LATE_SHARE && over > LATE_MIN {
        report.invalid = Some(format!(
            "the load generator ran late: {over} of {} sends over {LATE_MS} ms",
            late.len()
        ));
    }
}

/// A latency sample's median and one percentile as info lines.
fn describe_sample(report: &mut Report, label: &str, s: &Sample, p: f64) {
    report.info(format!("{label}_samples"), s.len() as f64, "count");
    report.info(format!("{label}_p50_ms"), s.median().unwrap_or(0.0), "ms");
    report.info(format!("{label}_p{p}_ms"), s.pct(p).unwrap_or(0.0), "ms");
}

/// Latency points — due time and latency in ms — of the answered
/// exchanges `pick` selects.
fn points(exchanges: &[Exchange], pick: impl Fn(usize, &Exchange) -> bool) -> Vec<(Instant, f64)> {
    exchanges
        .iter()
        .enumerate()
        .filter(|(i, e)| pick(*i, e))
        .filter_map(|(_, e)| Some((e.due, e.latency_ms()?)))
        .collect()
}

/// `points` with each latency passed through `scale` with its due time.
fn scaled(points: &[(Instant, f64)], scale: &dyn Fn(Instant, f64) -> f64) -> Vec<(Instant, f64)> {
    points.iter().map(|&(t, ms)| (t, scale(t, ms))).collect()
}

/// The median over consecutive `block`s from `from` of `stat` applied to
/// each block's latencies. A transient disturbance then moves one block,
/// not the result. A trailing block with under half the samples of the
/// fullest one is left out.
fn block_median(
    points: &[(Instant, f64)],
    from: Instant,
    block: Duration,
    stat: impl Fn(&Sample) -> Option<f64>,
) -> Option<f64> {
    let mut blocks: Vec<Vec<f64>> = Vec::new();
    for &(t, ms) in points {
        let k = usize::try_from(t.saturating_duration_since(from).as_nanos() / block.as_nanos())
            .unwrap_or(usize::MAX);
        if k >= blocks.len() {
            blocks.resize_with(k + 1, Vec::new);
        }
        blocks[k].push(ms);
    }
    let fullest = blocks.iter().map(Vec::len).max()?;
    let values: Vec<f64> = blocks
        .into_iter()
        .filter(|b| 2 * b.len() >= fullest)
        .filter_map(|b| stat(&Sample::new(b)))
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

/// Start and seconds of every fully answered burst (laid out by
/// [`bursts`]) that starts at or after `from`. A burst lasts from its
/// first send to its last answer.
fn burst_times(exchanges: &[Exchange], size: usize, from: Instant) -> Vec<(Instant, f64)> {
    exchanges
        .chunks_exact(size)
        .filter(|burst| burst[0].sent >= from)
        .filter_map(|burst| {
            let start = burst[0].sent;
            let last = burst
                .iter()
                .try_fold(start, |last, e| e.done.map(|d| d.max(last)))?;
            Some((start, (last - start).as_secs_f64()))
        })
        .collect()
}

/// Bursts per second: one over the mean burst time, each time passed
/// through `scale` with its start. Burst times are bimodal, and a median
/// moves by a whole mode when the share of fast bursts shifts; a mean
/// moves in proportion.
fn burst_rate(times: &[(Instant, f64)], scale: impl Fn(Instant, f64) -> f64) -> Option<f64> {
    let total: f64 = times.iter().map(|&(t, s)| scale(t, s)).sum();
    (!times.is_empty()).then(|| times.len() as f64 / total)
}

/// The end-to-end metrics from the scaled and unscaled timings, plus the
/// whole-phase foreground sample (unscaled) as info lines.
fn headline(
    report: &mut Report,
    gauge: &Gauge,
    timings: (Timings, Timings),
    peaks: Peaks,
    (tail, whole): (f64, &Sample),
) -> Result<(), String> {
    report.info("tail_percentile", tail, "pct");
    report.info("foreground_samples", whole.len() as f64, "count");
    report.info(
        "highest_supported_percentile",
        highest_supported(whole.len()).unwrap_or(0.0),
        "pct",
    );
    for p in [50.0, 90.0, 95.0, 99.0, 99.9] {
        report.info(
            format!("foreground_whole_p{p}_ms"),
            whole.pct(p).unwrap_or(0.0),
            "ms",
        );
    }
    report.headline(gauge, timings, peaks)
}

/// The server's work in the order it did it: each epoch's update batch,
/// then the queries answered at that epoch.
fn replay_steps(updates: &[String], epochs: &[u64], queries: &[(Read, &Exchange)]) -> Vec<Step> {
    let mut events: Vec<(u64, u8, usize, Step)> = Vec::new();
    let mut start = 0;
    while start < updates.len() {
        let epoch = epochs[start];
        let len = epochs[start..].iter().take_while(|&&e| e == epoch).count();
        events.push((
            epoch,
            0,
            start,
            Step::Batch(updates[start..start + len].to_vec()),
        ));
        start += len;
    }
    for (i, (read, e)) in queries.iter().enumerate() {
        if let Some(epoch) = e.done.and_then(|_| epoch_field(&e.response)) {
            events.push((epoch, 1, i, Step::Query(read.line(i as u64))));
        }
    }
    events.sort_by_key(|&(epoch, kind, i, _)| (epoch, kind, i));
    events.into_iter().map(|(.., step)| step).collect()
}

/// The traced half: the layer probe over the workload's own inputs and
/// replayed steps, then the trace file.
fn traced(
    report: &mut Report,
    args: &Args,
    probe: (&Dataset, &Group, World),
    steps: Vec<Step>,
    live: LiveStats,
    mut rec: Recorder,
) -> Result<(), String> {
    let (dataset, group, initial) = probe;
    let probe = Probe {
        dataset,
        group,
        problems: layers::sample_states(&initial, &steps)?,
        world: initial,
        steps,
        live: Some(live),
        seed: inputs::derive(args.seed, Stream::Probe),
    };
    let layers = layers::run(probe, &mut rec)?;
    report.traced(layers);
    let path = rec
        .write(&trace_dir(), args.workload.name(), args.seed)
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    report.meta("trace_file", json_string(&path.display().to_string()));
    Ok(())
}

fn reads(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // Created first: client spans start inside the timed phase.
    let mut rec = Recorder::new(args.trace);
    let dataset = inputs::foursquare();
    let groups = groups(&dataset, inputs::CANDIDATES, SETUP_REPS, args.seed);
    let group = groups.last().ok_or("no candidate group")?;
    describe(&mut report, &dataset, &groups);
    let mut gauge = Gauge::new();
    let Served {
        setup_s,
        handle,
        conn: mut c1,
    } = setup(&mut report, &dataset, &groups, &mut gauge)?;
    let mut c2 = connect(&handle)?;
    let m = group.points.len() as u64;
    let mut rng = StdRng::seed_from_u64(inputs::derive(args.seed, Stream::Reads));
    let mut gen = UpdateGen::new(&dataset, group, inputs::derive(args.seed, Stream::Updates));
    let segment = Duration::from_secs_f64(args.seconds) / SEGMENTS;
    let t0 = Instant::now();
    let quiet = Quiet::every(t0, QUIET_PERIOD, QUIET);
    let warm_end = t0 + WARMUP;
    let end = warm_end + segment * SEGMENTS;

    let (fg, bg) = std::thread::scope(|s| {
        let fg = s.spawn(|| {
            Placement::Client.apply();
            let mut log = Log::default();
            let mut ops = Vec::new();
            let mut capacity = Vec::new();
            let mut next = |id: u64| {
                let read = inputs::read_mix(&mut rng, m);
                ops.push(read);
                read.line(id)
            };
            // The first segment's reads start with the warm-up.
            let mut from = t0;
            for k in 1..=SEGMENTS {
                let segment_end = warm_end + segment * k;
                open_loop(
                    &mut c1,
                    &mut log,
                    &quiet,
                    (READ_RATE, Some(&mut gauge)),
                    (from, segment_end - segment.mul_f64(1.0 - OPEN_SHARE)),
                    &mut next,
                )?;
                log.drain(&mut c1, Instant::now() + GRACE)?;
                let first = log.exchanges.len();
                bursts(
                    &mut c1,
                    &mut log,
                    &quiet,
                    Burst {
                        size: CAPACITY_BURST,
                        in_flight: CAPACITY_BURST,
                        pause: Some(CAPACITY_PAUSE),
                        timeout: GRACE,
                    },
                    Some(&mut gauge),
                    |done| done < CAPACITY_BURSTS / SEGMENTS as usize,
                    &mut next,
                )?;
                capacity.push(first..log.exchanges.len());
                // Bursts that overrun their segment push the next
                // segment's schedule back rather than make it late.
                from = segment_end.max(Instant::now());
            }
            Ok::<_, String>((log, ops, capacity))
        });
        let bg = s.spawn(|| {
            Placement::Client.apply();
            let mut log = Log::default();
            let mut lines = Vec::new();
            open_loop(
                &mut c2,
                &mut log,
                &quiet,
                (READ_APPEND_RATE, None),
                (t0, end),
                |id| {
                    let line = inputs::update_line(&gen.append(), id);
                    lines.push(line.clone());
                    line
                },
            )?;
            log.drain(&mut c2, Instant::now() + GRACE)?;
            Ok::<_, String>((log, lines))
        });
        (joined(fg), joined(bg))
    });
    let peaks = peaks()?;
    Placement::Any.apply();
    let (fg_log, ops, capacity) = fg?;
    let (bg_log, update_lines) = bg?;
    drop((c1, c2));
    let (live, _) = finish(handle, &mut report, false)?;
    report.attempted = (fg_log.exchanges.len() + bg_log.exchanges.len()) as u64;

    let epochs = ack_epochs(&bg_log)?;
    let index = EpochIndex::from_acks(epochs.clone())?;
    let initial = world(&dataset, group)?;
    let queries: Vec<(Read, &Exchange)> = ops.iter().copied().zip(&fg_log.exchanges).collect();
    let last = check_queries(
        &mut report,
        initial.clone(),
        &update_lines,
        &index,
        &queries,
    )?;
    report.check(audit(&last));

    let open = |i: usize| !capacity.iter().any(|r| r.contains(&i));
    let open_points = points(&fg_log.exchanges, |i, e| open(i) && e.due >= warm_end);
    let acks = sample(points(&bg_log.exchanges, |_, e| e.due >= warm_end));
    describe_sample(&mut report, "update", &acks, 99.0);
    lateness(
        &mut report,
        (fg_log.exchanges.iter().enumerate())
            .filter(|&(i, _)| open(i))
            .map(|(_, e)| e)
            .chain(&bg_log.exchanges),
    );
    let whole = sample(open_points.clone());
    let bursts: Vec<(Instant, f64)> = capacity
        .iter()
        .flat_map(|r| burst_times(&fg_log.exchanges[r.clone()], CAPACITY_BURST, warm_end))
        .collect();
    let timings = |setup_s: f64, scale: &dyn Fn(Instant, f64) -> f64| {
        let reads = scaled(&open_points, scale);
        let block = |stat: &dyn Fn(&Sample) -> Option<f64>| {
            block_median(&reads, warm_end, READ_BLOCK, stat).ok_or("no open-loop read completed")
        };
        Ok::<_, String>(Timings {
            setup_s,
            p50_ms: block(&Sample::median)?,
            tail_ms: block(&|s| s.pct(READ_TAIL))?,
            ops_per_s: CAPACITY_BURST as f64
                * burst_rate(&bursts, scale).ok_or("no capacity burst was answered")?,
        })
    };
    let both = (
        timings(setup_s.0, &|t, ms| gauge.scale(t, ms))?,
        timings(setup_s.1, &|_, ms| ms)?,
    );
    headline(&mut report, &gauge, both, peaks, (READ_TAIL, &whole))?;
    if args.trace {
        let p50 = whole.median().unwrap_or(0.0);
        layers::client_spans(&mut rec, "client.conn1", &fg_log.exchanges, |_| {
            "client.read"
        });
        layers::client_spans(&mut rec, "client.conn2", &bg_log.exchanges, |_| {
            "client.update"
        });
        let steps = replay_steps(&update_lines, &epochs, &queries);
        traced(
            &mut report,
            args,
            (&dataset, group, initial),
            steps,
            live,
            rec,
        )?;
        report.info(
            "serve.overhead_us",
            layers::overhead_us(p50, &report.metrics),
            "us",
        );
    }
    Ok(report)
}

fn updates(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // Created first: client spans start inside the timed phase.
    let mut rec = Recorder::new(args.trace);
    let dataset = inputs::gowalla();
    let groups = groups(&dataset, inputs::CANDIDATES, SETUP_REPS_LARGE, args.seed);
    let group = groups.last().ok_or("no candidate group")?;
    describe(&mut report, &dataset, &groups);
    let mut gauge = Gauge::new();
    let Served {
        setup_s,
        handle,
        conn: mut c1,
    } = setup(&mut report, &dataset, &groups, &mut gauge)?;
    let mut c2 = connect(&handle)?;
    let mut rng = StdRng::seed_from_u64(inputs::derive(args.seed, Stream::Reads));
    let mut gen = UpdateGen::new(&dataset, group, inputs::derive(args.seed, Stream::Updates));
    let t0 = Instant::now();
    let quiet = Quiet::held(t0);
    let warm_end = t0 + WARMUP;
    let end = warm_end + Duration::from_secs_f64(args.seconds);

    let (fg, bg) = std::thread::scope(|s| {
        let fg = s.spawn(|| {
            Placement::Client.apply();
            let mut log = Log::default();
            let mut lines = Vec::new();
            bursts(
                &mut c1,
                &mut log,
                &quiet,
                Burst {
                    size: WRITER_BURST,
                    in_flight: WRITER_IN_FLIGHT,
                    pause: Some(UPDATE_QUIET),
                    timeout: GRACE,
                },
                Some(&mut gauge),
                |_| Instant::now() < end,
                |id| {
                    let line = inputs::update_line(&gen.mixed(), id);
                    lines.push(line.clone());
                    line
                },
            )?;
            Ok::<_, String>((log, lines))
        });
        let bg = s.spawn(|| {
            Placement::Client.apply();
            let mut log = Log::default();
            let mut ops = Vec::new();
            open_loop(
                &mut c2,
                &mut log,
                &quiet,
                (UPDATE_READ_RATE, None),
                (t0, end),
                |id| {
                    let read = inputs::best_or_top_k(&mut rng);
                    ops.push(read);
                    read.line(id)
                },
            )?;
            log.drain(&mut c2, Instant::now() + GRACE)?;
            Ok::<_, String>((log, ops))
        });
        (joined(fg), joined(bg))
    });
    let peaks = peaks()?;
    Placement::Any.apply();
    let (fg_log, update_lines) = fg?;
    let (bg_log, ops) = bg?;
    drop((c1, c2));
    let (live, best) = finish(handle, &mut report, true)?;
    report.attempted = (fg_log.exchanges.len() + bg_log.exchanges.len()) as u64;

    let epochs = ack_epochs(&fg_log)?;
    let index = EpochIndex::from_acks(epochs.clone())?;
    let initial = world(&dataset, group)?;
    let queries: Vec<(Read, &Exchange)> = ops.iter().copied().zip(&bg_log.exchanges).collect();
    let last = check_queries(
        &mut report,
        initial.clone(),
        &update_lines,
        &index,
        &queries,
    )?;
    report.check(audit(&last));
    let best = best.ok_or("no final best")?;
    report.check(check_answer(&Read::Best, &best, &last));

    let write_points = points(&fg_log.exchanges, |_, e| e.sent >= warm_end);
    let reads = sample(points(&bg_log.exchanges, |_, e| e.due >= warm_end));
    describe_sample(&mut report, "read", &reads, 99.0);
    lateness(&mut report, &bg_log.exchanges);
    let whole = sample(write_points.clone());
    let bursts = burst_times(&fg_log.exchanges, WRITER_BURST, warm_end);
    let timings = |setup_s: f64, scale: &dyn Fn(Instant, f64) -> f64| {
        let writes = scaled(&write_points, scale);
        let block = |stat: &dyn Fn(&Sample) -> Option<f64>| {
            block_median(&writes, warm_end, UPDATE_BLOCK, stat).ok_or("no update was acknowledged")
        };
        Ok::<_, String>(Timings {
            setup_s,
            p50_ms: block(&Sample::median)?,
            tail_ms: block(&|s| s.pct(UPDATE_TAIL))?,
            ops_per_s: WRITER_BURST as f64
                * burst_rate(&bursts, scale).ok_or("no writer burst was acknowledged")?,
        })
    };
    let both = (
        timings(setup_s.0, &|t, ms| gauge.scale(t, ms))?,
        timings(setup_s.1, &|_, ms| ms)?,
    );
    headline(&mut report, &gauge, both, peaks, (UPDATE_TAIL, &whole))?;
    if args.trace {
        layers::client_spans(&mut rec, "client.conn1", &fg_log.exchanges, |_| {
            "client.update"
        });
        layers::client_spans(&mut rec, "client.conn2", &bg_log.exchanges, |_| {
            "client.read"
        });
        let steps = replay_steps(&update_lines, &epochs, &queries);
        traced(
            &mut report,
            args,
            (&dataset, group, initial),
            steps,
            live,
            rec,
        )?;
    }
    Ok(report)
}

fn explore(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // Created first: client spans start inside the timed phase.
    let mut rec = Recorder::new(args.trace);
    let dataset = inputs::foursquare();
    let groups = groups(&dataset, EXPLORE_CANDIDATES, SETUP_REPS, args.seed);
    let group = groups.last().ok_or("no candidate group")?;
    describe(&mut report, &dataset, &groups);
    let mut gauge = Gauge::new();
    let Served {
        setup_s,
        handle,
        conn: mut c1,
    } = setup(&mut report, &dataset, &groups, &mut gauge)?;
    let mut c2 = connect(&handle)?;
    let mut gen = UpdateGen::new(&dataset, group, inputs::derive(args.seed, Stream::Updates));
    let cycle: Vec<Read> = [
        Read::Heatmap(RESOLUTION),
        Read::TopRegion(TOP_K, RESOLUTION),
    ]
    .into_iter()
    .chain(std::iter::repeat_n(Read::Solve, SOLVES_PER_CYCLE))
    .collect();
    let t0 = Instant::now();
    let quiet = Quiet::held(t0);
    let warm_end = t0 + WARMUP;
    let end = warm_end + Duration::from_secs_f64(args.seconds);

    let (fg, bg) = std::thread::scope(|s| {
        let fg = s.spawn(|| {
            Placement::Client.apply();
            let mut log = Log::default();
            let mut ops = Vec::new();
            bursts(
                &mut c1,
                &mut log,
                &quiet,
                Burst {
                    size: cycle.len(),
                    in_flight: 1,
                    pause: Some(QUIET),
                    timeout: GRACE,
                },
                Some(&mut gauge),
                |_| Instant::now() < end,
                |id| {
                    let read = cycle[ops.len() % cycle.len()];
                    ops.push(read);
                    read.line(id)
                },
            )?;
            Ok::<_, String>((log, ops))
        });
        let bg = s.spawn(|| {
            Placement::Client.apply();
            let mut log = Log::default();
            let mut lines = Vec::new();
            open_loop(
                &mut c2,
                &mut log,
                &quiet,
                (EXPLORE_APPEND_RATE, None),
                (t0, end),
                |id| {
                    let line = inputs::update_line(&gen.append(), id);
                    lines.push(line.clone());
                    line
                },
            )?;
            log.drain(&mut c2, Instant::now() + GRACE)?;
            Ok::<_, String>((log, lines))
        });
        (joined(fg), joined(bg))
    });
    let peaks = peaks()?;
    Placement::Any.apply();
    let (fg_log, ops) = fg?;
    let (bg_log, update_lines) = bg?;
    drop((c1, c2));
    let (live, _) = finish(handle, &mut report, false)?;
    report.attempted = (fg_log.exchanges.len() + bg_log.exchanges.len()) as u64;

    let epochs = ack_epochs(&bg_log)?;
    let index = EpochIndex::from_acks(epochs.clone())?;
    let initial = world(&dataset, group)?;
    let queries: Vec<(Read, &Exchange)> = ops.iter().copied().zip(&fg_log.exchanges).collect();
    let last = check_queries(
        &mut report,
        initial.clone(),
        &update_lines,
        &index,
        &queries,
    )?;
    report.check(audit(&last));

    let of = |kind: fn(&Read) -> bool| {
        points(&fg_log.exchanges, |i, e| {
            e.sent >= warm_end && kind(&ops[i])
        })
    };
    let map_points = of(|r| matches!(r, Read::Heatmap(_)));
    describe_sample(
        &mut report,
        "top_region",
        &sample(of(|r| matches!(r, Read::TopRegion(..)))),
        90.0,
    );
    describe_sample(
        &mut report,
        "solve",
        &sample(of(|r| matches!(r, Read::Solve))),
        99.0,
    );
    lateness(&mut report, &bg_log.exchanges);
    let cycles = burst_times(&fg_log.exchanges, cycle.len(), warm_end);
    let timings = |setup_s: f64, scale: &dyn Fn(Instant, f64) -> f64| {
        let maps = sample(scaled(&map_points, scale));
        let p50_ms = maps.median().ok_or("no heat map completed")?;
        Ok::<_, String>(Timings {
            setup_s,
            p50_ms,
            tail_ms: maps.pct(EXPLORE_TAIL).unwrap_or(p50_ms),
            ops_per_s: burst_rate(&cycles, scale).ok_or("no cycle completed")?,
        })
    };
    let both = (
        timings(setup_s.0, &|t, ms| gauge.scale(t, ms))?,
        timings(setup_s.1, &|_, ms| ms)?,
    );
    let whole = sample(map_points);
    headline(&mut report, &gauge, both, peaks, (EXPLORE_TAIL, &whole))?;
    if args.trace {
        let kind = |i: usize| match ops[i] {
            Read::Heatmap(_) => "client.heatmap",
            Read::TopRegion(..) => "client.top_region",
            _ => "client.solve",
        };
        layers::client_spans(&mut rec, "client.conn1", &fg_log.exchanges, kind);
        layers::client_spans(&mut rec, "client.conn2", &bg_log.exchanges, |_| {
            "client.update"
        });
        let steps = replay_steps(&update_lines, &epochs, &queries);
        traced(
            &mut report,
            args,
            (&dataset, group, initial),
            steps,
            live,
            rec,
        )?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(sent: Instant, done_ms: Option<u64>) -> Exchange {
        Exchange {
            due: sent,
            sent,
            done: done_ms.map(|ms| sent + Duration::from_millis(ms)),
            response: String::new(),
        }
    }

    #[test]
    fn burst_rate_is_one_over_the_mean_answered_burst_after_warm_up() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let burst = |start: Instant, last_ms: u64| {
            vec![exchange(start, Some(1)), exchange(start, Some(last_ms))]
        };
        let mut log = burst(t, 100); // before `from`: left out
        log.extend(burst(t + ms(200), 10));
        log.extend(burst(t + ms(300), 20));
        log.extend(burst(t + ms(400), 40));
        log.extend(vec![
            exchange(t + ms(500), Some(1)),
            exchange(t + ms(500), None),
        ]);
        let times = burst_times(&log, 2, t + ms(150));
        let secs: Vec<f64> = times.iter().map(|&(_, s)| s).collect();
        assert_eq!(secs, [0.010, 0.020, 0.040]);
        let rate = burst_rate(&times, |_, s| s).unwrap();
        assert!((rate - 3.0 / 0.070).abs() < 1e-9, "{rate}");
        let halved = burst_rate(&times, |_, s| s / 2.0).unwrap();
        assert!((halved - 2.0 * rate).abs() < 1e-9, "{halved}");
        assert_eq!(
            burst_rate(&burst_times(&log, 2, t + ms(600)), |_, s| s),
            None
        );
    }

    #[test]
    fn an_invalid_measurement_is_repeated_but_a_wrong_answer_is_not() {
        let attempt = |invalid: bool, wrong: bool| {
            let mut r = Report {
                invalid: invalid.then(|| "late".to_string()),
                ..Report::default()
            };
            if wrong {
                r.check(Err("corrupted answer".to_string()));
            }
            r
        };
        let attempts = |r: &Report| r.info.iter().find(|(n, ..)| n == "attempts").map(|i| i.1);

        let mut runs = 0;
        let r = until_valid(|| {
            runs += 1;
            Ok(attempt(runs < 2, false))
        })
        .unwrap();
        assert_eq!((runs, attempts(&r)), (2, Some(2.0)));
        assert!(r.invalid.is_none());

        let mut runs = 0;
        let r = until_valid(|| {
            runs += 1;
            Ok(attempt(true, false))
        })
        .unwrap();
        assert_eq!((runs, attempts(&r)), (ATTEMPTS, Some(f64::from(ATTEMPTS))));

        let mut runs = 0;
        let r = until_valid(|| {
            runs += 1;
            Ok(attempt(true, true))
        })
        .unwrap();
        assert_eq!(runs, 1);
        assert!(!r.correct());
    }
}
