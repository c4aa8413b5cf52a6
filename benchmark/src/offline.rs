//! `offline_solve`: in-process PIN-VO queries, one thread, closed loop,
//! no server.
//!
//! A query builds a fresh `PrimeLs` over the Foursquare-like objects and
//! one 600-candidate group, then solves it with PIN-VO and the default
//! kernel. The object `Vec` is cloned outside the timer. τ cycles
//! through 0.5, 0.7 and 0.9 query by query, so the median sits on the
//! τ = 0.7 queries and the tail on τ = 0.9, which prunes least.

use crate::check::{check_offline, problem};
use crate::gauge::Gauge;
use crate::inputs::{self, Group, Query, OFFLINE_TAUS};
use crate::layers::{self, Probe, Problem};
use crate::stats::{highest_supported, peaks, setup_s, Sample};
use crate::trace::Recorder;
use crate::{json_string, trace_dir, Args, Report, Timings};
use pinocchio_core::{solve_naive_par, Algorithm, EvalKernel, PrimeLs};
use pinocchio_data::MovingObject;
use pinocchio_geo::Point;
use pinocchio_prob::PowerLawPf;
use pinocchio_serve::World;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Unrecorded warm-up before the timed phase.
const WARMUP: Duration = Duration::from_secs(2);
/// Tail percentile: about 650 queries in 20 s leave 30 beyond p95.
const TAIL: f64 = 95.0;
/// Threads of the exact reference (scalar NA).
const ORACLE_THREADS: usize = 2;
/// Cold set-ups per run, each a process of its own that generates the
/// inputs again, so fewer than the served workloads' in-process ones.
const COLD_SETUPS: usize = 9;

/// The query the `i`th cold set-up answers: the `i`th at τ = 0.7. With
/// τ mixed, the median of the set-ups fell on a τ = 0.5 or a τ = 0.7
/// query from run to run, 29 or 38 ms.
fn cold_query(i: usize) -> usize {
    i * OFFLINE_TAUS.len() + 1
}

/// How long after a query the gauge may try for a slice that runs alone;
/// nothing else runs in this process then, so the first attempt is kept.
const GAUGE_WAIT: Duration = Duration::from_millis(10);

type Answer = (usize, u32, Point);

/// A cold set-up, in a process of its own: generated inputs in memory to
/// the first answer of query `query`. The line carries its seconds and
/// the answer, for [`parse_cold_setup`].
pub fn cold_setup(seed: u64, query: usize) -> Result<String, String> {
    let dataset = inputs::foursquare();
    let (groups, queries) = inputs::offline_queries(&dataset, seed);
    let q = *queries.get(query).ok_or("no such query")?;
    let objects = dataset.objects().to_vec();
    let t = Instant::now();
    let (best, influence, at) = solve(
        objects,
        &groups[q.group],
        q.tau,
        &mut Recorder::new(false),
        query as u64,
    )?;
    let secs = t.elapsed().as_secs_f64();
    Ok(format!(
        "cold_setup {secs:?} {best} {influence} {} {}",
        at.x.to_bits(),
        at.y.to_bits()
    ))
}

/// The seconds and answer of a [`cold_setup`] line.
fn parse_cold_setup(line: &str) -> Result<(f64, Answer), String> {
    let bad = || format!("not a cold set-up line: {line:?}");
    let fields: Vec<&str> = line.split(' ').collect();
    let [tag, secs, best, influence, x, y] = fields[..] else {
        return Err(bad());
    };
    if tag != "cold_setup" {
        return Err(bad());
    }
    let secs: f64 = secs.parse().map_err(|_| bad())?;
    let best = best.parse().map_err(|_| bad())?;
    let influence = influence.parse().map_err(|_| bad())?;
    let x = f64::from_bits(x.parse().map_err(|_| bad())?);
    let y = f64::from_bits(y.parse().map_err(|_| bad())?);
    Ok((secs, (best, influence, Point::new(x, y))))
}

/// One query: build, then the solver phases, each its own span when
/// tracing. The A2D and candidate tree are built explicitly so their
/// cost is attributed; a solve would build them anyway.
fn solve(
    objects: Vec<MovingObject>,
    group: &Group,
    tau: f64,
    rec: &mut Recorder,
    request: u64,
) -> Result<Answer, String> {
    let request = Some(request);
    rec.span("query", None, request, |rec, q| {
        let problem = rec.span("data.build", q, request, |_, _| {
            PrimeLs::builder()
                .objects(objects)
                .candidates(group.points.clone())
                .probability_function(PowerLawPf::paper_default())
                .tau(tau)
                .build()
        });
        let problem = problem.map_err(|e| e.to_string())?;
        rec.span("core.prepare", q, request, |_, _| {
            problem.a2d();
        });
        rec.span("index.candidate_tree", q, request, |_, _| {
            problem.candidate_tree();
        });
        let r = rec.span("core.solve", q, request, |_, _| {
            problem.solve(Algorithm::PinocchioVo)
        });
        Ok((r.best_candidate, r.max_influence, r.best_location))
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let dataset = inputs::foursquare();
    let (groups, queries) = inputs::offline_queries(&dataset, args.seed);
    let all: Vec<&Group> = groups.iter().collect();
    report.meta("objects", dataset.objects().len());
    report.meta("positions", inputs::positions(&dataset));
    report.meta("candidates", inputs::CANDIDATES);
    report.meta("venues", dataset.venues().len());
    report.meta("queries", queries.len());
    report.meta(
        "fingerprint",
        format!("\"{:016x}\"", inputs::fingerprint(&dataset, &all)),
    );

    let mut rec = Recorder::new(args.trace);
    // One gauge slice after every query: the solver is idle then.
    let mut gauge = Gauge::new();
    let mut answers: Vec<(Query, Answer)> = Vec::new();

    // Set-up: generated inputs in memory to a first answer, cold. Each
    // set-up is a fresh process of this program that generates the
    // inputs untimed and times its first query, so one-time
    // initialisation, and work a change moves into preparation, show.
    // The first τ = 0.7 queries take turns, so one candidate group does
    // not decide the figure; their answers are checked with the rest.
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let setup = setup_s(&mut gauge, COLD_SETUPS, |i| {
        let query = cold_query(i);
        let out = Command::new(&exe)
            .args(["--workload", "offline_solve", "--seed"])
            .arg(args.seed.to_string())
            .arg("--cold-setup")
            .arg(query.to_string())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a cold set-up: {e}"))?;
        if !out.status.success() {
            return Err(format!("cold set-up {i} exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let (secs, answer) = parse_cold_setup(text.lines().last().unwrap_or(""))?;
        answers.push((queries[query], answer));
        Ok(secs)
    })?;

    // Returns when the query started and its milliseconds.
    let mut run_query = |i: usize, rec: &mut Recorder| -> Result<(Instant, f64), String> {
        let q = queries[i % queries.len()];
        let objects = dataset.objects().to_vec();
        let t = Instant::now();
        let answer = solve(objects, &groups[q.group], q.tau, rec, i as u64)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        answers.push((q, answer));
        Ok((t, ms))
    };
    let mut next = cold_query(COLD_SETUPS);
    let warm_end = Instant::now() + WARMUP;
    while Instant::now() < warm_end {
        run_query(next, &mut Recorder::new(false))?;
        next += 1;
    }
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let mut latencies = Vec::new();
    while Instant::now() < end {
        latencies.push(run_query(next, &mut rec)?);
        gauge.slice(Instant::now() + GAUGE_WAIT);
        next += 1;
    }
    let peaks = peaks()?;
    report.attempted = answers.len() as u64;

    // Exactness: the influence of every venue, per τ, by scalar NA.
    for tau in OFFLINE_TAUS {
        if !answers.iter().any(|(q, _)| q.tau == tau) {
            continue;
        }
        let exact = problem(
            dataset.objects().to_vec(),
            dataset.venues().iter().map(|v| v.position).collect(),
            tau,
            EvalKernel::Scalar,
        )?;
        let exact = solve_naive_par(&exact, ORACLE_THREADS)
            .influences
            .ok_or("NA reported no influence vector")?;
        for (q, answer) in answers.iter().filter(|(q, _)| q.tau == tau) {
            report.check(check_offline(*answer, &groups[q.group], &exact));
        }
    }

    report.info("queries_timed", latencies.len() as f64, "count");
    report.info("tail_percentile", TAIL, "pct");
    report.info(
        "highest_supported_percentile",
        highest_supported(latencies.len()).unwrap_or(0.0),
        "pct",
    );
    let timings = |setup_s: f64, scale: &dyn Fn(Instant, f64) -> f64| {
        let ms: Vec<f64> = latencies.iter().map(|&(t, ms)| scale(t, ms)).collect();
        let busy_s = ms.iter().sum::<f64>() / 1e3;
        let sample = Sample::new(ms);
        let p50 = sample.median().ok_or("no query completed")?;
        Ok::<_, String>(Timings {
            setup_s,
            p50_ms: p50,
            tail_ms: sample.pct(TAIL).unwrap_or(p50),
            ops_per_s: sample.len() as f64 / busy_s,
        })
    };
    report.headline(
        &gauge,
        (
            timings(setup.0, &|t, ms| gauge.scale(t, ms))?,
            timings(setup.1, &|_, ms| ms)?,
        ),
        peaks,
    )?;
    if args.trace {
        let group0 = &groups[queries[0].group];
        let probe = Probe {
            dataset: &dataset,
            group: group0,
            world: World::from_parts(
                dataset.objects().to_vec(),
                group0.points.clone(),
                inputs::SERVE_TAU,
            )
            .map_err(|e| e.to_string())?,
            problems: queries
                .iter()
                .take(layers::SAMPLE)
                .map(|q| Problem::Query {
                    candidates: groups[q.group].points.clone(),
                    tau: q.tau,
                })
                .collect(),
            steps: Vec::new(),
            live: None,
            seed: inputs::derive(args.seed, inputs::Stream::Probe),
        };
        let layers = layers::run(probe, &mut rec)?;
        report.traced(layers);
        let path = rec
            .write(&trace_dir(), "offline_solve", args.seed)
            .map_err(|e| format!("cannot write the trace: {e}"))?;
        report.meta("trace_file", json_string(&path.display().to_string()));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinocchio_data::{GeneratorConfig, SyntheticGenerator};

    #[test]
    fn a_cold_set_up_line_carries_its_seconds_and_answer_exactly() {
        let at = Point::new(0.1, -2.75e-3);
        let line = format!(
            "cold_setup {:?} 17 423 {} {}",
            0.031_25,
            at.x.to_bits(),
            at.y.to_bits()
        );
        let (secs, (best, influence, got)) = parse_cold_setup(&line).unwrap();
        assert_eq!((secs, best, influence), (0.031_25, 17, 423));
        assert_eq!(
            (got.x.to_bits(), got.y.to_bits()),
            (at.x.to_bits(), at.y.to_bits())
        );
        assert!(parse_cold_setup("cold_setup 0.1 17 423").is_err());
        assert!(parse_cold_setup("warm_setup 0.1 17 423 0 0").is_err());
        assert!(parse_cold_setup("").is_err());
    }

    #[test]
    fn cold_set_ups_answer_tau_0_7_queries_of_distinct_groups() {
        let d = SyntheticGenerator::new(GeneratorConfig::small(60, 3)).generate();
        let (_, queries) = inputs::offline_queries(&d, 4);
        let picked: Vec<Query> = (0..COLD_SETUPS).map(|i| queries[cold_query(i)]).collect();
        assert!(picked.iter().all(|q| q.tau == 0.7));
        let groups: std::collections::BTreeSet<usize> = picked.iter().map(|q| q.group).collect();
        assert_eq!(groups.len(), COLD_SETUPS);
    }
}
