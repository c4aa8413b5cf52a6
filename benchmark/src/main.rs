//! PINOCCHIO benchmark: four workloads, end-to-end latency, and a traced
//! per-layer breakdown.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. The timed phase lasts
//! `--seconds` after a warm-up that is not recorded; every answer is then
//! checked. Human-readable `metric`/`info` lines and a `run` metadata line
//! go to stdout, and the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A wrong answer
//! makes the exit code non-zero. See README.md.

mod check;
mod client;
mod gauge;
mod heap;
mod inputs;
mod layers;
mod offline;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics of an untraced run, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("heap_p99_mb", "MiB"),
];

/// The per-layer metrics of a traced run, with units. The first six are
/// the end-to-end timings as measured, before the gauge's scaling, and
/// the gauge's own readings.
const PER_LAYER: [(&str, &str); 44] = [
    ("unscaled.setup_s", "s"),
    ("unscaled.p50_ms", "ms"),
    ("unscaled.tail_ms", "ms"),
    ("unscaled.ops_per_s", "1/s"),
    ("gauge.slowdown", "ratio"),
    ("gauge.rejected_fraction", "ratio"),
    ("data.build_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("index.candidate_tree_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.solve_p90_ms", "ms"),
    ("core.pruned_fraction", "ratio"),
    ("core.validated_pairs", "count"),
    ("core.candidates_skipped_fraction", "ratio"),
    ("prob.positions_per_pair", "count"),
    ("prob.log_band_fallbacks", "count"),
    ("prob.verdict_ns", "ns"),
    ("prob.verdict_ns.scalar", "ns"),
    ("prob.verdict_ns.blocked", "ns"),
    ("prob.verdict_ns.log_blocked", "ns"),
    ("core.solve_ms.pin", "ms"),
    ("core.solve_ms.pin_join", "ms"),
    ("index.join_nodes_per_solve", "count"),
    ("core.shard_critical_path_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.query_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.publish_us", "us"),
    ("serve.freeze_ms", "ms"),
    ("serve.stream_encode_ms", "ms"),
    ("serve.jobs_per_batch", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.updates_per_epoch", "count"),
    ("dynamic.apply_us.append", "us"),
    ("dynamic.apply_us.append_p99", "us"),
    ("dynamic.apply_us.insert_object", "us"),
    ("dynamic.apply_us.remove_object", "us"),
    ("dynamic.apply_us.insert_candidate", "us"),
    ("dynamic.apply_us.remove_candidate", "us"),
    ("heatmap.descent_ms", "ms"),
    ("heatmap.refined_tile_fraction", "ratio"),
    ("heatmap.validated_pairs", "count"),
    ("heatmap.top_region_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process PIN-VO queries, no server.
    OfflineSolve,
    /// Point reads behind the TCP server, a trickle of appends.
    ServeReads,
    /// An update-heavy writer beside open-loop reads.
    ServeUpdates,
    /// Heat maps, `top_region` and solves while epochs change.
    ServeExplore,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::OfflineSolve,
        Workload::ServeReads,
        Workload::ServeUpdates,
        Workload::ServeExplore,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineSolve => "offline_solve",
            Workload::ServeReads => "serve_reads",
            Workload::ServeUpdates => "serve_updates",
            Workload::ServeExplore => "serve_explore",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a trace file.
    pub trace: bool,
    /// Set by `offline_solve` for the processes it starts to time a cold
    /// set-up: answer this query and exit.
    pub cold_setup: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut cold_setup = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--cold-setup" => {
                cold_setup = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad cold set-up {value}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if cold_setup.is_some() && workload != Workload::OfflineSolve {
        return Err("--cold-setup belongs to offline_solve".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
        cold_setup,
    })
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations sent.
    pub attempted: u64,
    /// Operations refused, failed or never answered.
    pub failed: u64,
    /// Answers that did not match the reference (first few kept).
    pub mismatches: Vec<String>,
    /// Why the measurement is invalid, if it is; the answers may still
    /// be right.
    pub invalid: Option<String>,
    mismatch_count: u64,
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Secondary measurements, printed but not in the result object.
    pub info: Vec<(String, f64, &'static str)>,
    /// The end-to-end timings unscaled, and the gauge's readings: info
    /// lines of an untraced run, metrics of a traced one.
    pub unscaled: Vec<(&'static str, f64)>,
    /// Run metadata: key and JSON-encoded value.
    pub run: Vec<(&'static str, String)>,
}

impl Report {
    /// Sets a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a secondary measurement.
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push((name.into(), value, unit));
    }

    /// Records run metadata.
    pub fn meta(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.run.push((key, value.to_string()));
    }

    /// Files a failed check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.mismatch_count += 1;
            if self.mismatches.len() < 10 {
                self.mismatches.push(e);
            }
        }
    }

    /// Whether every answer checked out.
    pub fn correct(&self) -> bool {
        self.mismatch_count == 0
    }
}

/// The timed end-to-end metrics of a run, in one time unit: scaled to
/// the reference machine (see [`gauge`]), or as measured.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// Median set-up, seconds.
    pub setup_s: f64,
    /// Median latency of the workload's foreground operation, ms.
    pub p50_ms: f64,
    /// Its tail percentile, ms.
    pub tail_ms: f64,
    /// Foreground operations per second.
    pub ops_per_s: f64,
}

impl Report {
    /// Files the end-to-end metrics from the `scaled` timings and the
    /// memory peaks read right after the timed phase, each without the
    /// gauge's own table. The `unscaled` timings and the gauge's readings
    /// go to info lines and to the metrics of a traced run, so that a
    /// change the scaling hid still shows.
    pub fn headline(
        &mut self,
        gauge: &gauge::Gauge,
        (scaled, unscaled): (Timings, Timings),
        peaks: stats::Peaks,
    ) -> Result<(), String> {
        let slowdown = gauge.slowdown().ok_or("the speed gauge kept no slice")?;
        self.metric("setup_s", scaled.setup_s);
        self.metric("p50_ms", scaled.p50_ms);
        self.metric("tail_ms", scaled.tail_ms);
        self.metric("ops_per_s", scaled.ops_per_s);
        let gauge_mib = gauge.resident_mib();
        self.metric("heap_p99_mb", peaks.heap_pct_mib - gauge_mib);
        self.info("peak_heap_mb", peaks.heap_peak_mib - gauge_mib, "MiB");
        if let Some(rss) = peaks.rss_mib {
            self.info("peak_rss_mb", rss - gauge_mib, "MiB");
        }
        let tried = gauge.len() + gauge.rejected();
        self.unscaled = vec![
            ("unscaled.setup_s", unscaled.setup_s),
            ("unscaled.p50_ms", unscaled.p50_ms),
            ("unscaled.tail_ms", unscaled.tail_ms),
            ("unscaled.ops_per_s", unscaled.ops_per_s),
            ("gauge.slowdown", slowdown),
            (
                "gauge.rejected_fraction",
                gauge.rejected() as f64 / tried as f64,
            ),
        ];
        self.info("gauge_slices", gauge.len() as f64, "count");
        Ok(())
    }

    /// Makes `layers` and the unscaled timings the run's metrics. The
    /// end-to-end metrics, measured with tracing on, stay as
    /// `traced.<name>` info lines: against an untraced run's they give
    /// what tracing costs end to end.
    pub fn traced(&mut self, mut layers: BTreeMap<&'static str, f64>) {
        for (name, unit) in END_TO_END {
            if let Some(&value) = self.metrics.get(name) {
                self.info(format!("traced.{name}"), value, unit);
            }
        }
        layers.extend(self.unscaled.iter().copied());
        self.metrics = layers;
    }
}

/// Where traced runs write their span file: `$CARGO_TARGET_DIR/benchmark`
/// (or `target/benchmark`), inside the checkout.
pub fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// `git rev-parse HEAD` of the working directory, looking no further up
/// than it, or `unknown` (the benchmark may run from a plain export).
fn git_head() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_string()))
        .unwrap_or_else(|_| "\"?\"".to_string())
}

/// The result object: exactly the metrics of the run's mode, each with
/// its unit; an error if one is missing or not finite.
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = *report
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark --workload <offline_solve|serve_reads|serve_updates|serve_explore> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(query) = args.cold_setup {
        return match offline::cold_setup(args.seed, query) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: cold set-up {query} failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match args.workload {
        Workload::OfflineSolve => offline::run(&args),
        _ => serve::run(&args),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {} run failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    report.meta("workload", json_string(args.workload.name()));
    report.meta("seed", args.seed);
    report.meta("seconds", args.seconds);
    report.meta("trace", args.trace);
    report.meta("git", json_string(&git_head()));
    report.meta(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    for (name, value, unit) in &report.info {
        println!("info {name} = {value} {unit}");
    }
    if !args.trace {
        for (name, unit) in PER_LAYER.iter().take(report.unscaled.len()) {
            if let Some((_, value)) = report.unscaled.iter().find(|(n, _)| n == name) {
                println!("info {name} = {value} {unit}");
            }
        }
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        if let Some(v) = report.metrics.get(name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    let fields: Vec<String> = report
        .run
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("run {{{}}}", fields.join(","));
    for m in &report.mismatches {
        eprintln!("mismatch: {m}");
    }
    match result_line(&report, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} wrong answer(s)", report.mismatch_count);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_takes_workload_seed_seconds_and_trace() {
        let a = parse_args(&argv(
            "--workload serve_reads --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeReads);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload offline_solve")).is_err());
        assert!(parse_args(&argv("--workload offline_solve --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload offline_solve --seed 1 --seconds 0")).is_err());
        let a = parse_args(&argv("--workload offline_solve --seed 1 --cold-setup 3")).unwrap();
        assert_eq!(a.cold_setup, Some(3));
        assert!(parse_args(&argv("--workload serve_reads --seed 1 --cold-setup 3")).is_err());
    }

    #[test]
    fn a_wrong_answer_fails_the_run_and_the_result_names_every_metric() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.metric(name, 1.25);
        }
        report.check(Ok(()));
        assert!(report.correct());
        let line = result_line(&report, false).unwrap();
        let v = serde_json::from_str(&line).unwrap();
        let metrics = v.get("metrics").and_then(|m| m.as_object()).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert!(
            result_line(&report, true).is_err(),
            "per-layer metrics missing"
        );

        report.check(Err("corrupted answer".to_string()));
        assert!(!report.correct());
        let line = result_line(&report, false).unwrap();
        assert!(line.starts_with("{\"correct\":false"));
    }

    #[test]
    fn metric_names_and_units_fit_the_ledger_format() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(name) && ok_unit(unit), "{name} {unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }
}
