//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation section has a
//! matching binary in `src/bin/` (see DESIGN.md §5 for the index). Each
//! binary prints the paper-style rows to stdout and writes a JSON record
//! to `target/experiments/<id>.json` so EXPERIMENTS.md can be assembled
//! reproducibly.
//!
//! ## Scale control
//!
//! The full paper-calibrated datasets (2.3k/10k users) make some sweeps
//! take minutes. Set `PINOCCHIO_SCALE=small` to run every experiment on
//! a proportionally shrunken world (same generative process, ~10× fewer
//! users) — the qualitative shapes survive, which is what the
//! experiments assert.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use pinocchio_core::{Algorithm, PrimeLs, SolveResult};
use pinocchio_data::{Dataset, GeneratorConfig, SyntheticGenerator};
use pinocchio_prob::PowerLawPf;
use std::path::PathBuf;

/// Which of the two paper datasets an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Foursquare-Singapore-like (F).
    Foursquare,
    /// Gowalla-California-like (G).
    Gowalla,
}

impl DatasetKind {
    /// The paper's one-letter abbreviation.
    pub fn letter(&self) -> &'static str {
        match self {
            DatasetKind::Foursquare => "F",
            DatasetKind::Gowalla => "G",
        }
    }
}

/// Whether the harness runs at full (paper) scale or the fast CI scale.
pub fn is_small_scale() -> bool {
    std::env::var("PINOCCHIO_SCALE").as_deref() == Ok("small")
}

/// Generates the requested dataset at the configured scale.
pub fn dataset(kind: DatasetKind) -> Dataset {
    let mut config = match kind {
        DatasetKind::Foursquare => GeneratorConfig::foursquare_like(),
        DatasetKind::Gowalla => GeneratorConfig::gowalla_like(),
    };
    if is_small_scale() {
        config.n_users /= 10;
        config.n_venues /= 10;
        config.name.push_str("-small");
    }
    SyntheticGenerator::new(config).generate()
}

/// The paper's default parameters (§6.1): 600 candidates, τ = 0.7,
/// ρ = 0.9, λ = 1.0.
pub mod defaults {
    /// Default candidate-set size.
    pub const CANDIDATES: usize = 600;
    /// Default influence threshold.
    pub const TAU: f64 = 0.7;
    /// Default behaviour factor.
    pub const RHO: f64 = 0.9;
    /// Default power-law exponent.
    pub const LAMBDA: f64 = 1.0;
    /// Candidate-count sweep of Fig. 8.
    pub const CANDIDATE_SWEEP: [usize; 5] = [200, 400, 600, 800, 1000];
    /// Threshold sweep of Figs. 10 and 12.
    pub const TAU_SWEEP: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
}

/// Builds a PRIME-LS problem over a dataset with the paper defaults,
/// overriding pieces as needed.
pub fn problem(
    dataset: &Dataset,
    candidates: Vec<pinocchio_geo::Point>,
    pf: PowerLawPf,
    tau: f64,
) -> PrimeLs<PowerLawPf> {
    PrimeLs::builder()
        .objects(dataset.objects().to_vec())
        .candidates(candidates)
        .probability_function(pf)
        .tau(tau)
        .build()
        .expect("experiment problems are well-formed")
}

/// Runs one algorithm and returns `(result, seconds)`.
pub fn timed_solve(problem: &PrimeLs<PowerLawPf>, algorithm: Algorithm) -> (SolveResult, f64) {
    let result = problem.solve(algorithm);
    let secs = result.elapsed.as_secs_f64();
    (result, secs)
}

/// Formats a duration in seconds for table cells.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

/// Directory where experiment records are written
/// (`target/experiments`, created on demand).
pub fn experiments_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; hop to the workspace root.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Writes an experiment record as pretty JSON to
/// `target/experiments/<id>.json`.
pub fn write_record(id: &str, value: &serde_json::Value) {
    let path = experiments_dir().join(format!("{id}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialisable record");
    std::fs::write(&path, body).expect("can write experiment record");
    println!("\n[record written to {}]", path.display());
}

/// Geometric helpers shared by plots: an even sweep of `n` values over
/// `[lo, hi]` inclusive.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_and_spacing() {
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.0000005).ends_with("µs"));
        assert!(fmt_secs(0.05).ends_with("ms"));
        assert!(fmt_secs(2.5).ends_with('s'));
    }

    #[test]
    fn dataset_kind_letters() {
        assert_eq!(DatasetKind::Foursquare.letter(), "F");
        assert_eq!(DatasetKind::Gowalla.letter(), "G");
    }
}
