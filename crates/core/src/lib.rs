//! The PRIME-LS problem and the PINOCCHIO solvers — the paper's core
//! contribution.
//!
//! Given moving objects `Ω`, candidate locations `C`, a monotone
//! decreasing probability function `PF` and a threshold `τ`, PRIME-LS
//! (Definition 3) asks for the candidate maximising
//! `inf(c) = |{O : Pr_c(O) ≥ τ}|` where
//! `Pr_c(O) = 1 − ∏ᵢ (1 − PF(dist(c, pᵢ)))`.
//!
//! Five solvers are provided: the four algorithms evaluated in §6 and
//! one extension.
//!
//! * [`Algorithm::Naive`] — exhaustively evaluates every
//!   object–candidate pair (the paper's NA baseline),
//! * [`Algorithm::Pinocchio`] — Algorithm 2: per-object
//!   influence-arcs / non-influence-boundary pruning against the
//!   candidate R-tree, then plain validation of the undecided pairs,
//! * [`Algorithm::PinocchioVo`] — Algorithm 3: pruning plus the two
//!   validation optimizations (Strategy 1 upper/lower influence bounds
//!   with a max-heap and a global `maxminInf` cut-off; Strategy 2
//!   early-stopping via partial non-influence probabilities),
//! * [`Algorithm::PinocchioVoStar`] — PIN-VO\* in the paper: the
//!   validation optimizations *without* the pruning phase, used to
//!   separate the contribution of the two phases,
//! * [`Algorithm::PinocchioJoin`] — PIN-JOIN, an extension: a
//!   candidate-centric join over a μ-aggregate object tree, validated
//!   like PIN-VO.
//!
//! All solvers return the same optimal candidate (ties broken towards
//! the smallest candidate index); they differ only in cost, which the
//! attached [`SolveStats`] quantify. There is one solve call,
//! [`PrimeLs::try_solve`] with [`SolveOptions`] (algorithm, threads,
//! `k`); [`ShardedPrimeLs::try_solve`] runs the same call over object
//! shards. NA and PIN are a counting pass summed over object stripes;
//! PIN-VO, PIN-VO\* and PIN-JOIN are a filter followed by one
//! Strategy 1 driver, whose monotone `maxminInf` bound is shared
//! between workers through an atomic `fetch_max` without giving up
//! exactness. No solve starts more worker threads than the host has
//! cores.
//!
//! The solvers operate in a planar kilometre frame with the Euclidean
//! metric — project geodetic data first (`pinocchio_geo::projection`);
//! the pruning geometry (Lemmas 2–3) is only sound in a frame where the
//! probability distance and the MBR geometry agree.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod approx;
mod chunked;
pub mod dynamic;
pub mod eval;
mod join;
mod naive;
mod parallel;
pub mod pinocchio;
pub mod problem;
pub mod result;
pub mod shard;
mod solve;
pub mod state;
mod topk;
mod vo;
pub mod weighted;

pub use approx::{solve_approx, ApproxConfig, ApproxResult};
pub use dynamic::{CandidateHandle, DynamicPrimeLs, MaintenanceMode, ObjectHandle};
pub use eval::{EvalKernel, PairEval};
pub use problem::{BuildError, PrimeLs, PrimeLsBuilder};
pub use result::{argmax_smallest_index, Algorithm, SolveError, SolveResult, SolveStats};
pub use shard::{shard_of, try_solve_sharded_timed, ShardTimings, ShardedPrimeLs};
pub use solve::{solve_naive_par, SolveOptions};
pub use state::{A2d, ObjectEntry};
pub use topk::TopKEntry;
pub use weighted::{solve_weighted, WeightedResult};
