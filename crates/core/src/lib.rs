//! The PRIME-LS problem and the PINOCCHIO solvers — the paper's core
//! contribution.
//!
//! Given moving objects `Ω`, candidate locations `C`, a monotone
//! decreasing probability function `PF` and a threshold `τ`, PRIME-LS
//! (Definition 3) asks for the candidate maximising
//! `inf(c) = |{O : Pr_c(O) ≥ τ}|` where
//! `Pr_c(O) = 1 − ∏ᵢ (1 − PF(dist(c, pᵢ)))`.
//!
//! Four solvers are provided, exactly matching the algorithms evaluated
//! in §6:
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
//!   separate the contribution of the two phases.
//!
//! All solvers return the same optimal candidate (ties broken towards
//! the smallest candidate index); they differ only in cost, which the
//! attached [`SolveStats`] quantify. [`parallel::try_solve`] runs any
//! of them on several threads. PIN-VO, PIN-VO\*, PIN-JOIN, top-k and
//! the sharded solves share one Strategy 1 driver (`vo::validate`),
//! whose monotone `maxminInf` bound is shared between workers through
//! an atomic `fetch_max` without giving up exactness.
//!
//! The solvers operate in a planar kilometre frame with the Euclidean
//! metric — project geodetic data first (`pinocchio_geo::projection`);
//! the pruning geometry (Lemmas 2–3) is only sound in a frame where the
//! probability distance and the MBR geometry agree.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod approx;
pub mod dynamic;
pub mod eval;
pub mod join;
pub mod naive;
pub mod parallel;
pub mod pinocchio;
pub mod problem;
pub mod result;
pub mod shard;
pub mod state;
pub mod topk;
pub mod vo;
pub mod weighted;

pub use approx::{solve_approx, ApproxConfig, ApproxResult};
pub use dynamic::{CandidateHandle, DynamicPrimeLs, MaintenanceMode, ObjectHandle};
pub use eval::{EvalKernel, PairEval};
pub use parallel::solve_naive as solve_naive_par;
pub use problem::{BuildError, PrimeLs, PrimeLsBuilder};
pub use result::{argmax_smallest_index, Algorithm, SolveError, SolveResult, SolveStats};
pub use shard::{
    shard_of, solve_sharded, try_solve_sharded, try_solve_sharded_timed, ShardTimings,
    ShardedPrimeLs,
};
pub use state::{A2d, ObjectEntry};
pub use topk::{solve_top_k, try_solve_top_k, TopKEntry, TopKResult};
pub use weighted::{solve_weighted, WeightedResult};
