//! Solver results and cost instrumentation.

use crate::topk::TopKEntry;
use pinocchio_geo::Point;
use std::fmt;
use std::time::Duration;

/// The four solvers evaluated in §6, plus this repo's candidate-centric
/// join extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// NA — exhaustive evaluation of all object–candidate pairs.
    Naive,
    /// PIN — Algorithm 2 (pruning + plain validation).
    Pinocchio,
    /// PIN-VO — Algorithm 3 (pruning + Strategy 1 + Strategy 2).
    PinocchioVo,
    /// PIN-VO* — validation optimizations without the pruning phase.
    PinocchioVoStar,
    /// PIN-JOIN — candidate-centric object join over the μ-aggregate
    /// `MbrTree` (hierarchical subtree-IA/NIB pruning), an extension
    /// beyond the paper.
    PinocchioJoin,
}

impl Algorithm {
    /// The paper's four algorithms, in its comparison order — the figure
    /// reproductions iterate exactly these, so the extension solvers are
    /// deliberately *not* included here.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Naive,
        Algorithm::Pinocchio,
        Algorithm::PinocchioVo,
        Algorithm::PinocchioVoStar,
    ];

    /// The paper's four algorithms plus this repo's extensions — what
    /// the cross-solver exactness suites iterate.
    pub const WITH_EXTENSIONS: [Algorithm; 5] = [
        Algorithm::Naive,
        Algorithm::Pinocchio,
        Algorithm::PinocchioVo,
        Algorithm::PinocchioVoStar,
        Algorithm::PinocchioJoin,
    ];

    /// The label used in the paper's plots (and this repo's extensions).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Naive => "NA",
            Algorithm::Pinocchio => "PIN",
            Algorithm::PinocchioVo => "PIN-VO",
            Algorithm::PinocchioVoStar => "PIN-VO*",
            Algorithm::PinocchioJoin => "PIN-JOIN",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cost counters collected during a solve.
///
/// These power the pruning-effect (Fig. 10) and strategy-ablation
/// experiments; wall-clock time alone would hide *why* a solver wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Object–candidate pairs decided by the influence-arcs rule.
    pub decided_by_ia: u64,
    /// Object–candidate pairs decided by the non-influence boundary.
    pub decided_by_nib: u64,
    /// Object–candidate pairs that required probability evaluation.
    pub validated_pairs: u64,
    /// Individual position probabilities evaluated (`PF(dist)` calls).
    pub positions_evaluated: u64,
    /// Candidates whose validation ran to completion (VO only).
    pub candidates_fully_validated: u64,
    /// Candidates skipped entirely by Strategy 1 (VO only).
    pub candidates_skipped_by_bounds: u64,
    /// Object–candidate pairs never evaluated because Strategy 1 killed
    /// or skipped the candidate (VO only). Together with the decided and
    /// validated counters this accounts for every influenceable pair.
    pub pairs_skipped_by_bounds: u64,
    /// Objects that can never be influenced (`minMaxRadius` undefined).
    pub uninfluenceable_objects: u64,
    /// Position blocks whose contribution was bounded from the block MBR
    /// and never refined (blocked kernel only; zero on the scalar path).
    pub blocks_pruned: u64,
    /// Positions inside pruned blocks — decided without a `PF(dist)`
    /// evaluation. For every validated pair the identity
    /// `positions_evaluated + positions_skipped_by_blocks = total
    /// positions of the pair's object` holds, mirroring the scalar
    /// path's accounting where the two terms are `n'` and `n − n'`.
    pub positions_skipped_by_blocks: u64,
    /// Subtrees of the object μ-aggregate tree accepted wholesale by the
    /// node-level IA rule (join solver only). The objects below are
    /// counted in `decided_by_ia` in bulk, so `decided_by_ia +
    /// decided_by_nib + validated_pairs + pairs_skipped_by_bounds` still
    /// equals the influenceable pair space.
    pub subtrees_pruned_ia: u64,
    /// Subtrees excluded wholesale by the node-level NIB rule (join
    /// solver only); the objects below land in `decided_by_nib` in bulk.
    pub subtrees_pruned_nib: u64,
    /// Aggregate-tree nodes popped during join traversals (join solver
    /// only) — the join-phase analogue of the R-tree query counters.
    pub join_nodes_visited: u64,
    /// Pairs whose log-domain accumulator landed inside the guard band
    /// and were re-resolved by the exact product-space fallback
    /// (log-blocked kernel only; zero elsewhere). Each such pair is
    /// already counted in `validated_pairs` — this counter only measures
    /// how often the band was too tight, not extra pairs.
    pub log_band_fallbacks: u64,
    /// Heat-map quadtree cells whose descent terminated fully resolved
    /// with at least one cell-level IA verdict (`lo == hi > 0`): the
    /// influence count is constant over the whole cell and no position
    /// was ever touched (heat-map descent only; zero elsewhere). The
    /// three `cells_*` counters partition the terminal cells of a
    /// descent, so `Σ span² over cells_resolved_ia +
    /// cells_resolved_nib + cells_refined = resolution²` — the
    /// tile-coverage accounting identity.
    pub cells_resolved_ia: u64,
    /// Heat-map cells resolved with every object excluded
    /// (`lo == hi == 0`) — the cell-level NIB analogue.
    pub cells_resolved_nib: u64,
    /// Heat-map leaf cells (single tiles) that stayed ambiguous and
    /// were refined by exact evaluation at the tile's sample point;
    /// those evaluations land in `validated_pairs` as usual.
    pub cells_refined: u64,
}

impl std::ops::AddAssign for SolveStats {
    /// Merges the counters of a partial solve (e.g. one worker thread's
    /// stripe) into `self`; every field is a sum, so merging partials in
    /// any order reproduces the sequential totals.
    fn add_assign(&mut self, rhs: SolveStats) {
        self.decided_by_ia += rhs.decided_by_ia;
        self.decided_by_nib += rhs.decided_by_nib;
        self.validated_pairs += rhs.validated_pairs;
        self.positions_evaluated += rhs.positions_evaluated;
        self.candidates_fully_validated += rhs.candidates_fully_validated;
        self.candidates_skipped_by_bounds += rhs.candidates_skipped_by_bounds;
        self.pairs_skipped_by_bounds += rhs.pairs_skipped_by_bounds;
        self.uninfluenceable_objects += rhs.uninfluenceable_objects;
        self.blocks_pruned += rhs.blocks_pruned;
        self.positions_skipped_by_blocks += rhs.positions_skipped_by_blocks;
        self.subtrees_pruned_ia += rhs.subtrees_pruned_ia;
        self.subtrees_pruned_nib += rhs.subtrees_pruned_nib;
        self.join_nodes_visited += rhs.join_nodes_visited;
        self.log_band_fallbacks += rhs.log_band_fallbacks;
        self.cells_resolved_ia += rhs.cells_resolved_ia;
        self.cells_resolved_nib += rhs.cells_resolved_nib;
        self.cells_refined += rhs.cells_refined;
    }
}

impl SolveStats {
    /// Pairs accounted for by pruning, validation, or a Strategy 1 skip —
    /// for every solver this must equal its share of the pair space (see
    /// the `accounting_is_complete` tests).
    pub fn accounted_pairs(&self) -> u64 {
        self.decided_by_ia
            + self.decided_by_nib
            + self.validated_pairs
            + self.pairs_skipped_by_bounds
    }

    /// Total object–candidate pairs decided without exact validation.
    pub fn pruned_pairs(&self) -> u64 {
        self.decided_by_ia + self.decided_by_nib
    }

    /// Fraction of decided pairs that never needed validation.
    ///
    /// Returns `None` when nothing was decided (degenerate input).
    pub fn pruned_fraction(&self) -> Option<f64> {
        let total = self.pruned_pairs() + self.validated_pairs;
        (total > 0).then(|| self.pruned_pairs() as f64 / total as f64)
    }
}

/// Errors surfaced by the one solve call (`PrimeLs::try_solve`,
/// `ShardedPrimeLs::try_solve`). `PrimeLs::solve` runs it with one
/// thread and `k = 1`, where none of these can occur.
///
/// `#[non_exhaustive]`: downstream layers (the wire protocol in
/// `pinocchio-serve` in particular) must translate through [`fmt::Display`]
/// or a wildcard arm, so adding a solver error variant is never a
/// breaking change and never leaks a `Debug` rendering onto the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// A parallel driver was asked to run with zero worker threads.
    ZeroThreads,
    /// A top-k query asked for an empty ranking (`k == 0`).
    ZeroK,
    /// No candidate was ever fully validated. Impossible for a problem
    /// built through [`PrimeLsBuilder`](crate::PrimeLsBuilder), which
    /// rejects empty candidate sets, but surfaced as an error so that
    /// drivers need not trust that invariant with a panic.
    NoValidatedCandidate,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::ZeroThreads => f.write_str("need at least one thread"),
            SolveError::ZeroK => f.write_str("top-k requires k >= 1"),
            SolveError::NoValidatedCandidate => {
                f.write_str("no candidate was fully validated (empty candidate set?)")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Index and value of the maximum element, ties broken towards the
/// smallest index — the head of the ranking every solve reports
/// (`SolveResult::top`), for oracles that hold a plain influence
/// vector. The smallest-index tie-break is the contract that makes all
/// algorithms return bit-identical results. Returns `None` on an empty
/// slice.
pub fn argmax_smallest_index(values: &[u32]) -> Option<(usize, u32)> {
    let mut best: Option<(usize, u32)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

/// The outcome of one PRIME-LS solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Which algorithm produced this result.
    pub algorithm: Algorithm,
    /// Index (into the candidate slice) of the optimal candidate; ties
    /// broken towards the smallest index, so all algorithms agree.
    pub best_candidate: usize,
    /// The optimal candidate's location.
    pub best_location: Point,
    /// `inf(best)` — the maximum influence (Definition 2).
    pub max_influence: u32,
    /// Exact influence of every candidate, when the algorithm computes
    /// it (NA and PIN do; the bound-driven PIN-VO, PIN-VO\* and PIN-JOIN
    /// stop early by design and only certify the ranked candidates).
    pub influences: Option<Vec<u32>>,
    /// The `min(k, m)` best candidates by `(influence desc, index asc)`
    /// with their exact influences (`SolveOptions::k`, 1 by default);
    /// the first entry is always the optimum.
    pub top: Vec<TopKEntry>,
    /// Cost counters.
    pub stats: SolveStats,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
}

impl SolveResult {
    /// Candidate indices ranked by descending influence (ties by index),
    /// available when `influences` is present. Used by the Top-K
    /// effectiveness experiments.
    pub fn ranking(&self) -> Option<Vec<usize>> {
        let inf = self.influences.as_ref()?;
        let mut idx: Vec<usize> = (0..inf.len()).collect();
        idx.sort_by(|&a, &b| inf[b].cmp(&inf[a]).then(a.cmp(&b)));
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Algorithm::Naive.label(), "NA");
        assert_eq!(Algorithm::PinocchioVo.to_string(), "PIN-VO");
        assert_eq!(Algorithm::PinocchioJoin.label(), "PIN-JOIN");
        assert_eq!(Algorithm::ALL.len(), 4, "the paper's comparison set");
        assert_eq!(Algorithm::WITH_EXTENSIONS.len(), 5);
        assert!(Algorithm::WITH_EXTENSIONS.starts_with(&Algorithm::ALL));
    }

    #[test]
    fn stats_fractions() {
        let s = SolveStats {
            decided_by_ia: 30,
            decided_by_nib: 30,
            validated_pairs: 40,
            ..Default::default()
        };
        assert_eq!(s.pruned_pairs(), 60);
        assert!((s.pruned_fraction().unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(SolveStats::default().pruned_fraction(), None);
    }

    #[test]
    fn argmax_breaks_ties_towards_smallest_index() {
        assert_eq!(argmax_smallest_index(&[]), None);
        assert_eq!(argmax_smallest_index(&[7]), Some((0, 7)));
        assert_eq!(argmax_smallest_index(&[1, 3, 2]), Some((1, 3)));
        // Tie on the maximum: the earlier index must win.
        assert_eq!(argmax_smallest_index(&[2, 5, 5, 1]), Some((1, 5)));
        // All-tied input (the all-uninfluenceable world): index 0 wins.
        assert_eq!(argmax_smallest_index(&[0, 0, 0]), Some((0, 0)));
        // Maximum at the last index, no tie.
        assert_eq!(argmax_smallest_index(&[1, 2, 9]), Some((2, 9)));
    }

    #[test]
    fn stats_merge_is_fieldwise_sum() {
        let a = SolveStats {
            decided_by_ia: 1,
            decided_by_nib: 2,
            validated_pairs: 3,
            positions_evaluated: 4,
            candidates_fully_validated: 5,
            candidates_skipped_by_bounds: 6,
            pairs_skipped_by_bounds: 7,
            uninfluenceable_objects: 8,
            blocks_pruned: 9,
            positions_skipped_by_blocks: 10,
            subtrees_pruned_ia: 11,
            subtrees_pruned_nib: 12,
            join_nodes_visited: 13,
            log_band_fallbacks: 14,
            cells_resolved_ia: 15,
            cells_resolved_nib: 16,
            cells_refined: 17,
        };
        let mut merged = a;
        merged += a;
        assert_eq!(
            merged,
            SolveStats {
                decided_by_ia: 2,
                decided_by_nib: 4,
                validated_pairs: 6,
                positions_evaluated: 8,
                candidates_fully_validated: 10,
                candidates_skipped_by_bounds: 12,
                pairs_skipped_by_bounds: 14,
                uninfluenceable_objects: 16,
                blocks_pruned: 18,
                positions_skipped_by_blocks: 20,
                subtrees_pruned_ia: 22,
                subtrees_pruned_nib: 24,
                join_nodes_visited: 26,
                log_band_fallbacks: 28,
                cells_resolved_ia: 30,
                cells_resolved_nib: 32,
                cells_refined: 34,
            }
        );
        assert_eq!(merged.accounted_pairs(), 2 + 4 + 6 + 14);
    }

    #[test]
    fn ranking_sorts_descending_with_index_ties() {
        let r = SolveResult {
            algorithm: Algorithm::Naive,
            best_candidate: 2,
            best_location: Point::ORIGIN,
            max_influence: 9,
            influences: Some(vec![3, 9, 9, 1]),
            top: Vec::new(),
            stats: SolveStats::default(),
            elapsed: Duration::ZERO,
        };
        assert_eq!(r.ranking().unwrap(), vec![1, 2, 0, 3]);
    }
}
