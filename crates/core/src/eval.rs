//! Per-pair evaluation dispatch — one place where every solver turns an
//! (object, candidate) pair into an influence verdict.
//!
//! Historically each solver called
//! [`CumulativeProbability::influences`] /
//! [`influences_early_stop`](CumulativeProbability::influences_early_stop)
//! directly and maintained its own `validated_pairs` /
//! `positions_evaluated` bookkeeping. [`PairEval`] centralises both, so
//! all solvers:
//!
//! * account for work identically (the stats-parity tests compare
//!   [`SolveStats`] across solvers and thread counts), and
//! * can be switched between the scalar evaluation path and the
//!   block-bounded structure-of-arrays kernel
//!   ([`CumulativeProbability::influences_blocked`]) with one
//!   [`EvalKernel`] knob on the problem instance — the verdicts are
//!   identical by construction, so every solver stays bit-identical
//!   under either kernel.

use crate::result::SolveStats;
use pinocchio_data::{MovingObject, PositionArena, BLOCK_SIZE};
use pinocchio_geo::{Euclidean, Point};
use pinocchio_prob::{
    BlockScratch, CumulativeProbability, EarlyStopOutcome, LogPfTable, LogScratch,
    ProbabilityFunction, SoaBlocks, TileCutoffs,
};

/// Candidate-tile width under [`EvalKernel::LogBlocked`]: the callers
/// that validate every pair (NA and heat-map refinement) batch this
/// many candidates against each object so the object MBR, thresholds and arena block views are set
/// up once per tile instead of once per candidate. 32 is the verdict
/// bitmask's capacity and won the tile-size sweep in DESIGN.md §15
/// (T ∈ {8, 16, 24, 32}; per-tile dispatch overhead keeps falling all
/// the way to the mask limit while the pre-check loop stays branch-free
/// at any width).
pub(crate) const LOG_TILE_WIDTH: usize = 32;

/// Which evaluation path [`PairEval::influences`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalKernel {
    /// The scalar per-position scan over `MovingObject::positions()`
    /// (with the Lemma 4 early exit where the solver requests it).
    /// This is the default and reproduces the historical behaviour —
    /// and stats — exactly.
    #[default]
    Scalar,
    /// The block-bounded structure-of-arrays kernel: per-block
    /// `minDist`/`maxDist` bounds decide most objects from a handful of
    /// distances; only straddling blocks are refined. Verdicts are
    /// identical to [`EvalKernel::Scalar`]; `positions_evaluated`
    /// shrinks and the `blocks_pruned` / `positions_skipped_by_blocks`
    /// counters light up. The kernel subsumes the scalar early-stop
    /// flag (its bounding pass exits early in both directions), so the
    /// solver's `early_stop` request is ignored under this kernel.
    Blocked,
    /// The log-domain kernel: `Σ ln(1 − PF(d))` accumulated against
    /// `ln(1 − τ)` through a branch-free squared-distance coefficient
    /// table ([`LogPfTable`]), with block bounds hoisted into the same
    /// accumulator and a guard band whose in-band pairs fall back to
    /// the exact product-space refinement. Verdicts are identical to
    /// [`EvalKernel::Scalar`] (table error is covered by the band; the
    /// band is resolved exactly); `log_band_fallbacks` counts how often
    /// the fallback fired. NA and heat-map refinement batch
    /// [`LOG_TILE_WIDTH`] candidates per object under this kernel.
    ///
    /// Requires a PF whose log table converged
    /// ([`LogPfTable::try_new`]); problems whose PF defeats the table
    /// (e.g. `PF(0) = 1`) transparently run [`EvalKernel::Blocked`]
    /// instead.
    LogBlocked,
}

/// A borrowed evaluation context: the probability evaluator plus both
/// position representations (per-object `Vec<Point>` and the flat
/// [`PositionArena`]) and the problem's `τ`.
///
/// Built by [`PrimeLs::pair_eval`](crate::PrimeLs::pair_eval); the
/// arena is constructed together with the problem, so object index `k`
/// here always refers to the same object in both layouts.
#[derive(Debug)]
pub struct PairEval<'a, P> {
    eval: CumulativeProbability<P, Euclidean>,
    objects: &'a [MovingObject],
    arena: &'a PositionArena,
    kernel: EvalKernel,
    tau: f64,
    // Reused across every pair this evaluator validates (the blocked
    // kernel's per-block bound factors); owning it here is why
    // `influences` takes `&mut self`.
    scratch: BlockScratch,
    log_scratch: LogScratch,
    /// The problem's precomputed log-PF table — present exactly when
    /// the resolved kernel is [`EvalKernel::LogBlocked`].
    log_table: Option<&'a LogPfTable>,
    /// Memoised arena view of the last object evaluated, together with
    /// the object's tile cutoffs (zeroed when no log table is active):
    /// object-major loops (NA's candidate tiles, heat-map refinement)
    /// pay the arena slice lookup and the cutoff
    /// inversion once per object, not once per pair.
    view: Option<(usize, SoaBlocks<'a>, TileCutoffs)>,
}

impl<'a, P: ProbabilityFunction + Clone> PairEval<'a, P> {
    pub(crate) fn new(
        eval: CumulativeProbability<P, Euclidean>,
        objects: &'a [MovingObject],
        arena: &'a PositionArena,
        kernel: EvalKernel,
        tau: f64,
        log_table: Option<&'a LogPfTable>,
    ) -> Self {
        debug_assert_eq!(arena.object_count(), objects.len());
        // LogBlocked needs the table; when the PF defeated table
        // construction, downgrade to the (always available) blocked
        // kernel rather than carrying a panic path into the hot loop.
        let (kernel, log_table) = match (kernel, log_table) {
            (EvalKernel::LogBlocked, Some(table)) => (EvalKernel::LogBlocked, Some(table)),
            (EvalKernel::LogBlocked, None) => (EvalKernel::Blocked, None),
            (other, _) => (other, None),
        };
        PairEval {
            eval,
            objects,
            arena,
            kernel,
            tau,
            scratch: BlockScratch::default(),
            log_scratch: LogScratch::default(),
            log_table,
            view: None,
        }
    }

    /// The underlying cumulative-probability evaluator.
    pub fn evaluator(&self) -> &CumulativeProbability<P, Euclidean> {
        &self.eval
    }

    /// The active evaluation kernel (after the LogBlocked → Blocked
    /// downgrade for PFs without a usable log table).
    pub fn kernel(&self) -> EvalKernel {
        self.kernel
    }

    /// How many candidates a full-scan caller (NA, heat-map refinement)
    /// should batch per object under the active kernel: [`LOG_TILE_WIDTH`] for [`EvalKernel::LogBlocked`],
    /// 1 otherwise (a 1-wide tile reproduces untiled behaviour exactly).
    pub fn tile_width(&self) -> usize {
        match self.kernel {
            EvalKernel::LogBlocked => LOG_TILE_WIDTH,
            _ => 1,
        }
    }

    /// The arena block view of `object_index` plus its precomputed
    /// [`TileCutoffs`], memoised across calls so object-major loops
    /// resolve the arena slices and the cutoff inversion once per
    /// object. The cutoffs are zeroed when no log table is active (the
    /// scalar/blocked kernels never read them).
    // pinocchio-hot: per-pair view lookup of every blocked validation
    fn blocks(&mut self, object_index: usize) -> (SoaBlocks<'a>, TileCutoffs) {
        match self.view {
            Some((cached, view, cutoffs)) if cached == object_index => (view, cutoffs),
            _ => {
                let view = SoaBlocks::with_object_mbr(
                    self.arena.object_xs(object_index),
                    self.arena.object_ys(object_index),
                    self.arena.object_block_mbrs(object_index),
                    BLOCK_SIZE,
                    *self.arena.object_mbr(object_index),
                );
                let cutoffs = match self.log_table {
                    Some(table) => table.tile_cutoffs(view.len(), self.tau),
                    None => TileCutoffs {
                        influenced_below: 0.0,
                        not_influenced_at: 0.0,
                        thr_inf: 0.0,
                        thr_not: 0.0,
                    },
                };
                self.view = Some((object_index, view, cutoffs));
                (view, cutoffs)
            }
        }
    }

    /// Whether `candidate` influences object `object_index`
    /// (`Pr_c(O) ≥ τ`), recording the pair's cost into `stats`.
    ///
    /// `early_stop` selects the Lemma 4 early exit on the scalar path
    /// (Strategy 2); the blocked kernel always bounds in both
    /// directions and ignores the flag. Every call adds exactly one
    /// `validated_pairs`, and the pair's positions are fully accounted:
    /// on the scalar path the early exit's unevaluated tail is implicit
    /// in `positions_evaluated < n`, on the blocked path the identity
    /// `positions_evaluated + positions_skipped_by_blocks = n` holds
    /// per pair.
    // pinocchio-hot: the per-pair dispatch every solver validates through
    pub fn influences(
        &mut self,
        candidate: &Point,
        object_index: usize,
        early_stop: bool,
        stats: &mut SolveStats,
    ) -> bool {
        stats.validated_pairs += 1;
        match self.kernel {
            EvalKernel::Scalar => {
                let object = &self.objects[object_index];
                let outcome = if early_stop {
                    self.eval
                        .influences_early_stop(candidate, object.positions(), self.tau)
                } else {
                    EarlyStopOutcome::from_verdict(
                        self.eval
                            .influences(candidate, object.positions(), self.tau),
                        object.position_count(),
                    )
                };
                stats.positions_evaluated += outcome.positions_evaluated as u64;
                outcome.influenced
            }
            EvalKernel::Blocked => {
                let (view, _) = self.blocks(object_index);
                let outcome =
                    self.eval
                        .influences_blocked(candidate, &view, self.tau, &mut self.scratch);
                stats.positions_evaluated += outcome.positions_evaluated as u64;
                stats.positions_skipped_by_blocks += outcome.positions_skipped as u64;
                stats.blocks_pruned += outcome.blocks_pruned as u64;
                outcome.influenced
            }
            EvalKernel::LogBlocked => {
                let (view, _) = self.blocks(object_index);
                let table = self
                    .log_table
                    .expect("LogBlocked resolved in new() only with a table"); // pinocchio-lint: allow(panic-path) -- unreachable by construction: new() downgrades LogBlocked to Blocked when the table is absent
                let outcome = self.eval.influences_log_blocked(
                    candidate,
                    &view,
                    self.tau,
                    table,
                    &mut self.log_scratch,
                );
                stats.positions_evaluated += outcome.positions_evaluated as u64;
                stats.positions_skipped_by_blocks += outcome.positions_skipped as u64;
                stats.blocks_pruned += outcome.blocks_pruned as u64;
                stats.log_band_fallbacks += u64::from(outcome.fell_back_to_exact);
                outcome.influenced
            }
        }
    }

    /// Validates a whole candidate tile against one object in a single
    /// dispatch; verdict bit `j` of the returned mask corresponds to
    /// `candidates[j]`.
    ///
    /// Verdicts and stats are exactly those of calling
    /// [`Self::influences`] once per candidate — the batch exists so the
    /// log-blocked kernel can run its O(1) object-level pre-check across
    /// the tile with the object MBR and thresholds set up once (see
    /// [`CumulativeProbability::influences_log_blocked_tile`]). On the
    /// scalar and blocked kernels the tile degenerates to the per-pair
    /// loop, bit-identical to the historical behaviour.
    // pinocchio-hot: the tiled dispatch of the validation-dominated solvers
    pub fn influences_tile(
        &mut self,
        candidates: &[Point],
        object_index: usize,
        early_stop: bool,
        stats: &mut SolveStats,
    ) -> u32 {
        debug_assert!(candidates.len() <= LOG_TILE_WIDTH.max(1));
        if self.kernel == EvalKernel::LogBlocked && candidates.len() > 1 {
            stats.validated_pairs += candidates.len() as u64;
            let (view, cutoffs) = self.blocks(object_index);
            let table = self
                .log_table
                .expect("LogBlocked resolved in new() only with a table"); // pinocchio-lint: allow(panic-path) -- unreachable by construction: new() downgrades LogBlocked to Blocked when the table is absent
            let out = self.eval.influences_log_blocked_tile(
                candidates,
                &view,
                self.tau,
                table,
                cutoffs,
                &mut self.log_scratch,
            );
            stats.positions_evaluated += out.positions_evaluated as u64;
            stats.positions_skipped_by_blocks += out.positions_skipped as u64;
            stats.blocks_pruned += out.blocks_pruned as u64;
            stats.log_band_fallbacks += u64::from(out.band_fallbacks);
            out.influenced_mask
        } else {
            let mut mask = 0u32;
            for (j, c) in candidates.iter().enumerate() {
                mask |= u32::from(self.influences(c, object_index, early_stop, stats)) << j;
            }
            mask
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PrimeLs;
    use pinocchio_prob::PowerLawPf;

    fn problem(kernel: EvalKernel) -> PrimeLs<PowerLawPf> {
        PrimeLs::builder()
            .objects(vec![
                MovingObject::new(
                    0,
                    (0..40).map(|i| Point::new(i as f64 * 0.3, 0.0)).collect(),
                ),
                MovingObject::new(1, vec![Point::new(50.0, 50.0)]),
            ])
            .candidates(vec![Point::new(0.0, 0.1), Point::new(200.0, 0.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.7)
            .evaluation_kernel(kernel)
            .build()
            .unwrap()
    }

    #[test]
    fn kernels_agree_on_verdicts() {
        let scalar = problem(EvalKernel::Scalar);
        let blocked = problem(EvalKernel::Blocked);
        let log = problem(EvalKernel::LogBlocked);
        let mut ps = scalar.pair_eval();
        let mut pb = blocked.pair_eval();
        let mut pl = log.pair_eval();
        assert_eq!(pl.kernel(), EvalKernel::LogBlocked);
        let mut s_stats = SolveStats::default();
        let mut b_stats = SolveStats::default();
        let mut l_stats = SolveStats::default();
        for k in 0..2 {
            for c in scalar.candidates() {
                for early in [false, true] {
                    let expect = ps.influences(c, k, early, &mut s_stats);
                    assert_eq!(
                        expect,
                        pb.influences(c, k, early, &mut b_stats),
                        "blocked: object {k} candidate {c:?} early={early}"
                    );
                    assert_eq!(
                        expect,
                        pl.influences(c, k, early, &mut l_stats),
                        "log-blocked: object {k} candidate {c:?} early={early}"
                    );
                }
            }
        }
        assert_eq!(s_stats.validated_pairs, b_stats.validated_pairs);
        assert_eq!(s_stats.validated_pairs, l_stats.validated_pairs);
        assert_eq!(s_stats.positions_skipped_by_blocks, 0);
        assert_eq!(s_stats.blocks_pruned, 0);
        assert_eq!(s_stats.log_band_fallbacks, 0);
        assert_eq!(b_stats.log_band_fallbacks, 0);
    }

    #[test]
    fn tile_width_is_one_except_log_blocked() {
        assert_eq!(problem(EvalKernel::Scalar).pair_eval().tile_width(), 1);
        assert_eq!(problem(EvalKernel::Blocked).pair_eval().tile_width(), 1);
        assert_eq!(
            problem(EvalKernel::LogBlocked).pair_eval().tile_width(),
            LOG_TILE_WIDTH
        );
    }

    #[test]
    fn log_blocked_downgrades_without_a_table() {
        // A PF with PF(0) = 1 defeats the log table (ln(1 − 1) = −∞);
        // the kernel must transparently resolve to Blocked and still
        // produce scalar-identical verdicts.
        #[derive(Clone, Debug)]
        struct Saturated;
        impl ProbabilityFunction for Saturated {
            fn prob(&self, d: f64) -> f64 {
                1.0 / (1.0 + d * d)
            }
            fn inverse(&self, p: f64) -> Option<f64> {
                (p > 0.0 && p <= 1.0).then(|| (1.0 / p - 1.0).sqrt())
            }
            fn name(&self) -> &'static str {
                "saturated"
            }
        }
        let build = |kernel| {
            PrimeLs::builder()
                .objects(vec![MovingObject::new(
                    0,
                    (0..40).map(|i| Point::new(i as f64 * 0.3, 0.0)).collect(),
                )])
                .candidates(vec![Point::new(0.0, 0.1), Point::new(200.0, 0.0)])
                .probability_function(Saturated)
                .tau(0.7)
                .evaluation_kernel(kernel)
                .build()
                .unwrap()
        };
        let log = build(EvalKernel::LogBlocked);
        let scalar = build(EvalKernel::Scalar);
        let mut pl = log.pair_eval();
        assert_eq!(pl.kernel(), EvalKernel::Blocked, "downgraded");
        assert_eq!(pl.tile_width(), 1);
        let mut ps = scalar.pair_eval();
        let mut stats = SolveStats::default();
        for c in log.candidates() {
            assert_eq!(
                pl.influences(c, 0, true, &mut stats),
                ps.influences(c, 0, true, &mut stats)
            );
        }
    }

    #[test]
    fn blocked_accounting_is_total_per_pair() {
        let p = problem(EvalKernel::Blocked);
        let mut pair = p.pair_eval();
        let total_positions: u64 = p.objects().iter().map(|o| o.position_count() as u64).sum();
        let mut stats = SolveStats::default();
        for k in 0..p.objects().len() {
            for c in p.candidates() {
                let _ = pair.influences(c, k, true, &mut stats);
            }
        }
        // Every pair scans its object once: 2 candidates × all objects.
        assert_eq!(
            stats.positions_evaluated + stats.positions_skipped_by_blocks,
            2 * total_positions
        );
    }

    #[test]
    fn strategy2_toggle_changes_cost_not_verdicts() {
        // Lemma 4's early stop (Strategy 2) on the scalar path: the same
        // verdict for every pair of a synthetic world, and never more
        // positions scanned than the full-scan evaluation NA runs.
        use pinocchio_data::{sample_candidate_group, GeneratorConfig, SyntheticGenerator};
        let d = SyntheticGenerator::new(GeneratorConfig::small(80, 10)).generate();
        let (_, candidates) = sample_candidate_group(&d, 50, 10);
        let p = PrimeLs::builder()
            .objects(d.objects().to_vec())
            .candidates(candidates)
            .probability_function(PowerLawPf::paper_default())
            .tau(0.5)
            .build()
            .unwrap();
        let mut pair = p.pair_eval();
        let mut with_s2 = SolveStats::default();
        let mut without_s2 = SolveStats::default();
        for k in 0..p.objects().len() {
            for c in p.candidates() {
                assert_eq!(
                    pair.influences(c, k, true, &mut with_s2),
                    pair.influences(c, k, false, &mut without_s2),
                    "object {k} candidate {c:?}"
                );
            }
        }
        assert_eq!(with_s2.validated_pairs, without_s2.validated_pairs);
        assert!(
            with_s2.positions_evaluated <= without_s2.positions_evaluated,
            "early stopping must not evaluate more positions"
        );
    }

    #[test]
    fn scalar_full_scan_counts_every_position() {
        let p = problem(EvalKernel::Scalar);
        let mut pair = p.pair_eval();
        let mut stats = SolveStats::default();
        let _ = pair.influences(&p.candidates()[0], 0, false, &mut stats);
        assert_eq!(stats.validated_pairs, 1);
        assert_eq!(
            stats.positions_evaluated,
            p.objects()[0].position_count() as u64
        );
    }
}
