//! PINOCCHIO-VO — Algorithm 3 (pruning + optimized validation), the
//! PIN-VO* ablation (optimized validation without pruning), and the one
//! Strategy 1 driver every bound-driven solve runs.
//!
//! The validation phase keeps, per candidate `c`:
//!
//! * `minInf(c)` — influence certified so far (IA hits + validated
//!   influenced objects),
//! * `maxInf(c)` — influence still possible (total influenceable objects
//!   − NIB exclusions − validated non-influenced objects),
//!
//! and a global cut-off: `maxminInf = max_c minInf(c)` over fully
//! validated candidates (the k-th best of them for a top-k query).
//!
//! **Strategy 1** organises candidates in a max-heap ordered by
//! `(maxInf, minInf)`; once the top's `maxInf` falls below the cut-off,
//! no remaining candidate can win and validation stops. The same bound
//! kills a candidate mid-validation as soon as enough objects fail.
//!
//! **Strategy 2** evaluates each object's positions incrementally and
//! stops as soon as the partial non-influence probability certifies
//! influence (Lemma 4) — implemented in
//! `pinocchio_prob::CumulativeProbability::influences_early_stop`.
//!
//! Both strategies are *cost* optimizations only: the returned optimum
//! (smallest index among maxima) is always identical to NA's.
//!
//! Every solver that ends in this bounded validation is a filter that
//! produces a [`Prepared`] partial — [`prepare`] with pruning (PIN-VO),
//! without it (PIN-VO*), or `join::prepare` (PIN-JOIN) — followed by
//! [`validate`], the driver. It takes one partial per object shard (one
//! in total for an unsharded solve), a `k` for top-k queries and a
//! thread count; sequential, parallel, sharded and top-k solves are all
//! calls to it.
//!
//! # Why the shared cut-off is exact
//!
//! Let `I_k` be the true k-th largest influence (`I*` at `k = 1`). The
//! cut-off only ever holds the k-th largest initial `minInf` or the k-th
//! largest exact count validated so far, both `≤ I_k`. A candidate is
//! skipped (queue cut-off) or killed (mid-validation) only when its
//! `maxInf` is *strictly below* the cut-off, hence strictly below
//! `I_k` — so every candidate whose influence is `≥ I_k` is fully
//! validated under every schedule, and ranking the validated ones by
//! `(influence desc, index asc)` returns the exact top-k, ties towards
//! the smallest index. With several workers the cut-off is one
//! `AtomicU32` raised by `fetch_max`: a stale (too small) value only
//! costs wasted work, never a wrong verdict.

use crate::eval::PairEval;
use crate::parallel::{fan_out, worker_count};
use crate::problem::PrimeLs;
use crate::result::SolveStats;
use crate::solve::rank;
use pinocchio_geo::Point;
use pinocchio_prob::ProbabilityFunction;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// A filter's output: per-candidate influence bounds and verification
/// sets, plus the counters accumulated so far. The verification-set
/// entries are dense object indices of the problem the filter ran on.
pub(crate) struct Prepared {
    /// Certified influence (IA hits so far).
    pub min_inf: Vec<u32>,
    /// Still-possible influence (influenceable objects − NIB exclusions).
    pub max_inf: Vec<u32>,
    /// Per-candidate verification sets; empty when every candidate
    /// shares `vs_all` (no-pruning mode).
    pub(crate) vs_store: Vec<Vec<u32>>,
    /// Shared verification set of all influenceable objects (no-pruning
    /// mode).
    pub(crate) vs_all: Vec<u32>,
    /// Filter-phase counters (extended during validation).
    pub stats: SolveStats,
}

impl Prepared {
    /// Candidate `j`'s verification set.
    pub(crate) fn vs(&self, j: usize) -> &[u32] {
        self.vs_store.get(j).unwrap_or(&self.vs_all)
    }
}

/// Runs Algorithm 3's pruning phase (lines 1–12): builds `A_2D`, plays
/// the IA/NIB rules per object against the candidate R-tree, and fills
/// the per-candidate verification sets. With `with_pruning = false`
/// (PIN-VO*), bounds stay trivial and every influenceable object lands
/// in every verification set.
pub(crate) fn prepare<P: ProbabilityFunction + Clone>(
    problem: &PrimeLs<P>,
    with_pruning: bool,
) -> Prepared {
    let m = problem.candidates().len();
    let mut stats = SolveStats::default();

    let a2d = problem.a2d();
    let r_influenceable = u32::try_from(a2d.influenceable()).unwrap_or(u32::MAX);
    stats.uninfluenceable_objects = (a2d.entries().len() - a2d.influenceable()) as u64;

    let mut min_inf = vec![0u32; m];
    let mut max_inf = vec![r_influenceable; m];

    let mut vs_store: Vec<Vec<u32>> = Vec::new();
    let mut vs_all: Vec<u32> = Vec::new();

    if with_pruning {
        vs_store = vec![Vec::new(); m];
        let tree = problem.candidate_tree();
        let mut in_nib = vec![false; m];
        for entry in a2d.entries() {
            let Some(regions) = entry.regions else {
                continue;
            };
            tree.query_region(
                |node| node.intersects(&regions.nib_mbr()),
                |p| regions.in_non_influence_boundary(p),
                &mut |p, &j| {
                    in_nib[j] = true;
                    if regions.in_influence_arcs(p) {
                        stats.decided_by_ia += 1;
                        min_inf[j] += 1;
                    } else {
                        vs_store[j].push(u32::try_from(entry.index).unwrap_or(u32::MAX));
                    }
                },
            );
            for (j, flag) in in_nib.iter_mut().enumerate() {
                if *flag {
                    *flag = false; // reset for the next object
                } else {
                    stats.decided_by_nib += 1;
                    max_inf[j] -= 1; // Lemma 3: cannot influence
                }
            }
        }
    } else {
        vs_all = a2d
            .entries()
            .iter()
            .filter(|e| e.regions.is_some())
            .map(|e| u32::try_from(e.index).unwrap_or(u32::MAX))
            .collect();
    }
    Prepared {
        min_inf,
        max_inf,
        vs_store,
        vs_all,
        stats,
    }
}

/// The outcome of [`validate`].
pub(crate) struct Validated {
    /// The partials' filter counters plus every validation counter.
    pub stats: SolveStats,
    /// Fully validated `(exact influence, candidate)` pairs ranked
    /// `(influence desc, index asc)`, truncated to `k`.
    pub ranked: Vec<(u32, usize)>,
}

/// The Strategy 1 driver (Algorithm 3, lines 13–27): merges one filter
/// partial per object shard, then validates candidates best-first by
/// `(maxInf, minInf)` under the cut-off — the k-th best validated
/// count, seeded with the k-th largest merged `minInf` (see the module
/// docs for why that stays exact).
///
/// `problems[i]` is the shard whose dense object indices `partials[i]`
/// holds; every shard carries the same candidate set. Per-pair IA/NIB
/// verdicts depend only on the object and the candidate, so the merged
/// bounds equal the unsharded filter's and the merged verification sets
/// are their disjoint union.
///
/// `threads` workers share the candidate queue and the cut-off; with
/// one thread everything runs on the calling thread and the pop order,
/// the per-pair order and the kill test are those of the sequential
/// Algorithm 3, so its [`SolveStats`] are deterministic. The public
/// entry points reject `threads == 0` before calling it.
pub(crate) fn validate<P: ProbabilityFunction + Clone>(
    problems: &[&PrimeLs<P>],
    partials: &[Prepared],
    k: usize,
    threads: usize,
) -> Validated {
    debug_assert!(threads > 0, "callers reject zero threads");
    debug_assert_eq!(problems.len(), partials.len(), "one partial per shard");
    let candidates = problems.first().map_or(&[][..], |p| p.candidates());
    let m = candidates.len();
    let mut min_inf = vec![0u32; m];
    let mut max_inf = vec![0u32; m];
    let mut stats = SolveStats::default();
    for partial in partials {
        for (acc, v) in min_inf.iter_mut().zip(&partial.min_inf) {
            *acc += v;
        }
        for (acc, v) in max_inf.iter_mut().zip(&partial.max_inf) {
            *acc += v;
        }
        stats += partial.stats;
    }

    // The cut-off starts at the k-th largest certified lower bound (0
    // when k > m). At k = 1 the candidate attaining it has
    // maxInf ≥ maxminInf, so it is always popped and fully validated
    // before the cut-off fires.
    let seed = if (1..=m).contains(&k) {
        let mut lows = min_inf.clone();
        *lows.select_nth_unstable_by(k - 1, |a, b| b.cmp(a)).1
    } else {
        0
    };
    let cutoff = AtomicU32::new(seed);
    let schedule = Mutex::new(Schedule {
        queue: (0..m)
            .map(|j| (max_inf[j], min_inf[j], Reverse(j)))
            .collect(),
        best_k: BinaryHeap::with_capacity(k.min(m) + 1),
        k,
    });
    let shared = Shared {
        problems,
        partials,
        candidates,
        min_inf: &min_inf,
        max_inf: &max_inf,
        schedule: &schedule,
        cutoff: &cutoff,
    };

    let workers = worker_count(threads, m);
    let results = fan_out(workers, workers, |_| shared.work());

    let mut ranked = Vec::new();
    for (worker_stats, validated) in results {
        stats += worker_stats;
        ranked.extend(validated);
    }
    Validated {
        stats,
        ranked: rank(ranked, k),
    }
}

/// The queue state the workers share under one lock.
struct Schedule {
    /// Candidates still to validate, best-first by `(maxInf, minInf)`,
    /// smallest index first among equals.
    queue: BinaryHeap<(u32, u32, Reverse<usize>)>,
    /// The `k` largest exact influences validated so far (a min-heap,
    /// so its top is the k-th best).
    best_k: BinaryHeap<Reverse<u32>>,
    k: usize,
}

impl Schedule {
    /// Records a fully validated candidate's exact influence and raises
    /// the cut-off to the k-th best once `k` are in.
    fn publish(&mut self, exact: u32, cutoff: &AtomicU32) {
        self.best_k.push(Reverse(exact));
        if self.best_k.len() > self.k {
            self.best_k.pop();
        }
        if self.best_k.len() == self.k {
            if let Some(&Reverse(kth)) = self.best_k.peek() {
                // ordering: AcqRel — the Release half publishes this
                // exact count to the workers' Acquire loads (the
                // happens-before edge in DESIGN.md §8); the Acquire half
                // orders the read-modify-write after earlier publishes
                // so the cut-off is monotone non-decreasing.
                cutoff.fetch_max(kth, Ordering::AcqRel);
            }
        }
    }

    /// Pops the next candidate to validate, or applies the Strategy 1
    /// cut-off: the queue is ordered by `maxInf`, so once its top falls
    /// below the cut-off everything left is dead. The remainder is
    /// accounted once and drained, which stops the other workers too.
    fn next(
        &mut self,
        cutoff: &AtomicU32,
        vs_total: impl Fn(usize) -> u64,
        stats: &mut SolveStats,
    ) -> Option<usize> {
        let &(top_max, _, _) = self.queue.peek()?;
        // ordering: Acquire pairs with the Release half of `publish`'s
        // `fetch_max`, so the cut-off observes every count published
        // before it; a stale (smaller) value only delays the cut-off
        // and can never fire it early.
        if top_max < cutoff.load(Ordering::Acquire) {
            stats.candidates_skipped_by_bounds += self.queue.len() as u64;
            stats.pairs_skipped_by_bounds += self
                .queue
                .drain()
                .map(|(_, _, Reverse(r))| vs_total(r))
                .sum::<u64>();
            return None;
        }
        self.queue.pop().map(|(_, _, Reverse(j))| j)
    }
}

/// What every worker of one [`validate`] call reads.
struct Shared<'a, P> {
    problems: &'a [&'a PrimeLs<P>],
    partials: &'a [Prepared],
    candidates: &'a [Point],
    min_inf: &'a [u32],
    max_inf: &'a [u32],
    schedule: &'a Mutex<Schedule>,
    cutoff: &'a AtomicU32,
}

impl<P: ProbabilityFunction + Clone> Shared<'_, P> {
    /// One worker: pops candidates until the queue drains or the cut-off
    /// fires, and returns its counters and the candidates it fully
    /// validated.
    fn work(&self) -> (SolveStats, Vec<(u32, usize)>) {
        let mut pairs: Vec<PairEval<'_, P>> = self.problems.iter().map(|p| p.pair_eval()).collect();
        let mut stats = SolveStats::default();
        let mut validated = Vec::new();
        let mut unpublished: Option<u32> = None;
        let vs_total = |j: usize| -> u64 {
            self.partials
                .iter()
                .map(|pt| pt.vs(j).len() as u64)
                .sum::<u64>()
        };
        loop {
            let job = {
                // The critical section only pushes, pops and drains, all
                // of which leave the heaps structurally valid, so a
                // poisoned lock (another worker panicked mid-section) can
                // be recovered: the panic itself still surfaces via join.
                let mut schedule = match self.schedule.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                if let Some(exact) = unpublished.take() {
                    schedule.publish(exact, self.cutoff);
                }
                schedule.next(self.cutoff, vs_total, &mut stats)
            };
            let Some(j) = job else {
                break;
            };
            let bounds = (self.min_inf[j], self.max_inf[j]);
            if let Some(exact) = self.verify(&mut pairs, j, bounds, &mut stats) {
                validated.push((exact, j));
                unpublished = Some(exact);
            }
        }
        (stats, validated)
    }

    /// Validates candidate `j` against every shard's verification set in
    /// shard order, maintaining its `(minInf, maxInf)` bounds and killing
    /// it as soon as `maxInf` falls below the cut-off. Returns the exact
    /// influence, or `None` when killed; the pairs a kill leaves
    /// unevaluated are accounted as skipped.
    // pinocchio-hot: the per-pair validation loop of every Strategy 1 solve
    fn verify(
        &self,
        pairs: &mut [PairEval<'_, P>],
        j: usize,
        (mut min, mut max): (u32, u32),
        stats: &mut SolveStats,
    ) -> Option<u32> {
        let candidate = &self.candidates[j];
        for (si, (pair, partial)) in pairs.iter_mut().zip(self.partials).enumerate() {
            let vs = partial.vs(j);
            for (pos, &object) in vs.iter().enumerate() {
                if pair.influences(candidate, object as usize, true, stats) {
                    min += 1;
                    continue;
                }
                max -= 1;
                // ordering: Acquire pairs with `publish`'s `fetch_max`
                // Release, so the kill test observes fresh bounds;
                // staleness is again only a cost, never an error.
                if max < self.cutoff.load(Ordering::Acquire) {
                    // Strategy 1, mid-validation variant: the rest of this
                    // shard's set and every later shard's set are skipped.
                    stats.pairs_skipped_by_bounds += (vs.len() - pos - 1) as u64
                        + self
                            .partials
                            .iter()
                            .skip(si + 1)
                            .map(|pt| pt.vs(j).len() as u64)
                            .sum::<u64>();
                    return None;
                }
            }
        }
        stats.candidates_fully_validated += 1;
        debug_assert_eq!(min, max, "bounds must meet after full validation");
        Some(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{Algorithm, SolveResult};
    use crate::state::A2d;
    use pinocchio_data::MovingObject;
    use pinocchio_geo::Point;
    use pinocchio_prob::PowerLawPf;

    /// Sequential PIN-VO (`with_pruning`) or PIN-VO*.
    fn solve(p: &PrimeLs<PowerLawPf>, with_pruning: bool) -> SolveResult {
        p.solve(if with_pruning {
            Algorithm::PinocchioVo
        } else {
            Algorithm::PinocchioVoStar
        })
    }

    fn synthetic_problem(tau: f64, seed: u64, users: usize) -> PrimeLs<PowerLawPf> {
        crate::problem::tests::synthetic(users, 50, seed, tau)
    }

    #[test]
    fn vo_agrees_with_naive() {
        for tau in [0.1, 0.5, 0.7, 0.9] {
            for seed in [1, 2, 3] {
                let p = synthetic_problem(tau, seed, 50);
                let na = p.solve(Algorithm::Naive);
                let vo = solve(&p, true);
                assert_eq!(
                    vo.best_candidate, na.best_candidate,
                    "tau={tau} seed={seed}"
                );
                assert_eq!(vo.max_influence, na.max_influence, "tau={tau} seed={seed}");
            }
        }
    }

    #[test]
    fn vo_star_agrees_with_naive() {
        for tau in [0.3, 0.7] {
            for seed in [4, 5] {
                let p = synthetic_problem(tau, seed, 50);
                let na = p.solve(Algorithm::Naive);
                let vo_star = solve(&p, false);
                assert_eq!(vo_star.best_candidate, na.best_candidate);
                assert_eq!(vo_star.max_influence, na.max_influence);
                assert_eq!(vo_star.stats.pruned_pairs(), 0, "VO* must not prune");
            }
        }
    }

    #[test]
    fn vo_does_less_work_than_naive() {
        let p = synthetic_problem(0.7, 7, 80);
        let na = p.solve(Algorithm::Naive);
        let vo = solve(&p, true);
        assert!(
            vo.stats.positions_evaluated < na.stats.positions_evaluated,
            "VO {} vs NA {}",
            vo.stats.positions_evaluated,
            na.stats.positions_evaluated
        );
        assert!(vo.stats.validated_pairs < na.stats.validated_pairs);
    }

    #[test]
    fn strategy1_skips_candidates() {
        let p = synthetic_problem(0.7, 8, 80);
        let vo = solve(&p, true);
        let total = p.candidates().len() as u64;
        assert_eq!(
            vo.stats.candidates_fully_validated
                + vo.stats.candidates_skipped_by_bounds
                + died_mid(&vo, total),
            total
        );
        assert!(
            vo.stats.candidates_fully_validated < total,
            "some candidate should be skipped or die early"
        );
    }

    fn died_mid(vo: &SolveResult, total: u64) -> u64 {
        total - vo.stats.candidates_fully_validated - vo.stats.candidates_skipped_by_bounds
    }

    #[test]
    fn accounting_is_complete() {
        // Every (influenceable object, candidate) pair is decided by a
        // pruning rule, validated, or skipped by Strategy 1 — nothing is
        // lost, for both VO and VO*.
        for (tau, seed) in [(0.5, 4), (0.7, 6), (0.9, 11)] {
            let p = synthetic_problem(tau, seed, 60);
            let a2d = A2d::build(p.objects(), p.pf(), p.tau());
            let expected_pairs = (a2d.influenceable() * p.candidates().len()) as u64;
            for with_pruning in [true, false] {
                let r = solve(&p, with_pruning);
                assert_eq!(
                    r.stats.accounted_pairs(),
                    expected_pairs,
                    "tau={tau} seed={seed} pruning={with_pruning}"
                );
            }
        }
    }

    #[test]
    fn handles_all_uninfluenceable() {
        // τ = 0.95 > PF(0), all objects single-position: nothing can be
        // influenced; solver must return influence 0 deterministically.
        let p = PrimeLs::builder()
            .objects(vec![
                MovingObject::new(0, vec![Point::new(0.0, 0.0)]),
                MovingObject::new(1, vec![Point::new(5.0, 5.0)]),
            ])
            .candidates(vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.95)
            .build()
            .unwrap();
        for with_pruning in [true, false] {
            let r = solve(&p, with_pruning);
            assert_eq!(r.max_influence, 0);
            assert_eq!(r.best_candidate, 0, "ties break to the smallest index");
            assert_eq!(r.stats.uninfluenceable_objects, 2);
        }
    }

    #[test]
    fn tie_break_matches_naive_exactly() {
        // Symmetric world: two identical clusters, two symmetric candidates
        // — influence ties are guaranteed.
        let p = PrimeLs::builder()
            .objects(vec![
                MovingObject::new(0, vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)]),
                MovingObject::new(1, vec![Point::new(10.0, 0.0), Point::new(10.1, 0.0)]),
            ])
            .candidates(vec![Point::new(10.05, 0.0), Point::new(0.05, 0.0)])
            .probability_function(PowerLawPf::paper_default())
            .tau(0.7)
            .build()
            .unwrap();
        let na = p.solve(Algorithm::Naive);
        let vo = solve(&p, true);
        let vo_star = solve(&p, false);
        assert_eq!(na.max_influence, 1);
        assert_eq!(na.best_candidate, 0);
        assert_eq!(vo.best_candidate, 0);
        assert_eq!(vo_star.best_candidate, 0);
    }

    /// Every `SolveStats` field of sequential PIN-VO and PIN-VO* on two
    /// seeded worlds at τ 0.5 and 0.7, recorded from the solver before
    /// the Strategy 1 driver was shared with the parallel, sharded and
    /// top-k solves: one driver must keep the sequential pop order, the
    /// per-pair order and the kill test exactly.
    #[test]
    fn sequential_stats_are_pinned() {
        /// (seed, users, tau, with_pruning) → (best, influence, stats)
        type Case = ((u64, usize, f64, bool), (usize, u32, [u64; 8]));
        #[rustfmt::skip]
        let pinned: [Case; 8] = [
            // [decided_by_ia, decided_by_nib, validated_pairs, positions_evaluated,
            //  candidates_fully_validated, candidates_skipped_by_bounds,
            //  pairs_skipped_by_bounds, uninfluenceable_objects]
            ((21, 80, 0.5, true), (23, 54, [1576, 1397, 390, 1340, 4, 21, 637, 0])),
            ((21, 80, 0.5, false), (23, 54, [0, 0, 3089, 15946, 7, 0, 911, 0])),
            ((21, 80, 0.7, true), (24, 45, [956, 1792, 479, 2934, 4, 19, 773, 0])),
            ((21, 80, 0.7, false), (24, 45, [0, 0, 3346, 24008, 7, 0, 654, 0])),
            ((22, 120, 0.5, true), (17, 73, [2311, 1971, 1076, 5890, 8, 10, 642, 0])),
            ((22, 120, 0.5, false), (17, 73, [0, 0, 5271, 32168, 6, 0, 729, 0])),
            ((22, 120, 0.7, true), (0, 58, [1574, 2526, 1192, 9714, 4, 9, 708, 0])),
            ((22, 120, 0.7, false), (0, 58, [0, 0, 5201, 43258, 1, 0, 799, 0])),
        ];
        for ((seed, users, tau, with_pruning), (best, influence, c)) in pinned {
            let r = solve(&synthetic_problem(tau, seed, users), with_pruning);
            let expect = SolveStats {
                decided_by_ia: c[0],
                decided_by_nib: c[1],
                validated_pairs: c[2],
                positions_evaluated: c[3],
                candidates_fully_validated: c[4],
                candidates_skipped_by_bounds: c[5],
                pairs_skipped_by_bounds: c[6],
                uninfluenceable_objects: c[7],
                ..SolveStats::default()
            };
            let ctx = format!("seed={seed} users={users} tau={tau} pruning={with_pruning}");
            assert_eq!(
                (r.best_candidate, r.max_influence),
                (best, influence),
                "{ctx}"
            );
            assert_eq!(r.stats, expect, "{ctx}");
        }
    }

    /// Every `SolveStats` field of sequential NA and PIN on the worlds
    /// of `sequential_stats_are_pinned`, recorded from their per-solver
    /// loops before the counting pass replaced them: the one counting
    /// pass must keep both solvers' costs exactly. The fields the table
    /// omits are zero.
    #[test]
    fn sequential_counting_stats_are_pinned() {
        /// (seed, users, tau, algorithm) → (best, influence, stats)
        type Case = ((u64, usize, f64, Algorithm), (usize, u32, [u64; 5]));
        use Algorithm::{Naive, Pinocchio};
        #[rustfmt::skip]
        let pinned: [Case; 8] = [
            // [decided_by_ia, decided_by_nib, validated_pairs, positions_evaluated,
            //  uninfluenceable_objects]
            ((21, 80, 0.5, Naive), (23, 54, [0, 0, 4000, 94000, 0])),
            ((21, 80, 0.5, Pinocchio), (23, 54, [1576, 1397, 1027, 6139, 0])),
            ((21, 80, 0.7, Naive), (24, 45, [0, 0, 4000, 94000, 0])),
            ((21, 80, 0.7, Pinocchio), (24, 45, [956, 1792, 1252, 13693, 0])),
            ((22, 120, 0.5, Naive), (17, 73, [0, 0, 6000, 152200, 0])),
            ((22, 120, 0.5, Pinocchio), (17, 73, [2311, 1971, 1718, 12751, 0])),
            ((22, 120, 0.7, Naive), (0, 58, [0, 0, 6000, 152200, 0])),
            ((22, 120, 0.7, Pinocchio), (0, 58, [1574, 2526, 1900, 20777, 0])),
        ];
        for ((seed, users, tau, algorithm), (best, influence, c)) in pinned {
            let r = synthetic_problem(tau, seed, users).solve(algorithm);
            let expect = SolveStats {
                decided_by_ia: c[0],
                decided_by_nib: c[1],
                validated_pairs: c[2],
                positions_evaluated: c[3],
                uninfluenceable_objects: c[4],
                ..SolveStats::default()
            };
            let ctx = format!("seed={seed} users={users} tau={tau} {algorithm:?}");
            assert_eq!(
                (r.best_candidate, r.max_influence),
                (best, influence),
                "{ctx}"
            );
            assert_eq!(r.stats, expect, "{ctx}");
        }
    }

    #[test]
    fn driver_ranks_exactly_for_every_k_and_thread_count() {
        // k > 1 on several workers exercises the shared k-best heap
        // under concurrent publishes; the ranking must still be exact.
        for (tau, seed) in [(0.5, 12), (0.7, 13)] {
            let p = synthetic_problem(tau, seed, 70);
            let full = p.solve(Algorithm::Naive);
            let influences = full.influences.clone().unwrap();
            let ranking = full.ranking().unwrap();
            let m = p.candidates().len();
            let influenceable = A2d::build(p.objects(), p.pf(), p.tau()).influenceable();
            for with_pruning in [true, false] {
                for k in [1, 4, m + 3] {
                    for threads in [1, 2, 4] {
                        let partial = prepare(&p, with_pruning);
                        let v = validate(&[&p], &[partial], k, threads);
                        let expect: Vec<(u32, usize)> = ranking
                            .iter()
                            .take(k)
                            .map(|&j| (influences[j], j))
                            .collect();
                        let ctx = format!("tau={tau} pruning={with_pruning} k={k} t={threads}");
                        assert_eq!(v.ranked, expect, "{ctx}");
                        assert_eq!(
                            v.stats.accounted_pairs(),
                            (influenceable * m) as u64,
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn early_stop_reduces_positions_not_verdicts() {
        // PIN validates undecided pairs with full scans; VO validates the
        // same pairs with early stopping — fewer positions, same answer.
        let p = synthetic_problem(0.5, 9, 80);
        let pin = p.solve(Algorithm::Pinocchio);
        let vo = solve(&p, true);
        assert_eq!(pin.best_candidate, vo.best_candidate);
        assert_eq!(pin.max_influence, vo.max_influence);
        assert!(
            vo.stats.positions_evaluated <= pin.stats.positions_evaluated,
            "Strategy 2 must not evaluate more positions"
        );
    }
}
