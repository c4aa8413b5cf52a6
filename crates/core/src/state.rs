//! The moving-object 2-D array `A_2D` (Algorithm 1).
//!
//! §4.3 argues that the *object* side of the problem should **not** be
//! indexed hierarchically: activity MBRs overlap so heavily (objects
//! cover ~55 % of each axis) that R-tree node MBRs degenerate and every
//! leaf gets explored anyway. Instead, Algorithm 1 builds a flat
//! two-dimensional array: one row per object holding its positions
//! (`A_1D`) plus the precomputed pruning data — `minMaxRadius` (memoised
//! per position count in the HashMap `HM`), the influence arcs and the
//! non-influence boundary with its rectangular over-approximation.
//!
//! Objects whose `minMaxRadius` is undefined (the required per-position
//! probability exceeds `PF(0)`) can never be influenced by any candidate
//! and are marked so every solver can skip them.
//!
//! `A2d` also fixes the order in which Strategy 1 validates objects:
//! influenceable objects ascending by `(position count, index)`. For a
//! fixed PF and τ, μ = PF⁻¹(1 − (1 − τ)^{1/n}) is monotone in `n`, so
//! this is ascending μ with an integer key: the objects hardest to
//! influence (and cheapest to scan) come first, which drives a losing
//! candidate's `maxInf` under the cut-off after fewer pairs.

use pinocchio_data::MovingObject;
use pinocchio_geo::InfluenceRegions;
use pinocchio_prob::{MinMaxRadiusCache, ProbabilityFunction};

/// Pruning state for one moving object — one row of `A_2D`.
#[derive(Debug, Clone)]
pub struct ObjectEntry {
    /// Index of the object in the problem's object slice.
    pub index: usize,
    /// Influence-arc / non-influence-boundary geometry, or `None` when
    /// the object can never be influenced (skipped by all solvers).
    pub regions: Option<InfluenceRegions>,
}

impl ObjectEntry {
    /// The object's `minMaxRadius` μ (Def. 5), or `None` when it can
    /// never be influenced — the per-entry radius the μ-aggregate object
    /// tree indexes.
    pub fn mu(&self) -> Option<f64> {
        self.regions.map(|r| r.radius())
    }
}

/// The full `A_2D` structure of Algorithm 1.
#[derive(Debug, Clone)]
pub struct A2d {
    entries: Vec<ObjectEntry>,
    /// Influenceable object indices ascending by `(position count,
    /// index)`, i.e. by μ.
    validation_order: Vec<u32>,
    distinct_position_counts: usize,
}

impl A2d {
    /// Runs Algorithm 1: computes `minMaxRadius` (memoised per `n`) and
    /// the pruning regions for every object.
    pub fn build<P: ProbabilityFunction>(objects: &[MovingObject], pf: &P, tau: f64) -> Self {
        let mut cache = MinMaxRadiusCache::new(tau);
        let radii = cache.get_many(pf, objects.iter().map(|o| o.position_count()));
        let entries: Vec<ObjectEntry> = objects
            .iter()
            .zip(radii)
            .enumerate()
            .map(|(index, (o, radius))| ObjectEntry {
                index,
                regions: radius.map(|mu| InfluenceRegions::new(o.mbr(), mu)),
            })
            .collect();
        // (position count, index): equal counts keep ascending indices.
        let mut keyed: Vec<(usize, u32)> = objects
            .iter()
            .zip(&entries)
            .filter(|(_, e)| e.regions.is_some())
            .map(|(o, e)| {
                (
                    o.position_count(),
                    u32::try_from(e.index).unwrap_or(u32::MAX),
                )
            })
            .collect();
        keyed.sort_unstable();
        A2d {
            entries,
            validation_order: keyed.into_iter().map(|(_, index)| index).collect(),
            distinct_position_counts: cache.distinct_counts(),
        }
    }

    /// All object entries, in object order.
    pub fn entries(&self) -> &[ObjectEntry] {
        &self.entries
    }

    /// Number of objects that can possibly be influenced.
    pub fn influenceable(&self) -> usize {
        self.validation_order.len()
    }

    /// The influenceable object indices ascending by `(position count,
    /// index)` — ascending μ — the order in which every Strategy 1
    /// solve validates a candidate's objects.
    pub fn validation_order(&self) -> &[u32] {
        &self.validation_order
    }

    /// The paper's `N`: distinct position counts across all objects
    /// (size of the HashMap `HM`).
    pub fn distinct_position_counts(&self) -> usize {
        self.distinct_position_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinocchio_geo::Point;
    use pinocchio_prob::{min_max_radius, PowerLawPf};

    fn objects() -> Vec<MovingObject> {
        vec![
            MovingObject::new(0, vec![Point::new(0.0, 0.0), Point::new(2.0, 1.0)]),
            MovingObject::new(1, vec![Point::new(5.0, 5.0)]),
            MovingObject::new(2, vec![Point::new(1.0, 1.0), Point::new(1.5, 1.0)]),
        ]
    }

    #[test]
    fn builds_regions_with_correct_radii() {
        let pf = PowerLawPf::paper_default();
        let a2d = A2d::build(&objects(), &pf, 0.7);
        assert_eq!(a2d.entries().len(), 3);
        assert_eq!(a2d.influenceable(), 3);
        // Two distinct position counts: 1 and 2.
        assert_eq!(a2d.distinct_position_counts(), 2);

        let mu2 = min_max_radius(&pf, 0.7, 2).unwrap();
        let r = a2d.entries()[0].regions.unwrap();
        assert!((r.radius() - mu2).abs() < 1e-12);

        let mu1 = min_max_radius(&pf, 0.7, 1).unwrap();
        let r = a2d.entries()[1].regions.unwrap();
        assert!((r.radius() - mu1).abs() < 1e-12);
    }

    #[test]
    fn uninfluenceable_objects_are_marked() {
        // τ = 0.95 > PF(0) = 0.9: single-position objects can never be
        // influenced; two-position objects still can.
        let pf = PowerLawPf::paper_default();
        let a2d = A2d::build(&objects(), &pf, 0.95);
        assert!(a2d.entries()[0].regions.is_some());
        assert!(a2d.entries()[1].regions.is_none());
        assert!(a2d.entries()[2].regions.is_some());
        assert_eq!(a2d.influenceable(), 2);
    }

    #[test]
    fn validation_order_is_ascending_mu_over_exactly_the_influenceable_objects() {
        use pinocchio_data::{GeneratorConfig, SyntheticGenerator};
        let mut objs = SyntheticGenerator::new(GeneratorConfig::small(120, 3))
            .generate()
            .objects()
            .to_vec();
        // Single-position objects: uninfluenceable at τ = 0.95 > PF(0).
        let first_single = objs.len();
        objs.extend((0..5u32).map(|i| {
            MovingObject::new(10_000 + u64::from(i), vec![Point::new(f64::from(i), 0.0)])
        }));
        let pf = PowerLawPf::paper_default();
        for tau in [0.5, 0.95] {
            let a2d = A2d::build(&objs, &pf, tau);
            let order = a2d.validation_order();
            let influenceable: Vec<u32> = a2d
                .entries()
                .iter()
                .filter(|e| e.regions.is_some())
                .map(|e| e.index as u32)
                .collect();
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, influenceable, "tau={tau}: a permutation");
            assert_eq!(order.len(), a2d.influenceable(), "tau={tau}");
            assert_ne!(
                order,
                &influenceable[..],
                "tau={tau}: the world must need a sort"
            );
            for w in order.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                let (na, nb) = (objs[a].position_count(), objs[b].position_count());
                assert!(
                    na < nb || (na == nb && a < b),
                    "tau={tau}: {a} ({na}) before {b} ({nb})"
                );
                let (mu_a, mu_b) = (
                    a2d.entries()[a].mu().unwrap(),
                    a2d.entries()[b].mu().unwrap(),
                );
                assert!(mu_a <= mu_b, "tau={tau}: μ {mu_a} before {mu_b}");
            }
            let singles_kept = order
                .iter()
                .filter(|&&i| i as usize >= first_single)
                .count();
            assert_eq!(singles_kept, if tau > 0.9 { 0 } else { 5 }, "tau={tau}");
        }
    }

    #[test]
    fn region_mbr_matches_object_mbr() {
        let objs = objects();
        let a2d = A2d::build(&objs, &PowerLawPf::paper_default(), 0.5);
        for (o, e) in objs.iter().zip(a2d.entries()) {
            assert_eq!(e.regions.unwrap().mbr(), o.mbr());
        }
    }
}
