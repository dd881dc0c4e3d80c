//! Shared, memoised analysis state.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use sibling_core::{
    tuner::more_specific::tune_more_specific, DetectEngine, PrefixDomainIndex, SiblingSet,
    SpTunerConfig,
};
use sibling_net_types::MonthDate;
use sibling_worldgen::World;

use crate::source::WorldSource;

/// The reference-date offsets of the paper's over-time figures
/// ("Day 0" = September 2024; "Day −1"/"Week −1" collapse onto the same
/// monthly snapshot at our granularity, mirroring their ≈100% stability).
#[derive(Debug, Clone)]
pub struct ReferenceOffsets;

impl ReferenceOffsets {
    /// (label, months before day 0), oldest first — Fig. 9/11/12 x-axis.
    pub fn standard() -> Vec<(&'static str, i32)> {
        vec![
            ("Year -4", 48),
            ("Year -3", 36),
            ("Year -2", 24),
            ("Year -1", 12),
            ("Month -6", 6),
            ("Month -3", 3),
            ("Month -1", 1),
            ("Week -1", 0),
            ("Day -1", 0),
            ("Day 0", 0),
        ]
    }

    /// The 13-month window of the §4.1 stability analysis (Fig. 7),
    /// oldest first.
    pub fn stability_window(end: MonthDate) -> Vec<MonthDate> {
        (0..13).rev().map(|k| end.add_months(-k)).collect()
    }
}

/// A world plus caches for everything derived from it.
///
/// Generic over where the world comes from ([`WorldSource`]): the default
/// is a generated [`World`], and a
/// [`StoreBackedWorld`](crate::StoreBackedWorld) serves the same pipeline
/// from the zero-copy stores with no worldgen involvement. Either way,
/// detection goes through one shared [`DetectEngine`]: every index interns
/// its domain sets in the engine's arena (so recurring sets are stored
/// once across all cached months) and every sibling set is produced by the
/// sharded scorer.
pub struct AnalysisContext<W: WorldSource = World> {
    /// The synthetic Internet under analysis.
    pub world: W,
    day0_rib: W::RibHandle,
    engine: Mutex<DetectEngine>,
    snapshots: Mutex<BTreeMap<MonthDate, W::SnapshotHandle>>,
    indexes: Mutex<BTreeMap<MonthDate, Arc<PrefixDomainIndex>>>,
    default_sets: Mutex<BTreeMap<MonthDate, Arc<SiblingSet>>>,
    tuned_sets: Mutex<BTreeMap<(MonthDate, u8, u8), Arc<SiblingSet>>>,
}

impl<W: WorldSource> AnalysisContext<W> {
    /// Wraps a world source.
    pub fn new(world: W) -> Self {
        let day0_rib = world.day0_rib();
        Self {
            world,
            day0_rib,
            engine: Mutex::new(DetectEngine::default()),
            snapshots: Mutex::new(BTreeMap::new()),
            indexes: Mutex::new(BTreeMap::new()),
            default_sets: Mutex::new(BTreeMap::new()),
            tuned_sets: Mutex::new(BTreeMap::new()),
        }
    }

    /// The newest snapshot date ("day 0").
    pub fn day0(&self) -> MonthDate {
        self.world.end()
    }

    /// The memoised DNS snapshot for `date`.
    pub fn snapshot(&self, date: MonthDate) -> W::SnapshotHandle {
        if let Some(s) = self.snapshots.lock().unwrap().get(&date) {
            return s.clone();
        }
        let snap = self.world.snapshot_handle(date);
        self.snapshots.lock().unwrap().insert(date, snap.clone());
        snap
    }

    /// The memoised prefix/domain index for `date` (interned in the
    /// shared engine arena).
    pub fn index(&self, date: MonthDate) -> Arc<PrefixDomainIndex> {
        if let Some(i) = self.indexes.lock().unwrap().get(&date) {
            return i.clone();
        }
        let snap = self.snapshot(date);
        let index = Arc::new(
            self.engine
                .lock()
                .unwrap()
                .build_index_source(&snap, &self.day0_rib),
        );
        self.indexes.lock().unwrap().insert(date, index.clone());
        index
    }

    /// The default (BGP-announced granularity) sibling set for `date`.
    pub fn default_pairs(&self, date: MonthDate) -> Arc<SiblingSet> {
        if let Some(s) = self.default_sets.lock().unwrap().get(&date) {
            return s.clone();
        }
        let index = self.index(date);
        let set = Arc::new(self.engine.lock().unwrap().detect(&index));
        self.default_sets.lock().unwrap().insert(date, set.clone());
        set
    }

    /// Batch variant of [`AnalysisContext::default_pairs`]: materialises
    /// the default sibling sets of many dates through the shared
    /// engine's **incremental window** ([`DetectEngine::run_dates`])
    /// instead of per-date detection — consecutive dates are processed
    /// as snapshot deltas with dirty-shard rescoring, so the
    /// longitudinal experiments (Figs. 9–12) declare their whole window
    /// up front and pay churn-proportional cost for it. Output is
    /// bit-identical to the per-date path (the engine's property-tested
    /// contract); already-cached dates are not recomputed. Dates before
    /// the world's window are fine (sparse snapshot, same static RIB);
    /// duplicates and unsorted input collapse onto one window walk.
    pub fn batch_default_pairs(&self, dates: &[MonthDate]) -> Vec<(MonthDate, Arc<SiblingSet>)> {
        let missing: Vec<MonthDate> = {
            let cached = self.default_sets.lock().unwrap();
            let unique: std::collections::BTreeSet<MonthDate> = dates
                .iter()
                .copied()
                .filter(|d| !cached.contains_key(d))
                .collect();
            unique.into_iter().collect()
        };
        if !missing.is_empty() {
            // Snapshots come out of the shared memo cache (and fill it),
            // then move into the provider so the window borrows nothing.
            let snaps: BTreeMap<MonthDate, W::SnapshotHandle> =
                missing.iter().map(|&d| (d, self.snapshot(d))).collect();
            let mut archive = self.world.rib_archive();
            // Reference offsets may reach months before the world's
            // window (the per-date path serves those with the day-0
            // table), so anchor the newest table at the earliest
            // requested date too. Same handle, so the incremental walk
            // sees one unchanging table.
            if let (Some(&first), Some(rib)) =
                (missing.first(), archive.at_or_before(self.world.end()))
            {
                archive.insert_shared(first, rib);
            }
            let run = self
                .engine
                .lock()
                .unwrap()
                .run_dates(&missing, &archive, move |d| snaps[&d].clone())
                .expect("window dates are RIB-covered");
            let mut cached = self.default_sets.lock().unwrap();
            for (date, set) in run.results {
                cached.insert(date, Arc::new(set));
            }
        }
        dates
            .iter()
            .map(|&date| (date, self.default_pairs(date)))
            .collect()
    }

    /// Number of distinct hash-consed domain sets currently interned in
    /// the engine arena (monitoring hook for the dedup payoff).
    pub fn interned_set_count(&self) -> usize {
        self.engine.lock().unwrap().arena().len()
    }

    /// The SP-Tuner-MS refined sibling set for `date` at the given
    /// thresholds.
    pub fn tuned_pairs(&self, date: MonthDate, config: SpTunerConfig) -> Arc<SiblingSet> {
        let key = (date, config.v4_threshold, config.v6_threshold);
        if let Some(s) = self.tuned_sets.lock().unwrap().get(&key) {
            return s.clone();
        }
        let index = self.index(date);
        let base = self.default_pairs(date);
        let outcome = tune_more_specific(&index, &base, &config);
        let set = Arc::new(outcome.pairs);
        self.tuned_sets.lock().unwrap().insert(key, set.clone());
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibling_worldgen::WorldConfig;

    #[test]
    fn caching_returns_same_arc() {
        let ctx = AnalysisContext::new(World::generate(WorldConfig::test_tiny(3)));
        let d = ctx.day0();
        let a = ctx.snapshot(d);
        let b = ctx.snapshot(d);
        assert!(Arc::ptr_eq(&a, &b));
        let a = ctx.default_pairs(d);
        let b = ctx.default_pairs(d);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn batch_default_pairs_matches_per_date_and_fills_cache() {
        let ctx = AnalysisContext::new(World::generate(WorldConfig::test_tiny(5)));
        let day0 = ctx.day0();
        let dates = vec![day0.add_months(-2), day0.add_months(-1), day0];
        let arena_before = ctx.interned_set_count();
        let batch = ctx.batch_default_pairs(&dates);
        assert_eq!(batch.len(), 3);
        // The shared engine releases every set the window interned.
        assert_eq!(ctx.interned_set_count(), arena_before);
        for (date, set) in &batch {
            // The per-date entry point must return the *same* Arc (the
            // batch filled the cache) — which also implies identical
            // contents.
            let per_date = ctx.default_pairs(*date);
            assert!(Arc::ptr_eq(set, &per_date));
        }
        // A fresh context computing per-date only must agree pairwise.
        let fresh = AnalysisContext::new(World::generate(WorldConfig::test_tiny(5)));
        for (date, set) in &batch {
            let want = fresh.default_pairs(*date);
            assert_eq!(set.len(), want.len());
            for (a, b) in set.iter().zip(want.iter()) {
                assert_eq!((a.v4, a.v6), (b.v4, b.v6));
                assert_eq!(a.similarity, b.similarity);
            }
        }
    }

    #[test]
    fn batch_default_pairs_handles_dates_before_the_window() {
        // The tiny world spans 13 months, but the standard reference
        // offsets reach 48 months back; the batch prefetch must behave
        // like the per-date path there (static RIB, sparse snapshot),
        // not fail.
        let ctx = AnalysisContext::new(World::generate(WorldConfig::test_tiny(3)));
        let old = ctx.day0().add_months(-48);
        let batch = ctx.batch_default_pairs(&[old, ctx.day0()]);
        assert_eq!(batch.len(), 2);
        assert!(Arc::ptr_eq(&batch[0].1, &ctx.default_pairs(old)));
        // The prefetch must also have populated the index cache (tuned
        // refinements reuse it rather than rebuilding).
        let a = ctx.index(ctx.day0());
        let b = ctx.index(ctx.day0());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn reference_offsets_are_complete() {
        let offsets = ReferenceOffsets::standard();
        assert_eq!(offsets.len(), 10);
        assert_eq!(offsets.first().unwrap().1, 48);
        assert_eq!(offsets.last().unwrap().1, 0);
        let window = ReferenceOffsets::stability_window(MonthDate::new(2024, 9));
        assert_eq!(window.len(), 13);
        assert_eq!(window[0], MonthDate::new(2023, 9));
        assert_eq!(window[12], MonthDate::new(2024, 9));
    }
}
