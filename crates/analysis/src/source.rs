//! The [`WorldSource`] abstraction: where an analysis gets its world.
//!
//! [`AnalysisContext`](crate::AnalysisContext) needs four things from a
//! world: the window end ("day 0"), per-month DNS snapshots, the dated RIB
//! archive, and the day-0 routing table for index builds. A generated
//! [`World`] provides all four from memory; a [`StoreBackedWorld`]
//! provides them from the zero-copy stores (`SIBSNAP` snapshot files plus
//! the `SIBWORLD` world file) without a single `World::generate` call.
//! The handle types mirror the engine's own abstractions — snapshots are
//! any [`SnapshotSource`], routing tables any
//! [`RibSource`] — so the detection pipeline under
//! the context is identical (and bit-identical in output) over either.

use std::path::Path;
use std::sync::Arc;

use sibling_bgp::{Rib, RibArchive, RibSource};
use sibling_dns::{DnsSnapshot, LoadMode, SnapshotFile, SnapshotSource, SnapshotStore, StoreError};
use sibling_net_types::MonthDate;
use sibling_store::{StoredRib, StoredWorld, WorldStore};
use sibling_worldgen::World;

/// A provider of the world state the analysis context consumes.
pub trait WorldSource {
    /// The per-month snapshot handle (cheap to clone, engine-consumable).
    type SnapshotHandle: SnapshotSource + Clone + Send + Sync + 'static;
    /// The routing-table handle entered into the RIB archive.
    type RibHandle: RibSource + Clone + Send + Sync + 'static;

    /// The newest snapshot month ("day 0").
    fn end(&self) -> MonthDate;

    /// The DNS snapshot for `date`.
    ///
    /// Panics if the source cannot produce the month (a store missing the
    /// file); callers with fallible sources pre-check coverage (e.g. via
    /// [`sibling_store::check_months`]).
    fn snapshot_handle(&self, date: MonthDate) -> Self::SnapshotHandle;

    /// The dated RIB archive.
    fn rib_archive(&self) -> RibArchive<Self::RibHandle>;

    /// The day-0 routing table (for single-date index builds).
    fn day0_rib(&self) -> Self::RibHandle {
        self.rib_archive()
            .at_or_before(self.end())
            .expect("a world source covers its own end month")
    }
}

impl WorldSource for World {
    type SnapshotHandle = Arc<DnsSnapshot>;
    type RibHandle = Arc<Rib>;

    fn end(&self) -> MonthDate {
        self.config.end
    }

    fn snapshot_handle(&self, date: MonthDate) -> Arc<DnsSnapshot> {
        Arc::new(self.snapshot(date))
    }

    fn rib_archive(&self) -> RibArchive<Arc<Rib>> {
        World::rib_archive(self)
    }
}

/// A world served entirely from the on-disk stores: `SIBSNAP` snapshot
/// files for DNS months and the `SIBWORLD` file for routing and
/// organization tables. Opening one performs zero `World::generate` calls
/// and zero snapshot regeneration.
pub struct StoreBackedWorld {
    snapshots: SnapshotStore,
    world: StoredWorld,
    mode: LoadMode,
    end: MonthDate,
}

impl StoreBackedWorld {
    /// Opens the store directory `dir` (which must hold both a snapshot
    /// store and a world file).
    ///
    /// When `expected_fingerprint` is given, a world file written under a
    /// different worldgen configuration is rejected with
    /// [`StoreError::BadFingerprint`].
    pub fn open(
        dir: &Path,
        expected_fingerprint: Option<u64>,
        mode: LoadMode,
    ) -> Result<Self, StoreError> {
        let world = WorldStore::open_with(dir, expected_fingerprint, mode)?;
        let end = world
            .months()
            .last()
            .copied()
            .ok_or(StoreError::Corrupt("world store holds no months"))?;
        let snapshots = SnapshotStore::open(dir)?;
        Ok(Self {
            snapshots,
            world,
            mode,
            end,
        })
    }

    /// The validated world file.
    pub fn world(&self) -> &StoredWorld {
        &self.world
    }

    /// The snapshot store beside the world file.
    pub fn snapshot_store(&self) -> &SnapshotStore {
        &self.snapshots
    }
}

impl WorldSource for StoreBackedWorld {
    type SnapshotHandle = Arc<SnapshotFile>;
    type RibHandle = StoredRib;

    fn end(&self) -> MonthDate {
        self.end
    }

    fn snapshot_handle(&self, date: MonthDate) -> Arc<SnapshotFile> {
        self.snapshots
            .load_with(date, self.mode)
            .expect("month exported to the snapshot store (pre-check coverage)")
    }

    fn rib_archive(&self) -> RibArchive<StoredRib> {
        self.world.rib_archive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisContext;
    use sibling_worldgen::WorldConfig;
    use std::path::PathBuf;

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sibling-analysis-store-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn export_world(world: &World, dir: &Path) {
        let store = SnapshotStore::create(dir).unwrap();
        world
            .export_snapshots(&store, world.config.start, world.config.end, true)
            .unwrap();
        WorldStore::write(
            dir,
            world.config.fingerprint(),
            &World::rib_archive(world),
            world.as_org(),
            world.asdb(),
            world.hg_cdn(),
        )
        .unwrap();
    }

    #[test]
    fn store_backed_context_matches_generated_world() {
        let dir = temp_store("ctx-match");
        let config = WorldConfig::test_tiny(11);
        let world = World::generate(config.clone());
        export_world(&world, &dir);

        let stored =
            StoreBackedWorld::open(&dir, Some(config.fingerprint()), LoadMode::Mmap).unwrap();
        let store_ctx = AnalysisContext::new(stored);
        let world_ctx = AnalysisContext::new(world);
        assert_eq!(store_ctx.day0(), world_ctx.day0());

        let dates: Vec<MonthDate> = (0..3)
            .rev()
            .map(|k| world_ctx.day0().add_months(-k))
            .collect();
        let from_store = store_ctx.batch_default_pairs(&dates);
        let from_world = world_ctx.batch_default_pairs(&dates);
        for ((d1, a), (d2, b)) in from_store.iter().zip(&from_world) {
            assert_eq!(d1, d2);
            assert_eq!(a.len(), b.len(), "{d1}");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!((x.v4, x.v6), (y.v4, y.v6));
                assert_eq!(x.similarity, y.similarity);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_at_open() {
        let dir = temp_store("ctx-fingerprint");
        let world = World::generate(WorldConfig::test_tiny(11));
        export_world(&world, &dir);
        let other = WorldConfig::test_tiny(12).fingerprint();
        assert!(matches!(
            StoreBackedWorld::open(&dir, Some(other), LoadMode::Mmap),
            Err(StoreError::BadFingerprint { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
