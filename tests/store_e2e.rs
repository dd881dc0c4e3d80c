//! End-to-end contract of the zero-copy snapshot store: a world window
//! exported to disk and mapped back as `SnapshotFile` handles drives the
//! batch engine to **bit-identical** sibling sets versus regenerating
//! every snapshot in process — incremental and full-rebuild modes, the
//! store-backed run on a two-thread pool and the regenerated one inline.
//! Also pins the zero-copy index-build and diff paths against their
//! owned-snapshot references over worldgen-scale data.

use std::path::PathBuf;
use std::sync::Arc;

use sibling_core::{DetectEngine, EngineConfig, PrefixDomainIndex, SiblingSet};
use sibling_dns::{LoadMode, SnapshotDelta, SnapshotStore, StoreError};
use sibling_worldgen::{World, WorldConfig};

/// A unique scratch directory per test (removed best-effort on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sibsnap-e2e-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn assert_sets_equal(got: &SiblingSet, want: &SiblingSet, what: &str) {
    assert_eq!(got.len(), want.len(), "pair count: {what}");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!((g.v4, g.v6), (w.v4, w.v6), "pair identity: {what}");
        assert_eq!(g.similarity, w.similarity, "similarity: {what}");
        assert_eq!(g.shared_domains, w.shared_domains, "{what}");
        assert_eq!(g.v4_domains, w.v4_domains, "{what}");
        assert_eq!(g.v6_domains, w.v6_domains, "{what}");
    }
}

#[test]
fn store_backed_window_is_bit_identical_to_regeneration() {
    let scratch = Scratch::new("window");
    let world = World::generate(WorldConfig::test_small(17));
    let to = world.config.end;
    let from = to.add_months(-3);
    let archive = world.rib_archive();

    let store = SnapshotStore::create(&scratch.0).unwrap();
    let written = world.export_snapshots(&store, from, to, false).unwrap();
    assert_eq!(written, 4);
    // Re-export is a no-op without force.
    assert_eq!(world.export_snapshots(&store, from, to, false).unwrap(), 0);

    for incremental in [true, false] {
        let config = EngineConfig {
            incremental,
            ..EngineConfig::default()
        };
        let mut from_store = DetectEngine::new(EngineConfig {
            threads: 2,
            ..config
        });
        let stored = from_store
            .run_window(from, to, &archive, |date| store.load(date).unwrap())
            .unwrap();
        let mut from_world = DetectEngine::new(EngineConfig {
            threads: 1,
            ..config
        });
        let regenerated = from_world
            .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
            .unwrap();
        assert_eq!(stored.results.len(), regenerated.results.len());
        for ((d_s, got), (d_r, want)) in stored.results.iter().zip(regenerated.results.iter()) {
            assert_eq!(d_s, d_r);
            assert!(!want.is_empty(), "world detects pairs at {d_s}");
            assert_sets_equal(got, want, &format!("{d_s} (incremental={incremental})"));
        }
        // Churn accounting is input-derived, so it matches too.
        for (cs, cr) in stored.churn.iter().zip(regenerated.churn.iter()) {
            assert_eq!(cs.added, cr.added);
            assert_eq!(cs.removed, cr.removed);
            assert_eq!(cs.retargeted, cr.retargeted);
            assert_eq!(cs.dirty_shards, cr.dirty_shards);
        }
    }
}

#[test]
fn views_feed_index_build_and_diff_like_owned_snapshots() {
    let scratch = Scratch::new("views");
    let world = World::generate(WorldConfig::test_small(23));
    let to = world.config.end;
    let from = to.add_months(-1);
    let store = SnapshotStore::create(&scratch.0).unwrap();
    world.export_snapshots(&store, from, to, false).unwrap();

    let snap_a = world.snapshot(from);
    let snap_b = world.snapshot(to);
    let file_a = store.load(from).unwrap();
    let file_b = store.load_with(to, LoadMode::Read).unwrap();

    // The mapped views reproduce the owned snapshots exactly.
    assert_eq!(file_a.view().to_snapshot(), snap_a);
    assert_eq!(file_b.view().to_snapshot(), snap_b);

    // Zero-copy diff == owned diff, across backings.
    let delta_views = SnapshotDelta::diff_sources(&file_a.view(), &file_b.view());
    let delta_owned = SnapshotDelta::diff(&snap_a, &snap_b);
    assert_eq!(delta_views, delta_owned);
    assert!(delta_owned.churn() > 0, "the world churns monthly");

    // Zero-copy index build == owned index build, over the same RIB.
    let rib = world.rib();
    let from_view = PrefixDomainIndex::build_source(&file_b.view(), rib);
    let from_snap = PrefixDomainIndex::build(&snap_b, rib);
    let got: Vec<_> = from_view
        .groups::<u32>()
        .map(|(p, d)| (*p, d.to_vec()))
        .collect();
    let want: Vec<_> = from_snap
        .groups::<u32>()
        .map(|(p, d)| (*p, d.to_vec()))
        .collect();
    assert!(!want.is_empty());
    assert_eq!(got, want, "v4 groups");
    let got6: Vec<_> = from_view
        .groups::<u128>()
        .map(|(p, d)| (*p, d.to_vec()))
        .collect();
    let want6: Vec<_> = from_snap
        .groups::<u128>()
        .map(|(p, d)| (*p, d.to_vec()))
        .collect();
    assert_eq!(got6, want6, "v6 groups");
    assert_eq!(from_view.unmapped_counts(), from_snap.unmapped_counts());
    assert_eq!(from_view.host_counts(), from_snap.host_counts());
}

#[test]
fn corrupted_store_surfaces_errors_not_panics() {
    let scratch = Scratch::new("corrupt");
    let world = World::generate(WorldConfig::test_tiny(5));
    let date = world.config.end;
    let store = SnapshotStore::create(&scratch.0).unwrap();
    world.export_snapshots(&store, date, date, false).unwrap();

    // Truncate the stored file in place: loading must error cleanly.
    let path = store.path_of(date);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = store.load(date).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::Truncated { .. } | StoreError::ChecksumMismatch | StoreError::Corrupt(_)
        ),
        "truncated store file: {err}"
    );
    // An absent month is a typed error, too.
    assert!(matches!(
        store.load(date.add_months(-30)),
        Err(StoreError::Missing(_))
    ));
}
