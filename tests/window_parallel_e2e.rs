//! End-to-end contract of the cross-month window scheduler: over a
//! synthetic world's organic churn, `run_window` must produce exactly
//! the same per-month `SiblingSet`s (and churn accounting) at every
//! `threads` setting, in both engine modes, against regenerated and
//! store-backed (mmap) snapshots — and the `PairLedger` merge walk
//! must report the same month-over-month categories as the stateless
//! `compare`. One thread runs every task inline; more run a real pool.

use std::sync::Arc;

use sibling_core::longitudinal::{compare, PairLedger};
use sibling_core::{BatchRun, DetectEngine, EngineConfig, SiblingSet};
use sibling_dns::SnapshotStore;
use sibling_worldgen::{World, WorldConfig};

fn assert_runs_equal(got: &BatchRun, want: &BatchRun, what: &str) {
    assert_eq!(got.results.len(), want.results.len(), "{what}");
    for ((d_got, g_set), (d_want, w_set)) in got.results.iter().zip(want.results.iter()) {
        assert_eq!(d_got, d_want, "{what}");
        assert_eq!(g_set.len(), w_set.len(), "{what}: pair count at {d_got}");
        for (g, w) in g_set.iter().zip(w_set.iter()) {
            assert_eq!((g.v4, g.v6), (w.v4, w.v6), "{what}: identity at {d_got}");
            assert_eq!(g.similarity, w.similarity, "{what}: similarity at {d_got}");
            assert_eq!(g.shared_domains, w.shared_domains, "{what}");
            assert_eq!(g.v4_domains, w.v4_domains, "{what}");
            assert_eq!(g.v6_domains, w.v6_domains, "{what}");
        }
    }
    for (g, w) in got.churn.iter().zip(want.churn.iter()) {
        assert_eq!(g.full_rebuild, w.full_rebuild, "{what}");
        assert_eq!(g.changed_effective, w.changed_effective, "{what}");
        assert_eq!(g.dirty_shards, w.dirty_shards, "{what}");
        assert_eq!(g.total_shards, w.total_shards, "{what}");
    }
}

#[test]
fn window_is_bit_identical_across_thread_counts_and_modes() {
    let world = World::generate(WorldConfig::test_small(23));
    let to = world.config.end;
    let from = to.add_months(-5);
    let archive = world.rib_archive();

    for incremental in [true, false] {
        let mut reference: Option<BatchRun> = None;
        for threads in [1usize, 2, 4] {
            let mut engine = DetectEngine::new(EngineConfig {
                threads,
                incremental,
                // Pinned: the auto shard count scales with the worker
                // count, which keeps results identical but would make
                // the churn-accounting comparison vacuous.
                shards: 32,
                ..EngineConfig::default()
            });
            let run = engine
                .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
                .expect("window covered by the world's archive");
            assert_eq!(run.results.len(), 6);
            assert_eq!(run.timings.len(), run.results.len(), "one timing/month");
            assert!(
                !run.results[0].1.is_empty(),
                "synthetic world detects pairs"
            );
            match &reference {
                Some(want) => assert_runs_equal(
                    &run,
                    want,
                    &format!("threads={threads} incremental={incremental}"),
                ),
                None => reference = Some(run),
            }
        }
    }
}

#[test]
fn store_backed_window_matches_regeneration_across_threads() {
    let world = World::generate(WorldConfig::test_small(29));
    let to = world.config.end;
    let from = to.add_months(-5);
    let archive = world.rib_archive();

    let dir = std::env::temp_dir().join(format!(
        "sibling-window-par-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let store = SnapshotStore::create(&dir).expect("create store");
    world
        .export_snapshots(&store, from, to, false)
        .expect("export window");

    let mut regen = DetectEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let want = regen
        .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
        .unwrap();

    for threads in [1usize, 4] {
        let files: std::collections::BTreeMap<_, _> = from
            .range_to(to)
            .into_iter()
            .map(|d| (d, store.load(d).expect("stored month")))
            .collect();
        let mut engine = DetectEngine::new(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        let run = engine
            .run_window(from, to, &archive, |date| files[&date].clone())
            .unwrap();
        // Shard accounting may differ from the regeneration run when the
        // auto shard count differs across thread counts — compare the
        // detection output only.
        assert_eq!(run.results.len(), want.results.len());
        for ((d_got, g_set), (d_want, w_set)) in run.results.iter().zip(want.results.iter()) {
            assert_eq!(d_got, d_want);
            assert_eq!(g_set.len(), w_set.len(), "store-backed at {d_got}");
            for (g, w) in g_set.iter().zip(w_set.iter()) {
                assert_eq!((g.v4, g.v6), (w.v4, w.v6));
                assert_eq!(g.similarity, w.similarity);
                assert_eq!(g.shared_domains, w.shared_domains);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ledger_deltas_match_stateless_compare_over_a_window() {
    let world = World::generate(WorldConfig::test_small(31));
    let to = world.config.end;
    let from = to.add_months(-4);
    let archive = world.rib_archive();
    let mut engine = DetectEngine::default();
    let run = engine
        .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
        .unwrap();

    let mut ledger = PairLedger::new();
    let mut prev = SiblingSet::default();
    for (date, set) in &run.results {
        let want = compare(&prev, set);
        let got = ledger.advance(set);
        assert_eq!(got.counts(), want.counts(), "category counts at {date}");
        let sorted = |v: &[f64]| {
            let mut v: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&got.new), sorted(&want.new), "{date}");
        assert_eq!(sorted(&got.unchanged), sorted(&want.unchanged), "{date}");
        assert_eq!(
            sorted(&got.changed_current),
            sorted(&want.changed_current),
            "{date}"
        );
        assert_eq!(sorted(&got.vanished), sorted(&want.vanished), "{date}");
        assert_eq!(ledger.len(), set.len());
        prev = set.clone();
    }
}
