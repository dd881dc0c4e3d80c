//! End-to-end contract of the incremental batch driver: across a
//! synthetic world's organic churn, `run_window` with snapshot deltas,
//! in-place index patching and dirty-shard rescoring produces exactly
//! the same per-month `SiblingSet`s as the full-rebuild path and as
//! independent per-date `detect` invocations. The incremental run is on
//! a two-thread pool, the full rebuild inline.

use std::sync::Arc;

use sibling_core::{
    detect, BestMatchPolicy, DetectEngine, EngineConfig, GroupIndex, PrefixDomainIndex, SetArena,
    SimilarityMetric,
};
use sibling_worldgen::{World, WorldConfig};

#[test]
fn incremental_window_matches_full_rebuild_and_per_date() {
    let world = World::generate(WorldConfig::test_small(17));
    let to = world.config.end;
    let from = to.add_months(-4);
    let archive = world.rib_archive();

    let mut incremental = DetectEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let inc = incremental
        .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
        .expect("window covered by the world's archive");

    let mut full = DetectEngine::new(EngineConfig {
        incremental: false,
        threads: 1,
        ..EngineConfig::default()
    });
    let full = full
        .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
        .unwrap();

    assert_eq!(inc.results.len(), 5);
    assert_eq!(inc.results.len(), full.results.len());
    for ((d_inc, got), (d_full, want)) in inc.results.iter().zip(full.results.iter()) {
        assert_eq!(d_inc, d_full);
        assert!(!want.is_empty(), "synthetic world detects pairs at {d_inc}");
        assert_eq!(got.len(), want.len(), "pair count differs at {d_inc}");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!((g.v4, g.v6), (w.v4, w.v6), "pair identity at {d_inc}");
            assert_eq!(g.similarity, w.similarity, "similarity at {d_inc}");
            assert_eq!(g.shared_domains, w.shared_domains);
            assert_eq!(g.v4_domains, w.v4_domains);
            assert_eq!(g.v6_domains, w.v6_domains);
        }

        // And both equal the reference per-date pipeline.
        let snapshot = world.snapshot(*d_inc);
        let index = PrefixDomainIndex::build(&snapshot, world.rib());
        let reference = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
        assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(reference.iter()) {
            assert_eq!((g.v4, g.v6), (r.v4, r.v6));
            assert_eq!(g.similarity, r.similarity);
        }
    }
}

#[test]
fn incremental_window_reports_churn_scaled_work() {
    // The observability contract the CLI rides on: only the first month
    // is a full rebuild, later months rescore a strict subset of shards
    // (the world's churn is a few percent), dead sets recycle, and the
    // full-rebuild counter stays at one.
    let world = World::generate(WorldConfig::test_small(29));
    let to = world.config.end;
    let from = to.add_months(-5);
    let archive = world.rib_archive();

    let mut engine = DetectEngine::new(EngineConfig::default());
    let run = engine
        .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
        .unwrap();

    assert_eq!(run.churn.len(), run.results.len());
    assert!(run.churn[0].full_rebuild, "first month seeds the window");
    assert_eq!(run.stats.full_rebuilds, 1, "one shared RIB, one rebuild");
    for churn in &run.churn[1..] {
        assert!(!churn.full_rebuild);
        assert!(churn.total_shards > 0);
        assert!(churn.dirty_shards <= churn.total_shards);
        assert!(
            churn.added + churn.removed + churn.retargeted > 0,
            "the synthetic world churns every month"
        );
        assert!(churn.rescored_share() <= 1.0);
    }
    assert!(
        run.churn[1..]
            .iter()
            .any(|c| c.dirty_shards < c.total_shards),
        "low churn must leave some shards clean"
    );
    // Patched-away group sets leave the arena: at the window's end it
    // holds exactly the sets of a fresh build of the last month. (The
    // recycle count would say so too, but on a pool it depends on the
    // schedule; the live set count does not.)
    let fresh = SetArena::new();
    let _last = GroupIndex::build(&world.snapshot(to), world.rib(), &fresh);
    assert!(!fresh.is_empty());
    assert_eq!(
        run.stats.distinct_sets,
        fresh.len(),
        "patched-away group sets leave the arena"
    );
    assert!(run.stats.total_pairs > 0);
}
