//! End-to-end contract of the incremental batch driver: across a
//! synthetic world's organic churn, `run_window` with snapshot deltas,
//! in-place index patching and dirty-shard rescoring produces exactly
//! the same per-month `SiblingSet`s as the full-rebuild path and as
//! independent per-date `detect` invocations, under every best-match
//! policy and similarity metric. The incremental runs are on a
//! two-thread pool, the full rebuild inline.

use std::sync::Arc;

use sibling_core::{
    detect, BestMatchPolicy, DetectEngine, EngineConfig, GroupIndex, PrefixDomainIndex, SetArena,
    SiblingSet, SimilarityMetric,
};
use sibling_worldgen::{World, WorldConfig};

fn assert_same_pairs(got: &SiblingSet, want: &SiblingSet, what: &str) {
    assert_eq!(got.len(), want.len(), "pair count differs: {what}");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!((g.v4, g.v6), (w.v4, w.v6), "pair identity: {what}");
        assert_eq!(g.similarity, w.similarity, "similarity: {what}");
        assert_eq!(g.shared_domains, w.shared_domains, "{what}");
        assert_eq!(g.v4_domains, w.v4_domains, "{what}");
        assert_eq!(g.v6_domains, w.v6_domains, "{what}");
    }
}

#[test]
fn incremental_window_matches_full_rebuild_and_per_date() {
    let world = World::generate(WorldConfig::test_small(17));
    let to = world.config.end;
    let from = to.add_months(-4);
    let archive = world.rib_archive();
    let snapshots: Vec<_> = from
        .range_to(to)
        .into_iter()
        .map(|date| (date, Arc::new(world.snapshot(date))))
        .collect();
    let snapshot_of = |date| {
        let (_, snapshot) = snapshots
            .iter()
            .find(|(d, _)| *d == date)
            .expect("in window");
        Arc::clone(snapshot)
    };
    let indexes: Vec<PrefixDomainIndex> = snapshots
        .iter()
        .map(|(_, snapshot)| PrefixDomainIndex::build(snapshot, world.rib()))
        .collect();

    let mut full = DetectEngine::new(EngineConfig {
        incremental: false,
        threads: 1,
        ..EngineConfig::default()
    });
    let full = full.run_window(from, to, &archive, snapshot_of).unwrap();

    for policy in [
        BestMatchPolicy::Union,
        BestMatchPolicy::V4Side,
        BestMatchPolicy::V6Side,
    ] {
        for metric in [
            SimilarityMetric::Jaccard,
            SimilarityMetric::Dice,
            SimilarityMetric::Overlap,
        ] {
            let mut incremental = DetectEngine::new(EngineConfig {
                metric,
                policy,
                threads: 2,
                ..EngineConfig::default()
            });
            let inc = incremental
                .run_window(from, to, &archive, snapshot_of)
                .expect("window covered by the world's archive");
            assert_eq!(inc.results.len(), 5);
            for ((date, got), index) in inc.results.iter().zip(&indexes) {
                assert!(!got.is_empty(), "synthetic world detects pairs at {date}");
                // The reference per-date pipeline under the same policy
                // and metric.
                let reference = detect(index, metric, policy);
                assert_same_pairs(got, &reference, &format!("{policy:?} {metric:?} {date}"));
            }
            if (policy, metric) == (BestMatchPolicy::Union, SimilarityMetric::Jaccard) {
                assert_eq!(inc.results.len(), full.results.len());
                for ((d_inc, got), (d_full, want)) in inc.results.iter().zip(full.results.iter()) {
                    assert_eq!(d_inc, d_full);
                    assert_same_pairs(got, want, &format!("full rebuild {d_inc}"));
                }
            }
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
