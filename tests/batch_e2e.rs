//! End-to-end contract of the batch driver: `DetectEngine::run_window`
//! over a multi-month synthetic window produces, per date, exactly the
//! same `SiblingSet` as independent per-date `detect` invocations. The
//! engine runs on a two-thread pool, so the check covers the pooled
//! window scheduler.

use std::sync::Arc;

use sibling_core::{
    detect, BestMatchPolicy, DetectEngine, EngineConfig, PrefixDomainIndex, SimilarityMetric,
};
use sibling_worldgen::{World, WorldConfig};

#[test]
fn batch_window_matches_per_date_detection() {
    let world = World::generate(WorldConfig::test_small(11));
    let to = world.config.end;
    let from = to.add_months(-3);
    let archive = world.rib_archive();

    let mut engine = DetectEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let run = engine
        .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
        .expect("window covered by the world's archive");
    assert_eq!(run.results.len(), 4);
    assert_eq!(run.stats.months, 4);
    assert!(
        run.stats.dedup_hits > 0,
        "recurring domain sets must hit the arena across a 4-month window"
    );

    for (date, got) in &run.results {
        // Fresh per-date pipeline: own index, own arena, reference
        // serial detect.
        let snapshot = world.snapshot(*date);
        let index = PrefixDomainIndex::build(&snapshot, world.rib());
        let want = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
        assert!(!want.is_empty(), "synthetic world detects pairs at {date}");
        assert_eq!(got.len(), want.len(), "pair count differs at {date}");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!((g.v4, g.v6), (w.v4, w.v6), "pair identity at {date}");
            assert_eq!(g.similarity, w.similarity, "similarity at {date}");
            assert_eq!(g.shared_domains, w.shared_domains);
            assert_eq!(g.v4_domains, w.v4_domains);
            assert_eq!(g.v6_domains, w.v6_domains);
        }
    }
}

#[test]
fn batch_results_are_seed_deterministic() {
    // Two engines over two identically-seeded worlds must agree pair for
    // pair (worldgen determinism composing with engine determinism).
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let world = World::generate(WorldConfig::test_tiny(23));
            let to = world.config.end;
            let from = to.add_months(-2);
            let archive = world.rib_archive();
            let mut engine = DetectEngine::default();
            engine
                .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
                .unwrap()
        })
        .collect();
    assert_eq!(runs[0].stats.total_pairs, runs[1].stats.total_pairs);
    assert_eq!(runs[0].stats.distinct_sets, runs[1].stats.distinct_sets);
    for ((d0, s0), (d1, s1)) in runs[0].results.iter().zip(runs[1].results.iter()) {
        assert_eq!(d0, d1);
        assert_eq!(s0.len(), s1.len());
        for (a, b) in s0.iter().zip(s1.iter()) {
            assert_eq!((a.v4, a.v6), (b.v4, b.v6));
            assert_eq!(a.similarity, b.similarity);
        }
    }
}
