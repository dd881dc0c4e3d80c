//! Substrate micro-benchmarks: the building blocks every experiment rides
//! on (trie operations, RIB lookups, ROV validation, scanning, world
//! generation).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use sibling_bench::{bench_context, cached_snapshot_window, fresh_world, low_churn_world};
use sibling_core::{
    detect, BestMatchPolicy, DetectEngine, EngineConfig, PrefixDomainIndex, SimilarityMetric,
};
use sibling_dns::{LoadMode, SnapshotDelta, SnapshotFile, SnapshotStore};
use sibling_executor::{scoped_map, ThreadPool};
use sibling_net_types::Ipv4Prefix;
use sibling_ptrie::PatriciaTrie;
use sibling_scan::{ScanConfig, Scanner};
use sibling_store::WorldStore;

/// Patricia-trie insert + longest-prefix match (the PyTricia substitute).
fn bench_trie(c: &mut Criterion) {
    let prefixes: Vec<Ipv4Prefix> = (0..10_000u32)
        .map(|i| Ipv4Prefix::new(i << 14, 18 + (i % 7) as u8).unwrap())
        .collect();
    c.bench_function("ptrie_insert_10k", |b| {
        b.iter(|| {
            let mut trie = PatriciaTrie::new();
            for (i, p) in prefixes.iter().enumerate() {
                trie.insert(*p, i);
            }
            black_box(trie.len())
        })
    });
    let trie: PatriciaTrie<u32, usize> =
        prefixes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    c.bench_function("ptrie_lpm_10k", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for addr in (0..100_000u32).step_by(101) {
                if trie
                    .longest_match(addr.wrapping_mul(2_654_435_761))
                    .is_some()
                {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

/// RIB longest-prefix matching over the generated announcements.
fn bench_rib_lookup(c: &mut Criterion) {
    let ctx = bench_context();
    let snap = ctx.snapshot(ctx.day0());
    let addrs: Vec<u32> = snap.ds_domains().flat_map(|(_, a)| a.v4.clone()).collect();
    println!("[§2.2] {} DS v4 addresses to map", addrs.len());
    c.bench_function("rib_lpm_ds_addresses", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for addr in &addrs {
                if ctx.world.rib().lookup(*addr).is_some() {
                    found += 1;
                }
            }
            black_box(found)
        })
    });
}

/// RFC 6811 validation over all announced prefixes (Fig. 18 inner loop).
fn bench_rov(c: &mut Criterion) {
    let ctx = bench_context();
    let table = ctx.world.roa_table(ctx.day0());
    println!("[fig18] {} ROAs at day 0", table.len());
    let announcements: Vec<_> = ctx
        .world
        .pods()
        .iter()
        .map(|p| (p.v4_announced, ctx.world.orgs()[p.v4_org as usize].v4_asn))
        .collect();
    c.bench_function("rov_validate_all_v4", |b| {
        b.iter(|| {
            let mut valid = 0usize;
            for (prefix, origin) in &announcements {
                if table.validate_v4(prefix, *origin) == sibling_rpki::RovState::Valid {
                    valid += 1;
                }
            }
            black_box(valid)
        })
    });
}

/// ZMap-style scan over all DS addresses (Fig. 6 inner loop).
fn bench_scan(c: &mut Criterion) {
    let ctx = bench_context();
    let date = ctx.day0();
    let snap = ctx.snapshot(date);
    let mut v4: Vec<u32> = snap.ds_domains().flat_map(|(_, a)| a.v4.clone()).collect();
    let mut v6: Vec<u128> = snap.ds_domains().flat_map(|(_, a)| a.v6.clone()).collect();
    v4.sort_unstable();
    v4.dedup();
    v6.sort_unstable();
    v6.dedup();
    let deployment = ctx.world.deployment(date);
    let scanner = Scanner::new(ScanConfig::default());
    let report = scanner.scan(&deployment, &v4, &v6);
    println!(
        "[fig06] {} probes, {} v4 + {} v6 responsive, {:.1}s simulated at 50 kpps",
        report.probes_sent,
        report.v4.len(),
        report.v6.len(),
        report.duration_secs
    );
    c.bench_function("scan_14_ports_all_ds", |b| {
        b.iter(|| black_box(scanner.scan(&deployment, &v4, &v6)))
    });
}

/// The longitudinal sweep two ways, end to end.
///
/// * `per_date_serial` is the pre-engine architecture: each date is an
///   independent run that rebuilds the shared state (world generation =
///   domain interner + RIB + org tables, as a one-date-per-invocation
///   driver must), derives the month's snapshot and index, and runs the
///   serial reference `detect`.
/// * `engine_batch` is `DetectEngine::run_window`: shared state is built
///   once, then the window is walked in one pass — snapshots and indexes
///   per month, the interner/RIB archive/set arena reused throughout,
///   scoring sharded on the engine's pool (one thread by default).
///
/// Also times the two scoring paths alone (`score/*`, identical indexes,
/// identical outputs) to isolate the counting-join + sharding win from
/// the batch-reuse win.
fn bench_batch_window(c: &mut Criterion) {
    let months = 6u64;
    {
        let world = fresh_world(2024);
        let day0 = world.config.end;
        let from = day0.add_months(-(months as i32 - 1));
        let archive = world.rib_archive();
        let mut engine = DetectEngine::default();
        let run = engine
            .run_window(from, day0, &archive, |d| Arc::new(world.snapshot(d)))
            .unwrap();
        println!(
            "[batch] {} months: {} pairs, {} distinct sets, {} dedup hits",
            run.stats.months, run.stats.total_pairs, run.stats.distinct_sets, run.stats.dedup_hits
        );
    }

    let mut group = c.benchmark_group("batch_window");
    group.bench_function("per_date_serial", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for k in 0..months {
                // One-date-per-invocation: shared state is rebuilt.
                let world = fresh_world(2024);
                let date = world.config.end.add_months(-(k as i32));
                let snap = world.snapshot(date);
                let index = PrefixDomainIndex::build(&snap, world.rib());
                total += detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union).len();
            }
            black_box(total)
        })
    });
    group.bench_function("engine_batch", |b| {
        b.iter(|| {
            let world = fresh_world(2024);
            let day0 = world.config.end;
            let from = day0.add_months(-(months as i32 - 1));
            let archive = world.rib_archive();
            let mut engine = DetectEngine::default();
            let run = engine
                .run_window(from, day0, &archive, |d| Arc::new(world.snapshot(d)))
                .unwrap();
            black_box(run.stats.total_pairs)
        })
    });
    group.finish();

    // Scoring-only comparison over one shared index.
    let ctx = bench_context();
    let engine = DetectEngine::default();
    let snap = ctx.snapshot(ctx.day0());
    let index = engine.build_index(&snap, ctx.world.rib());
    let mut group = c.benchmark_group("score");
    group.bench_function("serial_reference", |b| {
        b.iter(|| {
            black_box(detect(
                &index,
                SimilarityMetric::Jaccard,
                BestMatchPolicy::Union,
            ))
        })
    });
    group.bench_function("engine_sharded", |b| {
        b.iter(|| black_box(engine.detect(&index)))
    });
    group.finish();
}

/// Churn-scaled incremental detection: the same multi-month window, once
/// with per-month full rebuilds (index + all shards rescored every
/// month, `incremental: false`) and once incrementally (snapshot deltas,
/// in-place index patching, dirty-shard rescoring). Snapshots come from
/// the persistent `target/snapshot-store/` cache (zone resolution runs
/// only the first time per checkout; the engine consumes the mapped
/// files zero-copy), so both variants measure engine work, not worldgen;
/// the printed churn rate shows how little of each month the incremental
/// path has to touch. Outputs are bit-identical (property-tested in
/// `sibling-core`); only the cost model differs.
fn bench_incremental_window(c: &mut Criterion) {
    let months = 24i32;
    let world = low_churn_world(2024);
    let day0 = world.config.end;
    let from = day0.add_months(-(months - 1));
    let dates = from.range_to(day0);
    let archive = world.rib_archive();
    let snaps: Vec<Arc<SnapshotFile>> =
        cached_snapshot_window("low-churn-small-2024", &world, from, day0);
    {
        let domains: usize = snaps.iter().map(|s| s.domain_count()).sum::<usize>() / snaps.len();
        let churn: usize = snaps
            .windows(2)
            .map(|w| SnapshotDelta::diff_sources(&w[0], &w[1]).churn())
            .sum::<usize>()
            / (snaps.len() - 1);
        println!(
            "[incr] {} months, ~{domains} domains/month, ~{churn} changed/month ({:.1}% turnover)",
            dates.len(),
            churn as f64 / domains as f64 * 100.0
        );
        let mut engine = DetectEngine::default();
        let run = engine
            .run_window(from, day0, &archive, |d| {
                snaps[d.months_since(&from).max(0) as usize].clone()
            })
            .unwrap();
        let (dirty, total): (usize, usize) = run.churn[1..]
            .iter()
            .fold((0, 0), |(d, t), c| (d + c.dirty_shards, t + c.total_shards));
        println!(
            "[incr] {} pairs; post-seed months rescored {dirty}/{total} shards ({:.1}%), {} sets recycled",
            run.stats.total_pairs,
            dirty as f64 / total.max(1) as f64 * 100.0,
            run.stats.recycled_sets
        );
    }
    let snapshot_of =
        |d: sibling_net_types::MonthDate| snaps[d.months_since(&from).max(0) as usize].clone();

    let mut group = c.benchmark_group("incremental_window");
    group.bench_function("full_rebuild", |b| {
        b.iter(|| {
            let mut engine = DetectEngine::new(EngineConfig {
                incremental: false,
                ..EngineConfig::default()
            });
            let run = engine
                .run_window(from, day0, &archive, snapshot_of)
                .unwrap();
            black_box(run.stats.total_pairs)
        })
    });
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let mut engine = DetectEngine::default();
            let run = engine
                .run_window(from, day0, &archive, snapshot_of)
                .unwrap();
            black_box(run.stats.total_pairs)
        })
    });
    group.finish();
}

/// Cross-month window parallelism, measured: the same cached 24-month
/// low-churn store window as `incremental_window`, run through the
/// window scheduler at 1/2/4/8 threads. At one thread every task runs
/// inline on the driver (the serial walk); with workers, snapshot
/// diffs, dirty-shard rescoring and per-month assembly of *different*
/// months overlap on the persistent pool. Output is bit-identical at
/// every thread count (property-tested in `sibling-core`; CI diffs the
/// CLI's stdout too) — only wall-clock changes. The acceptance bar is
/// ≥2x at 4 threads over 1 thread.
///
/// Also records the arena's lock-contention counter
/// (`SetArena::shard_wait_count`) for the 4-thread run into
/// `target/bench.json` — the sharded interner's health metric (expect
/// low counts: 64-way fan-out keeps concurrent interns apart) — plus
/// the machine's available parallelism, without which the `tN` series
/// cannot be interpreted: on a single-core box the best possible
/// outcome is near-parity (threads only add scheduling overhead), and
/// the speedup bar applies to machines with ≥ 4 cores.
fn bench_window_parallel(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("[window] machine parallelism: {cores} core(s)");
    c.record_value("window_parallel/available_parallelism", cores as u64);
    let months = 24i32;
    let world = low_churn_world(2024);
    let day0 = world.config.end;
    let from = day0.add_months(-(months - 1));
    let archive = world.rib_archive();
    let snaps: Vec<Arc<SnapshotFile>> =
        cached_snapshot_window("low-churn-small-2024", &world, from, day0);
    let snapshot_of =
        |d: sibling_net_types::MonthDate| snaps[d.months_since(&from).max(0) as usize].clone();

    let mut group = c.benchmark_group("window_parallel");
    for threads in [1usize, 2, 4, 8] {
        // The engine (and so its persistent pool) is constructed outside
        // the timed region: thread spawn/join is a one-time cost per
        // engine, and timing it per iteration would charge t4/t8 for
        // something t1 (no workers) never pays.
        let mut engine = DetectEngine::new(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        group.bench_function(format!("t{threads}"), |b| {
            b.iter(|| {
                let run = engine
                    .run_window(from, day0, &archive, snapshot_of)
                    .unwrap();
                black_box(run.stats.total_pairs)
            })
        });
    }
    group.finish();

    // Contention counter of one representative 4-thread window.
    let mut engine = DetectEngine::new(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let run = engine
        .run_window(from, day0, &archive, snapshot_of)
        .unwrap();
    println!(
        "[window] 4 threads: {} pairs, {} arena shard waits over {} months",
        run.stats.total_pairs,
        engine.arena().shard_wait_count(),
        run.stats.months
    );
    c.record_value(
        "window_parallel/arena_shard_wait_count_t4",
        engine.arena().shard_wait_count(),
    );
}

/// The snapshot store's reason to exist, measured: producing one month
/// of input by full regeneration (zone construction + CNAME resolution +
/// routability filtering — what every process used to pay per month)
/// versus loading the exported file back (`mmap` + header/section
/// validation, and the plain-`read` fallback for comparison). The
/// store's acceptance bar is regenerate ≥ 10x slower than `store_mmap`.
/// A `materialize` variant adds `SnapshotView::to_snapshot` on top of
/// the load, bounding the cost of the owned-BTreeMap escape hatch.
fn bench_store_load(c: &mut Criterion) {
    let world = fresh_world(2024);
    let date = world.config.end;
    let files = cached_snapshot_window("store-load-small-2024", &world, date, date);
    let store = SnapshotStore::open(sibling_bench::snapshot_store_dir("store-load-small-2024"))
        .expect("bench store exists");
    println!(
        "[store] {} domains, {} KiB on disk, backing {:?}",
        files[0].domain_count(),
        files[0].byte_len() / 1024,
        files[0].backing()
    );
    let mut group = c.benchmark_group("store_load");
    group.bench_function("regenerate", |b| {
        b.iter(|| black_box(world.snapshot(date).domain_count()))
    });
    group.bench_function("store_mmap", |b| {
        b.iter(|| black_box(store.load(date).expect("stored").domain_count()))
    });
    group.bench_function("store_read", |b| {
        b.iter(|| {
            black_box(
                store
                    .load_with(date, LoadMode::Read)
                    .expect("stored")
                    .domain_count(),
            )
        })
    });
    group.bench_function("materialize", |b| {
        b.iter(|| {
            let file = store.load(date).expect("stored");
            black_box(file.view().to_snapshot().domain_count())
        })
    });
    group.finish();
}

/// The world store closes the gap the snapshot store left open: loading
/// the *non-snapshot* world state (the per-month RIB archive plus the
/// AS→org, hypergiant and ASdb tables) by full regeneration
/// (`World::generate` — what `batch --store` used to pay even with every
/// snapshot cached) versus mapping the exported `SIBWORLD` file back
/// (`mmap` + header/section validation + org-table materialization, and
/// the plain-`read` fallback for comparison). The acceptance bar is
/// regenerate ≥ 10x slower than `store_mmap`; the stub criterion records
/// every series into `target/bench.json`, so the `store_world/*` load
/// times land there alongside the other substrates.
fn bench_store_world(c: &mut Criterion) {
    let world = fresh_world(2024);
    let fingerprint = world.config.fingerprint();
    let dir = sibling_bench::snapshot_store_dir("world-store-small-2024");
    // (Re)write the cached world file when absent, stale-format, or
    // explicitly forced — stored worlds are a pure function of the
    // config baked into the label.
    if sibling_bench::force_regen() || WorldStore::open(&dir, Some(fingerprint)).is_err() {
        WorldStore::write(
            &dir,
            fingerprint,
            &world.rib_archive(),
            world.as_org(),
            world.asdb(),
            world.hg_cdn(),
        )
        .expect("write bench world store");
    }
    let stored = WorldStore::open(&dir, Some(fingerprint)).expect("bench world store exists");
    println!(
        "[store] world file: {} months, {} KiB on disk, backing {:?}",
        stored.months().len(),
        stored.byte_len() / 1024,
        stored.backing()
    );
    let mut group = c.benchmark_group("store_world");
    group.bench_function("regenerate", |b| {
        b.iter(|| {
            let world = fresh_world(2024);
            black_box(world.rib_archive().len())
        })
    });
    group.bench_function("store_mmap", |b| {
        b.iter(|| {
            let stored = WorldStore::open(&dir, Some(fingerprint)).expect("stored");
            black_box(stored.rib_archive().len())
        })
    });
    group.bench_function("store_read", |b| {
        b.iter(|| {
            let stored =
                WorldStore::open_with(&dir, Some(fingerprint), LoadMode::Read).expect("stored");
            black_box(stored.rib_archive().len())
        })
    });
    group.finish();
}

/// Dispatch cost of the two executor designs on small jobs: the
/// persistent pool (workers parked on a condvar, fed through a queue)
/// versus the previous per-call `std::thread::scope` spawning. The work
/// per item is tiny on purpose — the benchmark isolates what it costs to
/// *start* a parallel map, which is what the engine pays once per month
/// per window.
fn bench_pool_dispatch(c: &mut Criterion) {
    let items: Vec<u64> = (0..256).collect();
    let work = |_: usize, x: &u64| -> u64 {
        let mut acc = *x;
        for i in 0..32u64 {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7) ^ i;
        }
        acc
    };
    let threads = 4;
    let pool = ThreadPool::with_threads(threads);
    let mut group = c.benchmark_group("pool_dispatch");
    group.bench_function("persistent", |b| {
        b.iter(|| black_box(pool.map(&items, work)))
    });
    group.bench_function("scoped_spawn", |b| {
        b.iter(|| black_box(scoped_map(threads, &items, work)))
    });
    group.finish();
}

/// World generation itself (the dataset substitute).
fn bench_worldgen(c: &mut Criterion) {
    c.bench_function("worldgen_small", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(fresh_world(seed).pods().len())
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_trie, bench_rib_lookup, bench_rov, bench_scan, bench_batch_window,
    bench_incremental_window, bench_window_parallel, bench_store_load, bench_store_world,
    bench_pool_dispatch, bench_worldgen
);
criterion_main!(benches);
