//! `query_throughput`: the resident query daemon's hot path, measured.
//!
//! The serving stack above the socket is [`QueryPlanner::answer_line`] —
//! parse one request line, walk the published [`WindowQueryIndex`],
//! render the response into a reused buffer. Readers share the immutable
//! index through an `Arc` and hold no locks, so service throughput is
//! (single-reader throughput) × (reader threads) minus kernel socket
//! costs. This bench measures exactly that planner path on the same
//! cached 24-month low-churn store window the other window benches use.
//!
//! The acceptance bar is ≥100k queries/sec aggregate on the loaded
//! window. The build container is 1-core, so the gate recorded into
//! `target/bench.json` is the scaling argument: `single_reader_qps`
//! (measured) × `available_parallelism` (recorded alongside), plus
//! `aggregate_qps_measured` from actually running one planner per
//! machine core — on a 1-core box the two collapse to the same number.
//! The assert fails the bench if neither clears the bar.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sibling_bench::{cached_snapshot_window, low_churn_world};
use sibling_core::query::WindowQueryIndex;
use sibling_core::{DetectEngine, EngineConfig, EpochState};
use sibling_dns::{DnsSnapshot, DomainId, SnapshotDelta, SnapshotFile};
use sibling_service::{IngestSink, LiveWindow, QueryPlanner};
use sibling_worldgen::World;

/// Scores the cached 24-month window once and publishes it — what
/// `sibling-cli serve` does at startup.
fn build_planner() -> QueryPlanner {
    let months = 24i32;
    let world = low_churn_world(2024);
    let day0 = world.config.end;
    let from = day0.add_months(-(months - 1));
    let archive = world.rib_archive();
    let snaps: Vec<Arc<SnapshotFile>> =
        cached_snapshot_window("low-churn-small-2024", &world, from, day0);
    let mut engine = DetectEngine::default();
    let run = engine
        .run_window(from, day0, &archive, |d| {
            snaps[d.months_since(&from).max(0) as usize].clone()
        })
        .expect("window scores");
    QueryPlanner::new(WindowQueryIndex::publish(&run).expect("non-empty window"))
}

/// Pre-rendered request lines per family, sampled from the resident
/// window itself so every query is shaped like production traffic
/// (existing prefixes, in-window months, a sprinkle of misses).
fn query_corpus(planner: &QueryPlanner) -> (Vec<String>, Vec<String>, Vec<String>, Vec<String>) {
    let index = planner.index();
    let (first, last) = index.bounds();
    let mut point = Vec::new();
    let mut partners = Vec::new();
    let mut history = Vec::new();
    for &month in index.months() {
        let view = index.month(month).expect("loaded month");
        let pairs = view.set().as_slice();
        let stride = (pairs.len() / 24).max(1);
        for pair in pairs.iter().step_by(stride) {
            point.push(format!("siblings {} {} {month}", pair.v4, pair.v6));
            // A guaranteed miss: the documentation prefix never appears
            // in generated worlds.
            point.push(format!("siblings {} 2001:db8::/48 {month}", pair.v4));
            partners.push(format!("partners {} {month} 5", pair.v4));
            partners.push(format!("partners {} {month} 3", pair.v6));
            history.push(format!("pair {} {} {first}..{last}", pair.v4, pair.v6));
        }
    }
    // The mixed stream interleaves the three families round-robin with
    // an occasional aggregate query, approximating a live mix.
    let mut mixed = Vec::new();
    let longest = point.len().max(partners.len()).max(history.len());
    for i in 0..longest {
        mixed.push(point[i % point.len()].clone());
        mixed.push(partners[i % partners.len()].clone());
        mixed.push(history[i % history.len()].clone());
        if i % 16 == 0 {
            mixed.push(format!(
                "stats {}",
                index.months()[i % index.months().len()]
            ));
        }
    }
    (point, partners, history, mixed)
}

/// One reader's measured throughput: `total` queries round-robined over
/// `lines`, answered into one reused buffer.
fn measure_qps(planner: &QueryPlanner, lines: &[String], total: usize) -> f64 {
    let mut out = String::new();
    let start = Instant::now();
    for i in 0..total {
        planner.answer_line(&lines[i % lines.len()], &mut out);
        black_box(out.len());
    }
    total as f64 / start.elapsed().as_secs_f64()
}

fn bench_query_throughput(c: &mut Criterion) {
    // The qps gate doubles as the failpoint zero-overhead check: the
    // default build compiles every site to an inlined no-op and cannot
    // have anything configured, so the bar below is measured on the
    // clean hot path. A `--features failpoints` bench run still passes
    // as long as no schedule is armed.
    assert!(
        !sibling_failpoint::armed(),
        "failpoints armed during the throughput gate"
    );
    let planner = build_planner();
    let index = planner.index();
    println!(
        "[serve] window resident: {} months, {} pairs",
        index.months().len(),
        index.total_pairs()
    );
    let (point, partners, history, mixed) = query_corpus(&planner);
    println!(
        "[serve] corpus: {} point, {} partners, {} history, {} mixed",
        point.len(),
        partners.len(),
        history.len(),
        mixed.len()
    );

    let mut group = c.benchmark_group("query_throughput");
    for (name, lines) in [
        ("point", &point),
        ("partners", &partners),
        ("history", &history),
        ("mixed", &mixed),
    ] {
        let mut out = String::new();
        let mut i = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                planner.answer_line(&lines[i % lines.len()], &mut out);
                i += 1;
                black_box(out.len())
            })
        });
    }
    group.finish();

    // The ≥100k qps gate. Single-reader throughput is measured over a
    // long mixed run; the aggregate is (a) the scaling argument
    // single × available_parallelism — readers share an immutable index
    // with zero locks, so they do not contend — and (b) actually
    // measured with one planner clone per core. Either clearing the bar
    // passes; on the 1-core build container both are ~equal and the
    // single reader must clear it alone.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let total = 200_000usize;
    let single = measure_qps(&planner, &mixed, total);
    let scaled = single * cores as f64;
    let aggregate = {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..cores {
                let planner = planner.clone();
                let mixed = &mixed;
                scope.spawn(move || {
                    let mut out = String::new();
                    for i in 0..total {
                        planner.answer_line(&mixed[i % mixed.len()], &mut out);
                        black_box(out.len());
                    }
                });
            }
        });
        (total * cores) as f64 / start.elapsed().as_secs_f64()
    };
    println!(
        "[serve] single reader {:.0} qps; × {cores} core(s) = {:.0} qps scaled; {:.0} qps measured aggregate",
        single, scaled, aggregate
    );
    c.record_value("query_throughput/available_parallelism", cores as u64);
    c.record_value("query_throughput/single_reader_qps", single as u64);
    c.record_value("query_throughput/scaled_qps", scaled as u64);
    c.record_value("query_throughput/aggregate_qps_measured", aggregate as u64);
    assert!(
        scaled.max(aggregate) >= 100_000.0,
        "query throughput below the 100k qps bar: single {single:.0} qps, \
         scaled {scaled:.0} qps, aggregate {aggregate:.0} qps"
    );
}

/// A live window over the last `months` months of the cached low-churn
/// window, journaling to `journal`, with a planner reading it and the
/// delta pair it ingests: a same-month retarget adding one synthetic
/// domain to the tail snapshot, and its inverse — the steady-state
/// trickle a live feed applies between monthly appends. Alternating
/// them keeps every ingest valid forever.
fn live_window(
    world: &World,
    months: i32,
    journal: &Path,
) -> (Box<dyn IngestSink>, QueryPlanner, [SnapshotDelta; 2]) {
    let day0 = world.config.end;
    let from = day0.add_months(-(months - 1));
    let archive = world.rib_archive();
    let snaps: Vec<Arc<SnapshotFile>> =
        cached_snapshot_window("low-churn-small-2024", world, from, day0);
    let mut engine = DetectEngine::default();
    let run = engine
        .run_window(from, day0, &archive, |d| {
            snaps[d.months_since(&from).max(0) as usize].clone()
        })
        .expect("window scores");
    let tail = Arc::new(DnsSnapshot::materialize(&*snaps[(months - 1) as usize]));
    let (epoch, index) = EpochState::seed(
        EngineConfig::default(),
        archive,
        run.results,
        Arc::clone(&tail),
    )
    .expect("window seeds");
    let (live, _) = LiveWindow::recover(epoch, index, journal, None).expect("live window recovers");
    let planner = QueryPlanner::live(live.published());
    let mut variant = (*tail).clone();
    variant.merge(
        DomainId(u32::MAX - 1),
        vec![u32::from(std::net::Ipv4Addr::new(203, 0, 200, 1))],
        vec![u128::from(std::net::Ipv6Addr::new(
            0x2600, 1, 0, 0, 0, 0, 0, 0xbeef,
        ))],
    );
    let deltas = [
        SnapshotDelta::diff(&tail, &variant),
        SnapshotDelta::diff(&variant, &tail),
    ];
    (Box::new(live), planner, deltas)
}

/// The measured run: one writer streaming 100 alternating `deltas` into
/// `sink` while one reader hammers `planner` with the mixed corpus.
/// Returns deltas/sec, the reader's qps during ingest, and the last
/// published epoch.
fn measure_ingest(
    sink: &mut dyn IngestSink,
    planner: &QueryPlanner,
    deltas: &[SnapshotDelta; 2],
) -> (f64, f64, u64) {
    let (_, _, _, mixed) = query_corpus(planner);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let total = 100usize;
    std::thread::scope(|scope| {
        let reader = {
            let planner = planner.clone();
            let mixed = &mixed;
            let stop = &stop;
            scope.spawn(move || {
                let mut out = String::new();
                let mut n = 0u64;
                let start = Instant::now();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    planner.answer_line(&mixed[n as usize % mixed.len()], &mut out);
                    black_box(out.len());
                    n += 1;
                }
                n as f64 / start.elapsed().as_secs_f64()
            })
        };
        let start = Instant::now();
        let mut epoch = 0;
        for i in 0..total {
            epoch = sink.ingest(&deltas[i % 2]).expect("retarget applies");
        }
        let dps = total as f64 / start.elapsed().as_secs_f64();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (dps, reader.join().expect("reader thread"), epoch)
    })
}

/// `ingest_throughput`: the live window's write path, measured — deltas
/// journaled (fsync'd), applied and epoch-published over the same
/// resident 24-month window, while a concurrent reader sustains queries
/// against the published index. Records deltas/sec applied and the
/// reader's qps *during* ingest into `target/bench.json` — the epoch
/// swap is the only writer/reader touch point, so reads should barely
/// notice the writer. The same stream over a 6-month window of the same
/// world is recorded as `deltas_per_sec_6m`: an ingest costs what
/// changed, so the two rates should match.
fn bench_ingest_throughput(c: &mut Criterion) {
    let world = low_churn_world(2024);
    let dir = std::env::temp_dir().join(format!("sibling-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (mut live, planner, deltas) = live_window(&world, 24, &dir.join("ingest.sibjrnl"));

    let mut group = c.benchmark_group("ingest_throughput");
    let mut flip = false;
    group.bench_function("small_retarget", |b| {
        b.iter(|| {
            let delta = &deltas[usize::from(flip)];
            flip = !flip;
            black_box(live.ingest(delta).expect("retarget applies"))
        })
    });
    group.finish();

    let (dps, reader_qps, epoch) = measure_ingest(&mut *live, &planner, &deltas);
    println!(
        "[ingest] {dps:.0} deltas/sec applied+published; reader sustained {reader_qps:.0} qps \
         during ingest; final epoch {epoch}"
    );
    c.record_value("ingest_throughput/deltas_per_sec", dps as u64);
    c.record_value(
        "ingest_throughput/reader_qps_during_ingest",
        reader_qps as u64,
    );
    c.record_value("ingest_throughput/epochs_published", epoch);

    let (mut short, short_planner, short_deltas) =
        live_window(&world, 6, &dir.join("ingest-6m.sibjrnl"));
    let (dps_6m, _, _) = measure_ingest(&mut *short, &short_planner, &short_deltas);
    println!("[ingest] 6-month window: {dps_6m:.0} deltas/sec (24 months: {dps:.0})");
    c.record_value("ingest_throughput/deltas_per_sec_6m", dps_6m as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `replication_feed`: the primary's fan-out hot path, measured — hex
/// armoring + bounded retention on [`DeltaFeed::publish`] (once per
/// accepted ingest) and cursor-filtered batch collection on
/// `collect_since` (once per follower poll). Both run under the feed's
/// mutex, so their cost bounds how much a fleet of polling followers
/// can tax the write path. Records published deltas/sec and full-batch
/// collections/sec into `target/bench.json`.
fn bench_replication_feed(c: &mut Criterion) {
    use sibling_dns::{DnsSnapshot, DomainId, SnapshotDelta};
    use sibling_service::replicate::SUB_BATCH;
    use sibling_service::DeltaFeed;

    // A realistic steady-state delta: one domain retargeted within the
    // tail month — the same shape `ingest_throughput` streams.
    let date = "2024-01".parse().expect("month parses");
    let base = DnsSnapshot::new(date);
    let mut variant = base.clone();
    variant.merge(
        DomainId(7),
        vec![u32::from(std::net::Ipv4Addr::new(203, 0, 113, 9))],
        vec![u128::from(std::net::Ipv6Addr::new(
            0x2600, 1, 0, 0, 0, 0, 0, 0x7,
        ))],
    );
    let delta = SnapshotDelta::diff(&base, &variant);

    let mut group = c.benchmark_group("replication_feed");
    // Publish: encode + retain + evict, at full retention.
    let feed = DeltaFeed::new();
    let mut epoch = 0u64;
    group.bench_function("publish", |b| {
        b.iter(|| {
            epoch += 1;
            feed.publish(epoch, &delta);
            black_box(epoch)
        })
    });
    // A caught-up follower's poll: bounds check only, nothing copied.
    group.bench_function("collect_caught_up", |b| {
        b.iter(|| black_box(feed.collect_since(epoch).deltas.len()))
    });
    // A far-behind follower's poll: a full SUB_BATCH of armored lines.
    group.bench_function("collect_full_batch", |b| {
        b.iter(|| {
            let batch = feed.collect_since(0);
            assert_eq!(batch.deltas.len(), SUB_BATCH);
            black_box(batch.current)
        })
    });
    group.finish();

    let total = 50_000usize;
    let start = Instant::now();
    for _ in 0..total {
        epoch += 1;
        feed.publish(epoch, &delta);
    }
    let publish_per_sec = total as f64 / start.elapsed().as_secs_f64();
    let collects = 2_000usize;
    let start = Instant::now();
    for _ in 0..collects {
        black_box(feed.collect_since(0).deltas.len());
    }
    let collect_per_sec = collects as f64 / start.elapsed().as_secs_f64();
    println!(
        "[replication] {publish_per_sec:.0} publishes/sec at full retention; \
         {collect_per_sec:.0} full-batch collects/sec ({SUB_BATCH} deltas each)"
    );
    c.record_value("replication_feed/publish_per_sec", publish_per_sec as u64);
    c.record_value(
        "replication_feed/full_batch_collects_per_sec",
        collect_per_sec as u64,
    );
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_query_throughput, bench_ingest_throughput, bench_replication_feed
);
criterion_main!(benches);
