//! Chaos end-to-end suite: the stores and the serving tier under
//! injected faults. Compiled (and meaningful) only with the
//! `failpoints` feature — CI's chaos job runs
//! `cargo test --features failpoints --test chaos_e2e`.
//!
//! The contracts under test:
//!
//! - **Crash-consistent stores.** A torn snapshot write (injected
//!   mid-`write_all`) leaves only an orphaned temp file the next open
//!   sweeps; a failed rename leaves the store absent, never half
//!   visible; a short read at open quarantines the month aside and the
//!   regenerated month round-trips bit-identically. A journal reset whose
//!   rename fails keeps every record, and its temp file is swept.
//! - **Overload-resilient daemon.** A server under a failpoint schedule
//!   (accept errors, write errors, injected answer panics) keeps
//!   serving: every answer a retrying client completes is bit-identical
//!   to an independent recompute, every failure is a typed `busy` /
//!   `timeout` response or a retryable transport error, the process
//!   never aborts, and a graceful drain still lands after the chaos.
//!
//! Failpoint sites are process-global, so every test serialises on one
//! lock and each test configures only its own sites.

#![cfg(feature = "failpoints")]

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sibling_core::{BatchRun, DetectEngine, EngineConfig, EpochState, WindowQueryIndex};
use sibling_dns::{
    encode_snapshot, DnsSnapshot, IngestJournal, LoadMode, SnapshotDelta, SnapshotStore, StoreError,
};
use sibling_executor::ThreadPool;
use sibling_failpoint as failpoint;
use sibling_net_types::MonthDate;
use sibling_service::{
    Client, Endpoint, IngestSink, LiveWindow, QueryPlanner, Response, RetryPolicy, ServeOptions,
    Server,
};
use sibling_store::WorldStore;
use sibling_worldgen::{World, WorldConfig};

/// Failpoint sites are keyed by fixed product names in a process-global
/// registry; concurrent tests would race each other's hit accounting.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in another test poisons the lock; the registry
    // itself is still usable.
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A unique scratch directory per test (removed best-effort on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sibchaos-{}-{label}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Files in `dir` whose name satisfies `pred`.
fn files_matching(dir: &std::path::Path, pred: impl Fn(&str) -> bool) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| pred(name))
        .collect();
    out.sort();
    out
}

#[test]
fn torn_snapshot_write_is_swept_and_the_month_recovers() {
    let _guard = chaos_guard();
    let scratch = Scratch::new("torn-write");
    let world = World::generate(WorldConfig::test_tiny(13));
    let date = world.config.end;
    let store = SnapshotStore::create(&scratch.0).unwrap();

    // Tear the write: 64 bytes of the image land in the temp file, then
    // the injected error fires — the crash window between temp-file
    // creation and rename.
    failpoint::configure("snapshot-store::write", "once*truncate(64)").unwrap();
    let err = store.write(&world.snapshot(date)).unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "typed failure: {err}");
    failpoint::clear("snapshot-store::write");

    // Only the hidden temp file exists; the month is not visible.
    assert_eq!(
        files_matching(&scratch.0, |n| n.starts_with(".snap-")).len(),
        1,
        "torn write leaves its temp file"
    );
    assert!(!store.contains(date));

    // The next open sweeps the orphan; the month reads as missing, not
    // as garbage.
    let store = SnapshotStore::open(&scratch.0).unwrap();
    assert!(files_matching(&scratch.0, |n| n.starts_with(".snap-")).is_empty());
    assert!(matches!(
        store.load(date).unwrap_err(),
        StoreError::Missing(_)
    ));

    // Recovery: a clean rewrite produces exactly the bytes a never-torn
    // export would have.
    let path = store.write(&world.snapshot(date)).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        encode_snapshot(&world.snapshot(date)).unwrap(),
        "recovered file is bit-identical to a clean export"
    );
    assert_eq!(store.load(date).unwrap().date(), date);
}

#[test]
fn failed_world_rename_leaves_the_store_absent_then_recovers() {
    let _guard = chaos_guard();
    let scratch = Scratch::new("world-rename");
    let world = World::generate(WorldConfig::test_tiny(11));
    let fingerprint = world.config.fingerprint();
    let write = |world: &World| {
        WorldStore::write(
            &scratch.0,
            fingerprint,
            &world.rib_archive(),
            world.as_org(),
            world.asdb(),
            world.hg_cdn(),
        )
    };

    failpoint::configure("world-store::rename", "once*return").unwrap();
    let err = write(&world).unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "typed failure: {err}");
    failpoint::clear("world-store::rename");

    // Atomicity: the failed publish is invisible — no world file, only
    // the temp residue, which the next open sweeps.
    assert!(!WorldStore::exists(&scratch.0));
    assert_eq!(
        files_matching(&scratch.0, |n| n.ends_with(".sibworld.tmp")).len(),
        1
    );

    let path = write(&world).unwrap();
    assert!(path.is_file());
    let stored =
        WorldStore::open_quarantining(&scratch.0, Some(fingerprint), LoadMode::Mmap).unwrap();
    assert!(stored.byte_len() > 0);
    assert!(files_matching(&scratch.0, |n| n.ends_with(".sibworld.tmp")).is_empty());
}

#[test]
fn short_read_at_open_quarantines_and_the_month_regenerates() {
    let _guard = chaos_guard();
    let scratch = Scratch::new("short-read");
    let world = World::generate(WorldConfig::test_tiny(17));
    let date = world.config.end;
    let store = SnapshotStore::create(&scratch.0).unwrap();
    store.write(&world.snapshot(date)).unwrap();

    // A 16-byte read where the header should be: validation sees a
    // truncated image and the quarantining loader moves the month aside.
    failpoint::configure("snapshot-store::open", "once*truncate(16)").unwrap();
    let err = store.load_quarantining(date, LoadMode::Mmap).unwrap_err();
    failpoint::clear("snapshot-store::open");
    let StoreError::Quarantined { path, reason } = err else {
        panic!("expected quarantine, got: {err}");
    };
    assert!(matches!(*reason, StoreError::Truncated { .. }), "{reason}");
    assert!(path.to_string_lossy().ends_with(".corrupt"));
    assert!(path.is_file(), "quarantined file kept for forensics");
    assert!(!store.contains(date), "month slot left clean");

    // Regeneration fills the slot; the reload is clean and dated right.
    store.write(&world.snapshot(date)).unwrap();
    assert_eq!(
        store
            .load_quarantining(date, LoadMode::Mmap)
            .unwrap()
            .date(),
        date
    );
}

/// Scores a window from scratch — run twice, it is the daemon's startup
/// work and the independent recompute reference.
fn score(world: &World, from: MonthDate, to: MonthDate) -> BatchRun {
    let archive = world.rib_archive();
    let mut engine = DetectEngine::default();
    engine
        .run_window(from, to, &archive, |d| Arc::new(world.snapshot(d)))
        .expect("window covered by the world's archive")
}

/// Seeds a live-window writer over `from..=to` exactly as
/// `serve --ingest` does at startup: score the offline window, then hand
/// the results and the tail snapshot to [`EpochState::seed`].
fn live_seed(
    world: &World,
    from: MonthDate,
    to: MonthDate,
) -> (EpochState<Arc<sibling_bgp::Rib>>, Arc<WindowQueryIndex>) {
    let run = score(world, from, to);
    EpochState::seed(
        EngineConfig::default(),
        world.rib_archive(),
        run.results,
        Arc::new(world.snapshot(to)),
    )
    .expect("offline window seeds")
}

/// The read surface used for bit-identity checks: every month's `stats`
/// row, exactly what `query stats` and `batch` print.
fn stat_rows(index: &WindowQueryIndex) -> Vec<String> {
    index.stats().map(|s| s.batch_row()).collect()
}

#[test]
fn crash_between_journal_append_and_publish_recovers_the_delta() {
    let _guard = chaos_guard();
    let scratch = Scratch::new("ingest-publish-crash");
    let journal = scratch.0.join("ingest.sibjrnl");
    let world = World::generate(WorldConfig::test_tiny(23));
    let to = world.config.end;
    let mid = to.add_months(-1);
    let from = to.add_months(-2);

    let (epoch, index) = live_seed(&world, from, mid);
    let (mut live, report) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
    assert_eq!(report.replayed, 0);

    // The crash window the journal exists for: the delta is fsync'd to
    // the journal, then the writer dies before publication.
    let delta = SnapshotDelta::diff(&world.snapshot(mid), &world.snapshot(to));
    failpoint::configure("ingest::publish", "once*panic(crash before publish)").unwrap();
    let err = live.ingest(&delta).unwrap_err();
    failpoint::clear("ingest::publish");
    assert!(err.contains("panic"), "typed rollback error: {err}");

    // Rollback: readers never saw the half-applied month…
    assert_eq!(live.published().epoch(), 1);
    assert_eq!(live.tail_date(), mid);
    // …but the accepted record is already durable.
    assert!(live.journal_backlog() > 0, "journal keeps the record");

    // "Restart" the daemon: the same startup path replays the journal
    // and the recovered window is bit-identical to an offline recompute
    // of the full range.
    drop(live);
    let (epoch, index) = live_seed(&world, from, mid);
    let (live, report) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
    assert_eq!(
        (report.replayed, report.skipped, report.discarded_bytes),
        (1, 0, 0)
    );
    assert_eq!(live.tail_date(), to);
    let batch = WindowQueryIndex::publish(&score(&world, from, to)).expect("non-empty window");
    assert_eq!(
        stat_rows(live.published().pin().index()),
        stat_rows(&batch),
        "recovered window diverged from the offline recompute"
    );
}

#[test]
fn torn_journal_tail_is_discarded_and_the_durable_prefix_replays() {
    let _guard = chaos_guard();
    let scratch = Scratch::new("ingest-torn-tail");
    let journal = scratch.0.join("ingest.sibjrnl");
    let world = World::generate(WorldConfig::test_tiny(29));
    let to = world.config.end;
    let mid = to.add_months(-1);
    let from = to.add_months(-2);

    // Two clean ingests land in the journal.
    let (epoch, index) = live_seed(&world, from, from);
    let (mut live, _) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
    live.ingest(&SnapshotDelta::diff(
        &world.snapshot(from),
        &world.snapshot(mid),
    ))
    .unwrap();
    live.ingest(&SnapshotDelta::diff(
        &world.snapshot(mid),
        &world.snapshot(to),
    ))
    .unwrap();
    assert_eq!(live.published().epoch(), 3);
    drop(live);

    // A torn third record: length prefix and half a payload, no valid
    // checksum — what a crash mid-append leaves behind.
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    file.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x42, 0x42, 0x42])
        .unwrap();
    drop(file);

    // Replay keeps every intact record and discards exactly the tear.
    let (epoch, index) = live_seed(&world, from, from);
    let (live, report) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
    assert_eq!((report.replayed, report.skipped), (2, 0));
    assert_eq!(report.discarded_bytes, 7, "the torn bytes, nothing else");
    assert_eq!(live.tail_date(), to);
    let batch = WindowQueryIndex::publish(&score(&world, from, to)).expect("non-empty window");
    assert_eq!(stat_rows(live.published().pin().index()), stat_rows(&batch));
}

#[test]
fn crash_during_compaction_keeps_the_journal_as_the_durability() {
    let _guard = chaos_guard();
    let scratch = Scratch::new("ingest-compact-crash");
    let journal = scratch.0.join("ingest.sibjrnl");
    let store_dir = scratch.0.join("store");
    let world = World::generate(WorldConfig::test_tiny(31));
    let to = world.config.end;
    let mid = to.add_months(-1);
    let from = to.add_months(-2);

    let store = SnapshotStore::create(&store_dir).unwrap();
    let (epoch, index) = live_seed(&world, from, mid);
    let (mut live, _) = LiveWindow::recover(epoch, index, &journal, Some(store)).unwrap();

    // The append publishes (readers advance), then the compaction write
    // into the snapshot store tears. Ingest still succeeds: the journal
    // is not reset, so it stays the durability for the new month.
    failpoint::configure("snapshot-store::write", "once*truncate(64)").unwrap();
    let epoch_now = live
        .ingest(&SnapshotDelta::diff(
            &world.snapshot(mid),
            &world.snapshot(to),
        ))
        .unwrap();
    failpoint::clear("snapshot-store::write");
    assert_eq!(epoch_now, 2);
    assert_eq!(live.tail_date(), to);
    assert!(
        live.journal_backlog() > 0,
        "failed compaction must not reset the journal"
    );

    // Restart: replay re-applies the month, recovery's own compaction
    // retries the store write, and only then does the journal empty.
    drop(live);
    let (epoch, index) = live_seed(&world, from, mid);
    let store = SnapshotStore::open(&store_dir).unwrap();
    let (live, report) = LiveWindow::recover(epoch, index, &journal, Some(store)).unwrap();
    assert_eq!(report.replayed, 1);
    assert_eq!(live.tail_date(), to);
    assert_eq!(
        live.journal_backlog(),
        0,
        "recovery compacted and reset the journal"
    );
    assert!(SnapshotStore::open(&store_dir).unwrap().contains(to));
    let batch = WindowQueryIndex::publish(&score(&world, from, to)).expect("non-empty window");
    assert_eq!(stat_rows(live.published().pin().index()), stat_rows(&batch));
}

/// Scores `snaps` (consecutive months) with a fresh engine: the batch
/// recompute reference, and the startup scoring of a window whose
/// months come from somewhere other than the world.
fn score_snaps(world: &World, snaps: &[Arc<DnsSnapshot>]) -> BatchRun {
    let from = snaps[0].date();
    let to = snaps.last().unwrap().date();
    DetectEngine::default()
        .run_window(from, to, &world.rib_archive(), |d| {
            Arc::clone(&snaps[d.months_since(&from) as usize])
        })
        .expect("window covered by the world's archive")
}

#[test]
fn failed_compaction_keeps_its_months_until_a_later_compaction_stores_them() {
    let _guard = chaos_guard();
    let scratch = Scratch::new("compaction-gap");
    let journal = scratch.0.join("ingest.sibjrnl");
    let store_dir = scratch.0.join("store");
    let world = World::generate(WorldConfig::test_tiny(41));
    let m: Vec<MonthDate> = (0..4).map(|k| world.config.end.add_months(k - 3)).collect();
    let snap = |k: usize| Arc::new(world.snapshot(m[k]));

    // m0 is in the store; the live window starts there.
    let store = SnapshotStore::create(&store_dir).unwrap();
    store.write(&*snap(0)).unwrap();
    let (epoch, index) = live_seed(&world, m[0], m[0]);
    let (mut live, _) = LiveWindow::recover(epoch, index, &journal, Some(store)).unwrap();

    // Append m1 (compacts), then retarget m1 with half of m1→m2's churn.
    live.ingest(&SnapshotDelta::diff(&snap(0), &snap(1)))
        .unwrap();
    let churn = SnapshotDelta::diff(&snap(1), &snap(2));
    let half =
        SnapshotDelta::from_changes(m[1], m[1], churn.changes()[..churn.churn() / 2].to_vec());
    assert!(!half.is_empty());
    let m1_retargeted = Arc::new(half.apply(&snap(1)));
    live.ingest(&half).unwrap();

    // Append m2 while the store refuses the first write: the outgoing,
    // retargeted m1 is not stored and the journal keeps its records.
    failpoint::configure("snapshot-store::write", "once*return").unwrap();
    live.ingest(&SnapshotDelta::diff(&m1_retargeted, &snap(2)))
        .unwrap();
    failpoint::clear("snapshot-store::write");
    assert!(
        live.journal_backlog() > 0,
        "failed compaction kept the journal"
    );

    // Append m3: this compaction must also store the retargeted m1
    // before it may reset the journal.
    live.ingest(&SnapshotDelta::diff(&snap(2), &snap(3)))
        .unwrap();
    assert_eq!(live.journal_backlog(), 0);
    drop(live);
    let store = SnapshotStore::open(&store_dir).unwrap();
    let stored_m1 = DnsSnapshot::materialize(&*store.load(m[1]).unwrap());
    assert!(stored_m1 == *m1_retargeted, "the retargets of m1 were lost");

    // Restart as `serve --ingest --store` does: seed the window from the
    // store's months, then recover the journal. It serves exactly the
    // acknowledged history.
    let stored: Vec<Arc<DnsSnapshot>> = m
        .iter()
        .map(|&d| Arc::new(DnsSnapshot::materialize(&*store.load(d).unwrap())))
        .collect();
    let (epoch, index) = EpochState::seed(
        EngineConfig::default(),
        world.rib_archive(),
        score_snaps(&world, &stored).results,
        Arc::clone(&stored[3]),
    )
    .unwrap();
    let (live, _) = LiveWindow::recover(epoch, index, &journal, Some(store)).unwrap();
    let acked = [snap(0), m1_retargeted, snap(2), snap(3)];
    let batch = WindowQueryIndex::publish(&score_snaps(&world, &acked)).unwrap();
    assert_eq!(stat_rows(live.published().pin().index()), stat_rows(&batch));
}

#[test]
fn failed_journal_reset_keeps_every_record_and_its_temp_file_is_swept() {
    let _guard = chaos_guard();
    let scratch = Scratch::new("journal-reset");
    let path = scratch.0.join("ingest.sibjrnl");
    let world = World::generate(WorldConfig::test_tiny(37));
    let months: Vec<MonthDate> = (0..4).map(|k| world.config.end.add_months(k - 3)).collect();
    let deltas: Vec<SnapshotDelta> = months
        .windows(2)
        .map(|w| SnapshotDelta::diff(&world.snapshot(w[0]), &world.snapshot(w[1])))
        .collect();
    let is_tmp = |n: &str| n.ends_with(".tmp");

    let (mut journal, _) = IngestJournal::open(&path).unwrap();
    journal.append(&deltas[0]).unwrap();
    journal.append(&deltas[1]).unwrap();

    // The compaction reset dies between its fsync'd temp header and the
    // rename over the journal.
    failpoint::configure("journal-reset::rename", "once*return").unwrap();
    let err = journal.reset().unwrap_err();
    failpoint::clear("journal-reset::rename");
    assert!(matches!(err, StoreError::Io(_)), "typed failure: {err}");
    assert_eq!(files_matching(&scratch.0, is_tmp).len(), 1, "temp left");
    assert_eq!((journal.record_count(), journal.last_seq()), (2, 2));

    // The journal is intact: an append after the failure lands.
    journal.append(&deltas[2]).unwrap();
    drop(journal);

    // Reopen: the temp file is swept and every record replays, its
    // sequence numbers untouched by the failed reset.
    let (mut journal, report) = IngestJournal::open(&path).unwrap();
    assert!(files_matching(&scratch.0, is_tmp).is_empty());
    assert_eq!(report.deltas, deltas);
    assert_eq!((report.base_seq, journal.last_seq()), (0, 3));

    // The retried reset succeeds and keeps the count.
    journal.reset().unwrap();
    assert_eq!((journal.record_count(), journal.last_seq()), (0, 3));
    drop(journal);
    let (journal, report) = IngestJournal::open(&path).unwrap();
    assert!(report.deltas.is_empty());
    assert_eq!((report.base_seq, journal.last_seq()), (3, 3));
}

#[test]
fn daemon_under_chaos_answers_bit_identically_and_drains() {
    let _guard = chaos_guard();
    let world = World::generate(WorldConfig::test_tiny(7));
    let to = world.config.end;
    let from = to.add_months(-2);

    // Serving side.
    let run = score(&world, from, to);
    let planner = QueryPlanner::new(WindowQueryIndex::publish(&run).expect("non-empty window"));
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let endpoint = server.endpoint().to_string();
    let options = ServeOptions {
        max_conns: 4,
        request_deadline: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(3),
        shed_expensive_at: 0,
    };
    let handle = server
        .start_with(planner, ThreadPool::with_threads(1), 3, options)
        .expect("server starts");

    // Reference side: an independent recompute answers every request
    // through a local planner; the data lines are the expectation.
    let reference = QueryPlanner::new(
        WindowQueryIndex::publish(&score(&world, from, to)).expect("non-empty window"),
    );
    let mut requests: Vec<String> = vec!["ping".into(), "months".into(), "stats".into()];
    for (month, set) in &run.results {
        requests.push(format!("stats {month}"));
        let pairs: Vec<_> = set.iter().collect();
        assert!(!pairs.is_empty(), "synthetic world detects pairs");
        for pair in pairs.iter().step_by((pairs.len() / 4).max(1)) {
            requests.push(format!("siblings {} {} {month}", pair.v4, pair.v6));
            requests.push(format!("partners {} {month} 3", pair.v4));
            requests.push(format!("pair {} {} {from}..{to}", pair.v4, pair.v6));
        }
    }
    let expected: Vec<(String, Vec<String>)> = requests
        .into_iter()
        .map(|request| {
            let mut out = String::new();
            reference.answer_line(&request, &mut out);
            let mut lines = out.lines();
            let header = lines.next().unwrap();
            assert!(header.starts_with("ok "), "{request:?} -> {header:?}");
            (request, lines.map(str::to_string).collect())
        })
        .collect();
    let expected = Arc::new(expected);

    // The chaos schedule: every 4th accept check errors (readers back
    // off and re-poll), every 7th response write fails (the connection
    // dies mid-use), every 17th request line panics in the answer path
    // (caught per-connection, never aborting the process).
    failpoint::configure("service::accept", "1in4*return").unwrap();
    failpoint::configure("service::write", "1in7*return").unwrap();
    failpoint::configure("service::answer", "1in17*panic(injected answer panic)").unwrap();

    let clients: Vec<_> = (0..3)
        .map(|id| {
            let endpoint = endpoint.clone();
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    attempts: 8,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(50),
                    seed: 0xC4A05 + id as u64,
                };
                let mut client = Client::connect_with(&endpoint, &policy).expect("initial dial");
                let mut completed = 0usize;
                for (request, want) in expected.iter() {
                    // Bounded outer loop on top of the bounded retries:
                    // nothing in this test can wait forever.
                    let mut done = false;
                    for round in 0..10 {
                        match client.retry_roundtrip(request, &policy) {
                            Ok(Response::Ok(lines)) => {
                                assert_eq!(
                                    &lines, want,
                                    "client {id}: {request:?} answered differently under chaos"
                                );
                                completed += 1;
                                done = true;
                                break;
                            }
                            // The only acceptable protocol failures are
                            // the typed overload errors.
                            Ok(Response::Err { code, message }) => {
                                assert!(
                                    code == "busy" || code == "timeout",
                                    "client {id}: {request:?} -> err {code} {message}"
                                );
                            }
                            // Transport failures must be the retryable
                            // kind (dead connection, refused dial) —
                            // anything else is a real bug.
                            Err(e) => {
                                assert!(
                                    RetryPolicy::transient(&e),
                                    "client {id}: {request:?} -> non-transient {e}"
                                );
                                if let Ok(fresh) = Client::connect_with(&endpoint, &policy) {
                                    client = fresh;
                                }
                            }
                        }
                        assert!(round < 9, "client {id}: {request:?} never completed");
                    }
                    assert!(done);
                }
                completed
            })
        })
        .collect();
    let completed: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(
        completed,
        expected.len() * 3,
        "every request eventually completed with a bit-identical answer"
    );

    // The schedule actually bit: injected write failures and answer
    // panics both fired (the request volume guarantees it), and the
    // caught panics are accounted without the process aborting.
    assert!(
        failpoint::fired("service::write") >= 1,
        "write faults fired"
    );
    assert!(
        failpoint::fired("service::answer") >= 1,
        "answer panics fired"
    );
    failpoint::clear("service::accept");
    failpoint::clear("service::write");
    failpoint::clear("service::answer");
    // The counters are bumped by the reader threads moments after the
    // client observes the effect (a caught panic closes the connection
    // before the panic is accounted), so give them a beat to settle.
    let settle = std::time::Instant::now() + Duration::from_secs(2);
    while (handle.stats().panics < 1 || (handle.stats().served as usize) < completed)
        && std::time::Instant::now() < settle
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = handle.stats();
    assert!(stats.panics >= 1, "panics were caught and counted: {stats}");
    assert!(stats.served as usize >= completed, "{stats}");

    // Calm after the storm: a fresh connection answers cleanly, then the
    // graceful drain completes inside its deadline.
    let mut client = Client::connect(&endpoint).expect("post-chaos dial");
    match client.roundtrip("ping").expect("post-chaos roundtrip") {
        Response::Ok(lines) => assert_eq!(lines, vec!["pong".to_string()]),
        Response::Err { code, message } => panic!("post-chaos ping failed: {code} {message}"),
    }
    drop(client);
    let report = handle.drain();
    assert!(report.drained, "drain completed: {}", report.stats);
}

/// The replication availability contract end to end: a follower tailing
/// a primary's feed keeps serving its pinned epoch bit-identically
/// after the primary dies mid-stream, then reconnects, catches up, and
/// applies nothing twice — all three `replication::*` failpoint sites
/// fire along the way.
#[test]
#[cfg(unix)]
fn primary_killed_mid_stream_follower_serves_pinned_epoch_then_catches_up() {
    use sibling_service::{
        follow, DeltaFeed, FollowerOptions, HealthGauges, Request, ServerHandle,
    };
    use std::time::Instant;

    let _guard = chaos_guard();
    let scratch = Scratch::new("replication");
    let world = World::generate(WorldConfig::test_tiny(43));
    let to = world.config.end;
    let next = to.add_months(-1);
    let mid = to.add_months(-2);
    let from = to.add_months(-3);
    // A unix socket endpoint so the restarted primary can rebind the
    // *same* address the follower was told to tail.
    let sock = scratch.0.join("primary.sock");
    let primary_journal = scratch.0.join("primary.sibjrnl");

    // Boots (or re-boots) the primary on `sock`: bootstrap the offline
    // window, replay its journal into a fresh feed, serve.
    let start_primary = || -> (ServerHandle, String) {
        let _ = std::fs::remove_file(&sock);
        let feed = Arc::new(DeltaFeed::new());
        let (epoch, index) = live_seed(&world, from, mid);
        let (mut live, _) = LiveWindow::recover_replicating(
            epoch,
            index,
            &primary_journal,
            None,
            Some(Arc::clone(&feed)),
        )
        .expect("primary recovers");
        live.attach_gauges(HealthGauges::primary());
        let mut planner = QueryPlanner::live(live.published());
        planner.attach_feed(feed);
        let server = Server::bind(&Endpoint::Unix(sock.clone())).expect("bind unix");
        let endpoint = server.endpoint().to_string();
        let handle = server
            .start_live(
                planner,
                ThreadPool::with_threads(1),
                2,
                ServeOptions::default(),
                Box::new(live),
            )
            .expect("primary starts");
        (handle, endpoint)
    };
    let (primary_handle, primary_endpoint) = start_primary();

    // The follower: same bootstrap, its own journal, served over TCP.
    let follower_gauges = HealthGauges::follower();
    let (follower_epoch, follower_index) = live_seed(&world, from, mid);
    let (mut follower_live, _) = LiveWindow::recover(
        follower_epoch,
        follower_index,
        &scratch.0.join("follower.sibjrnl"),
        None,
    )
    .expect("follower recovers");
    follower_live.attach_gauges(Arc::clone(&follower_gauges));
    let mut follower_planner = QueryPlanner::live(follower_live.published());
    follower_planner.attach_gauges(Arc::clone(&follower_gauges));
    let follower_server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let follower_endpoint = follower_server.endpoint().to_string();
    let replication = follow(
        follower_live,
        &primary_endpoint,
        follower_gauges,
        FollowerOptions {
            poll_interval: Duration::from_millis(10),
            ..FollowerOptions::default()
        },
    )
    .expect("replication thread starts");
    let follower_handle = follower_server
        .start_with(
            follower_planner,
            ThreadPool::with_threads(1),
            2,
            ServeOptions::default(),
        )
        .expect("follower starts");

    let health_lines = |client: &mut Client| match client.roundtrip("health").expect("health") {
        Response::Ok(lines) => lines,
        Response::Err { code, message } => panic!("health failed: {code} {message}"),
    };
    let wait_follower_epoch = |client: &mut Client, want: &str| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let health = health_lines(client);
            if health.iter().any(|l| l == want) && health.iter().any(|l| l == "epoch-lag 0") {
                return health;
            }
            assert!(
                Instant::now() < deadline,
                "follower never reached {want:?}: {health:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    // Stream the first month; the follower applies it (epoch 2).
    let mut primary = Client::connect(&primary_endpoint).expect("connect primary");
    let mut follower = Client::connect(&follower_endpoint).expect("connect follower");
    let d1 = SnapshotDelta::diff(&world.snapshot(mid), &world.snapshot(next));
    match primary
        .roundtrip(&Request::Ingest(d1).to_string())
        .expect("ingest d1")
    {
        Response::Ok(lines) => assert_eq!(lines, vec!["2".to_string()]),
        Response::Err { code, message } => panic!("ingest d1: {code} {message}"),
    }
    wait_follower_epoch(&mut follower, "epoch 2");

    // Freeze the follower's feed polling deterministically (every recv
    // attempt fails), let any in-flight poll land, then stream the
    // second month and kill the primary mid-stream: the follower has
    // epoch 2, the primary journaled epoch 3, nothing was shipped.
    failpoint::configure("replication::recv", "always*return").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let d2 = SnapshotDelta::diff(&world.snapshot(next), &world.snapshot(to));
    match primary
        .roundtrip(&Request::Ingest(d2).to_string())
        .expect("ingest d2")
    {
        Response::Ok(lines) => assert_eq!(lines, vec!["3".to_string()]),
        Response::Err { code, message } => panic!("ingest d2: {code} {message}"),
    }
    drop(primary);
    drop(primary_handle); // the crash: no drain protocol, the socket just dies

    // The follower keeps serving its pinned epoch: every read verb
    // answers bit-identically to an offline recompute of exactly the
    // months it applied (from..=next, epoch 2).
    let pinned = score(&world, from, next);
    let reference =
        QueryPlanner::new(WindowQueryIndex::publish(&pinned).expect("non-empty window"));
    let mut requests: Vec<String> = vec!["months".into(), "stats".into()];
    for (month, set) in &pinned.results {
        requests.push(format!("stats {month}"));
        let pairs: Vec<_> = set.iter().collect();
        assert!(!pairs.is_empty(), "synthetic world detects pairs");
        for pair in pairs.iter().step_by((pairs.len() / 4).max(1)) {
            requests.push(format!("siblings {} {} {month}", pair.v4, pair.v6));
            requests.push(format!("partners {} {month} 3", pair.v4));
            requests.push(format!("pair {} {} {from}..{next}", pair.v4, pair.v6));
        }
    }
    for request in &requests {
        let mut out = String::new();
        reference.answer_line(request, &mut out);
        let mut want = out.lines();
        let header = want.next().unwrap();
        assert!(header.starts_with("ok "), "{request:?} -> {header:?}");
        let want: Vec<String> = want.map(str::to_string).collect();
        match follower.roundtrip(request).expect("follower roundtrip") {
            Response::Ok(lines) => assert_eq!(
                lines, want,
                "follower diverged from the pinned-epoch recompute on {request:?}"
            ),
            Response::Err { code, message } => {
                panic!("follower {request:?} failed: {code} {message}")
            }
        }
    }
    let health = health_lines(&mut follower);
    assert!(
        health.iter().any(|l| l == "epoch 2"),
        "pinned epoch: {health:?}"
    );

    // Restart the primary on the same socket: its journal replays both
    // deltas and reseeds the feed under their durable epochs. Arm the
    // remaining sites before unfreezing: the first apply attempt is
    // abandoned (and must not double-apply on retry), and feed answers
    // tear connections now and then.
    failpoint::configure("replication::apply", "once*return").unwrap();
    failpoint::configure("replication::send", "1in3*return").unwrap();
    let (primary_handle, _) = start_primary();
    // Read the freeze's accounting before clearing the site (clear
    // drops its counters too).
    let recv_fired = failpoint::fired("replication::recv");
    failpoint::clear("replication::recv");

    // The follower reconnects and converges: primary epoch, zero lag.
    let health = wait_follower_epoch(&mut follower, "epoch 3");
    // Idempotence, proven by the epoch counters: the follower's own
    // journal holds exactly the two deltas — the re-served feed (a
    // superset of what it already applied) and the abandoned first
    // apply attempt added nothing twice.
    assert!(
        health.iter().any(|l| l == "journal-records 2"),
        "exactly one journal record per delta: {health:?}"
    );
    // Both replicas now answer the full window identically, and it is
    // the offline recompute of from..=to.
    let full = WindowQueryIndex::publish(&score(&world, from, to)).expect("non-empty window");
    let mut primary = Client::connect(&primary_endpoint).expect("reconnect primary");
    for client in [&mut primary, &mut follower] {
        match client.roundtrip("stats").expect("stats") {
            Response::Ok(lines) => assert_eq!(lines, stat_rows(&full)),
            Response::Err { code, message } => panic!("stats failed: {code} {message}"),
        }
    }

    // Every replication site actually bit.
    assert!(recv_fired >= 1, "the freeze fired the recv site");
    assert_eq!(
        failpoint::fired("replication::apply"),
        1,
        "the apply site fired exactly once"
    );
    let send_deadline = Instant::now() + Duration::from_secs(10);
    while failpoint::fired("replication::send") < 1 && Instant::now() < send_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        failpoint::fired("replication::send") >= 1,
        "feed polling kept hitting the send site"
    );
    failpoint::clear("replication::send");
    failpoint::clear("replication::apply");

    replication.stop();
    drop(follower);
    drop(primary);
    drop(follower_handle);
    drop(primary_handle);
}
