//! The write half of a live daemon: the [`IngestSink`] the writer
//! thread drives, and [`LiveWindow`] — the durable implementation
//! combining the incremental [`EpochState`] with a write-ahead
//! [`IngestJournal`] and (optionally) snapshot-store compaction.
//!
//! # Durability protocol
//!
//! Every accepted delta follows the same order:
//!
//! 1. **Validate** — a malformed delta is rejected before anything
//!    durable happens, so every journal record replays cleanly.
//! 2. **Close** (appends only, with a store) — the committed tail, the
//!    month the append closes, is written to the snapshot store behind
//!    any queued months, then the journal is reset. Every record the
//!    reset drops has its effect in the store, because the append is
//!    not journaled yet. A failed write keeps the journal and queues
//!    the month; the next close writes every queued month before the
//!    tail, so the journal is reset only once every month it covers is
//!    stored.
//! 3. **Journal** — the delta is appended (checksummed, fsynced) to the
//!    write-ahead journal. From this point the delta survives a crash.
//! 4. **Apply** — [`EpochState::ingest`] patches the private generation
//!    in place (unless a failed close queued the tail, nothing else
//!    holds it, so it is not copied) and derives the next index. Any failure or panic here rolls back to
//!    the committed generation; the journaled record stays, and replay
//!    re-applies it at the next startup (so a crash between append and
//!    publish loses nothing).
//! 5. **Publish** — one [`PublishedWindow::swap`]: readers pinning the
//!    next request see the new epoch, in-flight requests finish on the
//!    one they pinned. A replication primary then publishes the delta
//!    to its feed.
//!
//! So the store holds the closed months and the journal the open one:
//! right after an append with a store, the store holds every month
//! before the tail and not the tail itself, and the journal holds
//! exactly the tail month's records — its append and any later
//! retargets. (A recovery compaction may store an earlier state of the
//! tail month; the journal's retargets supersede it.) A restart seeds
//! the window through the stored months and replays the rest. Epochs
//! count the journal's sequence numbers, which a reset never moves, so
//! the close changes no delta's epoch.
//!
//! The crash points of a close:
//!
//! - *After the store write, before the reset:* the journal still holds
//!   the closed month's records. A restart seeds the window through the
//!   stored month, skips its append and re-applies its retargets as
//!   no-ops.
//! - *After the reset, before the journal append:* the delta was never
//!   acknowledged. The store holds the committed tail and the journal
//!   is empty.
//! - *After the journal append:* replay re-applies the append, as for
//!   any journaled delta.
//!
//! [`LiveWindow::recover`] is the inverse: open the journal (discarding
//! a torn tail), re-apply every record the committed window does not
//! already contain — closing the tail before each append, but never
//! resetting the journal mid-way — publish once, and compact what
//! replay added.

use std::path::Path;
use std::sync::Arc;

use sibling_bgp::RibSource;
use sibling_core::{EpochState, PublishedWindow, WindowQueryIndex};
use sibling_dns::{DnsSnapshot, IngestJournal, SnapshotDelta, SnapshotStore};

use crate::replicate::{DeltaFeed, HealthGauges};

/// What the server's writer thread drives: apply one delta durably and
/// return the epoch it published. `Err` means the delta was rejected or
/// rolled back — the serving window is unchanged and the sink must stay
/// usable for the next delta.
pub trait IngestSink: Send {
    /// Applies `delta` end to end (validate, close, journal, apply,
    /// publish) and returns the new published epoch.
    fn ingest(&mut self, delta: &SnapshotDelta) -> Result<u64, String>;
}

/// What [`LiveWindow::recover`] found and did at startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverReport {
    /// Journal records re-applied: the open month's, and those of any
    /// month the store lacks.
    pub replayed: usize,
    /// Journal records whose effect the committed window already
    /// carried (a close stored their month before the crash) — skipped
    /// idempotently.
    pub skipped: usize,
    /// Bytes of torn tail record the journal discarded (a crash mid-
    /// append; the record never acked, so discarding loses nothing).
    pub discarded_bytes: u64,
}

/// The durable live window: epoch-published reads over a write-ahead
/// journaled ingest path.
pub struct LiveWindow<R: RibSource + Clone> {
    epoch: EpochState<R>,
    journal: IngestJournal,
    store: Option<SnapshotStore>,
    published: Arc<PublishedWindow>,
    /// The replication feed a primary publishes each accepted delta to
    /// — `None` everywhere else (static daemons, followers, tests).
    feed: Option<Arc<DeltaFeed>>,
    /// Serving gauges kept in sync with the journal's durability
    /// backlog, when a daemon reports them via `health`.
    gauges: Option<Arc<HealthGauges>>,
    /// Closed months whose store write failed, oldest first. The journal
    /// covers them until a later close or compaction stores them all
    /// and empties the queue (always empty without a store).
    unstored: Vec<Arc<DnsSnapshot>>,
}

impl<R: RibSource + Clone> std::fmt::Debug for LiveWindow<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveWindow")
            .field("tail", &self.epoch.tail_date())
            .field("epoch", &self.published.epoch())
            .field("journal", &self.journal.path())
            .field("compacts", &self.store.is_some())
            .finish_non_exhaustive()
    }
}

impl<R: RibSource + Clone> LiveWindow<R> {
    /// Opens (creating if absent) the journal at `journal_path`, replays
    /// every surviving record into `epoch`, publishes the recovered
    /// window once, and compacts what replay added. `epoch`/`index` come
    /// from [`EpochState::seed`] over the offline-built window.
    ///
    /// Replay is idempotent against every crash point of the ingest
    /// protocol (see the module docs): records whose months the window
    /// already carries are skipped, retargets of the tail month are
    /// re-applied (applying a retarget twice is a no-op), and appends
    /// extend the tail.
    ///
    /// The recovered window publishes at its *durable* epoch, `1 +`
    /// the journal's last sequence number ([`IngestJournal::last_seq`],
    /// which survives restarts and compactions) — so the epoch numbers
    /// replication cursors are keyed by never regress across a crash.
    pub fn recover(
        epoch: EpochState<R>,
        index: Arc<WindowQueryIndex>,
        journal_path: &Path,
        store: Option<SnapshotStore>,
    ) -> Result<(Self, RecoverReport), String> {
        Self::recover_replicating(epoch, index, journal_path, store, None)
    }

    /// [`LiveWindow::recover`] for a replication primary: every journal
    /// record is re-published into `feed` under its durable epoch
    /// (`base_seq + position + 2`), so followers resyncing after the
    /// restart find everything the journal still holds.
    pub fn recover_replicating(
        epoch: EpochState<R>,
        index: Arc<WindowQueryIndex>,
        journal_path: &Path,
        store: Option<SnapshotStore>,
        feed: Option<Arc<DeltaFeed>>,
    ) -> Result<(Self, RecoverReport), String> {
        let (journal, replay) = IngestJournal::open(journal_path)
            .map_err(|e| format!("ingest journal {}: {e}", journal_path.display()))?;
        let start_epoch = 1 + journal.last_seq();
        let mut live = Self {
            epoch,
            journal,
            store,
            published: Arc::new(PublishedWindow::new_at(start_epoch, index)),
            feed,
            gauges: None,
            unstored: Vec::new(),
        };
        if let Some(feed) = &live.feed {
            // Re-publish the surviving records under their durable
            // epochs — including ones replay will skip below: a
            // follower that already carries them skips them too.
            for (position, delta) in replay.deltas.iter().enumerate() {
                feed.publish(replay.base_seq + position as u64 + 2, delta);
            }
            feed.seed_epoch(start_epoch);
        }
        let mut report = RecoverReport {
            discarded_bytes: replay.discarded_bytes,
            ..RecoverReport::default()
        };
        let mut recovered = None;
        for delta in &replay.deltas {
            let tail = live.epoch.tail_date();
            // Skip records the committed window already carries: months
            // before the tail, and appends *onto* the tail (a close
            // wrote the month to the store before the crash).
            if delta.to_date() < tail || (delta.to_date() == tail && delta.from_date() < tail) {
                report.skipped += 1;
                continue;
            }
            // Close the tail before an append, as live ingest did, but
            // keep the journal: resetting it while later records still
            // wait to replay would un-journal them before they are
            // re-applied, losing acked deltas to a second crash. One
            // compaction happens below, after everything.
            if delta.to_date() > tail {
                live.close(false);
            }
            let index = live.apply(delta).map_err(|e| {
                format!(
                    "replaying journaled delta {}..{}: {e}",
                    delta.from_date(),
                    delta.to_date()
                )
            })?;
            recovered = Some(index);
            report.replayed += 1;
        }
        if let Some(index) = recovered {
            // Install the replayed index without advancing the epoch:
            // the replayed deltas consumed their sequence numbers (and
            // therefore epochs) when they were first accepted, and the
            // starting epoch above already accounts for them.
            live.published.republish(index);
            // Everything replayed; fold the months whose close failed
            // and the recovered tail (including trailing retargets) into
            // the store, then the journal can start empty. No store: the
            // journal stays — it IS the durability.
            live.compact(true);
        }
        Ok((live, report))
    }

    /// The publication cell readers pin — hand it to
    /// [`crate::QueryPlanner::live`].
    pub fn published(&self) -> Arc<PublishedWindow> {
        Arc::clone(&self.published)
    }

    /// The committed tail month.
    pub fn tail_date(&self) -> sibling_net_types::MonthDate {
        self.epoch.tail_date()
    }

    /// Journal bytes the store does not cover yet: with a store, the
    /// open month's records (and those of any month a close failed to
    /// store).
    pub fn journal_backlog(&self) -> u64 {
        self.journal.record_bytes()
    }

    /// Attaches serving gauges and primes their journal readings; every
    /// subsequent ingest (and compaction) keeps them current.
    pub fn attach_gauges(&mut self, gauges: Arc<HealthGauges>) {
        self.gauges = Some(gauges);
        self.sync_gauges();
    }

    fn sync_gauges(&self) {
        if let Some(gauges) = &self.gauges {
            gauges.set_journal(self.journal.record_bytes(), self.journal.record_count());
        }
    }

    /// Whether the committed window already carries `delta`'s effect —
    /// the same skip rule recovery replay uses, extended to detect
    /// re-sent tail retargets (a replication feed resync re-serves
    /// deltas a follower may have applied before the reconnect).
    fn already_carried(&self, delta: &SnapshotDelta) -> bool {
        let tail = self.epoch.tail_date();
        if delta.to_date() < tail || (delta.to_date() == tail && delta.from_date() < tail) {
            return true;
        }
        // A tail retarget: already carried exactly when the tail holds
        // every change's new entry (one lookup per change, no copy).
        delta.to_date() == tail
            && delta.from_date() == tail
            && delta.is_carried_by(self.epoch.tail_snapshot())
    }

    /// Applies one replication-feed delta through the full durable
    /// ingest path — unless the window already carries it, which is
    /// skipped (`Ok(None)`) rather than re-journaled. This is what
    /// makes a follower's apply path idempotent under feed resyncs:
    /// each delta advances the local epoch exactly once, no matter how
    /// often the primary re-serves it.
    pub fn ingest_feed(&mut self, delta: &SnapshotDelta) -> Result<Option<u64>, String>
    where
        R: Send,
        EpochState<R>: Send,
    {
        if self.already_carried(delta) {
            self.sync_gauges();
            return Ok(None);
        }
        self.ingest(delta).map(Some)
    }

    /// Applies one delta to the epoch state. Shared by live ingest and
    /// recovery replay; does NOT close, journal (live ingest journals
    /// first, replay reads the journal) or publish (the callers differ
    /// on when). It holds no second reference to the tail, so the
    /// ingest patches the tail in place; only a month queued by a
    /// failed close makes it copy.
    fn apply(&mut self, delta: &SnapshotDelta) -> Result<Arc<WindowQueryIndex>, String> {
        self.epoch
            .ingest(delta, || {
                // Failpoint: a crash (panic) or failure between the
                // journal append and the index publication — the window
                // must roll back, the journal record must survive.
                sibling_failpoint::io_point("ingest::publish")
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })
            .map_err(|e| e.to_string())
    }

    /// Closes the tail month before an append onto it: stores it behind
    /// every queued month, resetting the journal if `reset` (replay
    /// passes `false`, as later records still wait in the journal). If
    /// a write fails, the journal is kept and the tail joins the queue —
    /// the one place a second reference to the tail is taken, so the
    /// append's patch copies it only after a failure. No store: nothing
    /// to do, the journal IS the durability.
    fn close(&mut self, reset: bool) {
        if self.store.is_some() && !self.compact(reset) {
            self.unstored.push(Arc::clone(self.epoch.tail_snapshot()));
        }
    }

    /// Writes every month the journal covers into the store — the
    /// queued months, oldest first, then the tail — and, once all of
    /// them landed, empties the queue and resets the journal if `reset`.
    /// Returns whether they all landed (`false` without a store). A
    /// failure is not an ingest failure: the journal still holds the
    /// deltas, so durability is intact, and the queue stays for the
    /// next close or compaction.
    fn compact(&mut self, reset: bool) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let written = self
            .unstored
            .iter()
            .chain([self.epoch.tail_snapshot()])
            .try_for_each(|month| store.write(&**month).map(|_| ()));
        if written.is_err() {
            return false;
        }
        self.unstored.clear();
        if reset {
            let _ = self.journal.reset();
            // The append after a close may still fail; the gauges must
            // not keep reading the records the reset dropped.
            self.sync_gauges();
        }
        true
    }
}

impl<R: RibSource + Clone> IngestSink for LiveWindow<R>
where
    R: Send,
    EpochState<R>: Send,
{
    fn ingest(&mut self, delta: &SnapshotDelta) -> Result<u64, String> {
        // Reject malformed deltas before anything durable happens — a
        // journaled record must always replay cleanly, so validation
        // precedes the close and the write-ahead append.
        self.epoch.validate(delta).map_err(|e| e.to_string())?;
        // Failpoint: a crash or failure after validation, before the
        // close and the journal append (the delta is simply lost, never
        // half-durable).
        sibling_failpoint::io_point("ingest::apply").map_err(|e| e.to_string())?;
        if delta.to_date() > self.epoch.tail_date() {
            self.close(true);
        }
        // Write-ahead: the delta is durable before it is applied.
        self.journal
            .append(delta)
            .map_err(|e| format!("ingest journal {}: {e}", self.journal.path().display()))?;
        let index = self.apply(delta)?;
        let epoch = self.published.swap(index);
        if let Some(feed) = &self.feed {
            feed.publish(epoch, delta);
        }
        self.sync_gauges();
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    use sibling_bgp::{Rib, RibArchive};
    use sibling_core::{DetectEngine, EngineConfig, SiblingSet};
    use sibling_dns::{DomainChange, DomainId};
    use sibling_net_types::{Asn, Ipv4Prefix, Ipv6Prefix, MonthDate};

    fn a4(s: &str) -> u32 {
        s.parse::<std::net::Ipv4Addr>().unwrap().into()
    }

    fn a6(s: &str) -> u128 {
        s.parse::<std::net::Ipv6Addr>().unwrap().into()
    }

    fn rib() -> Rib {
        let mut rib = Rib::new();
        rib.announce("203.0.0.0/16".parse::<Ipv4Prefix>().unwrap(), Asn(1));
        rib.announce("198.51.0.0/16".parse::<Ipv4Prefix>().unwrap(), Asn(2));
        rib.announce("2600:1::/32".parse::<Ipv6Prefix>().unwrap(), Asn(1));
        rib.announce("2600:2::/32".parse::<Ipv6Prefix>().unwrap(), Asn(2));
        rib
    }

    fn archive() -> RibArchive {
        let mut archive = RibArchive::new();
        archive.insert(MonthDate::new(2024, 1), rib());
        archive
    }

    fn month(k: u8) -> MonthDate {
        MonthDate::new(2024, k)
    }

    fn snap(date: MonthDate, entries: &[(u32, &str, &str)]) -> Arc<DnsSnapshot> {
        let mut s = DnsSnapshot::new(date);
        for (id, v4, v6) in entries {
            s.merge(DomainId(*id), vec![a4(v4)], vec![a6(v6)]);
        }
        Arc::new(s)
    }

    fn recompute(snaps: &[Arc<DnsSnapshot>]) -> Vec<(MonthDate, SiblingSet)> {
        let mut engine = DetectEngine::default();
        let dates: Vec<MonthDate> = snaps.iter().map(|s| s.date()).collect();
        let by_date: std::collections::BTreeMap<MonthDate, Arc<DnsSnapshot>> =
            snaps.iter().map(|s| (s.date(), Arc::clone(s))).collect();
        engine
            .run_window(dates[0], *dates.last().unwrap(), &archive(), |d| {
                Arc::clone(&by_date[&d])
            })
            .unwrap()
            .results
    }

    /// Seeds the offline window over `snaps` — what the CLI rebuilds at
    /// startup from worldgen or the snapshot store before recovery.
    fn seeded(snaps: &[Arc<DnsSnapshot>]) -> (EpochState<Arc<Rib>>, Arc<WindowQueryIndex>) {
        EpochState::seed(
            EngineConfig::default(),
            archive(),
            recompute(snaps),
            Arc::clone(snaps.last().unwrap()),
        )
        .unwrap()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sibling-live-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The window's observable read surface, for bit-identity checks.
    fn rows(index: &WindowQueryIndex) -> Vec<String> {
        index.stats().map(|s| s.batch_row()).collect()
    }

    fn fixture() -> (Arc<DnsSnapshot>, Arc<DnsSnapshot>, Arc<DnsSnapshot>) {
        let s1 = snap(
            month(1),
            &[
                (1, "203.0.1.1", "2600:1::1"),
                (2, "203.0.1.2", "2600:2::2"),
                (3, "198.51.1.3", "2600:2::3"),
            ],
        );
        // Month 2: domain 2 moves org (an append-month delta)…
        let s2 = snap(
            month(2),
            &[
                (1, "203.0.1.1", "2600:1::1"),
                (2, "198.51.1.2", "2600:2::2"),
                (3, "198.51.1.3", "2600:2::3"),
            ],
        );
        // …then domain 1 retargets within month 2.
        let s2b = snap(
            month(2),
            &[
                (1, "203.0.1.1", "2600:2::1"),
                (2, "198.51.1.2", "2600:2::2"),
                (3, "198.51.1.3", "2600:2::3"),
            ],
        );
        (s1, s2, s2b)
    }

    #[test]
    fn ingest_survives_restart_via_journal_replay() {
        let dir = scratch("replay");
        let journal = dir.join("ingest.sibjrnl");
        let (s1, s2, s2b) = fixture();

        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let (mut live, report) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
        assert_eq!(report, RecoverReport::default());
        assert_eq!(live.published().epoch(), 1);

        assert_eq!(live.ingest(&SnapshotDelta::diff(&s1, &s2)).unwrap(), 2);
        assert_eq!(live.ingest(&SnapshotDelta::diff(&s2, &s2b)).unwrap(), 3);
        assert_eq!(live.tail_date(), month(2));
        assert!(live.journal_backlog() > 0, "no store: journal retained");
        let served = live.published().pin();
        assert_eq!(served.index().months(), &[month(1), month(2)]);

        // "Restart": rebuild the offline window (month 1 only — months
        // 2's deltas lived only in the journal) and recover.
        drop(live);
        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let (live, report) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
        assert_eq!((report.replayed, report.skipped), (2, 0));
        assert_eq!(report.discarded_bytes, 0);
        assert_eq!(live.tail_date(), month(2));
        // The epoch is durable: 1 + the journal's sequence number, the
        // same number the pre-restart daemon last published — so
        // replication cursors keyed by it never alias across a crash.
        assert_eq!(live.published().epoch(), 3);

        // Bit-identical to a batch recompute over the final snapshots.
        let reference = Arc::new(WindowQueryIndex::build(&recompute(&[s1, s2b])).unwrap());
        let recovered = live.published().pin();
        assert_eq!(recovered.index().months(), reference.months());
        assert_eq!(rows(recovered.index()), rows(&reference));
    }

    #[test]
    fn malformed_deltas_never_reach_the_journal() {
        let dir = scratch("validate");
        let journal = dir.join("ingest.sibjrnl");
        let (s1, s2, s2b) = fixture();

        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let (mut live, _) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
        // Non-contiguous: base month 2, tail month 1.
        let err = live.ingest(&SnapshotDelta::diff(&s2, &s2b)).unwrap_err();
        assert!(err.contains("2024-02"), "{err}");
        assert_eq!(live.journal_backlog(), 0, "rejected delta journaled");
        assert_eq!(live.published().epoch(), 1);

        // A restart replays nothing and serves the seeded window.
        drop(live);
        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let (live, report) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
        assert_eq!(report, RecoverReport::default());
        assert_eq!(live.tail_date(), month(1));
    }

    #[test]
    fn compaction_moves_durability_from_journal_to_store() {
        let dir = scratch("compact");
        let journal = dir.join("ingest.sibjrnl");
        let store_dir = dir.join("store");
        std::fs::create_dir_all(&store_dir).unwrap();
        let (s1, s2, s2b) = fixture();

        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let store = SnapshotStore::open(&store_dir).unwrap();
        let (mut live, _) = LiveWindow::recover(epoch, index, &journal, Some(store)).unwrap();
        let gauges = HealthGauges::primary();
        live.attach_gauges(Arc::clone(&gauges));

        // An append closes month 1: it lands in the store and the
        // journal resets before the append is journaled, so the journal
        // holds exactly the open month's append and month 2 is not
        // stored.
        live.ingest(&SnapshotDelta::diff(&s1, &s2)).unwrap();
        let store = SnapshotStore::open(&store_dir).unwrap();
        assert!(store.contains(month(1)) && !store.contains(month(2)));
        assert_eq!(live.journal.record_count(), 1);
        assert_eq!(gauges.journal_records(), 1);

        // A retarget does not touch the store — it waits in the journal
        // for the next append (or the next recovery).
        live.ingest(&SnapshotDelta::diff(&s2, &s2b)).unwrap();
        assert_eq!(live.journal.record_count(), 2);
        assert_eq!(gauges.journal_records(), 2);

        // Recovery, seeded over the store's months, replays the open
        // month's append and retarget, then stores month 2 and starts
        // with an empty journal.
        drop(live);
        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let store = SnapshotStore::open(&store_dir).unwrap();
        let (live, report) = LiveWindow::recover(epoch, index, &journal, Some(store)).unwrap();
        assert_eq!((report.replayed, report.skipped), (2, 0));
        assert_eq!(live.journal.record_count(), 0);
        assert_eq!(live.published().epoch(), 3);
        let stored = SnapshotStore::open(&store_dir)
            .unwrap()
            .load(month(2))
            .unwrap();
        assert_eq!(DnsSnapshot::materialize(&*stored), *s2b);
    }

    #[test]
    fn append_with_a_store_patches_the_tail_in_place() {
        let dir = scratch("in-place");
        let store = SnapshotStore::create(dir.join("store")).unwrap();
        let (s1, s2, _) = fixture();
        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        drop(s1);
        let (mut live, _) =
            LiveWindow::recover(epoch, index, &dir.join("ingest.sibjrnl"), Some(store)).unwrap();

        // The close stores month 1 before the append, so nothing holds
        // the tail when the append patches it into month 2.
        let tail = Arc::as_ptr(live.epoch.tail_snapshot());
        let append = SnapshotDelta::diff(live.epoch.tail_snapshot(), &s2);
        live.ingest(&append).unwrap();
        assert_eq!(live.tail_date(), month(2));
        assert!(live.unstored.is_empty());
        assert_eq!(
            Arc::as_ptr(live.epoch.tail_snapshot()),
            tail,
            "the append copied the tail"
        );
    }

    /// The first crash point of a close (module docs): month 2 is in the
    /// store, but the journal still holds its records when the daemon
    /// dies before the reset.
    #[test]
    fn crash_between_close_and_reset_replays_the_closed_month_as_no_ops() {
        let dir = scratch("close-crash");
        let journal = dir.join("ingest.sibjrnl");
        let store_dir = dir.join("store");
        let (s1, s2, s2b) = fixture();
        let s3 = Arc::new(s2b.redated(month(3)));

        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let store = SnapshotStore::create(&store_dir).unwrap();
        let (mut live, _) = LiveWindow::recover(epoch, index, &journal, Some(store)).unwrap();
        live.ingest(&SnapshotDelta::diff(&s1, &s2)).unwrap();
        live.ingest(&SnapshotDelta::diff(&s2, &s2b)).unwrap();
        // The journal as the close before the next append finds it.
        let before_reset = std::fs::read(&journal).unwrap();
        live.ingest(&SnapshotDelta::diff(&s2b, &s3)).unwrap();
        drop(live);
        std::fs::write(&journal, before_reset).unwrap();

        // The restart seeds through the stored months 1 and 2: the
        // append of month 2 is skipped and its retarget re-applies as a
        // no-op. The append of month 3 never acknowledged.
        let store = SnapshotStore::open(&store_dir).unwrap();
        let stored = Arc::new(DnsSnapshot::materialize(&*store.load(month(2)).unwrap()));
        assert_eq!(*stored, *s2b);
        let (epoch, index) = seeded(&[Arc::clone(&s1), stored]);
        let (live, report) = LiveWindow::recover(epoch, index, &journal, Some(store)).unwrap();
        assert_eq!((report.replayed, report.skipped), (1, 1));
        assert_eq!(live.published().epoch(), 3);
        let reference = Arc::new(WindowQueryIndex::build(&recompute(&[s1, s2b])).unwrap());
        assert_eq!(rows(live.published().pin().index()), rows(&reference));
    }

    #[test]
    fn feed_publishes_live_and_recovered_deltas_under_durable_epochs() {
        use crate::replicate::DeltaFeed;
        let dir = scratch("feed");
        let journal = dir.join("ingest.sibjrnl");
        let (s1, s2, s2b) = fixture();

        // A live primary: each accepted delta lands in the feed under
        // the epoch it published.
        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let feed = Arc::new(DeltaFeed::new());
        let (mut live, _) =
            LiveWindow::recover_replicating(epoch, index, &journal, None, Some(Arc::clone(&feed)))
                .unwrap();
        assert_eq!(feed.collect_since(0).current, 1);
        live.ingest(&SnapshotDelta::diff(&s1, &s2)).unwrap();
        live.ingest(&SnapshotDelta::diff(&s2, &s2b)).unwrap();
        let batch = feed.collect_since(0);
        assert_eq!((batch.floor, batch.current), (1, 3));
        assert_eq!(
            batch.deltas.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![2, 3]
        );

        // A restarted primary re-seeds a fresh feed from the journal
        // under the same durable epochs.
        drop(live);
        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let feed = Arc::new(DeltaFeed::new());
        let (live, _) =
            LiveWindow::recover_replicating(epoch, index, &journal, None, Some(Arc::clone(&feed)))
                .unwrap();
        let reseeded = feed.collect_since(0);
        assert_eq!((reseeded.floor, reseeded.current), (1, 3));
        assert_eq!(
            reseeded.deltas.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(live.published().epoch(), 3);
    }

    #[test]
    fn ingest_feed_applies_each_delta_exactly_once() {
        let dir = scratch("ingest-feed");
        let journal = dir.join("follower.sibjrnl");
        let (s1, s2, s2b) = fixture();
        let append = SnapshotDelta::diff(&s1, &s2);
        let retarget = SnapshotDelta::diff(&s2, &s2b);

        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let (mut live, _) = LiveWindow::recover(epoch, index, &journal, None).unwrap();

        // First delivery applies; re-delivery (a feed resync) skips.
        assert_eq!(live.ingest_feed(&append).unwrap(), Some(2));
        assert_eq!(live.ingest_feed(&append).unwrap(), None);
        assert_eq!(live.ingest_feed(&retarget).unwrap(), Some(3));
        assert_eq!(live.ingest_feed(&retarget).unwrap(), None);
        assert_eq!(live.published().epoch(), 3, "skips never advance");
        assert_eq!(live.tail_date(), month(2));

        // The skipped re-deliveries were not re-journaled: a restart
        // replays exactly the two applied deltas.
        drop(live);
        let (epoch, index) = seeded(std::slice::from_ref(&s1));
        let (mut live, report) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
        assert_eq!((report.replayed, report.skipped), (2, 0));
        assert_eq!(live.published().epoch(), 3);
        let reference = Arc::new(
            WindowQueryIndex::build(&recompute(&[Arc::clone(&s1), Arc::clone(&s2b)])).unwrap(),
        );
        assert_eq!(rows(live.published().pin().index()), rows(&reference));

        // Retargets are checked against the tail change by change. A
        // re-sent one is skipped, and so is one that only repeats the
        // tail: a domain at its current addresses, an absent domain
        // removed.
        assert_eq!(live.ingest_feed(&retarget).unwrap(), None);
        let change = |id: u32, old: &DnsSnapshot, new: &DnsSnapshot| DomainChange {
            domain: DomainId(id),
            old: old.get(DomainId(id)).cloned(),
            new: new.get(DomainId(id)).cloned(),
        };
        let empty = DnsSnapshot::new(month(2));
        let repeat = SnapshotDelta::from_changes(
            month(2),
            month(2),
            vec![change(1, &s2b, &s2b), change(9, &empty, &empty)],
        );
        assert_eq!(live.ingest_feed(&repeat).unwrap(), None);
        // A retarget that differs from the tail in one domain applies.
        let s2c = snap(
            month(2),
            &[
                (1, "203.0.1.1", "2600:2::1"),
                (2, "198.51.1.2", "2600:2::2"),
                (3, "203.0.1.3", "2600:2::3"),
            ],
        );
        let differs = SnapshotDelta::from_changes(
            month(2),
            month(2),
            vec![change(1, &s2b, &s2b), change(3, &s2b, &s2c)],
        );
        assert_eq!(live.ingest_feed(&differs).unwrap(), Some(4));
        assert_eq!(live.ingest_feed(&differs).unwrap(), None);
        let reference = Arc::new(WindowQueryIndex::build(&recompute(&[s1, s2c])).unwrap());
        assert_eq!(rows(live.published().pin().index()), rows(&reference));
    }

    /// Property: under ANY interleaving of ingests and queries, a query
    /// answers bit-identically to a batch recompute over exactly the
    /// months its pinned epoch carries — and pins taken earlier keep
    /// answering their own generation after later publishes.
    #[test]
    fn prop_any_interleaving_matches_batch_recompute_at_the_pinned_epoch() {
        use proptest::collection::vec;
        use proptest::test_runner::TestRunner;

        // A deterministic snapshot chain: month `k`'s entries depend on
        // `k` (domain 2 flips org with parity, so appends really churn
        // pairs), and `retargeted` flips domain 1's v6 org within the
        // month (the intra-month retarget delta).
        fn chain(k: u8, retargeted: bool) -> Arc<DnsSnapshot> {
            let v4_2 = if k.is_multiple_of(2) {
                "198.51.1.2"
            } else {
                "203.0.1.2"
            };
            let v6_1 = if retargeted { "2600:2::1" } else { "2600:1::1" };
            snap(
                month(k),
                &[
                    (1, "203.0.1.1", v6_1),
                    (2, v4_2, "2600:2::2"),
                    (3, "198.51.1.3", "2600:2::3"),
                ],
            )
        }

        let dir = scratch("prop-interleave");
        let mut case = 0u32;
        let mut runner = TestRunner::default();
        runner
            .run(&vec(0u8..3, 1..10), |ops| {
                case += 1;
                let journal = dir.join(format!("case-{case}.sibjrnl"));
                // Truth the live window must track: the materialized
                // snapshots of every month applied so far.
                let mut snaps = vec![chain(1, false)];
                let mut tail_k = 1u8;
                let mut retargeted = false;
                let (epoch, index) = seeded(&snaps);
                let (mut live, _) = LiveWindow::recover(epoch, index, &journal, None).unwrap();
                let mut expected_epoch = 1u64;
                // Pins taken at query time, with the rows they answered
                // then — re-checked after the interleaving finishes.
                let mut pins = Vec::new();
                for op in ops {
                    match op {
                        // Append the next month.
                        0 => {
                            let next = chain(tail_k + 1, false);
                            let delta = SnapshotDelta::diff(snaps.last().unwrap(), &next);
                            live.ingest(&delta).unwrap();
                            snaps.push(next);
                            tail_k += 1;
                            retargeted = false;
                            expected_epoch += 1;
                        }
                        // Retarget within the tail month (idempotent
                        // when already retargeted: an empty delta).
                        1 => {
                            let next = chain(tail_k, true);
                            let delta = SnapshotDelta::diff(snaps.last().unwrap(), &next);
                            live.ingest(&delta).unwrap();
                            *snaps.last_mut().unwrap() = next;
                            retargeted = true;
                            expected_epoch += 1;
                        }
                        // Query: pin, compare against a batch recompute
                        // over exactly the pinned months.
                        _ => {
                            let pin = live.published().pin();
                            let batch = WindowQueryIndex::build(&recompute(&snaps)).unwrap();
                            assert_eq!(pin.epoch(), expected_epoch);
                            assert_eq!(
                                rows(pin.index()),
                                rows(&batch),
                                "pinned epoch {} diverged from batch recompute (tail {}, \
                                 retargeted {retargeted})",
                                pin.epoch(),
                                month(tail_k)
                            );
                            pins.push((pin, rows(&batch)));
                        }
                    }
                }
                assert_eq!(live.published().epoch(), expected_epoch);
                // Earlier pins still answer their own generation.
                for (pin, rows_then) in &pins {
                    assert_eq!(
                        &rows(pin.index()),
                        rows_then,
                        "pin {} disturbed",
                        pin.epoch()
                    );
                }
                Ok(())
            })
            .unwrap();
    }
}
