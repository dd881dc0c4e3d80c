//! The live window's epoch writer — delta ingestion behind
//! [`crate::PublishedWindow`].
//!
//! A resident daemon serves queries from an immutable-after-publish
//! [`WindowQueryIndex`] (see [`crate::query`]). Keeping that window
//! *live* as new months or intra-month retargets stream in means the
//! writer needs a **private generation** it can patch without readers
//! noticing, and publication must be a single atomic swap:
//!
//! ```text
//!            ┌────────────── EpochState (writer-private) ──────────────┐
//!  delta ──▶ │ validate → patch tail snapshot in place (undo log) →    │
//!            │ advance_month (reseed on a new table) → rescore dirty   │
//!            │ shards → spawn_assemble → WindowQueryIndex::with_tail   │
//!            └───────────────┬─────────────────────────────────────────┘
//!                            │ Arc<WindowQueryIndex>  (one per epoch;
//!                            ▼  all months but the tail shared)
//!                 PublishedWindow::swap  ──▶ readers pin per request
//! ```
//!
//! [`EpochState`] carries the incremental engine's window state (the
//! patched [`crate::GroupIndex`], per-shard cached outcomes and
//! the structural candidate index) on a one-thread
//! [`crate::DetectEngine`]: each ingest is one more month of the batch
//! driver's step — index patch, dirty-shard rescoring and assembly, all
//! inline on the writer thread — and derives the next query index from
//! the committed one: the tail month is replaced or one month appended,
//! every other month shared. The tail snapshot is patched in place too,
//! never copied, so an ingest costs what changed, not the window's
//! length. Because it is the batch step itself and the engine's assembly
//! is shard-count-independent, the published index after any ingest
//! sequence is **bit-identical** to a batch recompute over the same
//! snapshots (property-tested at the facade).
//!
//! **Failure is invisible.** If validation rejects the delta, the
//! caller's pre-publish hook aborts, or the patch itself panics, the
//! writer rolls back to the last published generation: the tail patch
//! is undone from the entries it replaced (never from the delta's
//! unchecked `old` fields), the retained results are restored and the
//! window state is reseeded from the committed tail snapshot (the
//! possibly half-patched index's sets drain through the arena graveyard
//! and [`crate::SetArena::sweep`]). Readers can never observe a torn
//! generation because the only reader-visible action is the `Arc` swap
//! the caller performs *after* a successful ingest.

use std::fmt;
use std::sync::Arc;

use sibling_bgp::{RibArchive, RibSource};
use sibling_dns::{DnsSnapshot, SnapshotDelta, SnapshotUndo};
use sibling_net_types::MonthDate;

use crate::engine::{DetectEngine, EngineConfig, WindowState};
use crate::pipeline::SiblingSet;
use crate::query::{QueryIndexError, WindowQueryIndex};

/// Why an ingest was rejected or rolled back. Every variant leaves the
/// writer in the last published generation — rejection is never
/// reader-visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The delta's base month is not the window's tail month.
    NotContiguous {
        /// The window's current tail month (the only valid base).
        expected: MonthDate,
        /// The delta's base month.
        found: MonthDate,
    },
    /// The delta runs backwards (`to` before `from`).
    NonMonotonic {
        /// The delta's base month.
        from: MonthDate,
        /// The delta's target month.
        to: MonthDate,
    },
    /// No RIB snapshot exists at or before the month.
    MissingRib(MonthDate),
    /// The seed results' tail month disagrees with the seed snapshot.
    SeedMismatch {
        /// The last month of the seed results.
        window: MonthDate,
        /// The seed snapshot's month.
        snapshot: MonthDate,
    },
    /// Rebuilding the query index failed (caller-error shapes).
    Index(QueryIndexError),
    /// The caller's pre-publish hook refused the generation.
    Aborted(String),
    /// The patch panicked; the generation was rolled back.
    Panicked(String),
}

impl From<QueryIndexError> for IngestError {
    fn from(err: QueryIndexError) -> Self {
        Self::Index(err)
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotContiguous { expected, found } => {
                write!(f, "delta base {found} is not the window tail {expected}")
            }
            Self::NonMonotonic { from, to } => {
                write!(f, "delta runs backwards: {from} to {to}")
            }
            Self::MissingRib(date) => write!(f, "no RIB snapshot at or before {date}"),
            Self::SeedMismatch { window, snapshot } => write!(
                f,
                "seed window ends {window} but the tail snapshot is {snapshot}"
            ),
            Self::Index(err) => write!(f, "index rebuild failed: {err}"),
            Self::Aborted(why) => write!(f, "ingest aborted before publish: {why}"),
            Self::Panicked(why) => write!(f, "ingest panicked (rolled back): {why}"),
        }
    }
}

impl std::error::Error for IngestError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The writer-private generation of a live window (module docs).
///
/// `R` is the routing-table handle of the backing [`RibArchive`] —
/// `Arc<Rib>` for generated worlds. The state owns a one-thread engine;
/// retired generations' sets drain through its arena's graveyard
/// exactly as in a batch run.
pub struct EpochState<R: RibSource + Clone> {
    engine: DetectEngine,
    archive: RibArchive<R>,
    /// Carried incremental state — `Some` between operations; taken
    /// only momentarily during reseeds. Boxed indirection is avoided on
    /// purpose: the state is large but moved rarely.
    state: Option<WindowState<R>>,
    /// The committed tail snapshot (what the published generation's
    /// last month reflects). Ingest patches it in place; rollback
    /// reverts the patch and reseeds from here.
    tail: Arc<DnsSnapshot>,
    /// The committed per-month results, ascending — the exact input of
    /// the published [`WindowQueryIndex`], whose months share these
    /// sets' pairs.
    results: Vec<(MonthDate, SiblingSet)>,
    /// The committed generation; the next one derives from it.
    index: Arc<WindowQueryIndex>,
}

impl<R: RibSource + Clone> fmt::Debug for EpochState<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochState")
            .field("tail", &self.tail.date())
            .field("months", &self.results.len())
            .finish_non_exhaustive()
    }
}

impl<R: RibSource + Clone> EpochState<R> {
    /// Seeds the writer from a committed window: `results` are the
    /// per-month sibling sets the first published generation serves
    /// (typically a [`crate::BatchRun`]'s, or recovered state), `tail`
    /// the snapshot of the last month. Returns the state together with
    /// the first generation's index (epoch 1 once the caller publishes
    /// it). The writer runs `config` on one thread, whatever its
    /// [`EngineConfig::threads`].
    pub fn seed(
        config: EngineConfig,
        archive: RibArchive<R>,
        results: Vec<(MonthDate, SiblingSet)>,
        tail: Arc<DnsSnapshot>,
    ) -> Result<(Self, Arc<WindowQueryIndex>), IngestError> {
        match results.last() {
            Some((date, _)) if *date == tail.date() => {}
            Some((date, _)) => {
                return Err(IngestError::SeedMismatch {
                    window: *date,
                    snapshot: tail.date(),
                })
            }
            None => return Err(IngestError::Index(QueryIndexError::EmptyWindow)),
        }
        let index = Arc::new(WindowQueryIndex::build(&results)?);
        let rib = archive
            .at_or_before(tail.date())
            .ok_or(IngestError::MissingRib(tail.date()))?;
        let mut this = Self {
            engine: DetectEngine::new(EngineConfig {
                threads: 1,
                ..config
            }),
            archive,
            state: None,
            tail,
            results,
            index: Arc::clone(&index),
        };
        this.reseed(rib);
        Ok((this, index))
    }

    /// The committed tail month.
    pub fn tail_date(&self) -> MonthDate {
        self.tail.date()
    }

    /// The committed tail snapshot. A clone of this `Arc` held across
    /// the next ingest makes that ingest copy the tail before patching.
    pub fn tail_snapshot(&self) -> &Arc<DnsSnapshot> {
        &self.tail
    }

    /// The committed per-month results, ascending.
    pub fn results(&self) -> &[(MonthDate, SiblingSet)] {
        &self.results
    }

    /// Checks whether `delta` could be ingested right now, without
    /// touching any state: contiguity with the tail, monotonicity, and
    /// rib coverage of the target month. A durable caller (the serving
    /// layer's write-ahead journal) validates *before* journaling so a
    /// malformed client delta never becomes a journal record that
    /// poisons every future replay.
    pub fn validate(&self, delta: &SnapshotDelta) -> Result<(), IngestError> {
        let tail_date = self.tail.date();
        if delta.from_date() != tail_date {
            return Err(IngestError::NotContiguous {
                expected: tail_date,
                found: delta.from_date(),
            });
        }
        if delta.to_date() < delta.from_date() {
            return Err(IngestError::NonMonotonic {
                from: delta.from_date(),
                to: delta.to_date(),
            });
        }
        self.archive
            .at_or_before(delta.to_date())
            .map(|_| ())
            .ok_or(IngestError::MissingRib(delta.to_date()))
    }

    /// Ingests one delta into the private generation and returns the
    /// next generation's index for the caller to swap into its
    /// [`crate::PublishedWindow`].
    ///
    /// * `delta.from` must be the committed tail month.
    /// * `delta.to == tail` is an **intra-month retarget**: the tail
    ///   month's result is replaced.
    /// * `delta.to > tail` **appends a month** to the window.
    ///
    /// The work is proportional to churn: the tail snapshot is patched
    /// in place (copied first only if a caller still holds a clone of
    /// [`EpochState::tail_snapshot`]), and the index is derived from the
    /// committed one with [`WindowQueryIndex::with_tail`].
    ///
    /// `pre_publish` runs after the generation is fully built but
    /// before commit — the serving layer's last-chance abort hook
    /// (failpoint site). If it errors, the patch panics, or the rebuild
    /// fails, the writer rolls back to the committed generation and the
    /// error is returned; nothing is reader-visible.
    pub fn ingest<F>(
        &mut self,
        delta: &SnapshotDelta,
        pre_publish: F,
    ) -> Result<Arc<WindowQueryIndex>, IngestError>
    where
        F: FnOnce() -> Result<(), String>,
    {
        self.validate(delta)?;
        let rib = self
            .archive
            .at_or_before(delta.to_date())
            .expect("validated above");
        let append = delta.to_date() > self.tail.date();
        // Rollback capture: the month count before, (for retargets) the
        // committed tail set the attempt overwrites, and the undo log of
        // the tail patch.
        let committed_len = self.results.len();
        let saved_tail = if append {
            None
        } else {
            Some(self.results.last().expect("seeded non-empty").clone())
        };
        let undo = delta.apply_in_place(Arc::make_mut(&mut self.tail));

        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<Arc<WindowQueryIndex>, IngestError> {
                // One month of the batch driver's step: advance by the
                // delta, or reseed at the new month when its table
                // differs, then assemble the tail's set.
                let set = self.engine.in_window(|ctx| {
                    ctx.step(
                        &mut self.state,
                        delta.to_date(),
                        &*self.tail,
                        rib,
                        Some(delta),
                    );
                    ctx.spawn_assemble(self.state.as_ref().expect("state seeded"))
                        .take()
                        .set
                });
                let index = Arc::new(self.index.with_tail(delta.to_date(), set.clone())?);
                if append {
                    self.results.push((delta.to_date(), set));
                } else {
                    *self.results.last_mut().expect("seeded non-empty") = (delta.to_date(), set);
                }
                pre_publish().map_err(IngestError::Aborted)?;
                Ok(index)
            },
        ));
        match attempt {
            Ok(Ok(index)) => {
                self.index = Arc::clone(&index);
                self.engine.arena().sweep();
                Ok(index)
            }
            Ok(Err(err)) => {
                self.rollback(committed_len, saved_tail, undo);
                Err(err)
            }
            Err(payload) => {
                self.rollback(committed_len, saved_tail, undo);
                Err(IngestError::Panicked(panic_message(payload)))
            }
        }
    }

    /// Discards the (possibly half-patched) private generation: the tail
    /// patch is undone, results restored, the window state reseeded from
    /// the committed tail and superseded sets swept through the arena
    /// graveyard.
    fn rollback(
        &mut self,
        committed_len: usize,
        saved_tail: Option<(MonthDate, SiblingSet)>,
        undo: SnapshotUndo,
    ) {
        undo.revert(Arc::make_mut(&mut self.tail));
        self.results.truncate(committed_len);
        if let Some(saved) = saved_tail {
            *self.results.last_mut().expect("seeded non-empty") = saved;
        }
        let rib = self
            .archive
            .at_or_before(self.tail.date())
            .expect("rib resolved at seed time");
        self.reseed(rib);
        self.engine.arena().sweep();
    }

    /// (Re)seeds the window state from the committed tail snapshot
    /// against `rib`, retiring the superseded state's sets.
    fn reseed(&mut self, rib: R) {
        let superseded = self.state.take();
        let (state, _) = self
            .engine
            .in_window(|ctx| ctx.seed_window(self.tail.date(), &*self.tail, rib, superseded));
        self.state = Some(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DetectEngine;
    use sibling_bgp::Rib;
    use sibling_dns::{DomainChange, DomainId};
    use sibling_net_types::{Asn, Ipv4Prefix, Ipv6Prefix};

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

    fn snap(date: MonthDate, entries: &[(u32, &str, &str)]) -> Arc<DnsSnapshot> {
        let mut s = DnsSnapshot::new(date);
        for (id, v4, v6) in entries {
            s.merge(DomainId(*id), vec![a4(v4)], vec![a6(v6)]);
        }
        Arc::new(s)
    }

    fn archive() -> RibArchive {
        let mut archive = RibArchive::new();
        archive.insert(MonthDate::new(2024, 1), rib());
        archive
    }

    /// Batch-recomputes the window over `snaps` with a fresh engine —
    /// the reference every published generation must equal bitwise.
    fn recompute(snaps: &[Arc<DnsSnapshot>]) -> Vec<(MonthDate, SiblingSet)> {
        recompute_over(&archive(), snaps)
    }

    fn recompute_over(
        archive: &RibArchive,
        snaps: &[Arc<DnsSnapshot>],
    ) -> Vec<(MonthDate, SiblingSet)> {
        let mut engine = DetectEngine::default();
        let dates: Vec<MonthDate> = snaps.iter().map(|s| s.date()).collect();
        let by_date: std::collections::BTreeMap<MonthDate, Arc<DnsSnapshot>> =
            snaps.iter().map(|s| (s.date(), Arc::clone(s))).collect();
        engine
            .run_window(dates[0], *dates.last().unwrap(), archive, |d| {
                Arc::clone(&by_date[&d])
            })
            .unwrap()
            .results
    }

    fn assert_results_equal(got: &[(MonthDate, SiblingSet)], want: &[(MonthDate, SiblingSet)]) {
        assert_eq!(got.len(), want.len());
        for ((gd, gs), (wd, ws)) in got.iter().zip(want) {
            assert_eq!(gd, wd);
            assert_eq!(gs.len(), ws.len());
            for (g, w) in gs.iter().zip(ws.iter()) {
                assert_eq!((g.v4, g.v6), (w.v4, w.v6));
                assert_eq!(g.similarity, w.similarity);
                assert_eq!(g.shared_domains, w.shared_domains);
            }
        }
    }

    fn month(k: u8) -> MonthDate {
        MonthDate::new(2024, k)
    }

    #[test]
    fn append_and_retarget_match_batch_recompute() {
        let s1 = snap(
            month(1),
            &[
                (1, "203.0.1.1", "2600:1::1"),
                (2, "203.0.1.2", "2600:2::2"),
                (3, "198.51.1.3", "2600:2::3"),
            ],
        );
        let seeded = recompute(&[Arc::clone(&s1)]);
        let (mut epoch, index) =
            EpochState::seed(EngineConfig::default(), archive(), seeded, Arc::clone(&s1)).unwrap();
        assert_eq!(index.months(), &[month(1)]);
        assert_eq!(epoch.tail_date(), month(1));

        // Append month 2 (a domain moves org).
        let s2 = snap(
            month(2),
            &[
                (1, "203.0.1.1", "2600:1::1"),
                (2, "198.51.1.2", "2600:2::2"),
                (3, "198.51.1.3", "2600:2::3"),
            ],
        );
        let delta = SnapshotDelta::diff(&s1, &s2);
        let index = epoch.ingest(&delta, || Ok(())).unwrap();
        assert_eq!(index.months(), &[month(1), month(2)]);
        assert_eq!(epoch.tail_date(), month(2));
        assert_results_equal(
            epoch.results(),
            &recompute(&[Arc::clone(&s1), Arc::clone(&s2)]),
        );

        // Intra-month retarget of month 2.
        let s2b = snap(
            month(2),
            &[
                (1, "203.0.1.1", "2600:2::1"),
                (2, "198.51.1.2", "2600:2::2"),
                (3, "198.51.1.3", "2600:2::3"),
            ],
        );
        let delta = SnapshotDelta::diff(&s2, &s2b);
        let index = epoch.ingest(&delta, || Ok(())).unwrap();
        assert_eq!(index.months(), &[month(1), month(2)]);
        assert_eq!(epoch.tail_date(), month(2));
        assert_results_equal(epoch.results(), &recompute(&[s1, s2b]));
    }

    #[test]
    fn routing_table_change_reseeds_and_matches_batch_recompute() {
        // Month 2's table announces a more-specific of 203.0.0.0/16, so
        // domain 1 leaves the v4 group it shared with domain 2. Patching
        // the month-1 index would keep it there: only a reseed is right.
        let mut archive = archive();
        let mut split = rib();
        split.announce("203.0.1.0/24".parse::<Ipv4Prefix>().unwrap(), Asn(1));
        archive.insert(month(2), split);
        let recompute = |snaps: &[Arc<DnsSnapshot>]| recompute_over(&archive, snaps);

        let s1 = snap(
            month(1),
            &[
                (1, "203.0.1.1", "2600:1::1"),
                (2, "203.0.2.2", "2600:1::2"),
                (3, "198.51.1.3", "2600:2::3"),
            ],
        );
        let (mut epoch, _) = EpochState::seed(
            EngineConfig::default(),
            archive.clone(),
            recompute(&[Arc::clone(&s1)]),
            Arc::clone(&s1),
        )
        .unwrap();

        // Append month 2 on the new table: the writer reseeds.
        let s2 = snap(
            month(2),
            &[
                (1, "203.0.1.1", "2600:1::1"),
                (2, "203.0.2.2", "2600:1::2"),
                (3, "198.51.1.3", "2600:2::3"),
                (4, "198.51.1.4", "2600:2::4"),
            ],
        );
        epoch
            .ingest(&SnapshotDelta::diff(&s1, &s2), || Ok(()))
            .unwrap();
        let want = recompute(&[Arc::clone(&s1), Arc::clone(&s2)]);
        let more_specific = "203.0.1.0/24".parse::<Ipv4Prefix>().unwrap();
        assert!(
            want[1].1.iter().any(|p| p.v4 == more_specific),
            "the table change moves domain 1's v4 group"
        );
        assert_results_equal(epoch.results(), &want);

        // Retarget month 2 on that same table: an incremental step.
        // Domain 2 joins domain 1 in 203.0.1.0/24.
        let s2b = snap(
            month(2),
            &[
                (1, "203.0.1.1", "2600:1::1"),
                (2, "203.0.1.2", "2600:1::2"),
                (3, "198.51.1.3", "2600:2::3"),
                (4, "198.51.1.4", "2600:2::4"),
            ],
        );
        epoch
            .ingest(&SnapshotDelta::diff(&s2, &s2b), || Ok(()))
            .unwrap();
        assert_results_equal(epoch.results(), &recompute(&[s1, s2b]));
    }

    #[test]
    fn rejects_non_contiguous_and_backwards_deltas() {
        let s1 = snap(month(3), &[(1, "203.0.1.1", "2600:1::1")]);
        let (mut epoch, _) = EpochState::seed(
            EngineConfig::default(),
            archive(),
            recompute(&[Arc::clone(&s1)]),
            Arc::clone(&s1),
        )
        .unwrap();
        // Base is month 4, tail is month 3.
        let s4 = snap(month(4), &[(1, "203.0.1.1", "2600:1::1")]);
        let s5 = snap(month(5), &[(2, "203.0.1.2", "2600:1::2")]);
        let err = epoch
            .ingest(&SnapshotDelta::diff(&s4, &s5), || Ok(()))
            .unwrap_err();
        assert_eq!(
            err,
            IngestError::NotContiguous {
                expected: month(3),
                found: month(4),
            }
        );
        // Backwards: from month 3 to month 2.
        let s2 = snap(month(2), &[(1, "203.0.1.1", "2600:1::1")]);
        let err = epoch
            .ingest(&SnapshotDelta::diff(&s1, &s2), || Ok(()))
            .unwrap_err();
        assert!(matches!(err, IngestError::NonMonotonic { .. }));
        assert_eq!(epoch.tail_date(), month(3));
    }

    #[test]
    fn aborted_and_panicking_ingests_roll_back_cleanly() {
        let s1 = snap(
            month(1),
            &[(1, "203.0.1.1", "2600:1::1"), (2, "203.0.1.2", "2600:2::2")],
        );
        let committed = recompute(&[Arc::clone(&s1)]);
        let (mut epoch, _) = EpochState::seed(
            EngineConfig::default(),
            archive(),
            committed.clone(),
            Arc::clone(&s1),
        )
        .unwrap();
        let s2 = snap(
            month(2),
            &[
                (1, "198.51.1.1", "2600:1::1"),
                (2, "203.0.1.2", "2600:2::2"),
            ],
        );
        let delta = SnapshotDelta::diff(&s1, &s2);

        // Abort via the pre-publish hook: nothing committed.
        let err = epoch
            .ingest(&delta, || Err("injected".to_string()))
            .unwrap_err();
        assert_eq!(err, IngestError::Aborted("injected".to_string()));
        assert_eq!(epoch.tail_date(), month(1));
        assert_results_equal(epoch.results(), &committed);
        assert_eq!(**epoch.tail_snapshot(), *s1, "append patch undone");

        // Panic inside the hook: rolled back, typed error.
        let err = epoch.ingest(&delta, || panic!("chaos")).unwrap_err();
        assert_eq!(err, IngestError::Panicked("chaos".to_string()));
        assert_eq!(epoch.tail_date(), month(1));
        assert_results_equal(epoch.results(), &committed);
        assert_eq!(**epoch.tail_snapshot(), *s1, "append patch undone");

        // A rolled-back retarget restores the tail too.
        let s1b = snap(
            month(1),
            &[(1, "203.0.1.1", "2600:2::1"), (2, "203.0.1.2", "2600:2::2")],
        );
        let retarget = SnapshotDelta::diff(&s1, &s1b);
        let err = epoch.ingest(&retarget, || panic!("chaos")).unwrap_err();
        assert_eq!(err, IngestError::Panicked("chaos".to_string()));
        assert_results_equal(epoch.results(), &committed);
        assert_eq!(**epoch.tail_snapshot(), *s1, "retarget patch undone");

        // The client supplies `old` and nothing checks it: a delta whose
        // `old` fields contradict the tail (domain 1 claimed absent,
        // domain 2 claimed at domain 1's addresses, domain 9 claimed
        // present) still rolls back to the exact tail. Neither the undo
        // log nor the index patch reads `old`, so only the hook panics.
        let lying = SnapshotDelta::from_changes(
            month(1),
            month(1),
            vec![
                DomainChange {
                    domain: DomainId(1),
                    old: None,
                    new: s2.get(DomainId(1)).cloned(),
                },
                DomainChange {
                    domain: DomainId(2),
                    old: s2.get(DomainId(1)).cloned(),
                    new: None,
                },
                DomainChange {
                    domain: DomainId(9),
                    old: s2.get(DomainId(2)).cloned(),
                    new: None,
                },
            ],
        );
        let err = epoch.ingest(&lying, || panic!("chaos")).unwrap_err();
        assert_eq!(err, IngestError::Panicked("chaos".to_string()));
        assert_results_equal(epoch.results(), &committed);
        assert_eq!(**epoch.tail_snapshot(), *s1, "patch undone exactly");

        // Through a passing hook the same delta commits, and the window
        // answers like a batch recompute over the tail it really yields
        // (rollback left no residue, and the lies changed nothing).
        let s1_true = Arc::new(lying.apply(&s1));
        epoch.ingest(&lying, || Ok(())).unwrap();
        assert_eq!(**epoch.tail_snapshot(), *s1_true);
        assert_results_equal(epoch.results(), &recompute(&[Arc::clone(&s1_true)]));

        // An append on top still equals the batch recompute.
        let index = epoch
            .ingest(&SnapshotDelta::diff(&s1_true, &s2), || Ok(()))
            .unwrap();
        assert_eq!(index.months(), &[month(1), month(2)]);
        assert_results_equal(epoch.results(), &recompute(&[s1_true, Arc::clone(&s2)]));
        assert_eq!(**epoch.tail_snapshot(), *s2);
    }
}
