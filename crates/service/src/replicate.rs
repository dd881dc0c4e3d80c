//! Replication: a primary daemon ships journal deltas to followers.
//!
//! The primary side is [`DeltaFeed`] — a bounded in-memory tail of the
//! ingest journal, keyed by the durable epoch each delta published. The
//! `sub FROM-EPOCH` verb answers from it: a batch of `EPOCH HEX` lines
//! in the journal's own payload encoding ([`sibling_dns::encode_delta`],
//! hex-armored exactly like `ingest`), preceded by a `feed FLOOR
//! CURRENT` header line so a follower always learns the primary's
//! current epoch and the oldest epoch the feed can still serve.
//!
//! The follower side is [`follow`]: a dedicated thread that owns the
//! follower's [`LiveWindow`] and polls the primary's feed, applying
//! each delta through the exact ingest path a primary uses — its own
//! crash-safe journal first, then [`sibling_core::EpochState`], then
//! one published swap. Readers of the follower pin epochs the same way
//! they would on the primary; `ingest` sent to a follower answers the
//! usual `read-only` error because its server simply has no writer.
//!
//! # Cursor and idempotence
//!
//! Feed epochs are *durable*: a primary publishes delta `seq` (its
//! journal sequence number, which survives restarts and compactions) as
//! epoch `1 + seq`, so a follower's cursor never aliases across a
//! primary crash. A follower starts its cursor at `0` and lets the skip
//! rules in [`LiveWindow::ingest_feed`] discard every delta its
//! bootstrapped window already carries — re-sent batches after a
//! reconnect are harmless, and each delta lands in the follower's own
//! journal exactly once.
//!
//! A follower whose cursor falls below the feed's floor (the primary
//! compacted and restarted past its retention) fast-forwards to the
//! floor only when nothing in between is still being served; a true gap
//! — retained deltas that do not extend the follower's window — fails
//! validation in the apply path, so the follower keeps serving its
//! pinned epoch and reports lag rather than corrupting its window.
//!
//! # Failpoints
//!
//! Three sites fault the replication path under `--features failpoints`:
//! `replication::send` (the primary tears the connection instead of
//! answering `sub`), `replication::recv` (the follower tears it before
//! reading a batch) and `replication::apply` (the follower fails before
//! applying a received delta). All three leave both windows consistent:
//! the follower reconnects and re-polls from its cursor.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sibling_bgp::RibSource;
use sibling_core::EpochState;
use sibling_dns::SnapshotDelta;

use crate::client::{Client, RetryPolicy};
use crate::ingest::LiveWindow;
use crate::protocol::{from_hex, to_hex, Request, Response};

/// How many delta lines one `sub` answer carries at most — a lagging
/// follower drains in batches instead of one unbounded response.
pub const SUB_BATCH: usize = 256;

/// Largest backoff exponent a follower's dial loop feeds its
/// [`RetryPolicy`] — the delay saturates at the policy cap anyway.
const MAX_BACKOFF_EXP: u32 = 16;

/// One collected `sub` answer: the feed's bounds and the retained
/// deltas after the requested cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedBatch {
    /// No epoch at or below this is retained (the follower's bootstrap
    /// must cover them). Equals `current` when the feed is empty.
    pub floor: u64,
    /// The primary's current epoch — what a fully caught-up follower's
    /// cursor reads.
    pub current: u64,
    /// `(epoch, hex payload)` pairs, ascending, capped at [`SUB_BATCH`].
    pub deltas: Vec<(u64, String)>,
}

struct FeedState {
    /// `(epoch, hex payload)`, ascending epochs.
    entries: VecDeque<(u64, String)>,
    /// The primary's current epoch (max epoch ever published or seeded).
    current: u64,
}

/// The primary's bounded in-memory journal tail, answering `sub`.
///
/// Entries are hex-armored once at publish time — the exact bytes
/// [`sibling_dns::encode_delta`] wrote to the journal — so the feed and
/// the journal cannot drift. Retention is bounded: a follower lagging
/// by more entries than the feed retains must re-bootstrap from the
/// snapshot store.
pub struct DeltaFeed {
    state: Mutex<FeedState>,
    retain: usize,
}

impl std::fmt::Debug for DeltaFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("feed poisoned");
        f.debug_struct("DeltaFeed")
            .field("entries", &state.entries.len())
            .field("current", &state.current)
            .field("retain", &self.retain)
            .finish()
    }
}

impl Default for DeltaFeed {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaFeed {
    /// How many deltas [`DeltaFeed::new`] retains.
    pub const DEFAULT_RETAIN: usize = 4096;

    /// A feed retaining [`DeltaFeed::DEFAULT_RETAIN`] deltas.
    pub fn new() -> Self {
        Self::with_retain(Self::DEFAULT_RETAIN)
    }

    /// A feed retaining at most `retain` deltas (`0` is treated as 1).
    pub fn with_retain(retain: usize) -> Self {
        Self {
            state: Mutex::new(FeedState {
                entries: VecDeque::new(),
                current: 0,
            }),
            retain: retain.max(1),
        }
    }

    /// Publishes one delta under the epoch it installed. Called by the
    /// ingest path after the published swap, and by recovery for every
    /// journal record it reopened (with the record's durable epoch).
    pub fn publish(&self, epoch: u64, delta: &SnapshotDelta) {
        let hex = to_hex(&sibling_dns::encode_delta(delta));
        let mut state = self.state.lock().expect("feed poisoned");
        state.entries.push_back((epoch, hex));
        while state.entries.len() > self.retain {
            state.entries.pop_front();
        }
        state.current = state.current.max(epoch);
    }

    /// Raises the feed's current epoch without publishing a delta — how
    /// recovery records the daemon's starting epoch so an empty feed
    /// still tells followers where "caught up" is.
    pub fn seed_epoch(&self, epoch: u64) {
        let mut state = self.state.lock().expect("feed poisoned");
        state.current = state.current.max(epoch);
    }

    /// The retained deltas with epochs after `from_epoch` (at most
    /// [`SUB_BATCH`] of them) plus the feed's bounds — the payload of
    /// one `sub` answer.
    pub fn collect_since(&self, from_epoch: u64) -> FeedBatch {
        let state = self.state.lock().expect("feed poisoned");
        let floor = match state.entries.front() {
            Some((first, _)) => first - 1,
            None => state.current,
        };
        let deltas = state
            .entries
            .iter()
            .filter(|(epoch, _)| *epoch > from_epoch)
            .take(SUB_BATCH)
            .cloned()
            .collect();
        FeedBatch {
            floor,
            current: state.current,
            deltas,
        }
    }
}

/// Replication-aware serving gauges the `health` verb reports: the
/// daemon's role, its journal durability backlog, and (on followers)
/// how far behind the primary it is. Shared between the serving planner
/// and whichever component advances the state — the [`LiveWindow`] for
/// journal gauges, the [`follow`] thread for epochs.
#[derive(Debug)]
pub struct HealthGauges {
    role: &'static str,
    journal_bytes: AtomicU64,
    journal_records: AtomicU64,
    /// The primary epoch a follower last observed over the feed.
    source_epoch: AtomicU64,
    /// The follower's feed cursor: the last primary epoch it applied
    /// (or fast-forwarded past as already carried).
    applied_epoch: AtomicU64,
    /// Whether the follower currently holds a live feed connection.
    connected: AtomicBool,
}

impl HealthGauges {
    fn new(role: &'static str) -> Arc<Self> {
        Arc::new(Self {
            role,
            journal_bytes: AtomicU64::new(0),
            journal_records: AtomicU64::new(0),
            source_epoch: AtomicU64::new(0),
            applied_epoch: AtomicU64::new(0),
            connected: AtomicBool::new(false),
        })
    }

    /// Gauges for a primary (`serve --ingest`): it publishes the feed,
    /// so its epoch lag is zero by definition.
    pub fn primary() -> Arc<Self> {
        Self::new("primary")
    }

    /// Gauges for a follower (`serve --follow`).
    pub fn follower() -> Arc<Self> {
        Self::new("follower")
    }

    /// The replication role: `"primary"` or `"follower"` (daemons
    /// without gauges report `"static"`).
    pub fn role(&self) -> &'static str {
        self.role
    }

    /// Records the journal's durability backlog (bytes and records
    /// awaiting compaction).
    pub fn set_journal(&self, bytes: u64, records: u64) {
        self.journal_bytes.store(bytes, Ordering::Relaxed);
        self.journal_records.store(records, Ordering::Relaxed);
    }

    /// Journal bytes awaiting compaction.
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes.load(Ordering::Relaxed)
    }

    /// Journal records awaiting compaction.
    pub fn journal_records(&self) -> u64 {
        self.journal_records.load(Ordering::Relaxed)
    }

    /// Records the primary epoch observed over the feed.
    pub fn observe_source(&self, epoch: u64) {
        self.source_epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Records the follower's advanced cursor.
    pub fn observe_applied(&self, epoch: u64) {
        self.applied_epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// How many primary epochs the follower still has to apply: the
    /// last observed primary epoch minus the cursor. Zero on primaries
    /// (they are the source) and on followers that are caught up — or
    /// that have never reached their primary (nothing observed yet).
    pub fn epoch_lag(&self) -> u64 {
        self.source_epoch
            .load(Ordering::Relaxed)
            .saturating_sub(self.applied_epoch.load(Ordering::Relaxed))
    }

    /// Whether the follower holds a live feed connection right now.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed)
    }

    fn set_connected(&self, connected: bool) {
        self.connected.store(connected, Ordering::Relaxed);
    }
}

/// Knobs for a [`follow`] thread.
#[derive(Debug, Clone)]
pub struct FollowerOptions {
    /// How long a caught-up follower waits before polling again.
    pub poll_interval: Duration,
    /// Backoff schedule for redialing a dead primary. The attempt
    /// budget is ignored — a follower redials forever (serving its
    /// pinned window meanwhile); only the delay curve is used.
    pub retry: RetryPolicy,
    /// Read/write timeout on the feed connection, so a hung primary
    /// degrades into a reconnect instead of wedging the thread.
    pub io_timeout: Duration,
}

impl Default for FollowerOptions {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(50),
            retry: RetryPolicy::default(),
            io_timeout: Duration::from_secs(2),
        }
    }
}

/// A running [`follow`] thread. Dropping it (or calling
/// [`FollowerHandle::stop`]) signals the thread and joins it; the
/// `LiveWindow` it owns is dropped with it, its journal already
/// durable.
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for FollowerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FollowerHandle")
            .field("stopped", &self.stop.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl FollowerHandle {
    /// Stops the replication thread and joins it. Reads served off the
    /// follower's published window are unaffected — they keep answering
    /// the last applied epoch.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the replication thread: `live` (the follower's bootstrapped
/// window, with its own journal) is moved in and advanced by polling
/// `endpoint`'s feed forever — across primary crashes, restarts and
/// shed connections. Hand `live.published()` to the serving planner
/// *before* calling this; readers then follow every applied epoch.
pub fn follow<R>(
    live: LiveWindow<R>,
    endpoint: &str,
    gauges: Arc<HealthGauges>,
    options: FollowerOptions,
) -> std::io::Result<FollowerHandle>
where
    R: RibSource + Clone + Send + 'static,
    EpochState<R>: Send,
{
    let stop = Arc::new(AtomicBool::new(false));
    let endpoint = endpoint.to_string();
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("sibling-follow".into())
            .spawn(move || follower_loop(live, &endpoint, &gauges, &options, &stop))?
    };
    Ok(FollowerHandle {
        stop,
        thread: Some(thread),
    })
}

/// Sleeps `total` in small slices, returning early once `stop` is set.
fn sleep_observing(stop: &AtomicBool, total: Duration) {
    const SLICE: Duration = Duration::from_millis(10);
    let deadline = std::time::Instant::now() + total;
    while !stop.load(Ordering::Acquire) {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(SLICE));
    }
}

/// The replication thread body: dial, poll, apply, reconnect, forever.
fn follower_loop<R>(
    mut live: LiveWindow<R>,
    endpoint: &str,
    gauges: &HealthGauges,
    options: &FollowerOptions,
    stop: &AtomicBool,
) where
    R: RibSource + Clone + Send,
    EpochState<R>: Send,
{
    // The feed cursor: the last primary epoch applied. Starting at 0
    // re-requests everything retained; the apply path skips what the
    // bootstrap already carries, so a resync is idempotent.
    let mut cursor = 0u64;
    let mut dial_failures = 0u32;
    while !stop.load(Ordering::Acquire) {
        let mut client = match Client::connect(endpoint) {
            Ok(client) => client,
            Err(_) => {
                gauges.set_connected(false);
                sleep_observing(
                    stop,
                    options.retry.delay(dial_failures.min(MAX_BACKOFF_EXP)),
                );
                dial_failures = dial_failures.saturating_add(1);
                continue;
            }
        };
        if client.set_io_timeout(Some(options.io_timeout)).is_err() {
            continue;
        }
        dial_failures = 0;
        gauges.set_connected(true);
        loop {
            if stop.load(Ordering::Acquire) {
                return;
            }
            // Failpoint: the feed connection tears on the receiving
            // side before a batch is read.
            if sibling_failpoint::io_point("replication::recv").is_err() {
                break;
            }
            let request = Request::Subscribe { from_epoch: cursor }.to_string();
            let lines = match client.roundtrip(&request) {
                Ok(Response::Ok(lines)) => lines,
                Ok(Response::Err { .. }) => {
                    // busy/timeout: shed under load. no-feed: the
                    // endpoint is not (yet) serving a feed — a primary
                    // still recovering, or a misconfiguration. Either
                    // way the request itself is fine: back off, re-ask.
                    sleep_observing(stop, options.poll_interval);
                    continue;
                }
                Err(_) => break,
            };
            match apply_batch(&mut live, gauges, cursor, &lines) {
                Ok(next) => {
                    if next == cursor {
                        // Caught up (or an empty poll): wait it out.
                        sleep_observing(stop, options.poll_interval);
                    }
                    cursor = next;
                }
                // A malformed batch or a failed apply: drop the
                // connection and resync from the cursor. The window
                // stays on its last published epoch throughout.
                Err(_) => break,
            }
        }
        gauges.set_connected(false);
    }
}

/// Applies one `sub` answer, returning the advanced cursor.
fn apply_batch<R>(
    live: &mut LiveWindow<R>,
    gauges: &HealthGauges,
    cursor: u64,
    lines: &[String],
) -> Result<u64, String>
where
    R: RibSource + Clone + Send,
    EpochState<R>: Send,
{
    let header = lines.first().ok_or("empty sub response")?;
    let (floor, current) = parse_feed_header(header)?;
    gauges.observe_source(current);
    let mut cursor = cursor;
    for line in &lines[1..] {
        let (epoch, delta) = parse_feed_line(line)?;
        if epoch <= cursor {
            continue;
        }
        // Failpoint: the follower fails between receiving a delta and
        // applying it — the batch is abandoned and re-requested.
        sibling_failpoint::io_point("replication::apply").map_err(|e| e.to_string())?;
        live.ingest_feed(&delta)?;
        cursor = epoch;
        gauges.observe_applied(cursor);
    }
    if cursor < floor {
        // Everything at or below the floor left the feed's retention;
        // the bootstrapped window must already carry it (same store).
        cursor = floor;
        gauges.observe_applied(cursor);
    }
    Ok(cursor)
}

/// Parses the `feed FLOOR CURRENT` header line of a `sub` answer.
fn parse_feed_header(line: &str) -> Result<(u64, u64), String> {
    let malformed = || format!("malformed feed header {line:?}");
    let mut words = line.split_whitespace();
    if words.next() != Some("feed") {
        return Err(malformed());
    }
    let floor = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(malformed)?;
    let current = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(malformed)?;
    if words.next().is_some() {
        return Err(malformed());
    }
    Ok((floor, current))
}

/// Parses one `EPOCH HEX` feed data line into the delta it carries.
fn parse_feed_line(line: &str) -> Result<(u64, SnapshotDelta), String> {
    let (epoch, hex) = line
        .split_once(' ')
        .ok_or_else(|| format!("malformed feed line {line:?}"))?;
    let epoch = epoch
        .parse()
        .map_err(|_| format!("malformed feed epoch {epoch:?}"))?;
    let bytes = from_hex(hex).ok_or_else(|| format!("feed delta is not hex ({epoch})"))?;
    let delta = sibling_dns::decode_delta(&bytes)
        .map_err(|e| format!("feed delta {epoch} undecodable: {e}"))?;
    Ok((epoch, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibling_dns::DnsSnapshot;
    use sibling_net_types::MonthDate;

    fn delta(from: u8, to: u8) -> SnapshotDelta {
        SnapshotDelta::diff(
            &DnsSnapshot::new(MonthDate::new(2024, from)),
            &DnsSnapshot::new(MonthDate::new(2024, to)),
        )
    }

    #[test]
    fn feed_retains_orders_and_bounds() {
        let feed = DeltaFeed::with_retain(3);
        let empty = feed.collect_since(0);
        assert_eq!((empty.floor, empty.current), (0, 0));
        assert!(empty.deltas.is_empty());

        feed.seed_epoch(5);
        let seeded = feed.collect_since(0);
        assert_eq!((seeded.floor, seeded.current), (5, 5));
        assert!(seeded.deltas.is_empty());

        for (epoch, months) in [(6u64, (1, 2)), (7, (2, 3)), (8, (3, 4))] {
            feed.publish(epoch, &delta(months.0, months.1));
        }
        let all = feed.collect_since(0);
        assert_eq!((all.floor, all.current), (5, 8));
        assert_eq!(
            all.deltas.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![6, 7, 8]
        );
        // The payload is the journal encoding, hex-armored.
        assert_eq!(
            all.deltas[0].1,
            to_hex(&sibling_dns::encode_delta(&delta(1, 2)))
        );

        // A cursor mid-feed gets only what follows it.
        let tail = feed.collect_since(7);
        assert_eq!(
            tail.deltas.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![8]
        );
        let caught_up = feed.collect_since(8);
        assert!(caught_up.deltas.is_empty());
        assert_eq!(caught_up.current, 8);

        // Publishing past the retention cap evicts the oldest and
        // raises the floor.
        feed.publish(9, &delta(4, 5));
        let evicted = feed.collect_since(0);
        assert_eq!((evicted.floor, evicted.current), (6, 9));
        assert_eq!(
            evicted.deltas.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn feed_header_and_line_round_trip() {
        assert_eq!(parse_feed_header("feed 3 17").unwrap(), (3, 17));
        for bad in ["", "feed", "feed 1", "feed 1 2 3", "fed 1 2", "feed x 2"] {
            assert!(parse_feed_header(bad).is_err(), "{bad:?}");
        }

        let d = delta(1, 2);
        let line = format!("42 {}", to_hex(&sibling_dns::encode_delta(&d)));
        let (epoch, decoded) = parse_feed_line(&line).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(decoded, d);
        for bad in ["", "42", "x abcd", "42 zz", "42 abc"] {
            assert!(parse_feed_line(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn gauges_report_role_journal_and_lag() {
        let primary = HealthGauges::primary();
        assert_eq!(primary.role(), "primary");
        assert_eq!(primary.epoch_lag(), 0);
        primary.set_journal(1024, 3);
        assert_eq!(
            (primary.journal_bytes(), primary.journal_records()),
            (1024, 3)
        );

        let follower = HealthGauges::follower();
        assert_eq!(follower.role(), "follower");
        // Never reached a primary: nothing observed, lag reads zero.
        assert_eq!(follower.epoch_lag(), 0);
        follower.observe_source(7);
        assert_eq!(follower.epoch_lag(), 7);
        follower.observe_applied(5);
        assert_eq!(follower.epoch_lag(), 2);
        follower.observe_applied(7);
        assert_eq!(follower.epoch_lag(), 0);
        // Observations are monotonic — a stale reading never regresses
        // either gauge.
        follower.observe_source(3);
        follower.observe_applied(2);
        assert_eq!(follower.epoch_lag(), 0);
        assert!(!follower.connected());
        follower.set_connected(true);
        assert!(follower.connected());
    }
}
