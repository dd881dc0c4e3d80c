//! The traced run's in-process side passes: the live load's inputs
//! replayed through the public functions the daemon calls, each call in
//! its own span.

use std::path::Path;
use std::sync::Arc;

use sibling_core::{DetectEngine, EngineConfig, EpochState, PublishedWindow, WindowQueryIndex};
use sibling_dns::{DnsSnapshot, IngestJournal, SnapshotStore};
use sibling_service::{parse_request, DeltaFeed, QueryPlanner, Request};

use crate::batch::{open_stores, Window};
use crate::stats::Trace;

fn answer_span(request: &Request) -> &'static str {
    match request {
        Request::Point { .. } => "planner.point",
        Request::Partners { .. } => "planner.partners",
        Request::History { .. } => "planner.history",
        Request::Stats { .. } => "planner.stats",
        _ => "planner.other",
    }
}

/// Replays `lines` `rounds` times through `parse_request` and
/// `QueryPlanner::answer` on `index`. Returns the bytes rendered.
pub fn replay_reads(
    index: &Arc<WindowQueryIndex>,
    lines: &[String],
    rounds: usize,
    trace: &mut Trace,
) -> Result<u64, String> {
    let planner = QueryPlanner::new(Arc::clone(index));
    let mut out = String::new();
    let mut bytes = 0;
    for round in 0..rounds {
        for (i, line) in lines.iter().enumerate() {
            let id = (round * lines.len() + i) as u64;
            let root = trace.open("replay.read", None, id);
            let request = trace
                .time("protocol.parse", Some(root), id, || parse_request(line))
                .map_err(|e| format!("{line}: {e}"))?;
            out.clear();
            trace
                .time(answer_span(&request), Some(root), id, || {
                    planner.answer(&request, &mut out)
                })
                .map_err(|e| format!("{line}: {e}"))?;
            trace.close(root);
            bytes += out.len() as u64;
        }
    }
    Ok(bytes)
}

/// Replays the armored ingest stream through a locally seeded
/// `EpochState`, `IngestJournal`, `DeltaFeed` and `SnapshotStore`, in
/// the order `LiveWindow::ingest` calls them, plus one separately timed
/// `WindowQueryIndex::build` per delta so the rebuild's share of
/// `EpochState::ingest` can be taken out. Returns the bytes each journal
/// append wrote.
pub fn replay_ingest(
    seed_window: &Window,
    lines: &[String],
    dir: &Path,
    trace: &mut Trace,
) -> Result<Vec<u64>, String> {
    let (archive, loaded) = open_stores(seed_window)?;
    let (from, to) = (
        seed_window.months[0],
        *seed_window.months.last().expect("non-empty"),
    );
    let config = EngineConfig::default();
    let mut engine = DetectEngine::new(config);
    let run = engine.run_window(from, to, &archive, |date| loaded[&date].clone())?;
    let tail = Arc::new(DnsSnapshot::materialize(&*loaded[&to]));
    let (mut epoch, index) =
        EpochState::seed(config, archive, run.results, tail).map_err(|e| e.to_string())?;
    let published = PublishedWindow::new(index);
    let (mut journal, _) =
        IngestJournal::open(&dir.join("journal")).map_err(|e| format!("side journal: {e}"))?;
    let store = SnapshotStore::create(dir.join("store")).map_err(|e| e.to_string())?;
    let feed = DeltaFeed::new();
    let mut journal_bytes = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let id = i as u64;
        let root = trace.open("replay.ingest", None, id);
        let request = trace.time("protocol.ingest_decode", Some(root), id, || {
            parse_request(line)
        });
        let Ok(Request::Ingest(delta)) = request else {
            return Err(format!("delta {i} does not decode"));
        };
        trace
            .time("epoch.validate", Some(root), id, || epoch.validate(&delta))
            .map_err(|e| e.to_string())?;
        let before = journal.record_bytes();
        trace
            .time("journal.append", Some(root), id, || journal.append(&delta))
            .map_err(|e| e.to_string())?;
        journal_bytes.push(journal.record_bytes() - before);
        let old_tail = Arc::clone(epoch.tail_snapshot());
        let appended = delta.to_date() > old_tail.date();
        let index = trace
            .time("epoch.ingest", Some(root), id, || {
                epoch.ingest(&delta, || Ok(()))
            })
            .map_err(|e| e.to_string())?;
        trace
            .time("query.build", Some(root), id, || {
                WindowQueryIndex::build(epoch.results())
            })
            .map_err(|e| e.to_string())?;
        if appended {
            trace
                .time("store.compact", Some(root), id, || {
                    store
                        .write(&*old_tail)
                        .and_then(|_| store.write(&**epoch.tail_snapshot()))
                })
                .map_err(|e| e.to_string())?;
            trace
                .time("journal.reset", Some(root), id, || journal.reset())
                .map_err(|e| e.to_string())?;
        }
        let number = trace.time("epoch.publish", Some(root), id, || published.swap(index));
        trace.time("feed.publish", Some(root), id, || {
            feed.publish(number, &delta)
        });
        trace.close(root);
    }
    Ok(journal_bytes)
}
