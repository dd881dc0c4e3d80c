//! The query planner: executes parsed requests against a published
//! [`WindowQueryIndex`] and renders wire responses.
//!
//! This is the whole read hot path — the server's connection loop and the
//! `query_throughput` bench both call [`QueryPlanner::answer_line`] with a
//! reused output buffer, so a query costs a parse, a binary search or two
//! and number formatting: no locks, and no allocation once the buffer has
//! warmed up.

use std::fmt::Write as _;
use std::sync::Arc;

use sibling_core::query::{MonthView, WindowQueryIndex};
use sibling_core::{PublishedWindow, SiblingPair};
use sibling_net_types::MonthDate;

use crate::protocol::{parse_request, ProtocolError, Request};
use crate::replicate::{DeltaFeed, HealthGauges};
use crate::server::ServeStats;

/// Executes requests against the published window. Cloning is an `Arc`
/// bump — each reader thread owns a clone and shares the window
/// lock-free apart from the one epoch-pin read per request.
#[derive(Debug, Clone)]
pub struct QueryPlanner {
    window: Arc<PublishedWindow>,
    /// The serving counters the `health` verb reports — attached by the
    /// server when it starts; `None` (all-zero health counters) when the
    /// planner is used standalone.
    stats: Option<Arc<ServeStats>>,
    /// The replication feed `sub` answers from — attached on primaries;
    /// everywhere else `sub` answers the typed `no-feed` error.
    feed: Option<Arc<DeltaFeed>>,
    /// Replication gauges for `health`'s role/epoch-lag/journal lines —
    /// `None` reports the static-daemon defaults.
    gauges: Option<Arc<HealthGauges>>,
}

/// Renders one sibling pair as a response data line (sans newline):
/// `V4 V6 NUM/DEN SHARED V4DOMS V6DOMS`, similarity as the exact
/// rational so the answer round-trips bit-identically.
fn write_pair(out: &mut String, pair: &SiblingPair) {
    let _ = write!(
        out,
        "{} {} {}/{} {} {} {}",
        pair.v4,
        pair.v6,
        pair.similarity.num(),
        pair.similarity.den(),
        pair.shared_domains,
        pair.v4_domains,
        pair.v6_domains
    );
}

impl QueryPlanner {
    /// A planner over a static index: wraps it as epoch 1 of a window
    /// that is never swapped. The common read-only serving path.
    pub fn new(index: Arc<WindowQueryIndex>) -> Self {
        Self::live(Arc::new(PublishedWindow::new(index)))
    }

    /// A planner over a live window whose index a writer republishes
    /// with [`PublishedWindow::swap`].
    pub fn live(window: Arc<PublishedWindow>) -> Self {
        Self {
            window,
            stats: None,
            feed: None,
            gauges: None,
        }
    }

    /// The currently published index (an epoch-pinned `Arc` clone).
    pub fn index(&self) -> Arc<WindowQueryIndex> {
        Arc::clone(self.window.pin().index())
    }

    /// The published window this planner reads.
    pub fn window(&self) -> &Arc<PublishedWindow> {
        &self.window
    }

    /// Attaches the serving counters the `health` verb reports. The
    /// server calls this when it starts; detached planners answer
    /// `health` with zero counters.
    pub fn attach_stats(&mut self, stats: Arc<ServeStats>) {
        self.stats = Some(stats);
    }

    /// Attaches the replication feed `sub` answers from — done on
    /// primaries before the server starts. Planners without a feed
    /// answer `sub` with the typed `no-feed` error.
    pub fn attach_feed(&mut self, feed: Arc<DeltaFeed>) {
        self.feed = Some(feed);
    }

    /// Attaches the replication gauges behind `health`'s `role`,
    /// `epoch-lag`, `journal-bytes` and `journal-records` lines.
    /// Planners without gauges report `role static` and zeros.
    pub fn attach_gauges(&mut self, gauges: Arc<HealthGauges>) {
        self.gauges = Some(gauges);
    }

    /// Answers one raw request line, replacing `out` with the complete
    /// wire response (header + data lines, every line `\n`-terminated).
    /// Errors become `err` responses; this never fails.
    pub fn answer_line(&self, line: &str, out: &mut String) {
        self.answer_line_under_pressure(line, out, None);
    }

    /// [`QueryPlanner::answer_line`], but when `pressure` is
    /// `Some((active, max))` — the server is at its connection cap — the
    /// expensive verbs ([`Request::Partners`], [`Request::History`]) are
    /// shed with a typed `busy` error before any index work, keeping the
    /// cheap point lookups and liveness checks answering.
    pub fn answer_line_under_pressure(
        &self,
        line: &str,
        out: &mut String,
        pressure: Option<(usize, usize)>,
    ) {
        out.clear();
        let outcome = parse_request(line).and_then(|request| {
            if let Some((active, max)) = pressure {
                if Self::sheds_under_pressure(&request) {
                    return Err(ProtocolError::Busy {
                        what: request.verb(),
                        active,
                        max,
                    });
                }
            }
            self.answer(&request, out)
        });
        if let Err(error) = outcome {
            out.clear();
            let _ = writeln!(out, "err {} {}", error.code(), error);
        }
    }

    /// Which requests are shed first under pressure: the ranked top-k
    /// scan and the multi-month history walk. Point lookups, liveness
    /// and the small metadata verbs always answer.
    pub fn sheds_under_pressure(request: &Request) -> bool {
        matches!(request, Request::Partners { .. } | Request::History { .. })
    }

    /// Resolves a month to its view, mapping absence to the typed
    /// out-of-window error (naming the loaded range).
    fn view<'a>(
        index: &'a WindowQueryIndex,
        month: MonthDate,
    ) -> Result<MonthView<'a>, ProtocolError> {
        index.month(month).ok_or_else(|| {
            let (first, last) = index.bounds();
            ProtocolError::OutOfWindow { month, first, last }
        })
    }

    /// Executes a parsed request, appending the response to `out`. The
    /// request pins the published epoch once up front, so every line of
    /// a multi-line answer describes the same generation even while a
    /// writer publishes new ones.
    pub fn answer(&self, request: &Request, out: &mut String) -> Result<(), ProtocolError> {
        let pin = self.window.pin();
        let index = pin.index().as_ref();
        match request {
            Request::Ping => out.push_str("ok 1\npong\n"),
            Request::Months => {
                let months = index.months();
                let _ = writeln!(out, "ok {}", months.len());
                for month in months {
                    let _ = writeln!(out, "{month}");
                }
            }
            Request::Stats { month: None } => {
                let _ = writeln!(out, "ok {}", index.months().len());
                for stats in index.stats() {
                    out.push_str(&stats.batch_row());
                    out.push('\n');
                }
            }
            Request::Stats { month: Some(month) } => {
                let view = Self::view(index, *month)?;
                out.push_str("ok 1\n");
                out.push_str(&view.stats().batch_row());
                out.push('\n');
            }
            Request::Point { v4, v6, month } => {
                let view = Self::view(index, *month)?;
                match view.point(v4, v6) {
                    Some(pair) => {
                        out.push_str("ok 1\n");
                        write_pair(out, pair);
                        out.push('\n');
                    }
                    // Absence is an answer, not an error.
                    None => out.push_str("ok 0\n"),
                }
            }
            Request::Partners { prefix, month, k } => {
                let view = Self::view(index, *month)?;
                let _ = writeln!(out, "ok {}", view.partners(prefix, *k).count());
                for pair in view.partners(prefix, *k) {
                    write_pair(out, pair);
                    out.push('\n');
                }
            }
            Request::History { v4, v6, from, to } => {
                let count = index.history(v4, v6, *from, *to).count();
                let _ = writeln!(out, "ok {count}");
                for (month, pair) in index.history(v4, v6, *from, *to) {
                    let _ = write!(out, "{month} ");
                    write_pair(out, pair);
                    out.push('\n');
                }
            }
            Request::Epoch => {
                let _ = write!(out, "ok 1\n{}\n", pin.epoch());
            }
            Request::Health => {
                let stats = self
                    .stats
                    .as_deref()
                    .map(ServeStats::snapshot)
                    .unwrap_or_default();
                let lag = stats
                    .ingests
                    .saturating_sub(stats.ingest_failures + stats.epochs);
                let gauges = self.gauges.as_deref();
                out.push_str("ok 15\n");
                let _ = writeln!(out, "months {}", index.months().len());
                let _ = writeln!(out, "epoch {}", pin.epoch());
                let _ = writeln!(out, "role {}", gauges.map_or("static", HealthGauges::role));
                let _ = writeln!(
                    out,
                    "epoch-lag {}",
                    gauges.map_or(0, HealthGauges::epoch_lag)
                );
                let _ = writeln!(
                    out,
                    "journal-bytes {}",
                    gauges.map_or(0, HealthGauges::journal_bytes)
                );
                let _ = writeln!(
                    out,
                    "journal-records {}",
                    gauges.map_or(0, HealthGauges::journal_records)
                );
                let _ = writeln!(out, "ingests {}", stats.ingests);
                let _ = writeln!(out, "ingest-failures {}", stats.ingest_failures);
                let _ = writeln!(out, "epochs-published {}", stats.epochs);
                let _ = writeln!(out, "ingest-lag {lag}");
                let _ = writeln!(out, "served {}", stats.served);
                let _ = writeln!(out, "shed-connections {}", stats.shed_connections);
                let _ = writeln!(out, "shed-requests {}", stats.shed_requests);
                let _ = writeln!(out, "timeouts {}", stats.timeouts);
                let _ = writeln!(out, "panics {}", stats.panics);
            }
            // The socket server routes `ingest` to its writer thread
            // before the planner sees it; reaching this arm means the
            // daemon has no writer.
            Request::Ingest(_) => return Err(ProtocolError::ReadOnly),
            Request::Subscribe { from_epoch } => {
                let feed = self.feed.as_deref().ok_or(ProtocolError::NoFeed)?;
                let batch = feed.collect_since(*from_epoch);
                let _ = writeln!(out, "ok {}", 1 + batch.deltas.len());
                let _ = writeln!(out, "feed {} {}", batch.floor, batch.current);
                for (epoch, hex) in &batch.deltas {
                    let _ = writeln!(out, "{epoch} {hex}");
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibling_core::{Ratio, SiblingSet};

    fn pair(v4: &str, v6: &str, num: u64, den: u64) -> SiblingPair {
        SiblingPair {
            v4: v4.parse().unwrap(),
            v6: v6.parse().unwrap(),
            similarity: Ratio::new(num, den),
            shared_domains: num,
            v4_domains: den,
            v6_domains: den,
        }
    }

    fn planner() -> QueryPlanner {
        let m1 = SiblingSet::from_pairs(vec![
            pair("10.0.0.0/24", "2600:1::/48", 1, 1),
            pair("10.0.0.0/24", "2600:2::/48", 1, 2),
        ]);
        let m2 = SiblingSet::from_pairs(vec![pair("10.0.0.0/24", "2600:1::/48", 1, 2)]);
        let index = WindowQueryIndex::build(&[
            (MonthDate::new(2024, 1), m1),
            (MonthDate::new(2024, 2), m2),
        ])
        .unwrap();
        QueryPlanner::new(Arc::new(index))
    }

    fn answer(line: &str) -> String {
        let planner = planner();
        let mut out = String::new();
        planner.answer_line(line, &mut out);
        out
    }

    #[test]
    fn ping_months_stats() {
        assert_eq!(answer("ping"), "ok 1\npong\n");
        assert_eq!(answer("months"), "ok 2\n2024-01\n2024-02\n");
        let stats = answer("stats");
        assert!(stats.starts_with("ok 2\n2024-01 "));
        let one = answer("stats 2024-02");
        assert!(one.starts_with("ok 1\n2024-02 "));
    }

    #[test]
    fn point_hit_miss_and_out_of_window() {
        assert_eq!(
            answer("siblings 10.0.0.0/24 2600:1::/48 2024-01"),
            "ok 1\n10.0.0.0/24 2600:1::/48 1/1 1 1 1\n"
        );
        assert_eq!(answer("siblings 10.0.0.0/24 2600:9::/48 2024-01"), "ok 0\n");
        let out = answer("siblings 10.0.0.0/24 2600:1::/48 2025-01");
        assert!(out.starts_with("err out-of-window "), "{out:?}");
        assert!(out.contains("2024-01..2024-02"), "{out:?}");
    }

    #[test]
    fn partners_ranked_and_capped() {
        assert_eq!(
            answer("partners 10.0.0.0/24 2024-01 0"),
            "ok 2\n10.0.0.0/24 2600:1::/48 1/1 1 1 1\n10.0.0.0/24 2600:2::/48 1/2 1 2 2\n"
        );
        assert_eq!(
            answer("partners 10.0.0.0/24 2024-01 1"),
            "ok 1\n10.0.0.0/24 2600:1::/48 1/1 1 1 1\n"
        );
        assert_eq!(answer("partners 9.9.9.0/24 2024-01 5"), "ok 0\n");
    }

    #[test]
    fn history_spans_months() {
        assert_eq!(
            answer("pair 10.0.0.0/24 2600:1::/48 2024-01..2024-12"),
            "ok 2\n2024-01 10.0.0.0/24 2600:1::/48 1/1 1 1 1\n\
             2024-02 10.0.0.0/24 2600:1::/48 1/2 1 2 2\n"
        );
        assert_eq!(
            answer("pair 10.0.0.0/24 2600:2::/48 2024-02..2024-02"),
            "ok 0\n"
        );
    }

    #[test]
    fn pressure_sheds_expensive_verbs_but_answers_cheap_ones() {
        let planner = planner();
        let mut out = String::new();
        let pressure = Some((4, 4));
        // Expensive verbs shed with a typed, retryable busy error.
        for line in [
            "partners 10.0.0.0/24 2024-01 0",
            "pair 10.0.0.0/24 2600:1::/48 2024-01..2024-12",
        ] {
            planner.answer_line_under_pressure(line, &mut out, pressure);
            assert!(out.starts_with("err busy "), "{line:?} -> {out:?}");
            assert!(out.contains("4/4"), "{out:?}");
        }
        // Cheap verbs still answer identically to the unpressured path.
        for line in [
            "ping",
            "months",
            "stats 2024-02",
            "siblings 10.0.0.0/24 2600:1::/48 2024-01",
        ] {
            planner.answer_line_under_pressure(line, &mut out, pressure);
            let mut calm = String::new();
            planner.answer_line(line, &mut calm);
            assert_eq!(out, calm, "{line:?}");
            assert!(out.starts_with("ok "), "{line:?} -> {out:?}");
        }
        // Malformed lines keep their own codes even under pressure.
        planner.answer_line_under_pressure("bogus", &mut out, pressure);
        assert!(out.starts_with("err unknown-verb "), "{out:?}");
    }

    #[test]
    fn epoch_and_health_answer_on_static_windows() {
        // A static window is epoch 1 forever.
        assert_eq!(answer("epoch"), "ok 1\n1\n");
        let health = answer("health");
        assert!(
            health.starts_with("ok 15\nmonths 2\nepoch 1\nrole static\n"),
            "{health:?}"
        );
        // Detached planner: all serving counters read zero.
        for line in [
            "epoch-lag 0",
            "journal-bytes 0",
            "journal-records 0",
            "ingests 0",
            "ingest-lag 0",
            "served 0",
            "panics 0",
        ] {
            assert!(health.contains(&format!("\n{line}\n")), "{health:?}");
        }
    }

    #[test]
    fn health_reports_attached_replication_gauges() {
        use crate::replicate::HealthGauges;
        let mut planner = planner();
        let gauges = HealthGauges::follower();
        gauges.set_journal(2048, 7);
        gauges.observe_source(9);
        gauges.observe_applied(6);
        planner.attach_gauges(Arc::clone(&gauges));
        let mut health = String::new();
        planner.answer_line("health", &mut health);
        for line in [
            "role follower",
            "epoch-lag 3",
            "journal-bytes 2048",
            "journal-records 7",
        ] {
            assert!(health.contains(&format!("\n{line}\n")), "{health:?}");
        }
    }

    #[test]
    fn sub_answers_the_feed_or_the_typed_no_feed_error() {
        use crate::replicate::DeltaFeed;
        use sibling_dns::{DnsSnapshot, SnapshotDelta};

        // No feed attached: the typed, non-retryable error.
        let out = answer("sub 0");
        assert!(out.starts_with("err no-feed "), "{out:?}");

        let mut planner = planner();
        let feed = Arc::new(DeltaFeed::new());
        let delta = SnapshotDelta::diff(
            &DnsSnapshot::new(MonthDate::new(2024, 2)),
            &DnsSnapshot::new(MonthDate::new(2024, 3)),
        );
        feed.seed_epoch(1);
        feed.publish(2, &delta);
        planner.attach_feed(feed);
        let mut out = String::new();
        planner.answer_line("sub 0", &mut out);
        let hex = crate::protocol::to_hex(&sibling_dns::encode_delta(&delta));
        assert_eq!(out, format!("ok 2\nfeed 1 2\n2 {hex}\n"));
        // A caught-up cursor gets just the bounds header.
        planner.answer_line("sub 2", &mut out);
        assert_eq!(out, "ok 1\nfeed 1 2\n");
    }

    #[test]
    fn ingest_without_a_writer_is_read_only() {
        use sibling_dns::{DnsSnapshot, SnapshotDelta};
        let delta = SnapshotDelta::diff(
            &DnsSnapshot::new(MonthDate::new(2024, 2)),
            &DnsSnapshot::new(MonthDate::new(2024, 3)),
        );
        let out = answer(&Request::Ingest(delta).to_string());
        assert!(out.starts_with("err read-only "), "{out:?}");
    }

    #[test]
    fn live_planner_follows_published_swaps() {
        let planner = planner();
        let window = Arc::clone(planner.window());
        let live = QueryPlanner::live(Arc::clone(&window));
        assert_eq!(
            {
                let mut out = String::new();
                live.answer_line("months", &mut out);
                out
            },
            "ok 2\n2024-01\n2024-02\n"
        );
        // A writer publishes a replacement window; the same planner
        // serves it at the next request.
        let m3 = SiblingSet::from_pairs(vec![pair("10.0.0.0/24", "2600:1::/48", 2, 3)]);
        let index = WindowQueryIndex::build(&[(MonthDate::new(2024, 3), m3)]).unwrap();
        assert_eq!(window.swap(Arc::new(index)), 2);
        let mut out = String::new();
        live.answer_line("months", &mut out);
        assert_eq!(out, "ok 1\n2024-03\n");
        live.answer_line("epoch", &mut out);
        assert_eq!(out, "ok 1\n2\n");
    }

    #[test]
    fn malformed_lines_become_err_responses() {
        for (line, code) in [
            ("", "err empty "),
            ("bogus", "err unknown-verb "),
            ("siblings 10.0.0.0/24", "err usage "),
            ("siblings x 2600:1::/48 2024-01", "err bad-arg "),
            ("stats 2024-99", "err bad-arg "),
        ] {
            let out = answer(line);
            assert!(out.starts_with(code), "{line:?} -> {out:?}");
            assert!(out.ends_with('\n'));
            assert_eq!(out.lines().count(), 1);
        }
    }
}
