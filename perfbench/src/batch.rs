//! The batch path, called the way `sibling-cli batch --store` calls it:
//! open the stores, map the window's snapshots, run the engine, publish
//! the query index and advance the pair ledger month by month.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use sibling_bgp::RibArchive;
use sibling_core::longitudinal::{DeltaReport, PairLedger};
use sibling_core::query::{MonthStats, WindowQueryIndex};
use sibling_core::{BatchRun, DetectEngine, EngineConfig, SiblingSet};
use sibling_dns::{SnapshotFile, SnapshotStore};
use sibling_net_types::MonthDate;
use sibling_store::{check_months, StoredRib, WorldStore};

use crate::stats::{digest, Trace};

/// A store-backed window: the exported store and its expected world
/// fingerprint.
pub struct Window<'a> {
    pub dir: &'a Path,
    pub fingerprint: u64,
    pub months: &'a [MonthDate],
}

pub type Archive = RibArchive<StoredRib>;

/// Opens the world and snapshot stores and maps every month.
pub fn open_stores(
    window: &Window,
) -> Result<(Archive, BTreeMap<MonthDate, Arc<SnapshotFile>>), String> {
    let stored =
        WorldStore::open(window.dir, Some(window.fingerprint)).map_err(|e| e.to_string())?;
    check_months(&stored, window.months).map_err(|e| e.to_string())?;
    let archive = stored.rib_archive();
    let store = SnapshotStore::open(window.dir).map_err(|e| e.to_string())?;
    let mut loaded = BTreeMap::new();
    for &date in window.months {
        loaded.insert(date, store.load(date).map_err(|e| e.to_string())?);
    }
    Ok((archive, loaded))
}

/// The output rows `batch` prints, one per month.
pub fn batch_rows(results: &[(MonthDate, SiblingSet)]) -> Vec<String> {
    let mut ledger = PairLedger::new();
    results
        .iter()
        .enumerate()
        .map(|(i, (date, set))| row(i, *date, set, &ledger.advance(set)))
        .collect()
}

/// `MonthStats::batch_row` of month number `i`, given its ledger delta.
fn row(i: usize, date: MonthDate, set: &SiblingSet, delta: &DeltaReport) -> String {
    let (v4_prefixes, v6_prefixes) = set.unique_prefix_counts();
    let delta = (i > 0).then(|| {
        let (n, u, c, _) = delta.counts();
        (n, u, c)
    });
    MonthStats {
        date,
        pairs: set.len(),
        v4_prefixes,
        v6_prefixes,
        perfect_share: set.perfect_match_share(),
        delta,
    }
    .batch_row()
}

/// One batch pass and what it produced.
pub struct Pass {
    pub seconds: f64,
    pub index: Arc<WindowQueryIndex>,
    pub rows: Vec<String>,
    pub run: BatchRun,
}

/// Runs `f` in a span when tracing, plainly otherwise.
fn timed<T>(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some(trace) => trace.time(name, parent, request, f),
        None => f(),
    }
}

/// One timed pass, with a `batch.pass` span around child spans for each
/// layer call when `trace` is given.
pub fn pass(window: &Window, mut trace: Option<&mut Trace>, number: u64) -> Result<Pass, String> {
    let start = Instant::now();
    let root = trace.as_mut().map(|t| t.open("batch.pass", None, number));
    let (archive, loaded) = timed(&mut trace, "store.open", root, number, || {
        open_stores(window)
    })?;
    let (from, to) = (window.months[0], *window.months.last().expect("non-empty"));
    let mut engine = DetectEngine::new(EngineConfig::default());
    let run = timed(&mut trace, "engine.run_window", root, number, || {
        engine.run_window(from, to, &archive, |date| loaded[&date].clone())
    })?;
    let index = timed(&mut trace, "query.publish", root, number, || {
        WindowQueryIndex::publish(&run)
    })
    .map_err(|e| e.to_string())?;
    let mut ledger = PairLedger::new();
    let rows = run
        .results
        .iter()
        .enumerate()
        .map(|(i, (date, set))| {
            let delta = timed(&mut trace, "ledger.advance", root, number, || {
                ledger.advance(set)
            });
            row(i, *date, set, &delta)
        })
        .collect();
    if let (Some(trace), Some(root)) = (trace, root) {
        trace.close(root);
    }
    Ok(Pass {
        seconds: start.elapsed().as_secs_f64(),
        index: black_box(index),
        rows: black_box(rows),
        run,
    })
}

/// The oracle: the same window recomputed by the non-incremental engine.
pub fn recompute_rows(window: &Window) -> Result<Vec<String>, String> {
    let (archive, loaded) = open_stores(window)?;
    let (from, to) = (window.months[0], *window.months.last().expect("non-empty"));
    let mut engine = DetectEngine::new(EngineConfig {
        incremental: false,
        ..EngineConfig::default()
    });
    let run = engine.run_window(from, to, &archive, |date| loaded[&date].clone())?;
    Ok(batch_rows(&run.results))
}

/// What the batch process reports for one pass. The span times are
/// those of a traced pass, zero otherwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassReport {
    pub seconds: f64,
    /// Digest of the pass's output rows, for the oracle check.
    pub rows: u64,
    pub open_ms: f64,
    pub window_ms: f64,
    pub publish_ms: f64,
    /// `PairLedger::advance` summed over the window's months.
    pub ledger_ms: f64,
    /// The pass span's self time: what no timed call covers.
    pub residual_ms: f64,
    /// `BatchRun::timings` summed: diff and index patch, scoring and
    /// assembly.
    pub patch_ms: f64,
    pub settle_ms: f64,
    pub dirty_shards: u64,
    pub total_shards: u64,
    pub dedup_hits: u64,
    pub distinct_sets: u64,
}

impl PassReport {
    fn line(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.seconds,
            self.rows,
            self.open_ms,
            self.window_ms,
            self.publish_ms,
            self.ledger_ms,
            self.residual_ms,
            self.patch_ms,
            self.settle_ms,
            self.dirty_shards,
            self.total_shards,
            self.dedup_hits,
            self.distinct_sets
        )
    }

    fn parse(line: &str) -> Option<Self> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let [seconds, rows, open_ms, window_ms, publish_ms, ledger_ms, residual_ms, patch_ms, settle_ms, dirty_shards, total_shards, dedup_hits, distinct_sets] =
            words.as_slice()
        else {
            return None;
        };
        let ms = |w: &str| w.parse::<f64>().ok();
        let count = |w: &str| w.parse::<u64>().ok();
        Some(Self {
            seconds: ms(seconds)?,
            rows: count(rows)?,
            open_ms: ms(open_ms)?,
            window_ms: ms(window_ms)?,
            publish_ms: ms(publish_ms)?,
            ledger_ms: ms(ledger_ms)?,
            residual_ms: ms(residual_ms)?,
            patch_ms: ms(patch_ms)?,
            settle_ms: ms(settle_ms)?,
            dirty_shards: count(dirty_shards)?,
            total_shards: count(total_shards)?,
            dedup_hits: count(dedup_hits)?,
            distinct_sets: count(distinct_sets)?,
        })
    }
}

fn report(pass: &Pass, trace: &Trace, number: u64) -> PassReport {
    let own = trace.self_times();
    let mut report = PassReport {
        seconds: pass.seconds,
        rows: digest(&pass.rows.join("\n")),
        patch_ms: pass.run.timings.iter().map(|t| t.patch_ns).sum::<u64>() as f64 / 1e6,
        settle_ms: pass.run.timings.iter().map(|t| t.settle_ns).sum::<u64>() as f64 / 1e6,
        dirty_shards: pass.run.churn.iter().map(|c| c.dirty_shards as u64).sum(),
        total_shards: pass.run.churn.iter().map(|c| c.total_shards as u64).sum(),
        dedup_hits: pass.run.stats.dedup_hits,
        distinct_sets: pass.run.stats.distinct_sets as u64,
        ..PassReport::default()
    };
    for (span, own) in trace.spans().iter().zip(own) {
        if span.request != number {
            continue;
        }
        let ms = (span.end - span.start) as f64 / 1e6;
        match span.name {
            "store.open" => report.open_ms += ms,
            "engine.run_window" => report.window_ms += ms,
            "query.publish" => report.publish_ms += ms,
            "ledger.advance" => report.ledger_ms += ms,
            "batch.pass" => report.residual_ms += own as f64 / 1e6,
            _ => {}
        }
    }
    report
}

/// The batch process: a resident `batch --store` that runs one pass per
/// command, so its peak RSS is the batch path's own. Commands on stdin,
/// one reply line each on stdout:
///
/// * `setup N` — open the stores and map the window N times; replies
///   `setup` and the N durations in seconds;
/// * `pass I T` — pass number I, traced when T is 1; replies `pass` and
///   a [`PassReport`].
///
/// At end of input it writes its spans to `spans`.
pub fn serve_passes(dir: &Path, spans: &Path) -> Result<(), String> {
    let config = crate::inputs::world_config();
    let months = config.months();
    let window = Window {
        dir,
        fingerprint: config.fingerprint(),
        months: &months,
    };
    let mut trace = Trace::new(Instant::now());
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let reply = match words.as_slice() {
            ["setup", n] => {
                let n: usize = n.parse().map_err(|_| format!("bad command {line:?}"))?;
                let mut times = Vec::with_capacity(n);
                for _ in 0..n {
                    let start = Instant::now();
                    black_box(open_stores(&window)?);
                    times.push(start.elapsed().as_secs_f64().to_string());
                }
                format!("setup {}", times.join(" "))
            }
            ["pass", number, traced] => {
                let number: u64 = number
                    .parse()
                    .map_err(|_| format!("bad command {line:?}"))?;
                let traced = *traced == "1";
                let pass = pass(&window, traced.then_some(&mut trace), number)?;
                format!("pass {}", report(&pass, &trace, number).line())
            }
            _ => return Err(format!("bad command {line:?}")),
        };
        writeln!(out, "{reply}")
            .and_then(|_| out.flush())
            .map_err(|e| e.to_string())?;
    }
    if !trace.spans().is_empty() {
        trace
            .write_tsv(spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    Ok(())
}

/// The generator's handle on the batch process. Dropping it closes the
/// process's input and waits for it to exit.
pub struct BatchProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl BatchProcess {
    /// Starts this executable as the batch process over the store `dir`.
    pub fn spawn(dir: &Path, spans: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--batch-process")
            .arg(dir)
            .arg(spans)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the batch process: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child,
            stdin,
            stdout,
        })
    }

    fn ask(&mut self, command: &str, verb: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().expect("open until drop");
        writeln!(stdin, "{command}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("batch process: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("batch process: {e}"))?;
        line.trim()
            .strip_prefix(verb)
            .map(str::to_string)
            .ok_or_else(|| format!("batch process failed on {command:?}"))
    }

    /// `n` timed store opens.
    pub fn setup(&mut self, n: usize) -> Result<Vec<f64>, String> {
        self.ask(&format!("setup {n}"), "setup")?
            .split_whitespace()
            .map(|t| t.parse::<f64>().map_err(|e| e.to_string()))
            .collect()
    }

    pub fn pass(&mut self, number: u64, traced: bool) -> Result<PassReport, String> {
        let reply = self.ask(&format!("pass {number} {}", u8::from(traced)), "pass")?;
        PassReport::parse(&reply).ok_or_else(|| format!("batch process: bad reply {reply:?}"))
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::daemon::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for BatchProcess {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_reports_round_trip_through_their_line() {
        let report = PassReport {
            seconds: 0.712345678,
            rows: u64::MAX / 3,
            open_ms: 28.5,
            window_ms: 701.25,
            publish_ms: 17.125,
            ledger_ms: 7.0625,
            residual_ms: 4.5,
            patch_ms: 620.0,
            settle_ms: 43.75,
            dirty_shards: 14259,
            total_shards: 19649,
            dedup_hits: 11357,
            distinct_sets: 1556,
        };
        assert_eq!(PassReport::parse(&report.line()), Some(report));
    }
}
