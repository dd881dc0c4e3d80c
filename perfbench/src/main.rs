//! The repository's benchmark: the batch, query and ingest paths of the
//! sibling-prefix system, end to end, with a traced per-layer split.
//!
//! ```text
//! perfbench --workload batch-window|query-mixed|ingest-live --seed N --seconds S --trace 0|1
//! ```
//!
//! A run drives processes it starts itself: a resident batch process
//! (this executable, re-run as `--batch-process`) that makes
//! `batch --store` passes on command, the shipped `sibling-cli serve`
//! daemon over the whole window (not on `ingest-live`), and
//! `sibling-cli serve --ingest` seeded with the first months, a fresh
//! one for each pass over the ingest stream. It interleaves the paths in
//! rounds, so each path's figures average over the whole run rather
//! than over whichever seconds of machine noise its turn fell on. The
//! workload picks the path measured for `--seconds`; the other two get
//! a short, fixed share so every run reports every end-to-end metric.
//! Outputs are checked against a batch recompute outside the timed
//! calls. The last line of stdout is the JSON result; `--trace 1`
//! reports the per-layer metrics instead of the end-to-end ones.
//!
//! With `--trace 0`, every timed block sits between runs of a fixed
//! reference kernel, and its times are scaled to the reference host
//! speed (see [`gauge`]): the host's own speed wanders too far for
//! figures taken minutes apart to be compared as measured.

mod batch;
mod daemon;
mod gauge;
mod inputs;
mod replay;
mod serving;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sibling_service::QueryPlanner;

use batch::{BatchProcess, PassReport, Window};
use gauge::Gauge;
use inputs::{SEED_MONTHS, SLICES_PER_MONTH};
use serving::{Outcome, Session};
use stats::{digest, median, percentile, sorted_ns, Trace};

/// Rounds a run interleaves the three paths over.
const ROUNDS: usize = 20;
/// Store opens timed each round for `batch-window`'s set-up.
const STORE_SETUPS: usize = 2;
/// Daemon spawns timed for `query-mixed`'s set-up.
const DAEMON_SETUPS: usize = 5;
/// Read-mix time per round when another path is measured.
const PROBE_READS: Duration = Duration::from_millis(400);
/// Rounds between ingest chunks when another path is measured. The first
/// delta of a chunk follows another path's turn; in chunks of 25 deltas
/// those firsts are too few to reach the p90.
const PROBE_INGEST_EVERY: usize = 2;
/// Passes over the ingest stream when another path is measured.
const PROBE_CYCLES: usize = 2;
/// Rounds of the request stream the traced read replay makes.
const REPLAY_ROUNDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BatchWindow,
    QueryMixed,
    IngestLive,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "batch-window" => Ok(Self::BatchWindow),
            "query-mixed" => Ok(Self::QueryMixed),
            "ingest-live" => Ok(Self::IngestLive),
            other => Err(format!(
                "unknown --workload {other:?} (valid: batch-window, query-mixed, ingest-live)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::BatchWindow => "batch-window",
            Self::QueryMixed => "query-mixed",
            Self::IngestLive => "ingest-live",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .ok_or_else(|| format!("missing {key}"))
    };
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} needs a whole number"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} (valid: 0, 1)")),
    };
    Ok(Args {
        workload: Workload::parse(get("--workload")?)?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

/// Attempted and failed operations across every phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Oracle mismatches (also failures): the run's outputs are wrong.
    mismatched: u64,
}

impl Tally {
    fn add(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        self.mismatched += outcome.mismatched;
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatched += 1;
        }
    }
}

/// Metrics in report order, each with its unit and sample note.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str, String)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push((name, value, unit, note));
    }

    fn json(&self, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.mismatched == 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// A latency percentile in `unit_ns` units, or an error when the sample
/// is too small to support it.
fn latency(samples: &[u64], q: f64, unit_ns: f64, what: &str) -> Result<f64, String> {
    percentile(&sorted_ns(samples), q)
        .map(|ns| ns / unit_ns)
        .ok_or_else(|| {
            format!(
                "{what}: {} samples cannot support p{}",
                samples.len(),
                q * 100.0
            )
        })
}

fn median_ns(samples: &[u64], unit_ns: f64, what: &str) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("{what}: no samples"));
    }
    let values: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    Ok(median(&values) / unit_ns)
}

/// Where the run keeps its files: the build directory the launcher
/// uses, relative to the checkout when it is inside it, so unix socket
/// paths stay short.
fn target_dir() -> PathBuf {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()));
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

fn absolute(path: &Path) -> Result<PathBuf, String> {
    std::env::current_dir()
        .map(|cwd| cwd.join(path))
        .map_err(|e| e.to_string())
}

/// Read throughput and latency percentiles of one round. The read
/// metrics are medians over rounds, so a round that machine noise slowed
/// moves them less than it would move figures pooled over the run.
struct RoundReads {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

impl RoundReads {
    fn of(reads: &Outcome, secs: f64) -> Result<Self, String> {
        Ok(Self {
            qps: reads.completed as f64 / secs,
            p50_us: latency(&reads.latencies, 0.50, 1e3, "a round's read p50")?,
            p99_us: latency(&reads.latencies, 0.99, 1e3, "a round's read p99")?,
        })
    }
}

/// Everything a run measured, before it becomes metrics.
#[derive(Default)]
struct Measured {
    batch_setups: Vec<f64>,
    batch_rss_mb: f64,
    passes: Vec<PassReport>,
    traced_passes: Vec<PassReport>,
    query_setups: Vec<f64>,
    query_rss_mb: f64,
    reads: Outcome,
    read_rounds: Vec<RoundReads>,
    ingest_setups: Vec<f64>,
    ingest_rss_mb: Vec<f64>,
    writes: Outcome,
    live_reads: Outcome,
    live_rounds: Vec<RoundReads>,
    /// Streaming time as measured, which budgets the stream.
    stream_secs: f64,
    /// Streaming time scaled to the reference speed.
    scaled_stream_secs: f64,
    health_failures: u64,
    replay_bytes: u64,
    replay_answers: u64,
    journal_bytes: Vec<u64>,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.as_slice() {
        [flag, dir, spans] if flag == "--batch-process" => {
            batch::serve_passes(Path::new(dir), Path::new(spans)).map(|()| ExitCode::SUCCESS)
        }
        _ => run(),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

/// How much of each path one round runs, by workload.
struct Shares {
    /// Batch time for the whole run; `None` runs one pass a round.
    batch: Option<Duration>,
    /// Read-mix time per round; `None` starts no query daemon.
    reads: Option<Duration>,
    /// Streaming time for the whole run, each pass over the ingest stream
    /// on a fresh daemon; `None` sends the stream [`PROBE_CYCLES`] times,
    /// in chunks every [`PROBE_INGEST_EVERY`] rounds.
    ingest: Option<Duration>,
}

fn shares(workload: Workload, measure: Duration) -> Shares {
    match workload {
        Workload::BatchWindow => Shares {
            batch: Some(measure),
            reads: Some(PROBE_READS),
            ingest: None,
        },
        Workload::QueryMixed => Shares {
            batch: None,
            reads: Some(measure / ROUNDS as u32),
            ingest: None,
        },
        Workload::IngestLive => Shares {
            batch: None,
            reads: None,
            ingest: Some(measure),
        },
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let target = target_dir();
    let cli = target.join("release").join("sibling-cli");
    if !cli.is_file() {
        return Err(format!("{} is not built", cli.display()));
    }
    let work = target.join("perfbench-work");
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let run_dir = work.join("run");
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| e.to_string())?;

    let config = inputs::world_config();
    let months = config.months();
    let (world_dir, seed_store) = inputs::ensure_world(&cli, &work)?;
    let window = Window {
        dir: &world_dir,
        fingerprint: config.fingerprint(),
        months: &months,
    };
    let measure = Duration::from_secs(args.seconds);
    let share = shares(args.workload, measure);
    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let mut tally = Tally::default();
    let mut got = Measured::default();
    // A traced run reports per-layer times as measured.
    let mut gauge = Gauge::new(!args.trace);

    // The oracle and the serving inputs, built before anything is timed:
    // the window scored by the incremental engine (whose published index
    // answers every read) must equal the non-incremental recompute.
    let scored = batch::pass(&window, None, 0)?;
    let oracle_rows = batch::recompute_rows(&window)?;
    tally.check(scored.rows == oracle_rows);
    let oracle_digest = digest(&oracle_rows.join("\n"));
    let index = Arc::clone(&scored.index);
    drop(scored);
    let expect_of = |lines: &[String]| -> Vec<u64> {
        let planner = QueryPlanner::new(Arc::clone(&index));
        let mut out = String::new();
        lines
            .iter()
            .map(|line| {
                planner.answer_line(line, &mut out);
                digest(&out)
            })
            .collect()
    };
    let read_lines = inputs::query_stream(&index, &months, args.seed);
    let read_expect = expect_of(&read_lines);
    let live_lines = inputs::query_stream(&index, &months[..SEED_MONTHS], args.seed);
    let live_expect = expect_of(&live_lines);
    let deltas = {
        let (_, files) = batch::open_stores(&window)?;
        inputs::ingest_stream(&files, &months[SEED_MONTHS - 1..], args.seed)
    };

    // Set-up, then one warm-up of each path.
    let mut batch = BatchProcess::spawn(&world_dir, &run_dir.join("trace-batch-process.tsv"))?;
    tally.check(batch.pass(0, false)?.rows == oracle_digest);
    let mut query = None;
    let mut read_cursors = [0, read_lines.len() / 2];
    if share.reads.is_some() {
        let spawns = if args.workload == Workload::QueryMixed {
            DAEMON_SETUPS
        } else {
            1
        };
        for spawn in 0..spawns {
            drop(query.take());
            let daemon_args: Vec<String> = vec![
                "--store".into(),
                world_dir.display().to_string(),
                "--seed".into(),
                inputs::WORLD_SEED.to_string(),
                "--socket".into(),
                run_dir.join(format!("q{spawn}.sock")).display().to_string(),
                "--readers".into(),
                "2".into(),
            ];
            let (session, f) = gauge
                .around(|| serving::open_session(&cli, &daemon_args, &run_dir.join("query.log")));
            let session = session?;
            got.query_setups.push(session.setup_s * f);
            query = Some(session);
        }
        let session = query.as_mut().expect("spawned above");
        let (warmup, _) = serving::read_mix(
            session.clients()?,
            &read_lines,
            &read_expect,
            &mut read_cursors,
            Duration::from_millis(500),
            None,
        );
        tally.add(&warmup);
        session.hang_up();
    }

    let mut sent = 0;
    let mut live: Option<(Session, u64)> = None;
    let mut live_cursor = 0;
    let mut pass_number = 0;
    let mut batch_secs = 0.0;
    for round in 0..ROUNDS {
        // Batch path: when measured, passes until the run's batch time
        // reaches this round's share of the budget, so the rounds split it
        // evenly and the total overshoots by at most one pass. Otherwise
        // one pass a round.
        if args.workload == Workload::BatchWindow {
            let (setups, f) = gauge.around(|| batch.setup(STORE_SETUPS));
            got.batch_setups.extend(setups?.into_iter().map(|s| s * f));
        }
        let mut probed = false;
        while match share.batch {
            Some(budget) => batch_secs < budget.as_secs_f64() * (round + 1) as f64 / ROUNDS as f64,
            None => !probed,
        } {
            probed = true;
            pass_number += 1;
            let traced = args.trace && pass_number % 2 == 0;
            let (report, f) = gauge.around(|| batch.pass(pass_number, traced));
            let mut report = report?;
            tally.check(report.rows == oracle_digest);
            batch_secs += report.seconds;
            report.seconds *= f;
            if traced {
                got.traced_passes.push(report);
            } else {
                got.passes.push(report);
            }
        }

        // Read mix on the whole-window daemon.
        if let (Some(session), Some(budget)) = (query.as_mut(), share.reads) {
            let (mut ta, mut tb) = (Trace::new(origin), Trace::new(origin));
            let clients = session.clients()?;
            let ((mut reads, secs), f) = gauge.around(|| {
                serving::read_mix(
                    clients,
                    &read_lines,
                    &read_expect,
                    &mut read_cursors,
                    budget,
                    args.trace.then_some([&mut ta, &mut tb]),
                )
            });
            trace.absorb(ta);
            trace.absorb(tb);
            tally.add(&reads);
            reads.scale(f);
            if !args.trace {
                got.read_rounds.push(RoundReads::of(&reads, secs * f)?);
            }
            got.reads.merge(reads);
            if round + 1 == ROUNDS {
                finish_session(session, &mut got, &mut tally)?;
            }
            session.hang_up();
        }

        // This round's share of the ingest stream, with reads beside it.
        // Measured: whole months until the run's streaming time reaches
        // this round's share of the budget, and by the last round at
        // least one full pass, so p90 has ten deltas beyond it. Otherwise:
        // the round's chunk of [`PROBE_CYCLES`] passes.
        let chunk_end =
            (round + 1) / PROBE_INGEST_EVERY * PROBE_INGEST_EVERY * PROBE_CYCLES * deltas.len()
                / ROUNDS;
        let (mut round_reads, mut round_secs) = (Outcome::default(), 0.0);
        loop {
            let end = match share.ingest {
                Some(budget) => {
                    let due = budget.as_secs_f64() * (round + 1) as f64 / ROUNDS as f64;
                    let short = round + 1 == ROUNDS && sent < deltas.len();
                    if got.stream_secs >= due && !short {
                        break;
                    }
                    sent + SLICES_PER_MONTH
                }
                None if sent < chunk_end => chunk_end,
                None => break,
            };
            let at = sent % deltas.len();
            if at == 0 {
                let cycle = sent / deltas.len();
                let (session, f) =
                    gauge.around(|| spawn_live(&cli, &run_dir, &seed_store, &months, cycle));
                let session = session?;
                got.ingest_setups.push(session.0.setup_s * f);
                live = Some(session);
            }
            let (session, epoch) = live.as_mut().expect("spawned at the cycle's start");
            let upto = (at + end - sent).min(deltas.len());
            let (mut ta, mut tb) = (Trace::new(origin), Trace::new(origin));
            let clients = session.clients()?;
            let ((mut writes, mut reads, secs), f) = gauge.around(|| {
                serving::ingest_with_reads(
                    clients,
                    &deltas[at..upto],
                    epoch,
                    &live_lines,
                    &live_expect,
                    &mut live_cursor,
                    args.trace.then_some([&mut ta, &mut tb]),
                )
            });
            trace.absorb(ta);
            trace.absorb(tb);
            tally.add(&writes);
            tally.add(&reads);
            writes.scale(f);
            reads.scale(f);
            got.writes.merge(writes);
            round_reads.merge(reads);
            round_secs += secs * f;
            got.stream_secs += secs;
            got.scaled_stream_secs += secs * f;
            sent += upto - at;
            if upto == deltas.len() {
                // The cycle's window is complete: its `stats` must equal
                // the batch recompute of the same months.
                let (mut session, _) = live.take().expect("open");
                let rows = serving::ask(&mut session.clients()?[0], "stats")?;
                tally.check(rows == oracle_rows);
                finish_session(&mut session, &mut got, &mut tally)?;
                got.ingest_rss_mb.push(session.daemon.peak_rss_mb()?);
            }
        }
        if let Some((session, _)) = live.as_mut() {
            session.hang_up();
        }
        // A round can send nothing when one month outlasts a round's
        // share of the budget; it then has no reads of its own either.
        if args.workload == Workload::IngestLive && !args.trace && round_secs > 0.0 {
            got.live_rounds
                .push(RoundReads::of(&round_reads, round_secs)?);
        }
        got.live_reads.merge(round_reads);
    }
    // A time-budgeted stream stops at a month boundary, usually inside a
    // pass: the window holds whole months, and its `stats` must equal the
    // recompute's rows for them.
    if let Some((mut session, _)) = live.take() {
        let streamed = SEED_MONTHS + sent % deltas.len() / SLICES_PER_MONTH;
        let rows = serving::ask(&mut session.clients()?[0], "stats")?;
        tally.check(rows == oracle_rows[..streamed]);
        finish_session(&mut session, &mut got, &mut tally)?;
    }
    if let Some(session) = query {
        got.query_rss_mb = session.daemon.peak_rss_mb()?;
    }
    got.batch_rss_mb = batch.peak_rss_mb()?;
    drop(batch);

    let mut report = Report::default();
    if args.trace {
        let replay_lines = if share.reads.is_some() {
            &read_lines
        } else {
            &live_lines
        };
        got.replay_bytes = replay::replay_reads(&index, replay_lines, REPLAY_ROUNDS, &mut trace)?;
        got.replay_answers = (REPLAY_ROUNDS * replay_lines.len()) as u64;
        let side = run_dir.join("side");
        std::fs::create_dir_all(&side).map_err(|e| e.to_string())?;
        let seed_window = Window {
            months: &months[..SEED_MONTHS],
            ..window
        };
        got.journal_bytes = replay::replay_ingest(&seed_window, &deltas, &side, &mut trace)?;
        per_layer(&mut report, &got, &trace, share.reads.is_some())?;
        let spans = run_dir.join("trace-load.tsv");
        trace
            .write_tsv(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        eprintln!(
            "spans written to {} and its batch process's file",
            spans.display()
        );
    } else {
        end_to_end(&mut report, &got, args.workload)?;
    }

    println!(
        "workload {} seed {} seconds {} trace {} nproc {} profile release features default \
         preset paper world-seed {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        inputs::WORLD_SEED,
    );
    if !gauge.samples.is_empty() {
        let ms: Vec<f64> = gauge.samples.iter().map(|ns| ns / 1e6).collect();
        println!(
            "host speed: reference kernel median {:.3} ms over {} runs; each block's times \
             below are scaled by {:.0} ms over the kernel's mean around it",
            median(&ms),
            ms.len(),
            gauge::REFERENCE_NS / 1e6
        );
    }
    for (name, value, unit, note) in &report.metrics {
        println!("{name:<26} {value:>16.6} {unit:<6} {note}");
    }
    println!(
        "operations: {} attempted, {} failed, {} oracle mismatches",
        tally.attempted, tally.failed, tally.mismatched
    );
    for (name, value, _, _) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
    }
    println!("{}", report.json(&tally));
    Ok(if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Starts `serve --ingest` on a fresh journal and a pristine copy of the
/// seed-window store; returns the session and its published epoch.
fn spawn_live(
    cli: &Path,
    run_dir: &Path,
    seed_store: &Path,
    months: &[sibling_net_types::MonthDate],
    cycle: usize,
) -> Result<(Session, u64), String> {
    let dir = run_dir.join(format!("ingest-{cycle}"));
    let store = serving::fresh_store(seed_store, &dir)?;
    // Absolute: `IngestJournal::open` syncs the journal's parent
    // directory, which a bare relative name does not have.
    let journal = absolute(&dir.join("journal"))?;
    let daemon_args: Vec<String> = vec![
        "--ingest".into(),
        journal.display().to_string(),
        "--store".into(),
        store.display().to_string(),
        "--seed".into(),
        inputs::WORLD_SEED.to_string(),
        "--to".into(),
        months[SEED_MONTHS - 1].to_string(),
        "--socket".into(),
        run_dir.join(format!("i{cycle}.sock")).display().to_string(),
        "--readers".into(),
        "2".into(),
    ];
    let mut session = serving::open_session(cli, &daemon_args, &run_dir.join("ingest.log"))?;
    let epoch = serving::ask(&mut session.clients()?[0], "epoch")?
        .first()
        .and_then(|e| e.parse::<u64>().ok())
        .ok_or("epoch: malformed answer")?;
    Ok((session, epoch))
}

/// Reads the failure counters over a connection the load already holds
/// open.
fn finish_session(
    session: &mut Session,
    got: &mut Measured,
    tally: &mut Tally,
) -> Result<(), String> {
    let failures = serving::health_failures(&mut session.clients()?[1])?;
    got.health_failures += failures;
    tally.failed += failures;
    Ok(())
}

fn seconds_of(passes: &[PassReport]) -> Vec<f64> {
    passes.iter().map(|p| p.seconds).collect()
}

/// The end-to-end metrics, from times already scaled to the reference
/// host speed.
fn end_to_end(report: &mut Report, got: &Measured, workload: Workload) -> Result<(), String> {
    let (setups, setup_what) = match workload {
        Workload::BatchWindow => (&got.batch_setups, "store opens"),
        Workload::QueryMixed => (&got.query_setups, "daemon spawns"),
        Workload::IngestLive => (&got.ingest_setups, "daemon spawns"),
    };
    report.put(
        "setup_s",
        median(setups),
        "s",
        format!("median of {} {setup_what}", setups.len()),
    );
    let (rss, rss_what) = match workload {
        Workload::BatchWindow => (got.batch_rss_mb, "batch process".to_string()),
        Workload::QueryMixed => (got.query_rss_mb, "query daemon".to_string()),
        Workload::IngestLive => (
            median(&got.ingest_rss_mb),
            format!("median of {} ingest daemons", got.ingest_rss_mb.len()),
        ),
    };
    report.put("peak_rss_mb", rss, "MiB", format!("VmHWM, {rss_what}"));
    report.put(
        "batch_window_s",
        median(&seconds_of(&got.passes)),
        "s",
        format!("median of {} passes", got.passes.len()),
    );
    let (reads, rounds, source) = match workload {
        Workload::IngestLive => (
            &got.live_reads,
            &got.live_rounds,
            "1 connection beside ingest",
        ),
        _ => (&got.reads, &got.read_rounds, "2 connections"),
    };
    let note = format!(
        "median of {} rounds; {} reads, {source}",
        rounds.len(),
        reads.completed
    );
    let of_rounds = |f: fn(&RoundReads) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    report.put("query_qps", of_rounds(|r| r.qps), "1/s", note.clone());
    report.put("query_p50_us", of_rounds(|r| r.p50_us), "us", note.clone());
    report.put("query_p99_us", of_rounds(|r| r.p99_us), "us", note);
    let writes = &got.writes;
    report.put(
        "ingest_dps",
        writes.completed as f64 / got.scaled_stream_secs,
        "1/s",
        format!(
            "{} deltas in {:.3} s ({:.3} s scaled)",
            writes.completed, got.stream_secs, got.scaled_stream_secs
        ),
    );
    let n = writes.latencies.len();
    report.put(
        "ingest_p50_ms",
        latency(&writes.latencies, 0.50, 1e6, "ingest_p50_ms")?,
        "ms",
        format!("n={n}"),
    );
    report.put(
        "ingest_p90_ms",
        latency(&writes.latencies, 0.90, 1e6, "ingest_p90_ms")?,
        "ms",
        format!("n={n}"),
    );
    Ok(())
}

fn per_layer(
    report: &mut Report,
    got: &Measured,
    trace: &Trace,
    read_mix: bool,
) -> Result<(), String> {
    let spans = trace.spans();
    let layer = |name: &'static str| trace.durations(name);
    let ms = |name: &'static str| median_ns(&layer(name), 1e6, name);
    let us = |name: &'static str| median_ns(&layer(name), 1e3, name);
    let note = |name: &'static str| format!("median of {}", layer(name).len());

    // Batch path, from the batch process's traced passes.
    let traced = &got.traced_passes;
    let last = traced.last().ok_or("no traced batch pass")?;
    let pass_note = format!("median of {} traced passes", traced.len());
    let batch_median =
        |f: fn(&PassReport) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    report.put(
        "store.open_ms",
        batch_median(|p| p.open_ms),
        "ms",
        pass_note.clone(),
    );
    report.put(
        "engine.window_ms",
        batch_median(|p| p.window_ms),
        "ms",
        pass_note.clone(),
    );
    report.put(
        "engine.patch_ms",
        batch_median(|p| p.patch_ms),
        "ms",
        pass_note.clone(),
    );
    report.put(
        "engine.settle_ms",
        batch_median(|p| p.settle_ms),
        "ms",
        pass_note.clone(),
    );
    report.put(
        "engine.rescored_share",
        last.dirty_shards as f64 / last.total_shards as f64,
        "ratio",
        format!("{} of {} shards", last.dirty_shards, last.total_shards),
    );
    let interns = last.dedup_hits + last.distinct_sets;
    report.put(
        "arena.dedup_ratio",
        last.dedup_hits as f64 / interns as f64,
        "ratio",
        format!("{} hits of {interns} interns", last.dedup_hits),
    );
    report.put(
        "arena.distinct_sets",
        last.distinct_sets as f64,
        "count",
        "per pass".into(),
    );
    report.put(
        "query.publish_ms",
        batch_median(|p| p.publish_ms),
        "ms",
        pass_note.clone(),
    );
    report.put(
        "ledger.advance_ms",
        batch_median(|p| p.ledger_ms),
        "ms",
        format!("{pass_note}, summed over months"),
    );
    report.put(
        "batch.residual_ms",
        batch_median(|p| p.residual_ms),
        "ms",
        format!("{pass_note}: pass self time"),
    );
    report.put(
        "trace.batch_overhead_ms",
        (median(&seconds_of(traced)) - median(&seconds_of(&got.passes))) * 1e3,
        "ms",
        format!(
            "{} traced vs {} untraced passes",
            traced.len(),
            got.passes.len()
        ),
    );

    // Query path.
    let parse_us = us("protocol.parse")?;
    report.put("protocol.parse_us", parse_us, "us", note("protocol.parse"));
    for (metric, span) in [
        ("planner.point_us", "planner.point"),
        ("planner.partners_us", "planner.partners"),
        ("planner.history_us", "planner.history"),
        ("planner.stats_us", "planner.stats"),
    ] {
        report.put(metric, us(span)?, "us", note(span));
    }
    report.put(
        "planner.response_bytes",
        got.replay_bytes as f64 / got.replay_answers as f64,
        "bytes",
        format!("mean of {} answers", got.replay_answers),
    );
    let answers: Vec<u64> = spans
        .iter()
        .filter(|s| s.name.starts_with("planner."))
        .map(|s| s.end - s.start)
        .collect();
    let answer_us = median_ns(&answers, 1e3, "planner answers")?;
    let (read_span, reads) = if read_mix {
        ("client.read", &got.reads)
    } else {
        ("client.read_live", &got.live_reads)
    };
    let roundtrips = layer(read_span);
    let roundtrip_us = latency(&roundtrips, 0.50, 1e3, read_span)?;
    report.put(
        "server.transport_us",
        roundtrip_us - parse_us - answer_us,
        "us",
        format!(
            "round-trip p50 {roundtrip_us:.3} us of {} spans",
            roundtrips.len()
        ),
    );
    report.put(
        "trace.query_overhead_us",
        latency(&reads.traced, 0.50, 1e3, "traced reads")?
            - latency(&reads.latencies, 0.50, 1e3, "untraced reads")?,
        "us",
        format!(
            "p50 of {} traced vs {} untraced reads",
            reads.traced.len(),
            reads.latencies.len()
        ),
    );

    // Ingest path.
    report.put(
        "protocol.ingest_decode_ms",
        ms("protocol.ingest_decode")?,
        "ms",
        note("protocol.ingest_decode"),
    );
    report.put(
        "journal.append_ms",
        ms("journal.append")?,
        "ms",
        note("journal.append"),
    );
    let bytes = &got.journal_bytes;
    report.put(
        "journal.bytes_per_delta",
        bytes.iter().sum::<u64>() as f64 / bytes.len() as f64,
        "bytes",
        format!("mean of {}", bytes.len()),
    );
    let by_request = |name: &str| -> std::collections::BTreeMap<u64, u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, s.end - s.start))
            .collect()
    };
    let builds = by_request("query.build");
    let less_build = |name: &str| -> Vec<u64> {
        by_request(name)
            .into_iter()
            .map(|(id, ns)| ns.saturating_sub(builds[&id]))
            .collect()
    };
    report.put(
        "epoch.ingest_ms",
        median_ns(&less_build("epoch.ingest"), 1e6, "epoch.ingest")?,
        "ms",
        format!("median of {}, rebuild taken out", builds.len()),
    );
    report.put(
        "query.build_ms",
        ms("query.build")?,
        "ms",
        note("query.build"),
    );
    report.put(
        "feed.publish_us",
        us("feed.publish")?,
        "us",
        note("feed.publish"),
    );
    report.put(
        "store.compact_ms",
        ms("store.compact")?,
        "ms",
        note("store.compact"),
    );
    let side_total = median_ns(&less_build("replay.ingest"), 1e6, "replay.ingest")?;
    let ingests = layer("client.ingest");
    let ingest_rt = latency(&ingests, 0.50, 1e6, "client.ingest")?;
    report.put(
        "ingest.residual_ms",
        ingest_rt - side_total,
        "ms",
        format!(
            "round-trip p50 {ingest_rt:.3} ms of {} spans minus side pass {side_total:.3} ms",
            ingests.len()
        ),
    );
    let writes = &got.writes;
    report.put(
        "trace.ingest_overhead_ms",
        latency(&writes.traced, 0.50, 1e6, "traced ingests")?
            - latency(&writes.latencies, 0.50, 1e6, "untraced ingests")?,
        "ms",
        format!(
            "p50 of {} traced vs {} untraced deltas",
            writes.traced.len(),
            writes.latencies.len()
        ),
    );
    report.put(
        "server.failures",
        got.health_failures as f64,
        "count",
        "health: shed, timeouts, panics, ingest-failures".into(),
    );
    Ok(())
}
