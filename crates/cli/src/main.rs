//! `sibling-prefixes` — command-line interface to the reproduction.
//!
//! ```text
//! sibling-prefixes detect   [--seed N] [--level default|24-48|28-96]
//! sibling-prefixes tune     [--seed N] [--v4 L] [--v6 L]
//! sibling-prefixes publish  [--seed N] [--out FILE]
//! sibling-prefixes audit    [--seed N]
//! sibling-prefixes batch    --from YYYY-MM --to YYYY-MM [--seed N] [--mode incremental|full]
//!                           [--store DIR] [--load-mode mmap|read] [--window-threads N]
//! sibling-prefixes snapshot export --store DIR [--from YYYY-MM] [--to YYYY-MM] [--seed N]
//! sibling-prefixes world    export --store DIR [--from YYYY-MM] [--to YYYY-MM] [--seed N]
//! sibling-prefixes serve    (--listen HOST:PORT | --socket PATH) [--readers N]
//!                           [--max-conns N] [--deadline-ms MS] [--idle-ms MS]
//!                           [--shed-at N] [--drain-ms MS] [--serve-ms MS]
//!                           [--ingest JOURNAL] [--follow ENDPOINT]
//!                           [--from YYYY-MM --to YYYY-MM]
//!                           [--seed N] [--store DIR] …
//! sibling-prefixes query    --connect ENDPOINT[,ENDPOINT...] [--retries N] "REQUEST" [...]
//! sibling-prefixes ingest   --connect ENDPOINT --to YYYY-MM [--seed N]
//! sibling-prefixes run      [--seed N] [EXPERIMENT_ID ...]
//! sibling-prefixes list
//! ```
//!
//! Flags accept both `--key value` and `--key=value`. Every world-backed
//! subcommand takes `--preset paper|small|tiny` (default `paper`).
//!
//! All subcommands operate on the deterministic synthetic world; plugging
//! in real DNS/BGP data is a library-level operation (see README).

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sibling_analysis::{all_experiments, run_by_id, AnalysisContext};
use sibling_core::longitudinal::PairLedger;
use sibling_core::query::{MonthStats, WindowQueryIndex};
use sibling_core::tuner::more_specific::tune_more_specific;
use sibling_core::{BatchRun, DetectEngine, EngineConfig, EpochState, SpTunerConfig};
use sibling_dns::{DnsSnapshot, LoadMode, SnapshotDelta, SnapshotFile, SnapshotStore, StoreError};
use sibling_net_types::MonthDate;
use sibling_service::{
    Client, DeltaFeed, Endpoint, FailoverClient, FollowerOptions, HealthGauges, LiveWindow,
    QueryPlanner, Request, Response, RetryPolicy, ServeOptions, Server, ServerHandle,
};
use sibling_store::{check_months, WorldStore};
use sibling_worldgen::{World, WorldConfig};

/// Minimal flag parser: `--key value` / `--key=value` pairs plus
/// positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                // `--key=value` binds tighter than the next-argument form,
                // so `--seed=7` is the flag `seed`, not a flag `seed=7`.
                if let Some((key, value)) = key.split_once('=') {
                    flags.push((key.to_string(), value.to_string()));
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("flag --{key} needs a value"))?;
                    flags.push((key.to_string(), value.clone()));
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Self { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(42),
            Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}")),
        }
    }

    fn config(&self) -> Result<WorldConfig, String> {
        let seed = self.seed()?;
        match self.get("preset").unwrap_or("paper") {
            "paper" => Ok(WorldConfig::paper_scale(seed)),
            "small" => Ok(WorldConfig::test_small(seed)),
            "tiny" => Ok(WorldConfig::test_tiny(seed)),
            other => Err(format!(
                "unknown --preset {other:?} (valid values: paper, small, tiny)"
            )),
        }
    }

    fn month(&self, key: &str) -> Result<Option<MonthDate>, String> {
        self.get(key)
            .map(|s| s.parse().map_err(|e| format!("bad --{key}: {e}")))
            .transpose()
    }

    fn load_mode(&self) -> Result<LoadMode, String> {
        match self.get("load-mode") {
            None => Ok(LoadMode::Mmap),
            Some(s) => s.parse(),
        }
    }

    /// A `--key MS` millisecond flag with a default.
    fn msecs(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("bad --{key} {s:?} (milliseconds)")),
        }
    }

    /// The engine of `batch` and `serve`: `--mode incremental|full` and
    /// `--window-threads N`, the pool size (default 0, which sizes the
    /// pool to the machine; 1 runs every task inline).
    fn engine_config(&self) -> Result<EngineConfig, String> {
        let incremental = match self.get("mode").unwrap_or("incremental") {
            "incremental" => true,
            "full" => false,
            other => {
                return Err(format!(
                    "unknown --mode {other:?} (valid values: incremental, full)"
                ))
            }
        };
        let threads = self.get("window-threads").unwrap_or("0");
        let threads = threads.parse().map_err(|_| {
            format!("bad --window-threads {threads:?} (unsigned integer, 0 = machine size)")
        })?;
        Ok(EngineConfig {
            incremental,
            threads,
            ..EngineConfig::default()
        })
    }

    /// The shared `--from`/`--to` window, clamped to the world's range.
    fn window(&self, config: &WorldConfig) -> Result<(MonthDate, MonthDate), String> {
        let from = self.month("from")?.unwrap_or(config.start);
        let to = self.month("to")?.unwrap_or(config.end);
        if from > to {
            return Err(format!("empty window: {from} is after {to}"));
        }
        if from < config.start || to > config.end {
            return Err(format!(
                "window {from}..{to} outside the world's {}..{}",
                config.start, config.end
            ));
        }
        Ok((from, to))
    }
}

fn usage() -> &'static str {
    "usage: sibling-prefixes <command> [options]\n\
     \n\
     flags accept --key value and --key=value; world-backed commands also\n\
     take [--preset paper|small|tiny] (default paper)\n\
     \n\
     commands:\n\
     \x20 detect   detect sibling prefixes            [--seed N] [--level default|24-48|28-96] [--top K]\n\
     \x20 tune     run SP-Tuner at custom thresholds  [--seed N] [--v4 LEN] [--v6 LEN]\n\
     \x20 publish  write the sibling prefix list CSV  [--seed N] [--out FILE]\n\
     \x20 audit    RPKI/ROV audit of sibling pairs    [--seed N]\n\
     \x20 batch    longitudinal window in one pass    --from YYYY-MM --to YYYY-MM [--seed N] [--mode incremental|full] [--store DIR] [--load-mode mmap|read] [--window-threads N]\n\
     \x20 serve    resident query daemon              (--listen HOST:PORT | --socket PATH) [--readers N] [--max-conns N] [--deadline-ms MS] [--idle-ms MS] [--shed-at N] [--drain-ms MS] [--serve-ms MS] [--ingest JOURNAL] [--follow ENDPOINT] + batch's window flags\n\
     \x20 query    dial a running daemon              --connect ENDPOINT[,ENDPOINT...] [--retries N] \"REQUEST\" [\"REQUEST\" ...]\n\
     \x20 ingest   stream monthly deltas to a live daemon  --connect ENDPOINT --to YYYY-MM [--seed N]\n\
     \x20 snapshot export monthly snapshots to a store  export --store DIR [--from YYYY-MM] [--to YYYY-MM] [--seed N] [--force true]\n\
     \x20 world    export snapshots + world tables    export --store DIR [--from YYYY-MM] [--to YYYY-MM] [--seed N] [--force true]\n\
     \x20 run      run experiments by id              [--seed N] [ID ...]\n\
     \x20 list     list all experiment ids\n\
     \n\
     batch --store loads the window's snapshots from an exported store\n\
     (mmap, zero-copy) instead of re-resolving zones; if the store also\n\
     holds a world file (world export), routing and organization tables\n\
     are mapped from it too and worldgen is skipped entirely. batch\n\
     --window-threads sizes the cross-month scheduler's pool (default\n\
     0, which sizes it to the machine; 1 runs every task inline).\n\
     detection output is byte-identical across stores, modes and\n\
     thread counts. under serve --ingest the flag sizes start-up\n\
     scoring only: the live writer always runs on one thread\n\
     \n\
     serve scores the window once (same flags and fast paths as batch),\n\
     keeps it resident behind a lock-free query index, prints\n\
     `listening <endpoint>` and answers the line protocol: ping, months,\n\
     stats [M], siblings P4 P6 M, partners P M K, pair P4 P6 FROM..TO.\n\
     overload controls: --max-conns caps connections (beyond it: `err\n\
     busy` + close), --deadline-ms / --idle-ms bound slow and idle\n\
     connections (`err timeout`), --shed-at sheds the expensive verbs\n\
     (partners, pair) under pressure, --serve-ms N serves N ms then\n\
     drains gracefully (bounded by --drain-ms). query retries busy\n\
     sheds and transient transport errors with jittered backoff\n\
     (--retries N attempts) and exits 0 ok / 2 busy / 3 timeout /\n\
     4 unavailable (no replica answered) / 1 other, so supervisors\n\
     can tell overload from breakage (see README \"Query service\"\n\
     and \"Fault injection & resilience\"). --connect takes a\n\
     comma-separated replica list: busy sheds, deadline timeouts and\n\
     transport errors rotate to the next endpoint before backing off\n\
     \n\
     serve --ingest JOURNAL starts a *live* window: the daemon accepts\n\
     the `ingest` verb, journals each accepted delta to JOURNAL before\n\
     applying it (fsync'd, checksummed), and publishes every apply as a\n\
     new epoch readers pin per request (`epoch` and `health` report the\n\
     lifecycle). On restart the journal replays, so acknowledged deltas\n\
     survive crashes; with --store DIR, compaction folds ingested months\n\
     into the snapshot store and the window auto-extends to the last\n\
     contiguous stored month. ingest dials a live daemon, asks it for\n\
     its tail month, and streams the world's month-over-month deltas up\n\
     to --to; it is idempotent and self-synchronizing (see README \"Live\n\
     ingestion\")\n\
     \n\
     serve --ingest JOURNAL --follow ENDPOINT runs a read-only\n\
     *follower*: it bootstraps its window locally (same flags), then\n\
     tails the primary at ENDPOINT over the `sub` feed verb, applying\n\
     each streamed delta through its own crash-safe journal. It serves\n\
     every read verb at its applied epoch, answers `ingest` with `err\n\
     read-only`, and `health` reports its role and epoch lag. A primary\n\
     that dies leaves the follower serving its pinned epoch; when the\n\
     primary restarts the follower reconnects and catches up (see\n\
     README \"Replication & failover\")\n"
}

/// Generates the synthetic world, saying so on stderr.
fn generate_world(args: &Args, config: WorldConfig) -> World {
    eprintln!(
        "generating world (seed {}, preset {})…",
        config.seed,
        args.get("preset").unwrap_or("paper")
    );
    World::generate(config)
}

fn context(args: &Args) -> Result<AnalysisContext, String> {
    Ok(AnalysisContext::new(generate_world(args, args.config()?)))
}

fn cmd_detect(args: &Args) -> Result<(), String> {
    let ctx = context(args)?;
    let date = ctx.day0();
    let pairs = match args.get("level").unwrap_or("default") {
        "default" => ctx.default_pairs(date),
        "24-48" => ctx.tuned_pairs(date, SpTunerConfig::routable()),
        "28-96" => ctx.tuned_pairs(date, SpTunerConfig::best()),
        other => {
            return Err(format!(
                "unknown --level {other:?} (valid values: default, 24-48, 28-96)"
            ))
        }
    };
    let top: usize = args
        .get("top")
        .unwrap_or("20")
        .parse()
        .map_err(|_| "bad --top".to_string())?;
    let (v4, v6) = pairs.unique_prefix_counts();
    println!(
        "{} sibling pairs ({v4} v4 / {v6} v6 prefixes), perfect {:.1}%",
        pairs.len(),
        pairs.perfect_match_share() * 100.0
    );
    for pair in pairs.iter().take(top) {
        println!(
            "{:<20} {:<28} J={:.3} ({} shared domains)",
            pair.v4.to_string(),
            pair.v6.to_string(),
            pair.similarity.to_f64(),
            pair.shared_domains
        );
    }
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let ctx = context(args)?;
    let v4: u8 = args
        .get("v4")
        .unwrap_or("28")
        .parse()
        .map_err(|_| "bad --v4".to_string())?;
    let v6: u8 = args
        .get("v6")
        .unwrap_or("96")
        .parse()
        .map_err(|_| "bad --v6".to_string())?;
    if v4 > 32 || v6 > 128 {
        return Err(format!("thresholds /{v4}-/{v6} out of range"));
    }
    let date = ctx.day0();
    let index = ctx.index(date);
    let base = ctx.default_pairs(date);
    let outcome = tune_more_specific(&index, &base, &SpTunerConfig::with_thresholds(v4, v6));
    let (mean, std) = outcome.pairs.similarity_mean_std();
    println!(
        "SP-Tuner(/{v4}, /{v6}): {} pairs (perfect {:.1}%), mean {:.3} ± {:.3}",
        outcome.pairs.len(),
        outcome.pairs.perfect_match_share() * 100.0,
        mean,
        std
    );
    println!(
        "{} refined, {} derived from alternate branches, {} descent steps",
        outcome.refined, outcome.derived, outcome.steps
    );
    Ok(())
}

fn cmd_publish(args: &Args) -> Result<(), String> {
    let ctx = context(args)?;
    let out = args.get("out").unwrap_or("sibling-prefixes.csv");
    let date = ctx.day0();
    let pairs = ctx.tuned_pairs(date, SpTunerConfig::best());
    let mut csv = String::from("ipv4_prefix,ipv6_prefix,jaccard,shared_domains\n");
    for pair in pairs.iter() {
        csv.push_str(&format!(
            "{},{},{:.6},{}\n",
            pair.v4,
            pair.v6,
            pair.similarity.to_f64(),
            pair.shared_domains
        ));
    }
    std::fs::write(out, csv).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} pairs to {out}", pairs.len());
    Ok(())
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    let ctx = context(args)?;
    let date = ctx.day0();
    let pairs = ctx.default_pairs(date);
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    let mut todo = 0usize;
    for pair in pairs.iter() {
        if let Some(status) = sibling_analysis::classify::pair_rov_status(&ctx.world, pair, date) {
            *counts.entry(status.label()).or_insert(0) += 1;
            if status == sibling_rpki::PairRovStatus::ValidNotFound {
                todo += 1;
            }
        }
    }
    println!("ROV status of {} sibling pairs at {date}:", pairs.len());
    for (label, n) in &counts {
        println!(
            "  {label:<22}{n:>6}  ({:.1}%)",
            *n as f64 / pairs.len() as f64 * 100.0
        );
    }
    println!("\n{todo} pairs need a ROA for their uncovered side (valid+notfound).");
    Ok(())
}

/// Loads every month in `window` from the snapshot store, healing
/// corrupt months once: a month that fails validation is quarantined
/// aside by [`SnapshotStore::load_quarantining`] (renamed to
/// `*.corrupt`), rebuilt from the world — `prebuilt` when the caller
/// already generated one, else `generate` runs lazily exactly once —
/// re-exported, and loaded again. A second failure on the same month is
/// final: at that point the problem is the disk, not the file.
fn load_snapshots_healing(
    store: &SnapshotStore,
    window: &[MonthDate],
    mode: LoadMode,
    prebuilt: Option<&World>,
    generate: &dyn Fn() -> World,
) -> Result<
    (
        std::collections::BTreeMap<MonthDate, std::sync::Arc<SnapshotFile>>,
        usize,
    ),
    String,
> {
    let mut regenerated: Option<World> = None;
    let mut loaded = std::collections::BTreeMap::new();
    let mut bytes = 0usize;
    for &date in window {
        let at_path = |e: StoreError| format!("{}: {e}", store.path_of(date).display());
        let file = match store.load_quarantining(date, mode) {
            Ok(file) => file,
            Err(StoreError::Quarantined { path, reason }) => {
                eprintln!(
                    "snapshot store: {date} failed validation ({reason}); quarantined to {} and \
                     regenerating the month",
                    path.display()
                );
                let world = match prebuilt {
                    Some(world) => world,
                    None => regenerated.get_or_insert_with(generate),
                };
                store
                    .write(&world.snapshot(date))
                    .map_err(|e| format!("rewriting quarantined {date}: {e}"))?;
                store.load_with(date, mode).map_err(at_path)?
            }
            Err(e) => return Err(at_path(e)),
        };
        bytes += file.byte_len();
        loaded.insert(date, file);
    }
    Ok((loaded, bytes))
}

/// Resolves the window's input — store-backed (snapshot store, plus the
/// world file when present) or freshly generated — and runs `engine`
/// over it. Shared by `batch` and `serve`, which therefore score
/// identical windows from identical bytes.
///
/// Store corruption degrades instead of failing: a corrupt world file
/// is quarantined and the run falls back to generating the world; a
/// corrupt snapshot is quarantined, regenerated and retried once
/// ([`load_snapshots_healing`]). Either way the detection output is the
/// same bytes a healthy store produces.
///
/// Store-backed runs print a one-line load-timing breakdown on stderr
/// (world-table open vs snapshot opens), so the "loading is nearly
/// free" claim stays measurable from any run's log.
fn run_window_input(
    args: &Args,
    engine: &mut DetectEngine,
    config: &WorldConfig,
    from: MonthDate,
    to: MonthDate,
) -> Result<BatchRun, String> {
    let mode = args.load_mode()?;
    let generate = || generate_world(args, config.clone());
    let Some(dir) = args.get("store") else {
        let world = generate();
        let archive = world.rib_archive();
        let run = engine.run_window(from, to, &archive, |date| {
            std::sync::Arc::new(world.snapshot(date))
        })?;
        return Ok(run);
    };
    let world_open = Instant::now();
    let stored = if WorldStore::exists(Path::new(dir)) {
        match WorldStore::open_quarantining(Path::new(dir), Some(config.fingerprint()), mode) {
            Ok(stored) => Some(stored),
            Err(StoreError::Quarantined { path, reason }) => {
                eprintln!(
                    "world store: failed validation ({reason}); quarantined to {} and falling \
                     back to worldgen",
                    path.display()
                );
                None
            }
            Err(e) => return Err(format!("world store {dir}: {e}")),
        }
    } else {
        None
    };
    let window = from.range_to(to);
    let run = match stored {
        Some(stored) => {
            // Fully store-backed window: snapshots come off the mmap'd
            // snapshot store, routing and organization tables off the
            // world file — worldgen never runs (unless a corrupt month
            // needs healing). The fingerprint check refuses a store
            // exported under a different configuration, and the
            // coverage pre-scans turn gaps into one typed error listing
            // every missing month.
            check_months(&stored, &window).map_err(|e| e.to_string())?;
            let archive = stored.rib_archive();
            let world_open = world_open.elapsed();
            let snapshot_open = Instant::now();
            let store =
                SnapshotStore::open(dir).map_err(|e| format!("snapshot store {dir}: {e}"))?;
            let missing: Vec<MonthDate> = window
                .iter()
                .copied()
                .filter(|&d| !store.contains(d))
                .collect();
            if !missing.is_empty() {
                return Err(format!(
                    "snapshot store: {}",
                    StoreError::MissingMonths { missing }
                ));
            }
            let (loaded, bytes) = load_snapshots_healing(&store, &window, mode, None, &generate)?;
            let snapshot_open = snapshot_open.elapsed();
            eprintln!(
                "loaded world tables ({} KiB) and {} stored snapshots ({} KiB) from {dir}; worldgen skipped",
                stored.byte_len() / 1024,
                loaded.len(),
                bytes / 1024
            );
            eprintln!(
                "store load: world open {} µs, snapshots open {} µs ({} months)",
                world_open.as_micros(),
                snapshot_open.as_micros(),
                loaded.len()
            );
            engine.run_window(from, to, &archive, |date| loaded[&date].clone())?
        }
        None => {
            // Snapshot-only store (no usable world file): zone
            // resolution never runs, but the world is still generated
            // because the RIB archive (and nothing else) is derived
            // from it.
            let world = generate();
            let archive = world.rib_archive();
            let snapshot_open = Instant::now();
            let store =
                SnapshotStore::open(dir).map_err(|e| format!("snapshot store {dir}: {e}"))?;
            let (loaded, bytes) =
                load_snapshots_healing(&store, &window, mode, Some(&world), &generate)?;
            let snapshot_open = snapshot_open.elapsed();
            eprintln!(
                "loaded {} stored snapshots ({} KiB) from {dir}",
                loaded.len(),
                bytes / 1024
            );
            eprintln!(
                "store load: world open - (no world file, generated), snapshots open {} µs ({} months)",
                snapshot_open.as_micros(),
                loaded.len()
            );
            engine.run_window(from, to, &archive, |date| loaded[&date].clone())?
        }
    };
    Ok(run)
}

/// One-pass longitudinal sweep: walks the snapshot window through
/// [`DetectEngine::run_window`], reusing the domain interner, RIB archive
/// and hash-consed set arena across months, and reports the per-month
/// sibling sets plus their month-over-month deltas (computed by a
/// [`PairLedger`] merge walk against the previous month).
///
/// Detection output (stdout) is identical between `--mode=incremental`
/// (the default: snapshot deltas, dirty-shard rescoring) and
/// `--mode=full` (per-month rebuilds), and across every
/// `--window-threads` count (the cross-month scheduler's bit-identity
/// contract) — CI diffs all of them. Churn, timing and engine
/// accounting go to stderr so the comparison stays clean.
fn cmd_batch(args: &Args) -> Result<(), String> {
    let config = args.config()?;
    let (from, to) = args.window(&config)?;
    let engine_config = args.engine_config()?;
    let mut engine = DetectEngine::new(engine_config);
    let run = run_window_input(args, &mut engine, &config, from, to)?;

    println!("{}", MonthStats::batch_header());
    // Month-over-month deltas via one ledger, which merge-walks each
    // month against the previous one. The row formatter is shared with
    // the query service's `stats` family
    // ([`MonthStats::batch_row`]), so served answers diff cleanly
    // against this table.
    let mut ledger = PairLedger::new();
    for (i, (date, set)) in run.results.iter().enumerate() {
        let (v4_prefixes, v6_prefixes) = set.unique_prefix_counts();
        let delta = ledger.advance(set);
        let delta = if i == 0 {
            None
        } else {
            let (n, u, c, _) = delta.counts();
            Some((n, u, c))
        };
        let stats = MonthStats {
            date: *date,
            pairs: set.len(),
            v4_prefixes,
            v6_prefixes,
            perfect_share: set.perfect_match_share(),
            delta,
        };
        println!("{}", stats.batch_row());
    }
    println!(
        "\n{} months, {} pairs total",
        run.stats.months, run.stats.total_pairs
    );

    // Engine accounting (stderr): per-month input churn and how little of
    // the shard space the incremental path had to rescore.
    // `run_window` diffs dual-stack entries only, so the first three
    // columns count domains joining, leaving and moving within that set.
    eprintln!("\nchurn      +ds   -ds   ~ds  (eff)   shards rescored");
    for churn in &run.churn {
        if churn.full_rebuild {
            eprintln!(
                "{}  {:>5} {:>5} {:>5} {:>6}   full rebuild ({} shards)",
                churn.date, "-", "-", "-", "-", churn.total_shards
            );
        } else {
            eprintln!(
                "{}  {:>5} {:>5} {:>5} {:>6}   {}/{} ({:.1}%)",
                churn.date,
                churn.added,
                churn.removed,
                churn.retargeted,
                churn.changed_effective,
                churn.dirty_shards,
                churn.total_shards,
                churn.rescored_share() * 100.0
            );
        }
    }
    eprintln!(
        "arena: {} distinct domain sets, {} dedup hits, {} recycled; {} full rebuild(s)",
        run.stats.distinct_sets,
        run.stats.dedup_hits,
        run.stats.recycled_sets,
        run.stats.full_rebuilds
    );

    // Per-month timing breakdown (stderr): the sequential patch chain on
    // the driver thread vs each month's spawn-to-assembled settle time —
    // settle spans overlap across months under the window scheduler.
    eprintln!("\ntiming    patch(µs)  settle(µs)");
    let (mut patch_total, mut settle_total) = (0u64, 0u64);
    for timing in &run.timings {
        patch_total += timing.patch_ns;
        settle_total += timing.settle_ns;
        eprintln!(
            "{}  {:>9} {:>11}",
            timing.date,
            timing.patch_ns / 1_000,
            timing.settle_ns / 1_000
        );
    }
    eprintln!(
        "window: {}; patch chain {} µs total, settle {} µs summed across overlapping months",
        match engine_config.threads {
            0 => "machine-sized pool".to_string(),
            1 => "1 thread (inline)".to_string(),
            n => format!("{n} threads"),
        },
        patch_total / 1_000,
        settle_total / 1_000
    );
    Ok(())
}

/// `serve`: the resident query daemon. Scores the window once exactly
/// like `batch` (same store-backed fast path, same engine), pivots the
/// results into the read-optimized [`WindowQueryIndex`], and serves the
/// line protocol over TCP (`--listen`) or a unix socket (`--socket`)
/// with `--readers` resident reader threads until the process is killed
/// (or, with `--serve-ms N`, drains gracefully after N milliseconds).
///
/// Overload controls map straight onto [`ServeOptions`]: `--max-conns`
/// caps concurrent connections (beyond it, `err busy` and close),
/// `--deadline-ms`/`--idle-ms` bound each request and idle gaps,
/// `--shed-at` sets the pressure threshold above which the expensive
/// verbs are shed, `--drain-ms` bounds the graceful wind-down.
///
/// Prints `listening <endpoint>` on stdout once ready — supervisors and
/// the CI smoke step wait for that line before dialing in.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let endpoint = match (args.get("listen"), args.get("socket")) {
        (Some(addr), None) => Endpoint::Tcp(addr.to_string()),
        #[cfg(unix)]
        (None, Some(path)) => Endpoint::Unix(std::path::PathBuf::from(path)),
        #[cfg(not(unix))]
        (None, Some(_)) => return Err("--socket needs a unix platform; use --listen".into()),
        (None, None) => {
            return Err("serve needs --listen HOST:PORT or --socket PATH".into());
        }
        (Some(_), Some(_)) => return Err("serve takes --listen or --socket, not both".into()),
    };
    let readers: usize = args
        .get("readers")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --readers (unsigned integer, 0 = machine size)".to_string())?;
    let readers = if readers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        readers
    };
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        max_conns: args
            .get("max-conns")
            .unwrap_or("0")
            .parse()
            .map_err(|_| "bad --max-conns (unsigned integer, 0 = readers)".to_string())?,
        request_deadline: Duration::from_millis(
            args.msecs("deadline-ms", defaults.request_deadline.as_millis() as u64)?,
        ),
        idle_timeout: Duration::from_millis(
            args.msecs("idle-ms", defaults.idle_timeout.as_millis() as u64)?,
        ),
        drain_deadline: Duration::from_millis(
            args.msecs("drain-ms", defaults.drain_deadline.as_millis() as u64)?,
        ),
        shed_expensive_at: args
            .get("shed-at")
            .unwrap_or("0")
            .parse()
            .map_err(|_| "bad --shed-at (unsigned integer, 0 = cap + 1)".to_string())?,
    };
    let serve_ms = args.msecs("serve-ms", 0)?;
    if let Some(journal) = args.get("ingest") {
        let journal = std::path::PathBuf::from(journal);
        return cmd_serve_live(args, endpoint, readers, options, serve_ms, &journal);
    }
    if args.get("follow").is_some() {
        return Err("serve --follow needs --ingest JOURNAL (the follower's own journal)".into());
    }
    let config = args.config()?;
    let (from, to) = args.window(&config)?;
    let mut engine = DetectEngine::new(args.engine_config()?);
    let score = Instant::now();
    let run = run_window_input(args, &mut engine, &config, from, to)?;
    // Scoring is done: the engine's pool workers exit here, so the
    // daemon serves with its readers alone.
    drop(engine);
    let index = WindowQueryIndex::publish(&run).map_err(|e| e.to_string())?;
    eprintln!(
        "window {from}..{to} scored and published in {} ms: {} months, {} pairs resident",
        score.elapsed().as_millis(),
        index.months().len(),
        index.total_pairs()
    );
    let planner = QueryPlanner::new(index);
    let server = Server::bind(&endpoint).map_err(|e| format!("bind failed: {e}"))?;
    // The readiness line: everything before this went to stderr, so a
    // supervisor can `read` exactly one stdout line and start dialing.
    println!("listening {}", server.endpoint());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let handle = server
        .start_with(planner, readers, options)
        .map_err(|e| format!("starting readers: {e}"))?;
    run_daemon(handle, readers, serve_ms)
}

/// The shared daemon epilogue: timed serve-and-drain (`--serve-ms`,
/// how CI exercises shutdown without signal plumbing) or park forever.
fn run_daemon(handle: ServerHandle, readers: usize, serve_ms: u64) -> Result<(), String> {
    if serve_ms > 0 {
        // Timed run: serve, then wind down gracefully — in-flight
        // requests finish, new connections stop being accepted, and the
        // final counters land on stderr. CI exercises drain this way
        // without signal plumbing.
        eprintln!("{readers} reader(s) serving for {serve_ms} ms, then draining");
        std::thread::sleep(Duration::from_millis(serve_ms));
        let report = handle.drain();
        eprintln!("drained: {}", report.stats);
        if report.drained {
            Ok(())
        } else {
            Err("drain deadline elapsed with connections still in flight".into())
        }
    } else {
        eprintln!("{readers} reader(s) serving; kill the process to stop");
        handle.park_forever()
    }
}

/// `serve --ingest JOURNAL`: the live window. Scores the offline window
/// like `serve`, then seeds an epoch-published writer over it, replays
/// the ingest journal (acknowledged deltas survive crashes), and starts
/// the daemon with a writer thread behind the `ingest` verb.
///
/// The live daemon is always a replication *primary*: every accepted
/// (and journal-replayed) delta is also published into an in-memory
/// [`DeltaFeed`] under its durable epoch, and the `sub FROM-EPOCH` verb
/// streams the retained tail to followers. With `--follow ENDPOINT`
/// the daemon is instead a read-only *follower*: it bootstraps the
/// same way (local store + its own journal), then tails ENDPOINT's
/// feed on a background thread, applying each delta through the
/// identical journal-then-apply path. Followers refuse `ingest`
/// (`err read-only`) and report `role follower` plus their epoch lag
/// in `health`.
///
/// The world is always generated here — the writer needs RIB coverage
/// for months *past* the offline window, and the synthetic world is the
/// only source of it. With `--store DIR` the window auto-extends past
/// `--to` through every contiguous stored month (where earlier runs'
/// compactions landed), bounded by the world's range, and ingested
/// months compact into the store. The `listening` readiness line prints
/// only after replay finishes: once a supervisor can dial, the window
/// already carries every durable delta.
fn cmd_serve_live(
    args: &Args,
    endpoint: Endpoint,
    readers: usize,
    options: ServeOptions,
    serve_ms: u64,
    journal: &Path,
) -> Result<(), String> {
    let config = args.config()?;
    let (from, mut to) = args.window(&config)?;
    let mode = args.load_mode()?;
    let world = generate_world(args, config.clone());
    let archive = world.rib_archive();
    let store = match args.get("store") {
        Some(dir) => {
            Some(SnapshotStore::open(dir).map_err(|e| format!("snapshot store {dir}: {e}"))?)
        }
        None => None,
    };
    if let Some(store) = &store {
        while to < config.end && store.contains(to.add_months(1)) {
            to = to.add_months(1);
        }
    }
    let window = from.range_to(to);
    let mut snaps = std::collections::BTreeMap::new();
    for &date in &window {
        let snap = match &store {
            Some(store) if store.contains(date) => {
                let file = store
                    .load_with(date, mode)
                    .map_err(|e| format!("{}: {e}", store.path_of(date).display()))?;
                std::sync::Arc::new(DnsSnapshot::materialize(&*file))
            }
            _ => std::sync::Arc::new(world.snapshot(date)),
        };
        snaps.insert(date, snap);
    }
    // `--window-threads` sizes this start-up scoring only: the epoch
    // writer runs every ingest on one thread.
    let engine_config = args.engine_config()?;
    let score = Instant::now();
    let mut engine = DetectEngine::new(engine_config);
    let run = engine.run_window(from, to, &archive, |date| snaps[&date].clone())?;
    drop(engine);
    // Out of `snaps`, the tail has the writer as its only holder, so
    // replay and the first ingest patch it in place instead of copying
    // it. The other months, and the world, go once serving has started.
    let tail = snaps.remove(&to).expect("the window holds its tail month");
    let (epoch, index) =
        EpochState::seed(engine_config, archive, run.results, tail).map_err(|e| e.to_string())?;
    eprintln!(
        "window {from}..{to} scored in {} ms: {} months, {} pairs resident",
        score.elapsed().as_millis(),
        index.months().len(),
        index.total_pairs()
    );
    // Follower: bootstrap identically, but the window is advanced by
    // the replication thread tailing the primary's feed, never by the
    // `ingest` verb (no sink is attached, so it answers `read-only`).
    if let Some(upstream) = args.get("follow") {
        let gauges = HealthGauges::follower();
        let (mut live, report) = LiveWindow::recover(epoch, index, journal, store)?;
        live.attach_gauges(std::sync::Arc::clone(&gauges));
        eprintln!(
            "ingest journal {}: replayed {} delta(s), skipped {} already-compacted, discarded {} \
             torn byte(s); window tail {}",
            journal.display(),
            report.replayed,
            report.skipped,
            report.discarded_bytes,
            live.tail_date()
        );
        let mut planner = QueryPlanner::live(live.published());
        planner.attach_gauges(std::sync::Arc::clone(&gauges));
        let server = Server::bind(&endpoint).map_err(|e| format!("bind failed: {e}"))?;
        println!("listening {}", server.endpoint());
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        // Started before the readers so a dialing supervisor already
        // sees `role follower` in health; kept alive until the daemon
        // exits (dropping the handle stops the thread).
        let _follower = sibling_service::follow(live, upstream, gauges, FollowerOptions::default())
            .map_err(|e| format!("starting the replication thread: {e}"))?;
        let handle = server
            .start_with(planner, readers, options)
            .map_err(|e| format!("starting readers: {e}"))?;
        eprintln!("following {upstream}; read-only (ingest answers err read-only)");
        drop((snaps, world));
        return run_daemon(handle, readers, serve_ms);
    }
    let feed = std::sync::Arc::new(DeltaFeed::new());
    let gauges = HealthGauges::primary();
    let (mut live, report) = LiveWindow::recover_replicating(
        epoch,
        index,
        journal,
        store,
        Some(std::sync::Arc::clone(&feed)),
    )?;
    live.attach_gauges(std::sync::Arc::clone(&gauges));
    eprintln!(
        "ingest journal {}: replayed {} delta(s), skipped {} already-compacted, discarded {} \
         torn byte(s); window tail {}",
        journal.display(),
        report.replayed,
        report.skipped,
        report.discarded_bytes,
        live.tail_date()
    );
    let mut planner = QueryPlanner::live(live.published());
    planner.attach_feed(feed);
    planner.attach_gauges(gauges);
    let server = Server::bind(&endpoint).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening {}", server.endpoint());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let handle = server
        .start_live(planner, readers, options, Box::new(live))
        .map_err(|e| format!("starting readers: {e}"))?;
    drop((snaps, world));
    run_daemon(handle, readers, serve_ms)
}

/// `ingest`: stream the synthetic world's monthly deltas into a live
/// daemon. Asks the daemon for its current tail month (`months`), then
/// for every month after it up to `--to` sends one `ingest` request
/// carrying the month-over-month [`SnapshotDelta`] in hex armor.
///
/// Because the starting point comes from the daemon, the command is
/// self-synchronizing and idempotent: re-running it after a partial
/// stream (or a daemon crash and replay) resumes exactly where the
/// daemon's durable window ends.
fn cmd_ingest(args: &Args) -> Result<(), String> {
    let endpoint = args
        .get("connect")
        .ok_or("ingest needs --connect ENDPOINT (tcp://HOST:PORT or unix://PATH)")?;
    let config = args.config()?;
    let to = args
        .month("to")?
        .ok_or("ingest needs --to YYYY-MM (last month to stream)")?;
    if to > config.end {
        return Err(format!(
            "--to {to} is outside the world's {}..{}",
            config.start, config.end
        ));
    }
    let mut client =
        Client::connect(endpoint).map_err(|e| format!("connecting to {endpoint}: {e}"))?;
    let tail = match client
        .roundtrip("months")
        .map_err(|e| format!("asking the daemon for its months: {e}"))?
    {
        Response::Ok(lines) => lines
            .last()
            .ok_or("daemon reported an empty window")?
            .parse::<MonthDate>()
            .map_err(|e| format!("daemon reported a malformed tail month: {e}"))?,
        Response::Err { code, message } => {
            return Err(format!("months: {code}: {message}"));
        }
    };
    if tail >= to {
        eprintln!("daemon tail {tail} already covers --to {to}; nothing to ingest");
        return Ok(());
    }
    let world = generate_world(args, config);
    let mut prev = world.snapshot(tail);
    let mut month = tail;
    while month < to {
        let next = month.add_months(1);
        let snap = world.snapshot(next);
        let delta = SnapshotDelta::diff(&prev, &snap);
        let request = Request::Ingest(delta).to_string();
        match client
            .roundtrip(&request)
            .map_err(|e| format!("sending {month}..{next}: {e}"))?
        {
            Response::Ok(lines) => {
                let epoch = lines.first().map(String::as_str).unwrap_or("?");
                println!("{next} epoch {epoch}");
            }
            Response::Err { code, message } => {
                return Err(format!("ingest {month}..{next}: {code}: {message}"));
            }
        }
        prev = snap;
        month = next;
    }
    Ok(())
}

/// `query`: a thin client for the daemon. Each positional argument is
/// one protocol request; data lines go to stdout (errors to stderr), so
/// output diffs directly against `batch`-derived expectations.
///
/// Connects and round-trips with bounded jittered backoff
/// ([`RetryPolicy`]): transient transport errors and `err busy` sheds
/// are retried up to `--retries N` attempts (default 4; 1 disables).
/// `--connect` takes a comma-separated replica list ([`FailoverClient`]):
/// busy sheds, deadline timeouts and transport errors rotate to the
/// next endpoint before backing off, so one dead or overloaded replica
/// never fails the run while another can answer.
///
/// Failures that survive retrying map to distinct exit codes so
/// supervisors can tell overload from breakage: 2 = shed (`busy`),
/// 3 = deadline (`timeout`), 4 = unavailable (no replica answered at
/// the transport level — every endpoint down, unreachable or hung),
/// 1 = anything else (including malformed requests the daemon
/// rejected).
fn cmd_query(args: &Args) -> Result<(), (u8, String)> {
    let fail = |message: String| (1u8, message);
    let connect = args.get("connect").ok_or_else(|| {
        fail("query needs --connect ENDPOINT[,ENDPOINT...] (tcp://HOST:PORT or unix://PATH)".into())
    })?;
    let endpoints: Vec<String> = connect
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if endpoints.is_empty() {
        return Err(fail(format!("bad --connect {connect:?}: no endpoints")));
    }
    if args.positional.is_empty() {
        return Err(fail(
            "query needs at least one request argument (e.g. \"ping\")".into(),
        ));
    }
    let attempts: u32 = args
        .get("retries")
        .unwrap_or("4")
        .parse()
        .map_err(|_| fail("bad --retries (positive integer; 1 disables retrying)".into()))?;
    let policy = RetryPolicy {
        attempts: attempts.max(1),
        ..RetryPolicy::default()
    };
    let replicas = endpoints.join(", ");
    let mut client = FailoverClient::new(endpoints, policy)
        .map_err(|e| fail(format!("bad --connect {connect:?}: {e}")))?;
    let mut failures = 0usize;
    let (mut busy, mut timeout, mut other) = (false, false, false);
    for request in &args.positional {
        match client.roundtrip(request) {
            Ok(Response::Ok(lines)) => {
                for line in lines {
                    println!("{line}");
                }
            }
            Ok(Response::Err { code, message }) => {
                eprintln!("error: {request:?}: {code}: {message}");
                failures += 1;
                match code.as_str() {
                    "busy" => busy = true,
                    "timeout" => timeout = true,
                    _ => other = true,
                }
            }
            // A malformed endpoint string is caller error, not an
            // outage — don't report "all replicas down" for a typo.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                return Err(fail(format!("transport error on {request:?}: {e}")));
            }
            Err(e) => {
                return Err((
                    4,
                    format!("no replica answered {request:?}: {e} (tried {replicas})"),
                ));
            }
        }
    }
    if failures == 0 {
        return Ok(());
    }
    // Mixed failures report the most actionable class: a hard error
    // outranks a deadline, which outranks a shed.
    let exit = if other {
        1
    } else if timeout {
        3
    } else {
        debug_assert!(busy);
        2
    };
    Err((exit, format!("{failures} request(s) failed")))
}

/// The window of snapshots `snapshot export` and `world export` wrote.
struct SnapshotExport<'a> {
    world: World,
    dir: &'a str,
    from: MonthDate,
    to: MonthDate,
    written: usize,
    /// Months of the window the store already held (and `--force`
    /// was not given).
    present: usize,
}

/// The shared half of `snapshot export` and `world export`: checks the
/// `export` action and `--store DIR`, generates the world and writes the
/// `--from`/`--to` window's snapshots to the store.
fn export_snapshots<'a>(args: &'a Args, command: &str) -> Result<SnapshotExport<'a>, String> {
    match args.positional.first().map(String::as_str) {
        Some("export") => {}
        Some(other) => return Err(format!("unknown {command} action {other:?} (try: export)")),
        None => {
            return Err(format!(
                "{command} needs an action (try: {command} export --store DIR)"
            ))
        }
    }
    let dir = args
        .get("store")
        .ok_or_else(|| format!("{command} export needs --store DIR"))?;
    let config = args.config()?;
    let (from, to) = args.window(&config)?;
    let force = args
        .get("force")
        .is_some_and(|v| matches!(v, "true" | "1" | "yes"));
    let world = generate_world(args, config);
    let store = SnapshotStore::create(dir).map_err(|e| format!("snapshot store {dir}: {e}"))?;
    let written = world
        .export_snapshots(&store, from, to, force)
        .map_err(|e| format!("snapshot store {dir}: {e}"))?;
    Ok(SnapshotExport {
        world,
        dir,
        from,
        to,
        written,
        present: from.range_to(to).len() - written,
    })
}

/// `snapshot export`: resolve a window of monthly snapshots once and
/// write them to an on-disk store, so later `batch --store` runs (and
/// anything else consuming the store) load them back via mmap in
/// milliseconds instead of regenerating the world's zones.
fn cmd_snapshot(args: &Args) -> Result<(), String> {
    let SnapshotExport {
        dir,
        from,
        to,
        written,
        present,
        ..
    } = export_snapshots(args, "snapshot")?;
    println!(
        "exported {written} snapshot(s) to {dir} ({present} already present) for {from}..{to}"
    );
    Ok(())
}

/// `world export`: generate the world once and persist *everything*
/// `batch --store` needs — the monthly DNS snapshots (`SIBSNAP` files)
/// plus the routing and organization tables (the `SIBWORLD` world file,
/// stamped with the configuration's fingerprint). Later `batch --store`
/// runs against the same seed/preset then skip worldgen entirely.
fn cmd_world(args: &Args) -> Result<(), String> {
    let SnapshotExport {
        world,
        dir,
        from,
        to,
        written,
        present,
    } = export_snapshots(args, "world")?;
    let path = WorldStore::write(
        Path::new(dir),
        world.config.fingerprint(),
        &world.rib_archive(),
        world.as_org(),
        world.asdb(),
        world.hg_cdn(),
    )
    .map_err(|e| format!("world store {dir}: {e}"))?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "exported {written} snapshot(s) ({present} already present) for {from}..{to} and world \
         tables ({} KiB, fingerprint {:#018x}) to {dir}",
        bytes / 1024,
        world.config.fingerprint()
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let ctx = context(args)?;
    let ids: Vec<String> = if args.positional.is_empty() {
        all_experiments()
            .iter()
            .map(|e| e.id().to_string())
            .collect()
    } else {
        args.positional.clone()
    };
    let mut failures = 0usize;
    for id in &ids {
        let result = run_by_id(&ctx, id).ok_or_else(|| format!("unknown experiment {id:?}"))?;
        println!("{}", result.render());
        if !result.all_passed() {
            failures += 1;
        }
    }
    if failures > 0 {
        Err(format!("{failures} experiments had failing shape checks"))
    } else {
        Ok(())
    }
}

fn cmd_list() -> Result<(), String> {
    for experiment in all_experiments() {
        println!(
            "{:<14}{:<44}{}",
            experiment.id(),
            experiment.title(),
            experiment.paper_ref()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&raw[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command.as_str() {
        "detect" => cmd_detect(&args),
        "tune" => cmd_tune(&args),
        "publish" => cmd_publish(&args),
        "audit" => cmd_audit(&args),
        "batch" => cmd_batch(&args),
        "serve" => cmd_serve(&args),
        // `query` keeps its own exit-code vocabulary (0 ok, 2 busy,
        // 3 timeout, 4 unavailable, 1 everything else) so supervisors
        // can tell overload from breakage without parsing stderr.
        "query" => match cmd_query(&args) {
            Ok(()) => Ok(()),
            Err((code, e)) => {
                eprintln!("error: {e}");
                return ExitCode::from(code);
            }
        },
        "ingest" => cmd_ingest(&args),
        "snapshot" => cmd_snapshot(&args),
        "world" => cmd_world(&args),
        "run" => cmd_run(&args),
        "list" => cmd_list(),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!(
            "unknown command {other:?} (valid commands: detect, tune, publish, audit, batch, \
             serve, query, ingest, snapshot, world, run, list, help)"
        )),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
