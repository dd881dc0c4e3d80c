//! Inputs: the exported world (exported once, then cached), the read
//! request stream and the sliced ingest stream, both drawn from `--seed`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

use sibling_core::WindowQueryIndex;
use sibling_dns::{SnapshotDelta, SnapshotFile, SnapshotStore};
use sibling_net_types::MonthDate;
use sibling_service::Request;
use sibling_worldgen::WorldConfig;

use crate::stats::{fnv, FNV_OFFSET};

/// Months the live daemon is seeded with; the rest of the window is
/// streamed to it as deltas.
pub const SEED_MONTHS: usize = 24;

/// Deltas each streamed month is split into: one append, then tail
/// retargets carrying the rest of the month's domain changes.
pub const SLICES_PER_MONTH: usize = 5;

/// Pairs the read stream draws from each month.
pub const PAIRS_PER_MONTH: usize = 24;

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The world every run measures: the paper preset at the CLI's default
/// seed. It is fixed rather than drawn from `--seed` because worlds of
/// different seeds differ in size by up to 15%, and memory, batch and
/// ingest cost follow the size.
pub const WORLD_SEED: u64 = 42;

pub fn world_config() -> WorldConfig {
    WorldConfig::paper_scale(WORLD_SEED)
}

/// What made a cached export: the exporting binary's size and content
/// digest. A `sibling-cli` built from other code may generate another
/// world or lay its files out another way, so its stamp differs and the
/// world is exported again.
fn exporter_stamp(cli: &Path) -> Result<String, String> {
    let bytes = std::fs::read(cli).map_err(|e| format!("{}: {e}", cli.display()))?;
    Ok(format!(
        "{} {:016x}\n",
        bytes.len(),
        fnv(FNV_OFFSET, &bytes)
    ))
}

/// Exports the world (snapshots + world tables) with the shipped CLI
/// unless the cache already holds this binary's export, and derives the
/// live daemon's pristine seed-window store (the first [`SEED_MONTHS`]
/// snapshots). Returns `(full store, seed store)`.
pub fn ensure_world(cli: &Path, work: &Path) -> Result<(PathBuf, PathBuf), String> {
    let seed = WORLD_SEED;
    let world = work.join(format!("world-{seed}"));
    let seed_dir = work.join(format!("seed-{seed}"));
    let marker = world.join("complete");
    let stamp = exporter_stamp(cli)?;
    if std::fs::read_to_string(&marker).ok().as_deref() != Some(stamp.as_str()) {
        let _ = std::fs::remove_dir_all(&world);
        let _ = std::fs::remove_dir_all(&seed_dir);
        let log = std::fs::File::create(work.join(format!("export-{seed}.log")))
            .map_err(|e| format!("export log: {e}"))?;
        let status = Command::new(cli)
            .args(["world", "export", "--store"])
            .arg(&world)
            .args(["--seed", &seed.to_string()])
            .stdout(Stdio::null())
            .stderr(log)
            .status()
            .map_err(|e| format!("running {}: {e}", cli.display()))?;
        if !status.success() {
            return Err(format!("world export for seed {seed} failed: {status}"));
        }
        let full = SnapshotStore::open(&world).map_err(|e| e.to_string())?;
        std::fs::create_dir_all(&seed_dir).map_err(|e| e.to_string())?;
        let seed_store = SnapshotStore::open(&seed_dir).map_err(|e| e.to_string())?;
        for date in &world_config().months()[..SEED_MONTHS] {
            std::fs::copy(full.path_of(*date), seed_store.path_of(*date))
                .map_err(|e| format!("copying {date} into the seed store: {e}"))?;
        }
        std::fs::write(&marker, stamp).map_err(|e| e.to_string())?;
    }
    Ok((world, seed_dir))
}

/// The read stream over `months` of `index`, in the shape of the mixed
/// stream of the repository's in-process query benchmark (`query_corpus`
/// in `crates/bench/benches/bench_service.rs`), so that its end-to-end
/// figures can be set against that baseline. For each of
/// [`PAIRS_PER_MONTH`] pairs drawn from each month it makes a `siblings`
/// hit and a guaranteed miss, `partners` of the pair's IPv4 prefix (top 5)
/// and of its IPv6 prefix (top 3), and the pair's `pair` history over all
/// of `months`. The three families are interleaved round-robin, with one
/// `stats M` every sixteen rounds. `seed` draws the pairs (the in-process
/// corpus takes them at a fixed stride). Lines are in wire form:
/// newline-terminated, so the client sends each request in one write.
pub fn query_stream(index: &WindowQueryIndex, months: &[MonthDate], seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let (first, last) = (months[0], months[months.len() - 1]);
    let mut point = Vec::new();
    let mut partners = Vec::new();
    let mut history = Vec::new();
    for &month in months {
        let view = index.month(month).expect("stream months are in the index");
        let pairs = view.set().as_slice();
        if pairs.is_empty() {
            continue;
        }
        for _ in 0..PAIRS_PER_MONTH {
            let pair = &pairs[rng.below(pairs.len())];
            point.push(format!("siblings {} {} {month}\n", pair.v4, pair.v6));
            // A guaranteed miss: the documentation prefix never appears
            // in generated worlds.
            point.push(format!("siblings {} 2001:db8::/48 {month}\n", pair.v4));
            partners.push(format!("partners {} {month} 5\n", pair.v4));
            partners.push(format!("partners {} {month} 3\n", pair.v6));
            history.push(format!("pair {} {} {first}..{last}\n", pair.v4, pair.v6));
        }
    }
    let mut mixed = Vec::new();
    let longest = point.len().max(partners.len()).max(history.len());
    for i in 0..longest {
        mixed.push(point[i % point.len()].clone());
        mixed.push(partners[i % partners.len()].clone());
        mixed.push(history[i % history.len()].clone());
        if i % 16 == 0 {
            mixed.push(format!("stats {}\n", months[i % months.len()]));
        }
    }
    mixed
}

/// Splits one month's delta into `slices` deltas by a seeded
/// assignment of its domain changes: the first appends the month
/// (`from → to`), the rest retarget the new tail (`to → to`). Applied in
/// order they compose to exactly the month's snapshot.
pub fn slice_month(delta: &SnapshotDelta, rng: &mut Rng, slices: usize) -> Vec<SnapshotDelta> {
    let mut buckets = vec![Vec::new(); slices];
    for change in delta.changes() {
        buckets[rng.below(slices)].push(change.clone());
    }
    let (from, to) = (delta.from_date(), delta.to_date());
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, changes)| {
            SnapshotDelta::from_changes(if i == 0 { from } else { to }, to, changes)
        })
        .collect()
}

/// The live daemon's ingest stream in wire form, hex-armored: every
/// month after the seed window, diffed from the stored snapshots and
/// sliced.
pub fn ingest_stream(
    files: &BTreeMap<MonthDate, Arc<SnapshotFile>>,
    months: &[MonthDate],
    seed: u64,
) -> Vec<String> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::new();
    for pair in months.windows(2) {
        let delta = SnapshotDelta::diff_sources(&*files[&pair[0]], &*files[&pair[1]]);
        for slice in slice_month(&delta, &mut rng, SLICES_PER_MONTH) {
            out.push(format!("{}\n", Request::Ingest(slice)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibling_core::{Ratio, SiblingPair, SiblingSet};
    use sibling_dns::{DnsSnapshot, DomainId, ResolvedAddrs};

    fn snapshot(date: MonthDate, domains: &[(u32, u32)]) -> DnsSnapshot {
        let mut snap = DnsSnapshot::new(date);
        for &(id, addr) in domains {
            snap.insert(
                DomainId(id),
                ResolvedAddrs {
                    v4: vec![addr],
                    v6: vec![u128::from(addr) << 64],
                },
            );
        }
        snap
    }

    #[test]
    fn slices_compose_to_the_next_month_and_only_the_first_appends() {
        let (m0, m1) = (MonthDate::new(2021, 1), MonthDate::new(2021, 2));
        let old: Vec<(u32, u32)> = (0..200).map(|i| (i, i)).collect();
        // Removals (0..40), retargets (40..120), keeps and additions.
        let new: Vec<(u32, u32)> = (40..120)
            .map(|i| (i, i + 1000))
            .chain((120..200).map(|i| (i, i)))
            .chain((200..260).map(|i| (i, i)))
            .collect();
        let (before, after) = (snapshot(m0, &old), snapshot(m1, &new));
        let delta = SnapshotDelta::diff(&before, &after);
        for seed in 0..8 {
            let slices = slice_month(&delta, &mut Rng::new(seed, 2), SLICES_PER_MONTH);
            assert_eq!(slices.len(), SLICES_PER_MONTH);
            assert_eq!((slices[0].from_date(), slices[0].to_date()), (m0, m1));
            for slice in &slices[1..] {
                assert_eq!((slice.from_date(), slice.to_date()), (m1, m1));
            }
            let composed = slices.iter().fold(before.clone(), |snap, s| s.apply(&snap));
            assert_eq!(composed, after);
            let total: usize = slices.iter().map(SnapshotDelta::churn).sum();
            assert_eq!(total, delta.churn());
        }
    }

    fn index() -> (WindowQueryIndex, Vec<MonthDate>) {
        let months: Vec<MonthDate> = MonthDate::new(2021, 1).range_to(MonthDate::new(2021, 6));
        let results = months
            .iter()
            .enumerate()
            .map(|(m, &date)| {
                let pairs = (0..20u8)
                    .map(|i| SiblingPair {
                        v4: format!("10.{m}.{i}.0/24").parse().unwrap(),
                        v6: format!("2600:{m}:{i}::/48").parse().unwrap(),
                        similarity: Ratio::new(1, 1 + u64::from(i % 3)),
                        shared_domains: 1,
                        v4_domains: 1 + u64::from(i % 3),
                        v6_domains: 1,
                    })
                    .collect();
                (date, SiblingSet::from_pairs(pairs))
            })
            .collect::<Vec<_>>();
        (WindowQueryIndex::build(&results).unwrap(), months)
    }

    #[test]
    fn the_same_seed_gives_the_same_streams() {
        let (index, months) = index();
        let a = query_stream(&index, &months, 7);
        assert_eq!(a, query_stream(&index, &months, 7));
        assert_ne!(a, query_stream(&index, &months, 8));
        // The in-process corpus's shape: siblings, partners and pair
        // round-robin, a stats line every sixteen rounds.
        let pairs = months.len() * PAIRS_PER_MONTH;
        let rounds = 2 * pairs;
        assert_eq!(a.len(), 3 * rounds + rounds.div_ceil(16));
        let mut lines = a.iter();
        for i in 0..rounds {
            for verb in ["siblings ", "partners ", "pair "] {
                assert!(lines.next().unwrap().starts_with(verb), "round {i}: {verb}");
            }
            if i % 16 == 0 {
                assert!(lines.next().unwrap().starts_with("stats "), "round {i}");
            }
        }
        let (first, last) = (months[0], months[months.len() - 1]);
        assert!(a
            .iter()
            .filter(|l| l.starts_with("pair "))
            .all(|l| l.ends_with(&format!(" {first}..{last}\n"))));
        // Half of the point lookups miss.
        let planner = sibling_service::QueryPlanner::new(std::sync::Arc::new(index));
        let mut out = String::new();
        let (mut hits, mut misses) = (0, 0);
        for line in a.iter().filter(|l| l.starts_with("siblings")) {
            planner.answer_line(line, &mut out);
            if out == "ok 0\n" {
                misses += 1;
            } else {
                hits += 1;
            }
        }
        assert_eq!((hits, misses), (rounds / 2, rounds / 2));

        let (m0, m1) = (MonthDate::new(2021, 1), MonthDate::new(2021, 2));
        let old: Vec<(u32, u32)> = (0..100).map(|i| (i, i)).collect();
        let new: Vec<(u32, u32)> = (50..150).map(|i| (i, i * 3)).collect();
        let delta = SnapshotDelta::diff(&snapshot(m0, &old), &snapshot(m1, &new));
        let slices = |seed| slice_month(&delta, &mut Rng::new(seed, 2), SLICES_PER_MONTH);
        assert_eq!(slices(7), slices(7));
        assert_ne!(slices(7), slices(8));
    }
}
