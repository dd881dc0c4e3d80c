//! The sharded detection engine and pipelined cross-month window
//! scheduler.
//!
//! [`crate::detect`] is the straightforward reference implementation of
//! steps 3–4: one global candidate `BTreeSet`, one scoring pass, one
//! best-match map. It is correct and easy to audit, but it is a single
//! sequential walk and every caller pays full price per snapshot.
//! [`DetectEngine`] restructures the same computation for scale without
//! changing a single output bit:
//!
//! * **Sharding** — the IPv4 prefix groups are split into shards. Each
//!   shard enumerates its candidate IPv6 counterparts via the
//!   domain→prefix reverse map and scores them locally, producing its
//!   own pair run and best-match maxima. Shard outcomes reduce into the
//!   global pair set and maxima (v4 maxima are disjoint across shards,
//!   v6 maxima merge by maximum), so the result equals the serial walk.
//!   Candidate enumeration is a *counting join*: the walk that finds the
//!   candidates already yields every `|A ∩ B|`, so the per-pair merge
//!   walk of the serial reference disappears from the hot path.
//! * **Hash-consed sets** — the engine owns a concurrently-shareable
//!   [`SetArena`] shared by every index it builds, so identical domain
//!   sets are stored once, compare by id, and intersections of identical
//!   sets short-circuit.
//! * **Incremental batch driving** — [`DetectEngine::run_window`] walks
//!   a dated snapshot window with cost proportional to **churn**, not
//!   snapshot size: consecutive snapshots are diffed
//!   ([`sibling_dns::SnapshotDelta`]), the previous month's index is
//!   patched in place ([`crate::GroupIndex::apply_delta`], recycling
//!   dead arena sets), and only *dirty* shards are rescored. The engine
//!   carries a bare [`GroupIndex`] — groups and domain→prefix lists
//!   only; the SP-Tuner host tries of an analysis
//!   [`crate::PrefixDomainIndex`] are never built on this path.
//!
//! # The window scheduler
//!
//! Every engine owns a persistent pool
//! ([`sibling_executor::ThreadPool`]) of [`EngineConfig::threads`]
//! threads. On more than one thread **the whole window is the unit of
//! parallelism**. Months form a dependency DAG: month *m*'s index patch
//! depends on month *m−1*'s index (a cheap, churn-sized, strictly
//! sequential chain the driver thread walks), but everything else —
//! month-over-month snapshot diffs, dirty-shard rescoring, and per-month
//! assembly — runs as fire-and-forget tasks on the pool, so independent
//! dirty shards of *different* months score concurrently. A one-thread
//! pool (the default) spawns no worker and runs every task inline at its
//! spawn, in submission order: the serial walk.
//!
//! ```text
//! driver:   load₀ seed₀ | patch₁ spawn₁ | patch₂ spawn₂ | … collect
//! pool:        diff₁ diff₂ …   score₁ₐ score₂ᵦ …  assemble₁ assemble₂ …
//! ```
//!
//! The driver never waits for a month to finish before patching the
//! next. That is sound because of how the state is split:
//!
//! * **Shared immutable core** — the scoring-relevant maps (per-prefix
//!   group sets, per-domain prefix lists) live behind `Arc`s inside the
//!   index; each month's tasks capture a [`ScoreView`] (two `Arc`
//!   clones). Patching the next month goes through `Arc::make_mut`:
//!   copy-on-write *only if* an older month's view is still in flight,
//!   free when scoring has already drained (serial runs never copy).
//! * **Per-month mutable slices** — each dirty shard's rescore gets its
//!   own captured member list and fills its own result
//!   [`sibling_executor::sync::Slot`]; a month's assembly task waits on
//!   the per-shard slots it depends on (the most recent rescore at or
//!   before that month) and reduces them exactly like the serial path.
//! * **Structural candidate index** — dirtiness needs to know which
//!   shards scored a changed IPv6 prefix last month. That used to be
//!   derived from scoring *outcomes* (a cross-month serialization);
//!   the scheduler instead maintains it structurally (a counted
//!   shard↔candidate map patched from [`crate::index::DomainMove`]s), so
//!   month *m+1*'s dirty set never waits on month *m*'s scores.
//!
//! Deferred arena recycling ([`SetArena::sweep`]) closes the loop: a set
//! released by the patch chain while an in-flight view still holds it is
//! parked and reclaimed once that month's scoring drains.
//!
//! The live epoch writer ([`crate::EpochState`]) runs the same month
//! step: each ingested delta is one more `advance_month` (or, on a
//! routing-table change, `seed_window`) followed by `spawn_assemble`, on
//! a one-thread engine.
//!
//! Output is **bit-identical** to the full-rebuild reference across
//! thread counts, shard counts and churn rates — property-tested below.
//! The key argument: a shard's outcome is a pure function of the
//! month-*m* view it captured, the dirty rule over-approximates
//! (rescoring a clean shard reproduces its cached outcome), and assembly
//! consumes outcomes in shard order regardless of completion order.
//!
//! # Why clean shards may be reused
//!
//! A shard's outcome is a pure function of (a) its IPv4 groups' interned
//! sets, (b) the v6 prefix lists of the domains in those sets, and
//! (c) the sets of its candidate IPv6 prefixes. A domain whose prefix
//! lists did not change moves none of these. The delta report marks
//! every v4 prefix a changed domain mapped to before or after the change
//! (covering (a) and (b)) and every v6 prefix whose set changed, whose
//! scoring shards the candidate index names (covering (c)). A clean
//! shard therefore contains no changed domain (its groups and their
//! reverse entries are untouched) and none of its candidates changed
//! size — candidates are exactly the IPv6 prefixes its domains map into,
//! and all supported metrics are strictly positive on a non-empty
//! intersection.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::Arc;
use std::time::Instant;

use sibling_bgp::{RibArchive, RibSource};
use sibling_dns::{DnsSnapshot, DomainId, SnapshotDelta, SnapshotSource};
use sibling_executor::sync::Slot;
use sibling_executor::{Scope, ThreadPool};
use sibling_net_types::{Ipv4Prefix, Ipv6Prefix, MonthDate};

use crate::arena::{FxHasher, SetArena, SetHandle};
use crate::index::{DomainMove, GroupIndex, PrefixDomainIndex};
use crate::metrics::{Ratio, SimilarityMetric};
use crate::pipeline::{BestMatchPolicy, SiblingPair, SiblingSet};

/// Tuning knobs of a [`DetectEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The similarity metric pairs are scored with.
    pub metric: SimilarityMetric,
    /// Which side's best matches constitute the sibling set.
    pub policy: BestMatchPolicy,
    /// Number of candidate shards; `0` sizes automatically (a small
    /// multiple of the worker count, so stealing can balance skew).
    pub shards: usize,
    /// Size of the engine's pool, which the window scheduler and
    /// `detect` dispatch onto. `1` (the default) runs every task inline
    /// on the calling thread; `0` sizes the pool to the machine.
    pub threads: usize,
    /// Whether batch windows run incrementally (snapshot deltas, index
    /// patching, dirty-shard rescoring). `false` rebuilds every month
    /// from scratch — the reference the incremental path is
    /// property-tested against. Defaults to `true`.
    pub incremental: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            metric: SimilarityMetric::Jaccard,
            policy: BestMatchPolicy::Union,
            shards: 0,
            threads: 1,
            incremental: true,
        }
    }
}

/// Aggregate statistics of a batch run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Snapshots processed.
    pub months: usize,
    /// Distinct live domain sets in the arena after the run.
    pub distinct_sets: usize,
    /// Intern calls answered by an already-interned set (within and
    /// across months — the hash-consing payoff).
    pub dedup_hits: u64,
    /// Dead set slots recycled by incremental index patching during this
    /// run (including deferred recycles swept after scoring drained).
    pub recycled_sets: u64,
    /// Months that rebuilt the index from scratch (the first month, RIB
    /// changes, or `incremental = false`).
    pub full_rebuilds: usize,
    /// Total sibling pairs across all processed snapshots.
    pub total_pairs: usize,
}

/// Per-month churn and rescoring accounting of a batch run — what the
/// CLI surfaces so incremental behaviour is observable.
#[derive(Debug, Clone, Copy)]
pub struct MonthChurn {
    /// The processed month.
    pub date: MonthDate,
    /// Domains that appeared since the previously processed date.
    pub added: usize,
    /// Domains that disappeared.
    pub removed: usize,
    /// Domains present on both sides with different addresses.
    pub retargeted: usize,
    /// Changed domains whose *dual-stack* contribution changed (the ones
    /// that actually mutate the index).
    pub changed_effective: usize,
    /// Shards rescored this month.
    pub dirty_shards: usize,
    /// Total shards of the window (`0` when the month ran through the
    /// non-incremental per-date pipeline).
    pub total_shards: usize,
    /// Whether the month rebuilt and rescored everything.
    pub full_rebuild: bool,
}

impl MonthChurn {
    /// Fraction of shards rescored (1.0 for full rebuilds).
    pub fn rescored_share(&self) -> f64 {
        if self.full_rebuild || self.total_shards == 0 {
            1.0
        } else {
            self.dirty_shards as f64 / self.total_shards as f64
        }
    }
}

/// Per-month wall-clock split of a batch run (the CLI's
/// `--window-threads` timing breakdown).
#[derive(Debug, Clone, Copy)]
pub struct MonthTiming {
    /// The processed month.
    pub date: MonthDate,
    /// Driver-thread time: snapshot/delta intake, index patching, dirty
    /// bookkeeping and task spawning — the sequential part of the DAG.
    pub patch_ns: u64,
    /// Spawn-to-assembled wall time of the month's scoring + assembly —
    /// overlaps other months' work under the window scheduler.
    pub settle_ns: u64,
}

/// The result of a batch run: one sibling set per date, plus statistics.
#[derive(Debug, Default)]
pub struct BatchRun {
    /// `(date, sibling set)` in input date order.
    pub results: Vec<(MonthDate, SiblingSet)>,
    /// Per-month churn/rescoring accounting, in input date order.
    pub churn: Vec<MonthChurn>,
    /// Per-month timing breakdown, in input date order.
    pub timings: Vec<MonthTiming>,
    /// Aggregate run statistics.
    pub stats: BatchStats,
}

impl BatchRun {
    /// The sibling set detected at `date`, if it was part of the run.
    pub fn at(&self, date: MonthDate) -> Option<&SiblingSet> {
        self.results
            .iter()
            .find(|(d, _)| *d == date)
            .map(|(_, s)| s)
    }
}

/// The sharded, arena-backed detection engine (see module docs).
#[derive(Debug)]
pub struct DetectEngine {
    config: EngineConfig,
    arena: SetArena,
    /// Persistent pool sized by [`EngineConfig::threads`], reused by
    /// every `detect`/window call of this engine and shut down
    /// gracefully when the engine drops.
    pool: ThreadPool,
}

impl Default for DetectEngine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

/// What one shard reports back: its pair run (already in `(v4, v6)`
/// order) and its best-match maxima. IPv4 maxima are complete (shards
/// partition the v4 prefixes); IPv6 maxima are partial and reduced by
/// maximum across shards.
#[derive(Default)]
struct ShardOutcome {
    pairs: Vec<SiblingPair>,
    best_v4: BTreeMap<Ipv4Prefix, Ratio>,
    best_v6: BTreeMap<Ipv6Prefix, Ratio>,
}

/// The immutable month-*m* scoring inputs a shard task captures: the v6
/// side of the index as two `Arc`d maps. Capturing is two pointer bumps;
/// the next month's patch copies-on-write only while captures are alive.
/// (The v4 side travels as each task's own member list, so it needs no
/// sharing.)
#[derive(Clone)]
struct ScoreView {
    v6_domains: Arc<BTreeMap<DomainId, Arc<[Ipv6Prefix]>>>,
    v6_groups: Arc<BTreeMap<Ipv6Prefix, SetHandle>>,
}

impl ScoreView {
    fn capture(index: &GroupIndex) -> Self {
        Self {
            v6_domains: index.family::<u128>().domain_prefixes_shared(),
            v6_groups: index.family::<u128>().groups_shared(),
        }
    }
}

/// The structural shard↔candidate index: for every IPv6 prefix, how many
/// `(v4 prefix, domain)` contributions each shard has that reach it. A
/// shard scores pairs against exactly the v6 prefixes its domains map
/// into, so `count > 0` ⇔ "this shard scored that candidate" — the same
/// relation the pre-scheduler engine read off scoring outcomes, now
/// maintained from [`DomainMove`]s without waiting for any score.
#[derive(Default)]
struct CandidateIndex {
    map: HashMap<Ipv6Prefix, BTreeMap<u32, u32>, BuildHasherDefault<FxHasher>>,
}

impl CandidateIndex {
    /// Builds the index from scratch (window seeding) — one pass over
    /// the join structure, the same cost as one full scoring walk's
    /// candidate enumeration.
    fn seed(index: &GroupIndex, shard_count: usize) -> Self {
        let mut this = Self::default();
        for (p4, handle) in index.group_sets::<u32>() {
            let shard = shard_of(p4, shard_count) as u32;
            for d in handle.iter() {
                if let Some(p6s) = index.prefixes_of_domain::<u128>(*d) {
                    for p6 in p6s {
                        this.bump(*p6, shard, 1);
                    }
                }
            }
        }
        this
    }

    fn bump(&mut self, p6: Ipv6Prefix, shard: u32, delta: i32) {
        let shards = self.map.entry(p6).or_default();
        let count = shards.entry(shard).or_insert(0);
        if delta > 0 {
            *count += delta as u32;
        } else {
            debug_assert!(*count >= (-delta) as u32, "candidate count underflow");
            *count = count.saturating_sub((-delta) as u32);
        }
        if *count == 0 {
            shards.remove(&shard);
            if shards.is_empty() {
                self.map.remove(&p6);
            }
        }
    }

    /// Applies one month's domain transitions: every `(old v4 × old v6)`
    /// contribution leaves, every `(new v4 × new v6)` contribution
    /// enters — churn-proportional.
    fn apply_moves(&mut self, moves: &[DomainMove], shard_count: usize) {
        for mv in moves {
            for p4 in mv.old_v4.iter() {
                let shard = shard_of(p4, shard_count) as u32;
                for p6 in mv.old_v6.iter() {
                    self.bump(*p6, shard, -1);
                }
            }
            for p4 in mv.new_v4.iter() {
                let shard = shard_of(p4, shard_count) as u32;
                for p6 in mv.new_v6.iter() {
                    self.bump(*p6, shard, 1);
                }
            }
        }
    }

    /// The shards currently holding `p6` as a scoring candidate.
    fn shards_of(&self, p6: &Ipv6Prefix) -> impl Iterator<Item = usize> + '_ {
        self.map
            .get(p6)
            .into_iter()
            .flat_map(|shards| shards.keys().map(|&s| s as usize))
    }
}

/// Carried state of an incremental window walk, generic over the
/// routing-table handle `R` (any [`RibSource`]; `Arc<Rib>` for
/// regenerated worlds, a store-backed mmap table otherwise). It keeps no
/// snapshot: the batch driver diffs its prefetched handles, and the live
/// writer owns its tail.
pub(crate) struct WindowState<R> {
    /// The month of the snapshot the index currently reflects.
    date: MonthDate,
    /// The table the index was built against; [`RibSource::same_table`]
    /// identity gates whether deltas may be applied.
    rib: R,
    /// The index, patched in place month over month.
    index: GroupIndex,
    /// Shard count fixed for the whole window so cached outcomes stay
    /// addressable.
    shard_count: usize,
    /// Sorted member v4 prefixes per shard, maintained churn-wise (the
    /// per-month basis of each dirty shard's captured group list).
    members: Vec<Vec<Ipv4Prefix>>,
    /// Latest outcome slot per shard — filled by the most recent rescore
    /// (possibly months ago for clean shards). A month's assembly waits
    /// on its snapshot of these: one `Arc` bump, and the next rescore
    /// copies the list only while that assembly is still pending.
    slots: Arc<Vec<OutcomeSlot>>,
    /// Structural shard↔candidate index (see [`CandidateIndex`]).
    candidates: CandidateIndex,
}

impl<R> WindowState<R> {
    /// Re-aligns one shard's member list with the index after a patch
    /// (the prefix may have gained its first domain or lost its last).
    fn sync_member(&mut self, p4: Ipv4Prefix) {
        let present = self.index.set_of(&p4).is_some();
        let shard = shard_of(&p4, self.shard_count);
        let members = &mut self.members[shard];
        match members.binary_search(&p4) {
            Ok(pos) if !present => {
                members.remove(pos);
            }
            Err(pos) if present => {
                members.insert(pos, p4);
            }
            _ => {}
        }
    }
}

/// A shard's outcome slot: filled by the most recent rescore, shared by
/// every month that depends on it.
type OutcomeSlot = Arc<Slot<Arc<ShardOutcome>>>;

/// One month's collected output (filled by its assembly task).
pub(crate) struct MonthOutput {
    pub(crate) set: SiblingSet,
    settle_ns: u64,
}

/// Stable shard assignment: a deterministic hash of the prefix, so a
/// prefix stays in its shard no matter which other prefixes come and go
/// across the window.
fn shard_of(prefix: &Ipv4Prefix, shard_count: usize) -> usize {
    use std::hash::Hasher;
    let mut hasher = crate::arena::FxHasher::default();
    hasher.write_u32(prefix.bits());
    hasher.write_u32(u32::from(prefix.len()));
    (hasher.finish() % shard_count as u64) as usize
}

/// Reduces shard outcomes into the final sibling set exactly as the
/// serial reference does: v4 maxima are disjoint across shards, v6
/// maxima merge by maximum, pairs concatenate and are best-match
/// filtered. Shared by the one-shot [`DetectEngine::detect`] and the
/// window scheduler's assembly tasks (which mix cached and fresh
/// outcomes). Consumes outcomes **in shard order** — completion order
/// never matters.
fn assemble<'a, I>(outcomes: I, policy: BestMatchPolicy) -> SiblingSet
where
    I: IntoIterator<Item = &'a ShardOutcome>,
{
    let mut pairs: Vec<SiblingPair> = Vec::new();
    let mut best_v4: BTreeMap<Ipv4Prefix, Ratio> = BTreeMap::new();
    let mut best_v6: BTreeMap<Ipv6Prefix, Ratio> = BTreeMap::new();
    for outcome in outcomes {
        pairs.extend(outcome.pairs.iter().copied());
        for (&p4, &r) in &outcome.best_v4 {
            best_v4.insert(p4, r);
        }
        for (&p6, &r) in &outcome.best_v6 {
            best_v6
                .entry(p6)
                .and_modify(|cur| {
                    if r > *cur {
                        *cur = r;
                    }
                })
                .or_insert(r);
        }
    }
    let policy_filter =
        |p: &SiblingPair| crate::pipeline::best_match_keep(policy, &best_v4, &best_v6, p);
    SiblingSet::from_pairs(pairs.into_iter().filter(policy_filter).collect())
}

/// Everything the window scheduler's month steps share: the engine
/// knobs, the shared arena and the pool scope its tasks run in. A task
/// is a fire-and-forget closure that fills a [`Slot`]: a detached scoped
/// job on the pool (panics poison the slot, re-raised at its first
/// consumer). A one-thread pool runs it inline at its spawn, so
/// execution is immediate and in submission order: the serial walk.
pub(crate) struct WindowCtx<'s, 'env> {
    config: EngineConfig,
    workers: usize,
    arena: &'env SetArena,
    scope: &'s Scope<'env>,
}

impl<'env> WindowCtx<'_, 'env> {
    /// Fires a raw detached closure; `urgent` jumps the pool queue (see
    /// [`Scope::spawn_detached_urgent`] — the caller must guarantee the
    /// job waits on nothing enqueued before it).
    fn exec<F>(&self, urgent: bool, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if urgent {
            self.scope.spawn_detached_urgent(f);
        } else {
            self.scope.spawn_detached(f);
        }
    }

    /// Fires a closure whose value lands in `slot` (poisoned on panic,
    /// re-raised at the slot's first consumer).
    fn run<T, F>(&self, slot: &Arc<Slot<T>>, f: F)
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let slot = Arc::clone(slot);
        self.exec(false, move || {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                Ok(value) => slot.set(value),
                Err(payload) => slot.poison(payload),
            }
        });
    }

    /// One incremental month: [`WindowCtx::advance_month`] by `delta`
    /// when the month's table is the one `state` was built against, and
    /// [`WindowCtx::seed_window`] from `snapshot` otherwise — the first
    /// month, or a routing-table change, which invalidates every
    /// domain→prefix mapping. `delta` may be `None` only in the latter
    /// case. The batch driver and the live writer both step through
    /// here.
    pub(crate) fn step<S, R>(
        &self,
        state: &mut Option<WindowState<R>>,
        date: MonthDate,
        snapshot: &S,
        rib: R,
        delta: Option<&SnapshotDelta>,
    ) -> MonthChurn
    where
        S: SnapshotSource + ?Sized,
        R: RibSource,
    {
        match state {
            Some(prev) if prev.rib.same_table(&rib) => {
                let delta = delta.expect("a month on an unchanged table has its delta");
                self.advance_month(prev, date, delta)
            }
            _ => {
                let (seeded, churn) = self.seed_window(date, snapshot, rib, state.take());
                *state = Some(seeded);
                churn
            }
        }
    }

    /// (Re)seeds the window at `date`: full index build, full scoring of
    /// every shard (as per-shard tasks), fresh candidate index.
    pub(crate) fn seed_window<S, R>(
        &self,
        date: MonthDate,
        snapshot: &S,
        rib: R,
        superseded: Option<WindowState<R>>,
    ) -> (WindowState<R>, MonthChurn)
    where
        S: SnapshotSource + ?Sized,
        R: RibSource,
    {
        let index = GroupIndex::build(snapshot, &rib, self.arena);
        if let Some(old) = superseded {
            // Release the superseded index only *after* the new one is
            // interned: recurring sets dedup onto the live slots (so
            // releasing them is a no-op), and only sets the new month no
            // longer uses recycle.
            old.index.release_sets(self.arena);
        }
        let shard_count = window_shard_count(&self.config, self.workers, index.group_counts().0);
        let mut members: Vec<Vec<Ipv4Prefix>> = vec![Vec::new(); shard_count];
        for (p4, _) in index.group_sets::<u32>() {
            // Group iteration ascends, so each member list stays sorted.
            members[shard_of(p4, shard_count)].push(*p4);
        }
        let candidates = CandidateIndex::seed(&index, shard_count);
        let placeholder: OutcomeSlot = Arc::new(Slot::ready(Arc::new(ShardOutcome::default())));
        let mut slots: Vec<OutcomeSlot> = vec![placeholder; shard_count];
        self.spawn_score_bundles(&index, &members, &mut slots, 0..shard_count);
        let churn = MonthChurn {
            date,
            added: 0,
            removed: 0,
            retargeted: 0,
            changed_effective: 0,
            dirty_shards: shard_count,
            total_shards: shard_count,
            full_rebuild: true,
        };
        let state = WindowState {
            date: snapshot.snapshot_date(),
            rib,
            index,
            shard_count,
            members,
            slots: Arc::new(slots),
            candidates,
        };
        (state, churn)
    }

    /// The incremental month: apply the snapshot delta to the carried
    /// index, mark the shards it touched dirty, and spawn rescoring
    /// tasks for those — the clean remainder keeps its filled slots.
    fn advance_month<R: RibSource>(
        &self,
        state: &mut WindowState<R>,
        date: MonthDate,
        delta: &SnapshotDelta,
    ) -> MonthChurn {
        debug_assert_eq!(delta.from_date(), state.date, "delta base");
        let report = state.index.apply_delta(delta, &state.rib, self.arena);

        let shard_count = state.shard_count;
        let mut dirty = vec![false; shard_count];
        for p4 in &report.touched_v4 {
            dirty[shard_of(p4, shard_count)] = true;
        }
        for p6 in &report.touched_v6 {
            // A candidate IPv6 prefix changed size: every pair against it
            // rescales, so every shard that scored it goes dirty even
            // though its own v4 groups are untouched. The candidate
            // index still reflects *last* month here — exactly the
            // shards whose cached outcomes mention p6.
            for shard in state.candidates.shards_of(p6) {
                dirty[shard] = true;
            }
        }
        state.candidates.apply_moves(&report.moves, shard_count);
        for p4 in &report.touched_v4 {
            state.sync_member(*p4);
        }

        let dirty_shards = dirty.iter().filter(|d| **d).count();
        if dirty_shards > 0 {
            self.spawn_score_bundles(
                &state.index,
                &state.members,
                Arc::make_mut(&mut state.slots).as_mut_slice(),
                dirty
                    .iter()
                    .enumerate()
                    .filter_map(|(shard, dirty)| dirty.then_some(shard)),
            );
        }
        state.date = delta.to_date();
        MonthChurn {
            date,
            added: delta.added_count(),
            removed: delta.removed_count(),
            retargeted: delta.retargeted_count(),
            changed_effective: report.changed_domains,
            dirty_shards,
            total_shards: shard_count,
            full_rebuild: false,
        }
    }

    /// Rescores the given dirty shards, replacing their slots in
    /// `slots`. The shards are **bundled** into at most ~2 tasks per
    /// worker — at low churn a shard's rescore is microseconds of work,
    /// so per-shard tasks would cost more dispatch than scoring — and
    /// the bundles **jump the pool queue**: they capture this month's
    /// [`ScoreView`], and draining them before older queued work (like
    /// prefetched diffs) releases the view before the driver patches the
    /// next month, keeping the copy-on-write maps in place. Queue-
    /// jumping is sound here because a bundle waits on nothing.
    ///
    /// Shards with no members complete immediately via one shared ready
    /// slot; a shard whose scoring panics poisons its own slot. A
    /// replaced slot, and the outcome it holds, is dropped only once its
    /// successor is scored: freeing every dirty shard's old outcome
    /// before scoring any lets the allocator return the heap top to the
    /// system, and the scores then fault it back in.
    fn spawn_score_bundles<I>(
        &self,
        index: &GroupIndex,
        members: &[Vec<Ipv4Prefix>],
        slots: &mut [OutcomeSlot],
        dirty: I,
    ) where
        I: IntoIterator<Item = usize>,
    {
        let empty: OutcomeSlot = Arc::new(Slot::ready(Arc::new(ShardOutcome::default())));
        let mut work = Vec::new();
        for shard in dirty {
            if members[shard].is_empty() {
                slots[shard] = Arc::clone(&empty);
                continue;
            }
            let groups: Vec<(Ipv4Prefix, SetHandle)> = members[shard]
                .iter()
                .map(|p4| (*p4, index.set_of(p4).expect("member is grouped").clone()))
                .collect();
            let slot = Arc::new(Slot::new());
            let replaced = std::mem::replace(&mut slots[shard], Arc::clone(&slot));
            work.push((slot, groups, replaced));
        }
        if work.is_empty() {
            return;
        }
        let view = ScoreView::capture(index);
        let metric = self.config.metric;
        let chunk = work.len().div_ceil(self.workers.max(1) * 2);
        while !work.is_empty() {
            let rest = work.split_off(chunk.min(work.len()));
            let bundle = std::mem::replace(&mut work, rest);
            let view = view.clone();
            self.exec(true, move || {
                for (slot, groups, replaced) in bundle {
                    let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        Arc::new(score_shard(&view, metric, &groups))
                    }));
                    match scored {
                        Ok(outcome) => slot.set(outcome),
                        Err(payload) => slot.poison(payload),
                    }
                    drop(replaced);
                }
            });
        }
    }

    /// Spawns the month's assembly task: waits for the per-shard slots
    /// the month depends on (in shard order) and reduces them into the
    /// month's sibling set.
    pub(crate) fn spawn_assemble<R>(&self, state: &WindowState<R>) -> Arc<Slot<MonthOutput>> {
        let deps = Arc::clone(&state.slots);
        let policy = self.config.policy;
        let slot = Arc::new(Slot::new());
        let spawned = Instant::now();
        self.run(&slot, move || {
            let outcomes: Vec<Arc<ShardOutcome>> = deps.iter().map(|slot| slot.wait()).collect();
            let set = assemble(outcomes.iter().map(|o| &**o), policy);
            MonthOutput {
                set,
                settle_ns: spawned.elapsed().as_nanos() as u64,
            }
        });
        slot
    }

    /// A non-incremental month: one task builds a fresh index against
    /// the shared (concurrent) arena and scores it whole — so in full
    /// mode, entire months run in parallel.
    fn spawn_full_month<H, R>(&self, snapshot: H, rib: R) -> Arc<Slot<MonthOutput>>
    where
        H: SnapshotSource + Clone + Send + 'static,
        R: RibSource + Send + 'static,
    {
        let config = self.config;
        let workers = self.workers;
        let arena = self.arena;
        let slot = Arc::new(Slot::new());
        let spawned = Instant::now();
        self.run(&slot, move || {
            let index = GroupIndex::build(&snapshot, &rib, arena);
            let set = detect_standalone(&index, &config, workers);
            MonthOutput {
                set,
                settle_ns: spawned.elapsed().as_nanos() as u64,
            }
        });
        slot
    }
}

/// Shard count for the one-shot `detect` path, where shards are
/// positional chunks.
fn one_shot_shard_count(config: &EngineConfig, workers: usize, groups: usize) -> usize {
    let configured = if config.shards > 0 {
        config.shards
    } else {
        // A few shards per worker lets the pool steal around skewed
        // candidate distributions; serially it only affects the
        // chunking, not the result.
        workers * 4
    };
    configured.clamp(1, groups)
}

/// Shard count for an incremental window, fixed when the window
/// (re)seeds so the shard assignment stays stable across months.
///
/// Unlike the one-shot path, incremental sharding is sized for
/// **dirty granularity**, not just parallelism: with a handful of
/// groups per shard, a low-churn month marks a correspondingly low
/// fraction of shards dirty, and the clean remainder reuses cached
/// outcomes. Empty shards cost one ready slot each during seeding, so
/// overshooting is cheap; the cap bounds that overhead.
fn window_shard_count(config: &EngineConfig, workers: usize, groups_hint: usize) -> usize {
    if config.shards > 0 {
        return config.shards.max(1);
    }
    // Aim for one group per shard (exact dirty granularity — a clean
    // group is never rescored just for sharing a shard with a dirty
    // one), capped so bucket bookkeeping stays bounded at paper
    // scale. The floor is capped too, so absurd thread counts cannot
    // invert the clamp bounds.
    let parallel_floor = (workers * 4).clamp(1, 4096);
    groups_hint.clamp(parallel_floor, 4096)
}

/// Serial one-shot detection with the same shard layout as
/// [`DetectEngine::detect`] — used inside full-mode month tasks, which
/// must not nest a `map` onto the pool they already occupy (whole months
/// are the parallel unit there).
fn detect_standalone(index: &GroupIndex, config: &EngineConfig, workers: usize) -> SiblingSet {
    let Some(layout) = OneShotLayout::of(index, config, workers) else {
        return SiblingSet::default();
    };
    let outcomes: Vec<ShardOutcome> = layout
        .shards()
        .map(|shard| score_shard(&layout.view, config.metric, shard))
        .collect();
    assemble(outcomes.iter(), config.policy)
}

/// The shared setup of both one-shot paths ([`DetectEngine::detect`] and
/// [`detect_standalone`]): the captured view plus the positional shard
/// chunking. Keeping one implementation guarantees the two paths can
/// only differ in *how* the chunks are dispatched, never in what they
/// score — the full-mode/incremental bit-identity contract rests on it.
struct OneShotLayout {
    view: ScoreView,
    groups: Vec<(Ipv4Prefix, SetHandle)>,
    chunk: usize,
}

impl OneShotLayout {
    /// `None` iff the index has no v4 groups (nothing to detect).
    fn of(index: &GroupIndex, config: &EngineConfig, workers: usize) -> Option<Self> {
        let groups: Vec<(Ipv4Prefix, SetHandle)> = index
            .group_sets::<u32>()
            .map(|(p, h)| (*p, h.clone()))
            .collect();
        if groups.is_empty() {
            return None;
        }
        let shard_count = one_shot_shard_count(config, workers, groups.len());
        let chunk = groups.len().div_ceil(shard_count);
        Some(Self {
            view: ScoreView::capture(index),
            groups,
            chunk,
        })
    }

    fn shards(&self) -> impl Iterator<Item = &[(Ipv4Prefix, SetHandle)]> {
        self.groups.chunks(self.chunk)
    }
}

impl DetectEngine {
    /// An engine with the given configuration, an empty arena and a pool
    /// of [`EngineConfig::threads`] threads.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            arena: SetArena::default(),
            pool: ThreadPool::with_threads(config.threads),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's set arena (shared by every index it built).
    pub fn arena(&self) -> &SetArena {
        &self.arena
    }

    /// Builds a snapshot index whose group sets are interned in the
    /// engine's arena, sharing storage with every other index this
    /// engine has built.
    pub fn build_index<R: RibSource + ?Sized>(
        &self,
        snapshot: &DnsSnapshot,
        rib: &R,
    ) -> PrefixDomainIndex {
        PrefixDomainIndex::build_with_arena(snapshot, rib, &self.arena)
    }

    /// [`DetectEngine::build_index`] over any [`SnapshotSource`] — a
    /// mapped snapshot file serves as well as an owned snapshot, so
    /// store-backed contexts build indexes without materializing.
    pub fn build_index_source<S: SnapshotSource + ?Sized, R: RibSource + ?Sized>(
        &self,
        snapshot: &S,
        rib: &R,
    ) -> PrefixDomainIndex {
        PrefixDomainIndex::build_source_with_arena(snapshot, rib, &self.arena)
    }

    /// Steps 3–4 over one index: sharded candidate generation and
    /// scoring, then a best-match reduction. Output is bit-identical to
    /// [`crate::detect`] with the same metric and policy.
    pub fn detect(&self, index: &GroupIndex) -> SiblingSet {
        let Some(layout) = OneShotLayout::of(index, &self.config, self.pool.threads()) else {
            return SiblingSet::default();
        };
        let shards: Vec<&[(Ipv4Prefix, SetHandle)]> = layout.shards().collect();
        let metric = self.config.metric;
        let view = &layout.view;
        let outcomes = self
            .pool
            .map(&shards, |_, shard| score_shard(view, metric, shard));
        assemble(outcomes.iter(), self.config.policy)
    }

    /// Walks the inclusive monthly window `from..=to` once: per month,
    /// the RIB is taken from the archive (most recent at or before the
    /// date), the snapshot from `snapshot_of`, and detection runs over an
    /// index interned in the shared arena. With
    /// [`EngineConfig::incremental`] (the default) consecutive months are
    /// processed as snapshot deltas with dirty-shard rescoring, so the
    /// walk's cost scales with churn — and on a pool of more than one
    /// thread the months themselves overlap (see module docs).
    ///
    /// The provider returns any owning, cheaply-cloneable
    /// [`SnapshotSource`] handle: `Arc<DnsSnapshot>` for regenerated
    /// worlds, or `Arc<sibling_dns::SnapshotFile>` for store-backed runs
    /// — the latter keeps the whole walk zero-copy (index builds and
    /// month-over-month diffs read the mapped bytes directly; no
    /// `BTreeMap` is ever materialized).
    pub fn run_window<H, R, S>(
        &mut self,
        from: MonthDate,
        to: MonthDate,
        archive: &RibArchive<R>,
        snapshot_of: S,
    ) -> Result<BatchRun, String>
    where
        H: SnapshotSource + Clone + Send + 'static,
        R: RibSource + Clone + Send + Sync + 'static,
        S: FnMut(MonthDate) -> H,
    {
        if from > to {
            return Err(format!("empty window: {from} is after {to}"));
        }
        self.run_dates(&from.range_to(to), archive, snapshot_of)
    }

    /// [`DetectEngine::run_window`] over an explicit date list (the
    /// experiment drivers' sparse reference offsets). Deltas do not
    /// require adjacency — any two consecutive list entries diff
    /// correctly; sparser lists simply carry more churn per step.
    pub fn run_dates<H, R, S>(
        &mut self,
        dates: &[MonthDate],
        archive: &RibArchive<R>,
        mut snapshot_of: S,
    ) -> Result<BatchRun, String>
    where
        H: SnapshotSource + Clone + Send + 'static,
        R: RibSource + Clone + Send + Sync + 'static,
        S: FnMut(MonthDate) -> H,
    {
        let recycled_before = self.arena.recycled_count();
        let result = self.in_window(|ctx| ctx.drive(dates, archive, &mut snapshot_of));
        // The last month's index stays alive through the sweep below:
        // which of its sets sit parked in the graveyard depends on
        // scheduling, so dropping it first would let the sweep recycle a
        // schedule-dependent share of them.
        let (mut run, last) = result?;
        // Arena accounting happens strictly after the scope has drained:
        // collection unblocks on each month's `Slot::set`, but a score
        // bundle still holds its captured view/handles for an instant
        // after its last `set` — only the scope exit guarantees every
        // task (and thus every transient pin) is gone, making the final
        // sweep and the stats deterministic across schedules.
        self.arena.sweep();
        run.stats.distinct_sets = self.arena.len();
        run.stats.dedup_hits = self.arena.dedup_hits();
        run.stats.recycled_sets = self.arena.recycled_count() - recycled_before;
        // Only now retire the last month's index: the stats above read
        // the window as it ended, and an engine reused across calls gets
        // its arena back as it was before this one.
        if let Some(last) = last {
            last.index.release_sets(&self.arena);
            self.arena.sweep();
        }
        Ok(run)
    }

    /// Opens one scope on the engine's pool and runs `f` with the window
    /// scheduler's context over it. Every task `f` spawns has finished
    /// when this returns.
    pub(crate) fn in_window<T>(&self, f: impl FnOnce(&WindowCtx<'_, '_>) -> T) -> T {
        self.pool.scope(|scope| {
            f(&WindowCtx {
                config: self.config,
                workers: self.pool.threads(),
                arena: &self.arena,
                scope,
            })
        })
    }
}

impl WindowCtx<'_, '_> {
    /// The window scheduler's driver loop (see module docs): walk the
    /// months, keep the patch chain sequential, fan everything else out
    /// as pool tasks, then collect per-month results in order. Also
    /// hands back the incremental window state of the last month.
    fn drive<H, R, S>(
        &self,
        dates: &[MonthDate],
        archive: &RibArchive<R>,
        snapshot_of: &mut S,
    ) -> Result<(BatchRun, Option<WindowState<R>>), String>
    where
        H: SnapshotSource + Clone + Send + 'static,
        R: RibSource + Clone + Send + Sync + 'static,
        S: FnMut(MonthDate) -> H,
    {
        let incremental = self.config.incremental;
        let n = dates.len();

        // Fail fast: resolve every month's RIB up front (handle clones).
        let ribs: Vec<R> = dates
            .iter()
            .map(|&date| {
                archive
                    .at_or_before(date)
                    .ok_or_else(|| format!("no RIB snapshot at or before {date}"))
            })
            .collect::<Result<_, _>>()?;

        // Sliding prefetch: snapshots load on the driver (the provider
        // contract is sequential) a few months ahead; each consecutive
        // pair's delta derives as its own pool task, so diffs of several
        // future months overlap the current month's patch and scores.
        // A month on a new table reseeds instead, so it gets no diff.
        let lookahead = self.workers.max(1) + 1;
        let mut snaps: Vec<Option<H>> = (0..n).map(|_| None).collect();
        let mut diffs: Vec<Option<Arc<Slot<SnapshotDelta>>>> = (0..n).map(|_| None).collect();
        let mut loaded = 0usize;

        let mut state: Option<WindowState<R>> = None;
        let mut month_slots: Vec<Arc<Slot<MonthOutput>>> = Vec::with_capacity(n);
        let mut churns: Vec<MonthChurn> = Vec::with_capacity(n);
        let mut patch_ns: Vec<u64> = Vec::with_capacity(n);

        for i in 0..n {
            while loaded < n && loaded <= i + lookahead {
                let handle = snapshot_of(dates[loaded]);
                if incremental && loaded > 0 && ribs[loaded - 1].same_table(&ribs[loaded]) {
                    let prev = snaps[loaded - 1].clone().expect("loaded in order");
                    let next = handle.clone();
                    let slot = Arc::new(Slot::new());
                    diffs[loaded] = Some(Arc::clone(&slot));
                    self.run(&slot, move || SnapshotDelta::diff_sources(&prev, &next));
                }
                snaps[loaded] = Some(handle);
                loaded += 1;
            }
            let snapshot = snaps[i].take().expect("prefetched in order");
            let rib = ribs[i].clone();
            let started = Instant::now();

            let churn = if !incremental {
                // The reference per-date pipeline: fresh index, full
                // scoring — dispatched whole, so full-mode months
                // parallelize across the window.
                month_slots.push(self.spawn_full_month(snapshot, rib));
                MonthChurn {
                    date: dates[i],
                    added: 0,
                    removed: 0,
                    retargeted: 0,
                    changed_effective: 0,
                    dirty_shards: 0,
                    total_shards: 0,
                    full_rebuild: true,
                }
            } else {
                let delta = diffs[i].take().map(|slot| slot.take());
                let churn = self.step(&mut state, dates[i], &snapshot, rib, delta.as_ref());
                month_slots.push(self.spawn_assemble(state.as_ref().expect("state seeded")));
                churn
            };
            patch_ns.push(started.elapsed().as_nanos() as u64);
            churns.push(churn);
            // Reclaim sets whose deferred releases have since unpinned.
            self.arena.sweep();
        }

        // Collect in input order (blocking on stragglers), then account.
        let mut run = BatchRun::default();
        for (i, slot) in month_slots.iter().enumerate() {
            let output = slot.take();
            run.stats.total_pairs += output.set.len();
            run.results.push((dates[i], output.set));
            run.timings.push(MonthTiming {
                date: dates[i],
                patch_ns: patch_ns[i],
                settle_ns: output.settle_ns,
            });
        }
        run.stats.full_rebuilds = churns.iter().filter(|c| c.full_rebuild).count();
        run.churn = churns;
        run.stats.months = n;
        // Arena stats (and the final sweep) are filled in by `run_dates`
        // once the pool scope has drained — a straggling bundle may
        // still pin sets for an instant after its last `Slot::set`.
        Ok((run, state))
    }
}

/// Scores one shard of IPv4 prefix groups against their candidate IPv6
/// counterparts (domain co-occurrence via the captured month view).
///
/// Candidate enumeration doubles as intersection computation: every
/// domain `d` of the v4 group contributes one count to each IPv6 prefix
/// it resolves into, so after the walk `counts[p6]` **is**
/// `|A ∩ B|` (the reverse-map lists are deduplicated). The per-pair
/// merge walk the serial reference pays — `O(|A| + |B|)` per candidate —
/// disappears entirely; scoring a pair costs one map entry.
fn score_shard(
    view: &ScoreView,
    metric: SimilarityMetric,
    groups: &[(Ipv4Prefix, SetHandle)],
) -> ShardOutcome {
    let mut pairs = Vec::new();
    let mut best_v4 = BTreeMap::new();
    let mut best_v6: BTreeMap<Ipv6Prefix, Ratio> = BTreeMap::new();
    let mut counts: BTreeMap<Ipv6Prefix, u64> = BTreeMap::new();
    for (p4, a) in groups {
        counts.clear();
        for d in a.iter() {
            if let Some(v6_prefixes) = view.v6_domains.get(d) {
                for p6 in v6_prefixes.iter() {
                    *counts.entry(*p6).or_insert(0) += 1;
                }
            }
        }
        let mut local_best = Ratio::ZERO;
        for (&p6, &shared) in &counts {
            let b = view
                .v6_groups
                .get(&p6)
                .expect("candidate v6 prefix indexed");
            debug_assert_eq!(
                shared,
                a.intersection_size(b),
                "counting join = intersection"
            );
            let similarity = metric.from_parts(shared, a.len() as u64, b.len() as u64);
            if similarity.is_zero() {
                continue;
            }
            if similarity > local_best {
                local_best = similarity;
            }
            best_v6
                .entry(p6)
                .and_modify(|cur| {
                    if similarity > *cur {
                        *cur = similarity;
                    }
                })
                .or_insert(similarity);
            pairs.push(SiblingPair {
                v4: *p4,
                v6: p6,
                similarity,
                shared_domains: shared,
                v4_domains: a.len() as u64,
                v6_domains: b.len() as u64,
            });
        }
        if !local_best.is_zero() {
            best_v4.insert(*p4, local_best);
        }
    }
    ShardOutcome {
        pairs,
        best_v4,
        best_v6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::detect;
    use sibling_bgp::Rib;
    use sibling_dns::DomainId;
    use sibling_net_types::Asn;

    fn a4(s: &str) -> u32 {
        s.parse::<std::net::Ipv4Addr>().unwrap().into()
    }

    fn a6(s: &str) -> u128 {
        s.parse::<std::net::Ipv6Addr>().unwrap().into()
    }

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn p6(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    /// A small two-org fixture with an identical-set (perfect-match) pair.
    fn fixture() -> (DnsSnapshot, Rib) {
        let mut rib = Rib::new();
        rib.announce(p4("203.0.0.0/16"), Asn(1));
        rib.announce(p4("198.51.0.0/16"), Asn(2));
        rib.announce(p6("2600:1::/32"), Asn(1));
        rib.announce(p6("2600:2::/32"), Asn(2));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap.merge(DomainId(1), vec![a4("203.0.1.1")], vec![a6("2600:1::1")]);
        snap.merge(DomainId(3), vec![a4("203.0.1.3")], vec![a6("2600:1::3")]);
        snap.merge(DomainId(2), vec![a4("203.0.1.2")], vec![a6("2600:2::2")]);
        snap.merge(DomainId(4), vec![a4("198.51.1.4")], vec![a6("2600:2::4")]);
        (snap, rib)
    }

    fn assert_sets_equal(got: &SiblingSet, want: &SiblingSet) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!((g.v4, g.v6), (w.v4, w.v6));
            assert_eq!(g.similarity, w.similarity);
            assert_eq!(g.shared_domains, w.shared_domains);
            assert_eq!(g.v4_domains, w.v4_domains);
            assert_eq!(g.v6_domains, w.v6_domains);
        }
    }

    #[test]
    fn engine_matches_reference_detect() {
        let (snap, rib) = fixture();
        for policy in [
            BestMatchPolicy::Union,
            BestMatchPolicy::V4Side,
            BestMatchPolicy::V6Side,
        ] {
            for metric in [
                SimilarityMetric::Jaccard,
                SimilarityMetric::Dice,
                SimilarityMetric::Overlap,
            ] {
                for shards in [0, 1, 3, 64] {
                    let engine = DetectEngine::new(EngineConfig {
                        metric,
                        policy,
                        shards,
                        threads: 2,
                        ..EngineConfig::default()
                    });
                    let index = engine.build_index(&snap, &rib);
                    let got = engine.detect(&index);
                    let want = detect(&index, metric, policy);
                    assert_sets_equal(&got, &want);
                }
            }
        }
    }

    #[test]
    fn empty_index_detects_nothing() {
        let engine = DetectEngine::default();
        let set = engine.detect(&GroupIndex::default());
        assert!(set.is_empty());
    }

    #[test]
    fn identical_sets_short_circuit_to_perfect_match() {
        // One org whose v4 and v6 prefixes carry exactly the same set:
        // interning makes their handles share an id and the scorer's
        // short-circuit must still yield the exact intersection.
        let mut rib = Rib::new();
        rib.announce(p4("203.0.0.0/16"), Asn(1));
        rib.announce(p6("2600:1::/32"), Asn(1));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        for d in 0..5u32 {
            snap.merge(
                DomainId(d),
                vec![a4("203.0.1.1") + d],
                vec![a6("2600:1::1") + d as u128],
            );
        }
        let engine = DetectEngine::default();
        let index = engine.build_index(&snap, &rib);
        let a = index.set_of(&p4("203.0.0.0/16")).unwrap();
        let b = index.set_of(&p6("2600:1::/32")).unwrap();
        assert_eq!(a.id(), b.id());
        let set = engine.detect(&index);
        assert_eq!(set.len(), 1);
        let pair = set.iter().next().unwrap();
        assert!(pair.similarity.is_one());
        assert_eq!(pair.shared_domains, 5);
    }

    #[test]
    fn run_window_equals_per_date_detect() {
        // Three months with shifting assignments; the batch driver must
        // reproduce the per-date pipeline exactly while sharing one
        // arena across the months.
        let (snap0, rib) = fixture();
        let mut archive = RibArchive::new();
        archive.insert(MonthDate::new(2024, 7), rib.clone());

        let mut snap1 = DnsSnapshot::new(MonthDate::new(2024, 8));
        snap1.merge(DomainId(1), vec![a4("203.0.1.1")], vec![a6("2600:1::1")]);
        snap1.merge(DomainId(4), vec![a4("198.51.1.4")], vec![a6("2600:2::4")]);
        let mut snap2 = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap2.merge(DomainId(2), vec![a4("203.0.1.2")], vec![a6("2600:2::2")]);
        let snaps: BTreeMap<MonthDate, Arc<DnsSnapshot>> = [
            (MonthDate::new(2024, 7), Arc::new(snap0)),
            (MonthDate::new(2024, 8), Arc::new(snap1)),
            (MonthDate::new(2024, 9), Arc::new(snap2)),
        ]
        .into_iter()
        .collect();

        let mut engine = DetectEngine::default();
        let run = engine
            .run_window(
                MonthDate::new(2024, 7),
                MonthDate::new(2024, 9),
                &archive,
                |d| snaps[&d].clone(),
            )
            .unwrap();
        assert_eq!(run.results.len(), 3);
        assert_eq!(run.stats.months, 3);
        assert!(run.stats.distinct_sets > 0);
        assert_eq!(run.churn.len(), 3);
        assert!(run.churn[0].full_rebuild);
        assert_eq!(run.timings.len(), 3, "one timing record per month");

        for (date, snap) in &snaps {
            let index = PrefixDomainIndex::build(snap, &rib);
            let want = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
            assert_sets_equal(run.at(*date).unwrap(), &want);
        }
        assert!(run.at(MonthDate::new(2023, 1)).is_none());
    }

    #[test]
    fn run_window_rejects_inverted_and_uncovered_windows() {
        let mut engine = DetectEngine::default();
        let archive: RibArchive = RibArchive::new();
        let err = engine
            .run_window(
                MonthDate::new(2024, 9),
                MonthDate::new(2024, 7),
                &archive,
                |d| Arc::new(DnsSnapshot::new(d)),
            )
            .unwrap_err();
        assert!(err.contains("after"));
        let err = engine
            .run_window(
                MonthDate::new(2024, 7),
                MonthDate::new(2024, 7),
                &archive,
                |d| Arc::new(DnsSnapshot::new(d)),
            )
            .unwrap_err();
        assert!(err.contains("no RIB"));
    }

    /// Zero churn reuses every shard; full turnover rescored — and both
    /// extremes stay bit-identical to the full-rebuild reference.
    #[test]
    fn incremental_handles_churn_extremes() {
        let (snap, rib) = fixture();
        let rib = Arc::new(rib);
        let dates = [
            MonthDate::new(2024, 7),
            MonthDate::new(2024, 8),
            MonthDate::new(2024, 9),
        ];
        let mut archive = RibArchive::new();
        for &d in &dates {
            archive.insert_shared(d, rib.clone());
        }
        // Month 2 repeats month 1's entries (0% churn); month 3 swaps in
        // a disjoint world (100% churn).
        let same = snap.redated(dates[1]);
        let mut other = DnsSnapshot::new(dates[2]);
        other.merge(DomainId(9), vec![a4("198.51.7.7")], vec![a6("2600:2::7")]);
        let snaps: BTreeMap<MonthDate, Arc<DnsSnapshot>> = [
            (dates[0], Arc::new(snap)),
            (dates[1], Arc::new(same)),
            (dates[2], Arc::new(other)),
        ]
        .into_iter()
        .collect();

        let mut inc = DetectEngine::new(EngineConfig {
            shards: 8,
            threads: 2,
            ..EngineConfig::default()
        });
        let run = inc
            .run_dates(&dates, &archive, |d| snaps[&d].clone())
            .unwrap();
        assert!(run.churn[0].full_rebuild);
        assert!(!run.churn[1].full_rebuild);
        assert_eq!(run.churn[1].dirty_shards, 0, "0%% churn rescore nothing");
        assert_eq!(run.churn[1].changed_effective, 0);
        assert!(!run.churn[2].full_rebuild);
        assert!(run.churn[2].dirty_shards > 0, "full churn rescore");
        assert_eq!(run.stats.full_rebuilds, 1);
        assert!(run.stats.recycled_sets > 0, "dead sets recycled");

        let mut full = DetectEngine::new(EngineConfig {
            shards: 8,
            threads: 2,
            incremental: false,
            ..EngineConfig::default()
        });
        let full_run = full
            .run_dates(&dates, &archive, |d| snaps[&d].clone())
            .unwrap();
        assert_eq!(full_run.stats.full_rebuilds, 3);
        for &d in snaps.keys() {
            assert_sets_equal(run.at(d).unwrap(), full_run.at(d).unwrap());
        }
    }

    #[test]
    fn rib_change_mid_window_forces_rebuild_and_stays_exact() {
        // The archive swaps tables between months: incremental must
        // detect the new Arc, rebuild, and keep matching the reference.
        let (snap, rib_a) = fixture();
        let mut rib_b = rib_a.clone();
        rib_b.announce(p4("192.0.2.0/24"), Asn(9));
        let dates = [MonthDate::new(2024, 7), MonthDate::new(2024, 8)];
        let mut archive = RibArchive::new();
        archive.insert(dates[0], rib_a);
        archive.insert(dates[1], rib_b);
        let snap = Arc::new(snap);
        let snapshot_of = |d: MonthDate| Arc::new(snap.redated(d));

        let mut inc = DetectEngine::default();
        let run = inc.run_dates(&dates, &archive, snapshot_of).unwrap();
        assert!(run.churn[1].full_rebuild, "new RIB forces a rebuild");
        assert_eq!(run.stats.full_rebuilds, 2);

        let mut full = DetectEngine::new(EngineConfig {
            incremental: false,
            ..EngineConfig::default()
        });
        let full_run = full.run_dates(&dates, &archive, snapshot_of).unwrap();
        for &d in &dates {
            assert_sets_equal(run.at(d).unwrap(), full_run.at(d).unwrap());
        }
    }

    /// The cross-month scheduler contract: stdout-visible results are
    /// identical across window thread counts, in both engine modes.
    #[test]
    fn window_results_identical_across_thread_counts() {
        let (_snap, rib) = fixture();
        let rib = Arc::new(rib);
        let dates: Vec<MonthDate> = (0..6)
            .map(|k| MonthDate::new(2024, 3).add_months(k))
            .collect();
        let mut archive = RibArchive::new();
        for &d in &dates {
            archive.insert_shared(d, rib.clone());
        }
        // Rotate domains through prefixes so every month has churn.
        let snapshot_of = |d: MonthDate| {
            let mut s = DnsSnapshot::new(d);
            let k = u32::from(d.month());
            s.merge(
                DomainId(1),
                vec![a4("203.0.1.1") + k],
                vec![a6("2600:1::1")],
            );
            s.merge(
                DomainId(2),
                vec![a4("203.0.1.2")],
                vec![a6("2600:2::2") + u128::from(k % 2)],
            );
            if k % 2 == 0 {
                s.merge(DomainId(3), vec![a4("198.51.1.3")], vec![a6("2600:2::3")]);
            }
            Arc::new(s)
        };
        for incremental in [true, false] {
            let mut reference: Option<BatchRun> = None;
            for threads in [1usize, 2, 4] {
                // Shard count pinned: auto-sizing scales its floor with
                // the worker count, which is fine for results (identical
                // either way) but would make the churn-accounting
                // comparison below meaningless.
                let mut engine = DetectEngine::new(EngineConfig {
                    threads,
                    incremental,
                    shards: 16,
                    ..EngineConfig::default()
                });
                let run = engine.run_dates(&dates, &archive, snapshot_of).unwrap();
                assert_eq!(run.timings.len(), dates.len());
                if let Some(want) = &reference {
                    assert_eq!(run.results.len(), want.results.len());
                    for &d in &dates {
                        assert_sets_equal(run.at(d).unwrap(), want.at(d).unwrap());
                    }
                    // Churn accounting is scheduling-independent too.
                    for (got, want) in run.churn.iter().zip(want.churn.iter()) {
                        assert_eq!(got.dirty_shards, want.dirty_shards);
                        assert_eq!(got.full_rebuild, want.full_rebuild);
                        assert_eq!(got.changed_effective, want.changed_effective);
                    }
                } else {
                    reference = Some(run);
                }
            }
        }
    }

    /// Property test: the sharded engine (any shard count) agrees with
    /// the serial reference `detect` across random worlds, metrics and
    /// policies, on a multi-thread pool.
    #[test]
    fn prop_engine_bit_identical_to_serial() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        let strategy = (
            proptest::collection::vec((0u8..6, 0u8..6), 1..40),
            0usize..5,
            0u8..3,
            0u8..3,
        );
        runner
            .run(
                &strategy,
                |(assignments, shards, metric_pick, policy_pick)| {
                    let metric = [
                        SimilarityMetric::Jaccard,
                        SimilarityMetric::Dice,
                        SimilarityMetric::Overlap,
                    ][metric_pick as usize];
                    let policy = [
                        BestMatchPolicy::Union,
                        BestMatchPolicy::V4Side,
                        BestMatchPolicy::V6Side,
                    ][policy_pick as usize];
                    let mut rib = Rib::new();
                    for i in 0..6u32 {
                        rib.announce(Ipv4Prefix::new(0xCB00_0000 | (i << 8), 24).unwrap(), Asn(i));
                        rib.announce(
                            Ipv6Prefix::new((0x2600u128 << 112) | ((i as u128) << 80), 48).unwrap(),
                            Asn(i),
                        );
                    }
                    let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
                    for (d, (p4i, p6i)) in assignments.iter().enumerate() {
                        snap.merge(
                            DomainId(d as u32),
                            vec![0xCB00_0000 | ((*p4i as u32) << 8) | (d as u32 % 250 + 1)],
                            vec![(0x2600u128 << 112) | ((*p6i as u128) << 80) | (d as u128 + 1)],
                        );
                    }
                    let engine = DetectEngine::new(EngineConfig {
                        metric,
                        policy,
                        shards,
                        threads: 3,
                        ..EngineConfig::default()
                    });
                    let index = engine.build_index(&snap, &rib);
                    let got = engine.detect(&index);
                    let want = detect(&index, metric, policy);
                    prop_assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(want.iter()) {
                        prop_assert_eq!((g.v4, g.v6), (w.v4, w.v6));
                        prop_assert_eq!(g.similarity, w.similarity);
                        prop_assert_eq!(g.shared_domains, w.shared_domains);
                    }
                    Ok(())
                },
            )
            .unwrap();
    }

    /// Property test: the incremental window (deltas, in-place index
    /// patching, dirty-shard rescoring, cached clean shards, cross-month
    /// scheduling) is bit-identical to the full-rebuild window *and* to
    /// per-date serial detection, across randomized month sequences
    /// whose churn spans 0% (repeated months) to 100% (disjoint
    /// assignments), including domains dropping in and out of
    /// dual-stack, at varying shard and thread counts.
    #[test]
    fn prop_incremental_window_bit_identical_to_full_rebuild() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        // Per month: 8 domains × (v4 selector, v6 selector); selector 6
        // removes the family (dual-stack transitions). Selector equality
        // across months models low churn; proptest also generates
        // identical and fully-divergent consecutive months.
        let month = || proptest::collection::vec((0u8..7, 0u8..7), 8..9);
        let strategy = (
            proptest::collection::vec(month(), 1..5),
            0usize..4,
            1usize..5,
        );
        runner
            .run(&strategy, |(months, shards, threads)| {
                let mut rib = Rib::new();
                for i in 0..6u32 {
                    rib.announce(Ipv4Prefix::new(0xCB00_0000 | (i << 8), 24).unwrap(), Asn(i));
                    rib.announce(
                        Ipv6Prefix::new((0x2600u128 << 112) | ((i as u128) << 80), 48).unwrap(),
                        Asn(i),
                    );
                }
                let rib = Arc::new(rib);
                let start = MonthDate::new(2024, 1);
                let dates: Vec<MonthDate> = (0..months.len())
                    .map(|k| start.add_months(k as i32))
                    .collect();
                let mut archive = RibArchive::new();
                for &d in &dates {
                    archive.insert_shared(d, rib.clone());
                }
                let snaps: BTreeMap<MonthDate, Arc<DnsSnapshot>> = months
                    .iter()
                    .zip(&dates)
                    .map(|(assign, &d)| {
                        let mut snap = DnsSnapshot::new(d);
                        for (dom, (p4i, p6i)) in assign.iter().enumerate() {
                            let v4 = if *p4i < 6 {
                                vec![0xCB00_0000 | ((*p4i as u32) << 8) | (dom as u32 + 1)]
                            } else {
                                vec![]
                            };
                            let v6 = if *p6i < 6 {
                                vec![
                                    (0x2600u128 << 112)
                                        | ((*p6i as u128) << 80)
                                        | (dom as u128 + 1),
                                ]
                            } else {
                                vec![]
                            };
                            snap.merge(DomainId(dom as u32), v4, v6);
                        }
                        (d, Arc::new(snap))
                    })
                    .collect();

                let mut inc = DetectEngine::new(EngineConfig {
                    shards,
                    threads,
                    ..EngineConfig::default()
                });
                let inc_run = inc
                    .run_dates(&dates, &archive, |d| snaps[&d].clone())
                    .unwrap();
                let mut full = DetectEngine::new(EngineConfig {
                    shards,
                    threads,
                    incremental: false,
                    ..EngineConfig::default()
                });
                let full_run = full
                    .run_dates(&dates, &archive, |d| snaps[&d].clone())
                    .unwrap();
                prop_assert_eq!(inc_run.results.len(), full_run.results.len());
                for (&d, snap) in &snaps {
                    let got = inc_run.at(d).unwrap();
                    let want_full = full_run.at(d).unwrap();
                    let index = PrefixDomainIndex::build(snap, &rib);
                    let want_serial =
                        detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
                    prop_assert_eq!(got.len(), want_full.len());
                    prop_assert_eq!(got.len(), want_serial.len());
                    for ((g, wf), ws) in got.iter().zip(want_full.iter()).zip(want_serial.iter()) {
                        prop_assert_eq!((g.v4, g.v6), (wf.v4, wf.v6));
                        prop_assert_eq!((g.v4, g.v6), (ws.v4, ws.v6));
                        prop_assert_eq!(g.similarity, wf.similarity);
                        prop_assert_eq!(g.similarity, ws.similarity);
                        prop_assert_eq!(g.shared_domains, wf.shared_domains);
                        prop_assert_eq!(g.v4_domains, wf.v4_domains);
                        prop_assert_eq!(g.v6_domains, wf.v6_domains);
                    }
                }
                // The first month is always a rebuild; later months only
                // when the RIB changes (never here).
                prop_assert!(inc_run.churn[0].full_rebuild);
                for churn in &inc_run.churn[1..] {
                    prop_assert!(!churn.full_rebuild);
                    prop_assert!(churn.dirty_shards <= churn.total_shards);
                }
                Ok(())
            })
            .unwrap();
    }
}
