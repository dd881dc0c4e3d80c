//! Hash-consed domain-set arena — concurrently shareable.
//!
//! Shared hosting makes identical per-prefix domain sets common: a CDN's
//! many announced prefixes often carry exactly the same DS-domain set, and
//! the same sets recur month after month in longitudinal runs. The arena
//! interns every sorted, deduplicated `Vec<DomainId>` once:
//!
//! * equal sets share one allocation (`Arc<[DomainId]>`) and one
//!   [`SetId`], so set equality is an integer comparison;
//! * the scoring hot path short-circuits intersections of identical sets
//!   (`|A ∩ A| = |A|`) without walking them;
//! * a [`crate::engine::DetectEngine`] keeps one arena across a whole
//!   snapshot window, so recurring sets are deduplicated across months,
//!   not just within one index.
//!
//! # Concurrency
//!
//! The arena is **internally sharded**: a fixed fan-out of
//! [`SHARD_COUNT`] interior shards, each guarded by its own
//! reader/writer lock ([`sibling_executor::sync::WaitLock`], vendored —
//! no external dependencies). A set's shard is chosen by the same
//! deterministic `FxHash` of its contents that the per-shard dedup map
//! uses, so every operation on one logical set always lands on one
//! shard. All methods take `&self`; the type is `Sync`, which is what
//! lets the window scheduler patch month *m+1*'s index (interning and
//! releasing sets) while worker threads still score months ≤ *m*.
//!
//! Reads are optimistic: an `intern` that hits an already-interned set
//! takes only a shared (read) lock — concurrent dedup hits on different
//! threads never serialize, and hits on *different* shards never even
//! touch the same cache line. Only an actual insert, update or release
//! takes the shard's exclusive lock. [`SetArena::shard_wait_count`]
//! reports how often any acquisition found its shard contended — the
//! `window_parallel` bench records it per run.
//!
//! # Determinism
//!
//! Under serial use, id assignment is deterministic (same intern order →
//! same ids). Under concurrent use, *which* numeric id a set receives
//! depends on thread interleaving, but the hash-consing contract is
//! interleaving-independent: equal contents always yield pointer-equal
//! `Arc`s and therefore equal ids — property-tested below. Nothing in
//! the pipeline's output depends on id numbering; identity comparisons
//! go through `Arc::ptr_eq`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sibling_dns::DomainId;
use sibling_executor::sync::WaitLock;

/// Multiply-rotate hasher (the rustc `FxHash` recipe). Interning hashes
/// every element of every group set on every index build, which makes
/// SipHash's per-byte cost the dominant intern expense; domain ids are
/// dense interner output, not attacker-controlled, so a fast
/// non-keyed hash is the right trade. Also deterministic, so arena
/// behaviour is reproducible across runs (no `RandomState`).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Number of interior shards (fixed fan-out, power of two).
pub const SHARD_COUNT: usize = 64;

/// Bits of a [`SetId`] holding the shard index.
const SHARD_BITS: u32 = SHARD_COUNT.trailing_zeros();

/// Per-shard cap on recycled-slot hoarding: a release that leaves more
/// free slots than this compacts the shard (truncating the dead tail of
/// its table), so a long incremental window's arena tracks the live set
/// population instead of keeping every slot that ever existed.
const FREE_LIST_CAP: usize = 64;

/// Identity of an interned domain set. Two handles carry the same id iff
/// they denote exactly the same set contents. The id packs the interior
/// shard (the low `log2(SHARD_COUNT)` bits) and the slot within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetId(u32);

impl SetId {
    fn pack(shard: usize, slot: u32) -> Self {
        assert!(slot < 1 << (32 - SHARD_BITS), "arena overflow");
        Self((slot << SHARD_BITS) | shard as u32)
    }

    fn shard(&self) -> usize {
        (self.0 as usize) & (SHARD_COUNT - 1)
    }

    fn slot(&self) -> usize {
        (self.0 >> SHARD_BITS) as usize
    }

    /// The raw packed id (unique among live sets of one arena).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A handle to an interned set: the id plus a shared pointer to the
/// elements, so holders can read the set without going through the arena.
#[derive(Debug, Clone)]
pub struct SetHandle {
    id: SetId,
    set: Arc<[DomainId]>,
}

impl SetHandle {
    /// The set's identity.
    pub fn id(&self) -> SetId {
        self.id
    }

    /// The elements (sorted, deduplicated).
    pub fn as_slice(&self) -> &[DomainId] {
        &self.set
    }

    /// Intersection size with another interned set. Identical sets
    /// short-circuit (`|A ∩ A| = |A|`) without touching the elements —
    /// the hash-consing payoff for shared-hosting duplicates. Sharing is
    /// detected by allocation (`Arc::ptr_eq`), so the check is safe even
    /// across handles from different arenas; within one arena it is
    /// equivalent to id equality.
    pub fn intersection_size(&self, other: &SetHandle) -> u64 {
        if Arc::ptr_eq(&self.set, &other.set) {
            self.len() as u64
        } else {
            crate::metrics::intersection_size(self, other)
        }
    }
}

impl Deref for SetHandle {
    type Target = [DomainId];

    fn deref(&self) -> &[DomainId] {
        &self.set
    }
}

impl PartialEq for SetHandle {
    /// Equality by shared allocation: within one arena this is exactly
    /// id equality (hash-consing guarantees one `Arc` per distinct set),
    /// and unlike raw id comparison it cannot confuse handles that come
    /// from different arenas.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.set, &other.set)
    }
}

impl Eq for SetHandle {}

/// One interior shard: its slice of the slot table, the dedup map over
/// its sets, and its recycled slots.
#[derive(Default)]
struct Shard {
    /// Slot `i` holds an interned set; `None` marks a recycled slot
    /// awaiting reuse.
    table: Vec<Option<Arc<[DomainId]>>>,
    /// Contents → local slot (keys share the table's allocations).
    map: HashMap<Arc<[DomainId]>, u32, BuildHasherDefault<FxHasher>>,
    /// Recycled slots available for the next interns.
    free: Vec<u32>,
}

impl Shard {
    /// Drops the dead tail of the table once the free list exceeds its
    /// cap. Only trailing dead slots can be reclaimed (live ids must
    /// stay stable), so a fragmented shard may briefly exceed the cap —
    /// the next tail release shrinks it further.
    fn compact(&mut self) {
        if self.free.len() <= FREE_LIST_CAP {
            return;
        }
        while matches!(self.table.last(), Some(None)) {
            self.table.pop();
        }
        let len = self.table.len() as u32;
        self.free.retain(|&slot| slot < len);
    }
}

/// The hash-consing arena (see module docs).
///
/// Slots are **recycled**: [`SetArena::update`] and [`SetArena::release`]
/// detect sets no longer referenced by any outside handle (the arena
/// itself holds exactly two references per live set — the table slot and
/// the map key) and return their slots to a per-shard free list, capped
/// at 64 free slots per shard with tail compaction.
pub struct SetArena {
    shards: Vec<WaitLock<Shard>>,
    /// Sets released while an in-flight scoring view (or another thread)
    /// still held a handle clone: the recycle is **deferred** — the
    /// handle parks here, keyed by allocation, and [`SetArena::sweep`]
    /// retries once the transient holders are gone. Serial use never
    /// populates this (the releasing caller is always the last holder).
    graveyard: std::sync::Mutex<HashMap<usize, SetHandle, BuildHasherDefault<FxHasher>>>,
    /// Intern calls answered from a dedup map instead of a new slot.
    hits: AtomicU64,
    /// Dead handles whose slots were returned to a free list.
    recycled: AtomicU64,
    /// Cumulative bytes of set contents freed by recycling (the
    /// accounting behind the "long windows don't hoard dead sets" test).
    recycled_bytes: AtomicU64,
}

impl Default for SetArena {
    fn default() -> Self {
        Self {
            shards: (0..SHARD_COUNT).map(|_| WaitLock::default()).collect(),
            graveyard: std::sync::Mutex::new(HashMap::default()),
            hits: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            recycled_bytes: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for SetArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetArena")
            .field("len", &self.len())
            .field("dedup_hits", &self.dedup_hits())
            .field("recycled", &self.recycled_count())
            .finish()
    }
}

impl SetArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The interior shard of a set's contents: the top bits of the same
    /// deterministic FxHash the shard's dedup map uses for its buckets.
    fn shard_of(set: &[DomainId]) -> usize {
        let mut hasher = FxHasher::default();
        for d in set {
            hasher.write_u32(d.0);
        }
        (hasher.finish() >> (64 - SHARD_BITS)) as usize
    }

    /// Interns a **sorted, deduplicated** set, returning its canonical
    /// handle. Equal inputs always return handles with equal ids (for as
    /// long as the set stays live — a recycled slot's id may be reissued
    /// to different contents later), from any number of threads.
    pub fn intern(&self, set: Vec<DomainId>) -> SetHandle {
        debug_assert!(
            set.windows(2).all(|w| w[0] < w[1]),
            "set must be sorted+deduped"
        );
        let shard_idx = Self::shard_of(&set);
        let shard = &self.shards[shard_idx];
        {
            // Optimistic read: dedup hits (the common case in steady
            // state) share the lock and never block one another.
            let inner = shard.read();
            if let Some(&slot) = inner.map.get(set.as_slice()) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let arc = inner.table[slot as usize]
                    .as_ref()
                    .expect("mapped set is live")
                    .clone();
                return SetHandle {
                    id: SetId::pack(shard_idx, slot),
                    set: arc,
                };
            }
        }
        let mut inner = shard.write();
        // Re-check: another thread may have interned between the locks.
        if let Some(&slot) = inner.map.get(set.as_slice()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let arc = inner.table[slot as usize]
                .as_ref()
                .expect("mapped set is live")
                .clone();
            return SetHandle {
                id: SetId::pack(shard_idx, slot),
                set: arc,
            };
        }
        let arc: Arc<[DomainId]> = set.into();
        let slot = match inner.free.pop() {
            Some(slot) => {
                inner.table[slot as usize] = Some(arc.clone());
                slot
            }
            None => {
                let slot = u32::try_from(inner.table.len()).expect("arena overflow");
                inner.table.push(Some(arc.clone()));
                slot
            }
        };
        inner.map.insert(arc.clone(), slot);
        SetHandle {
            id: SetId::pack(shard_idx, slot),
            set: arc,
        }
    }

    /// Re-conses a mutated set: interns `set` (reusing a live duplicate
    /// or a recycled slot) and releases `old`, recycling its slot if no
    /// other handle still refers to it. This is the incremental index's
    /// primitive — a group whose membership changed swaps its handle
    /// without leaking the previous contents.
    pub fn update(&self, old: SetHandle, set: Vec<DomainId>) -> SetHandle {
        let new = self.intern(set);
        self.release(old);
        new
    }

    /// Drops a handle, recycling its slot when it was the last reference
    /// outside the arena. Callers must not use the handle's [`SetId`]
    /// afterwards (a recycled id may be reissued).
    ///
    /// If another holder still exists — typically an in-flight scoring
    /// view of an earlier month, holding handle clones — the recycle is
    /// deferred to the graveyard; [`SetArena::sweep`] completes it once
    /// the transient holders are gone. (If the set is meanwhile
    /// re-interned, the graveyard entry simply stays until the *next*
    /// release makes it dead again.)
    pub fn release(&self, handle: SetHandle) {
        let Some(handle) = self.try_recycle(handle) else {
            return;
        };
        let key = Arc::as_ptr(&handle.set) as *const u8 as usize;
        let mut graveyard = self.graveyard.lock().unwrap();
        // Insert-if-absent: a duplicate parked handle would inflate the
        // strong count it is itself waiting on. Dropping the incoming
        // duplicate sheds its reference instead.
        match graveyard.entry(key) {
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(handle);
            }
            std::collections::hash_map::Entry::Occupied(_) => drop(handle),
        }
        // The shed duplicate (or a holder dropped since the first check)
        // may have been the last outside reference — retry immediately,
        // so serially releasing every handle of a set still recycles it
        // on the final release, without waiting for a sweep.
        if let Some(parked) = graveyard.remove(&key) {
            if let Some(parked) = self.try_recycle(parked) {
                graveyard.insert(key, parked);
            }
        }
    }

    /// Recycles `handle`'s slot iff no reference outside the arena (and
    /// this handle) remains; otherwise hands the handle back.
    fn try_recycle(&self, handle: SetHandle) -> Option<SetHandle> {
        let SetHandle { id, set } = handle;
        let mut inner = self.shards[id.shard()].write();
        // The arena holds two references (table slot + map key); `set` is
        // the third. Exactly three means no outside handle remains; a
        // handle observed elsewhere keeps the count ≥ 4 for as long as it
        // exists, so the check under the shard's exclusive lock cannot
        // race with a concurrent clone-out of the dedup map.
        if Arc::strong_count(&set) != 3 {
            return Some(SetHandle { id, set });
        }
        debug_assert!(
            inner.table[id.slot()]
                .as_ref()
                .is_some_and(|slot| Arc::ptr_eq(slot, &set)),
            "released handle belongs to this arena slot"
        );
        inner.map.remove(&*set);
        inner.table[id.slot()] = None;
        inner.free.push(id.slot() as u32);
        self.recycled.fetch_add(1, Ordering::Relaxed);
        self.recycled_bytes.fetch_add(
            (set.len() * std::mem::size_of::<DomainId>()) as u64,
            Ordering::Relaxed,
        );
        inner.compact();
        None
    }

    /// Retries every deferred release whose transient holders have since
    /// dropped their handles, returning how many sets were reclaimed.
    /// The window scheduler calls this once per month and once at window
    /// end (when every scoring view is gone), so dead sets never outlive
    /// the tasks that pinned them.
    pub fn sweep(&self) -> u64 {
        let mut graveyard = self.graveyard.lock().unwrap();
        if graveyard.is_empty() {
            return 0;
        }
        let before = graveyard.len();
        let parked = std::mem::take(&mut *graveyard);
        for (key, handle) in parked {
            if let Some(handle) = self.try_recycle(handle) {
                graveyard.insert(key, handle);
            }
        }
        (before - graveyard.len()) as u64
    }

    /// The elements of a live interned set (an owned `Arc`, so no lock
    /// outlives the call).
    pub fn get(&self, id: SetId) -> Arc<[DomainId]> {
        self.shards[id.shard()].read().table[id.slot()]
            .as_ref()
            .expect("set id refers to a live set")
            .clone()
    }

    /// Number of distinct live sets.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.read();
                inner.table.len() - inner.free.len()
            })
            .sum()
    }

    /// Whether no live set is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots currently allocated across all shards (live + free) —
    /// the footprint the free-list cap bounds.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.read().table.len()).sum()
    }

    /// Intern calls that found an existing set (the dedup payoff).
    pub fn dedup_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Dead handles whose slots were returned to the free list (the
    /// incremental-update payoff).
    pub fn recycled_count(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Cumulative bytes of set contents freed by recycling.
    pub fn recycled_bytes(&self) -> u64 {
        self.recycled_bytes.load(Ordering::Relaxed)
    }

    /// How often any shard acquisition found its lock contended — the
    /// arena's concurrency health metric (0 under serial use; low values
    /// mean the fan-out keeps concurrent interners apart).
    pub fn shard_wait_count(&self) -> u64 {
        self.shards.iter().map(|s| s.wait_count()).sum()
    }

    /// Test/debug invariant check: every map entry points at a live,
    /// pointer-equal table slot; every free slot is dead; no dead slot is
    /// mapped.
    #[cfg(test)]
    fn validate(&self) {
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let inner = shard.read();
            for (set, &slot) in &inner.map {
                let live = inner.table[slot as usize]
                    .as_ref()
                    .unwrap_or_else(|| panic!("shard {shard_idx}: mapped slot {slot} is dead"));
                assert!(Arc::ptr_eq(live, set), "map key shares slot allocation");
            }
            let live = inner.table.iter().filter(|s| s.is_some()).count();
            assert_eq!(live, inner.map.len(), "one map entry per live slot");
            for &slot in &inner.free {
                assert!(
                    inner.table[slot as usize].is_none(),
                    "free slot {slot} must be dead"
                );
            }
            let mut free = inner.free.clone();
            free.sort_unstable();
            free.dedup();
            assert_eq!(free.len(), inner.free.len(), "no duplicate free slots");
            assert_eq!(
                inner.table.len() - live,
                inner.free.len(),
                "every dead slot is on the free list"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<DomainId> {
        v.iter().copied().map(DomainId).collect()
    }

    #[test]
    fn identical_sets_share_id_and_allocation() {
        let arena = SetArena::new();
        let a = arena.intern(ids(&[1, 2, 3]));
        let b = arena.intern(ids(&[1, 2, 3]));
        let c = arena.intern(ids(&[1, 2, 4]));
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        assert_ne!(a.id(), c.id());
        assert!(
            Arc::ptr_eq(&a.set, &b.set),
            "one allocation per distinct set"
        );
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.dedup_hits(), 1);
        arena.validate();
    }

    #[test]
    fn handles_read_back_contents() {
        let arena = SetArena::new();
        let h = arena.intern(ids(&[5, 9]));
        assert_eq!(h.as_slice(), &ids(&[5, 9])[..]);
        assert_eq!(&*h, &*arena.get(h.id()));
        assert_eq!(h.len(), 2);
        assert!(!arena.is_empty());
    }

    #[test]
    fn empty_set_is_internable() {
        let arena = SetArena::new();
        let a = arena.intern(Vec::new());
        let b = arena.intern(Vec::new());
        assert_eq!(a.id(), b.id());
        assert!(a.is_empty());
    }

    #[test]
    fn update_recycles_dead_handles() {
        let arena = SetArena::new();
        let old = arena.intern(ids(&[1, 2, 3]));
        let old_id = old.id();
        // `old` is the only outside handle: updating it must free the slot.
        let new = arena.update(old, ids(&[1, 2]));
        assert_eq!(new.as_slice(), &ids(&[1, 2])[..]);
        assert_eq!(arena.len(), 1, "dead set no longer counted");
        assert_eq!(arena.recycled_count(), 1);
        assert_eq!(
            arena.recycled_bytes(),
            3 * std::mem::size_of::<DomainId>() as u64
        );
        // Re-interning the dead contents lands back on its (recycled)
        // shard slot — a fresh issue, not a stale hit.
        let hits_before = arena.dedup_hits();
        let again = arena.intern(ids(&[1, 2, 3]));
        assert_eq!(arena.dedup_hits(), hits_before);
        assert_ne!(again.id(), new.id());
        assert_eq!(again.id(), old_id, "recycled slot is reissued in-shard");
        arena.validate();
    }

    #[test]
    fn update_keeps_sets_with_other_holders() {
        let arena = SetArena::new();
        let a = arena.intern(ids(&[1, 2]));
        let b = arena.intern(ids(&[1, 2])); // second outside handle
        let updated = arena.update(a, ids(&[1, 2, 3]));
        assert_eq!(arena.recycled_count(), 0, "b still holds the set");
        assert_eq!(arena.len(), 2);
        assert_eq!(b.as_slice(), &ids(&[1, 2])[..]);
        assert_ne!(updated.id(), b.id());
        // Releasing the last holder recycles it.
        arena.release(b);
        assert_eq!(arena.recycled_count(), 1);
        assert_eq!(arena.len(), 1);
        arena.validate();
    }

    #[test]
    fn update_to_identical_contents_is_stable() {
        let arena = SetArena::new();
        let a = arena.intern(ids(&[4, 5]));
        let id = a.id();
        let b = arena.update(a, ids(&[4, 5]));
        assert_eq!(b.id(), id, "no-op update keeps the id");
        assert_eq!(arena.recycled_count(), 0);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn release_then_reuse_many_times_stays_compact() {
        let arena = SetArena::new();
        let mut handle = arena.intern(ids(&[0]));
        for k in 1..50u32 {
            handle = arena.update(handle, ids(&[k]));
            assert_eq!(arena.len(), 1, "exactly one live set throughout");
        }
        assert_eq!(arena.recycled_count(), 49);
        assert!(
            arena.capacity() <= SHARD_COUNT.min(50),
            "slot churn reuses free lists instead of growing tables"
        );
        arena.release(handle);
        assert!(arena.is_empty());
        arena.validate();
    }

    /// The free-list cap: releasing a large population must not leave the
    /// arena holding one dead slot per set that ever existed.
    #[test]
    fn free_list_is_capped_and_tables_shrink() {
        let arena = SetArena::new();
        let n = 10_000u32;
        let handles: Vec<SetHandle> = (0..n).map(|k| arena.intern(ids(&[k, k + n]))).collect();
        assert_eq!(arena.len(), n as usize);
        let bytes_live = u64::from(n) * 2 * std::mem::size_of::<DomainId>() as u64;
        for handle in handles {
            arena.release(handle);
        }
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.recycled_count(), u64::from(n));
        assert_eq!(arena.recycled_bytes(), bytes_live);
        // Fully-dead shards beyond the cap compacted their tail away; a
        // shard can retain at most ~FREE_LIST_CAP dead slots.
        assert!(
            arena.capacity() <= SHARD_COUNT * FREE_LIST_CAP,
            "dead-slot hoarding capped (capacity {} > {})",
            arena.capacity(),
            SHARD_COUNT * FREE_LIST_CAP
        );
        arena.validate();
        // The arena remains fully usable after compaction.
        let h = arena.intern(ids(&[1, 2, 3]));
        assert_eq!(h.as_slice(), &ids(&[1, 2, 3])[..]);
        arena.validate();
    }

    /// Concurrent interning from N threads must behave exactly like
    /// serial interning: same logical sets ⇒ pointer-equal `Arc`s and
    /// equal ids, one live slot per distinct set, and every duplicate
    /// intern counted as a dedup hit.
    #[test]
    fn prop_concurrent_intern_matches_serial() {
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        let strategy = proptest::collection::vec(proptest::collection::vec(0u32..40, 0..6), 1..30);
        runner
            .run(&strategy, |raw_sets| {
                let sets: Vec<Vec<DomainId>> = raw_sets
                    .iter()
                    .map(|s| {
                        let mut s: Vec<DomainId> = s.iter().copied().map(DomainId).collect();
                        s.sort_unstable();
                        s.dedup();
                        s
                    })
                    .collect();
                let distinct: std::collections::BTreeSet<_> = sets.iter().cloned().collect();

                let threads = 4;
                let arena = SetArena::new();
                let barrier = std::sync::Barrier::new(threads);
                let per_thread: Vec<Vec<SetHandle>> = std::thread::scope(|scope| {
                    let tasks: Vec<_> = (0..threads)
                        .map(|t| {
                            let arena = &arena;
                            let sets = &sets;
                            let barrier = &barrier;
                            scope.spawn(move || {
                                barrier.wait();
                                // Each thread interns every set, in a
                                // thread-specific order.
                                let mut order: Vec<usize> = (0..sets.len()).collect();
                                order.rotate_left(t % sets.len().max(1));
                                order
                                    .into_iter()
                                    .map(|i| arena.intern(sets[i].clone()))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    tasks.into_iter().map(|t| t.join().unwrap()).collect()
                });

                // Cross-thread hash-consing: equal contents ⇒ pointer-equal
                // Arcs and equal ids, everywhere.
                let mut canon: std::collections::BTreeMap<Vec<DomainId>, SetHandle> =
                    Default::default();
                for handles in &per_thread {
                    for handle in handles {
                        match canon.get(handle.as_slice()) {
                            None => {
                                canon.insert(handle.as_slice().to_vec(), handle.clone());
                            }
                            Some(first) => {
                                assert!(
                                    Arc::ptr_eq(&first.set, &handle.set),
                                    "same logical set must share one allocation"
                                );
                                assert_eq!(first.id(), handle.id());
                            }
                        }
                    }
                }
                assert_eq!(arena.len(), distinct.len());
                // Exactly one miss per distinct set; every other intern
                // was a dedup hit, no matter the interleaving.
                let total = (threads * sets.len()) as u64;
                assert_eq!(arena.dedup_hits(), total - distinct.len() as u64);
                arena.validate();

                // And serial interning agrees on the dedup behaviour.
                let serial = SetArena::new();
                for set in &sets {
                    serial.intern(set.clone());
                }
                assert_eq!(serial.len(), arena.len());
                Ok(())
            })
            .unwrap();
    }

    /// Interleaving test for the shard lock around `update`/`release`:
    /// many threads churn overlapping logical sets through
    /// intern/update/release in barrier-separated rounds (so every round
    /// exercises a different interleaving of the same operations), and
    /// the shard invariants must hold at every quiescent point.
    #[test]
    fn interleaved_update_release_keeps_shard_invariants() {
        let threads = 4;
        let rounds = 25;
        let arena = SetArena::new();
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            let tasks: Vec<_> = (0..threads as u32)
                .map(|t| {
                    let arena = &arena;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        for round in 0..rounds {
                            barrier.wait();
                            // Overlapping contents across threads: every
                            // thread fights over the same logical sets.
                            let a = arena.intern(ids(&[round, round + 1]));
                            let b = arena.intern(ids(&[round]));
                            let c = arena.update(a, ids(&[round, round + 1, round + 2 + t]));
                            arena.release(b);
                            arena.release(c);
                            barrier.wait();
                            if t == 0 {
                                // Quiescent: all handles of this round
                                // dropped on every thread; deferred
                                // releases can now complete.
                                arena.sweep();
                                arena.validate();
                            }
                            barrier.wait();
                        }
                    })
                })
                .collect();
            for task in tasks {
                task.join().unwrap();
            }
        });
        arena.sweep();
        arena.validate();
        assert_eq!(arena.len(), 0, "all handles released ⇒ nothing live");
    }

    /// A release that races a live view clone is deferred, not lost: the
    /// sweep reclaims the slot once the view drops its handle.
    #[test]
    fn deferred_release_reclaims_after_holders_drop() {
        let arena = SetArena::new();
        let handle = arena.intern(ids(&[1, 2, 3]));
        let view_copy = handle.clone(); // a scoring view pinning the set
        arena.release(handle);
        assert_eq!(arena.len(), 1, "still pinned: not recycled");
        assert_eq!(arena.sweep(), 0, "holder still alive");
        assert_eq!(arena.recycled_count(), 0);
        // Releasing the same set again must not double-park it.
        arena.release(view_copy.clone());
        drop(view_copy);
        assert_eq!(arena.sweep(), 1, "last holder gone: swept");
        assert_eq!(arena.recycled_count(), 1);
        assert!(arena.is_empty());
        assert_eq!(arena.sweep(), 0, "graveyard drained");
        arena.validate();
    }

    /// The arena is shareable: interning on worker threads while the
    /// owner reads counters must compile (`&self` everywhere) and
    /// dedup correctly.
    #[test]
    fn arena_is_sync_and_shareable() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<SetArena>();
        let arena = Arc::new(SetArena::new());
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || arena.intern(ids(&[7, 8, 9])))
            })
            .collect();
        let mut first: Option<SetHandle> = None;
        for h in handles {
            let h = h.join().unwrap();
            if let Some(f) = &first {
                assert!(Arc::ptr_eq(&f.set, &h.set));
            } else {
                first = Some(h);
            }
        }
        assert_eq!(arena.len(), 1);
    }
}
