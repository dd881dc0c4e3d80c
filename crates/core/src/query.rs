//! The read-side window query index behind the resident sibling service.
//!
//! A [`crate::BatchRun`]'s per-month [`SiblingSet`]s are *write-optimized*:
//! the engine produces them as sorted pair vectors, which is exactly what
//! batch consumers (stdout tables, experiment drivers) walk once and drop.
//! A resident query daemon has the opposite access pattern — millions of
//! small reads against state that never changes between publishes — so at
//! publish time the pair sets are **pivoted into query order** once:
//!
//! * **Point queries** (`siblings P4 P6 M`) binary-search the month's
//!   sorted pair vector — the same structure batch produced, reused as-is.
//! * **Top-k queries** (`partners P M k`) need pairs *per prefix, ranked
//!   by similarity* — an order batch never materializes. Each month gets
//!   a [`PostingTable`] per family: the sorted key column, a prefix-sum
//!   offset column, and one flat array of pair indices ranked by
//!   (similarity descending, partner ascending). Top-k is a binary search
//!   plus a `k`-bounded slice walk; nothing is re-sorted at query time.
//! * **History queries** (`pair P4 P6 from..to`) chain point lookups over
//!   the month range.
//! * **Stats queries** reuse the month-over-month change accounting the
//!   batch table prints, precomputed at publish time by the same
//!   [`PairLedger`] walk.
//!
//! The index is **immutable after publish** ([`WindowQueryIndex::publish`]
//! hands out an `Arc`), so any number of reader threads answer queries
//! with zero locks and zero allocation on the lookup path. A live window
//! publishes one generation per ingested delta, and
//! [`WindowQueryIndex::with_tail`] derives it from the committed one: a
//! month's pair vector and posting columns are immutable `Arc` slices,
//! so every month but the new tail is shared between the generations
//! (the months stay inline in the index's vector, so sharing adds no
//! pointer hop to a lookup) and a publish costs one month's pivot, not
//! the window's. Determinism:
//! every answer is derived from the exact pair vectors the batch run
//! produced — a point/history answer *is* the batch pair, and the top-k
//! ranking is a pure function of (similarity, partner prefix) with exact
//! rational comparison, so answers are bit-identical to recomputing the
//! window and filtering/sorting its output (property-tested below).

use std::fmt;
use std::sync::{Arc, RwLock};

use sibling_net_types::{AnyPrefix, Ipv4Prefix, Ipv6Prefix, MonthDate};

use crate::engine::BatchRun;
use crate::longitudinal::PairLedger;
use crate::pipeline::{SiblingPair, SiblingSet};

/// Why a window could not be pivoted into a [`WindowQueryIndex`].
///
/// Both variants are caller errors — [`crate::DetectEngine::run_window`]
/// always produces a non-empty, strictly ascending result vector — but a
/// serving path assembling windows from recovered state threads them as
/// typed errors instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryIndexError {
    /// The window has no months; there is nothing to publish.
    EmptyWindow,
    /// The window's month dates were not strictly ascending.
    UnsortedWindow,
}

impl fmt::Display for QueryIndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyWindow => write!(f, "cannot publish an empty window"),
            Self::UnsortedWindow => write!(f, "window dates must be strictly ascending"),
        }
    }
}

impl std::error::Error for QueryIndexError {}

/// Per-prefix ranked pair postings of one month and one family.
///
/// `keys` is sorted; `offsets[i]..offsets[i+1]` delimits key `i`'s run in
/// `ranked`, whose entries index the month's pair vector in ranked order
/// (similarity descending — exact [`crate::Ratio`] comparison — then
/// partner prefix ascending, so ties have one canonical order). The
/// columns are immutable once built and `Arc`-shared between index
/// generations.
#[derive(Debug, Clone)]
struct PostingTable<P> {
    keys: Arc<[P]>,
    offsets: Arc<[u32]>,
    ranked: Arc<[u32]>,
}

impl<P: Ord + Copy> PostingTable<P> {
    /// Pivots `(key, pair index)` rows into the table. `entries` may
    /// arrive in any order; `rank` orders pair indices within a key run.
    fn build(mut entries: Vec<(P, u32)>, rank: impl Fn(u32, u32) -> std::cmp::Ordering) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| rank(a.1, b.1)));
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        let mut ranked = Vec::with_capacity(entries.len());
        for (key, pair) in entries {
            if keys.last() != Some(&key) {
                keys.push(key);
                offsets.push(ranked.len() as u32);
            }
            ranked.push(pair);
        }
        offsets.push(ranked.len() as u32);
        Self {
            keys: keys.into(),
            offsets: offsets.into(),
            ranked: ranked.into(),
        }
    }

    /// The ranked pair-index run of `key` (empty if the prefix has no
    /// pairs this month).
    fn run(&self, key: &P) -> &[u32] {
        match self.keys.binary_search(key) {
            Ok(i) => &self.ranked[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

/// Publish-time aggregates of one month — the columns of the batch
/// stdout table, precomputed so a `stats` query is a field read.
#[derive(Debug, Clone, Copy)]
pub struct MonthStats {
    /// The month.
    pub date: MonthDate,
    /// Sibling pairs detected.
    pub pairs: usize,
    /// Distinct IPv4 prefixes participating in pairs.
    pub v4_prefixes: usize,
    /// Distinct IPv6 prefixes participating in pairs.
    pub v6_prefixes: usize,
    /// Share of pairs with similarity exactly 1.
    pub perfect_share: f64,
    /// `(new, unchanged, changed)` vs the previous month; `None` for the
    /// window's first month (nothing to compare against).
    pub delta: Option<(usize, usize, usize)>,
}

impl MonthStats {
    /// Renders the month exactly as the `batch` subcommand's stdout table
    /// row — the one formatter both paths share, so a served `stats`
    /// answer can be diffed verbatim against batch output.
    pub fn batch_row(&self) -> String {
        let (new, unchanged, changed) = match self.delta {
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
            Some((n, u, c)) => (n.to_string(), u.to_string(), c.to_string()),
        };
        format!(
            "{}   {:>7} {:>8} {:>8} {:>8.1}% {:>6} {:>9} {:>8}",
            self.date,
            self.pairs,
            self.v4_prefixes,
            self.v6_prefixes,
            self.perfect_share * 100.0,
            new,
            unchanged,
            changed
        )
    }

    /// The header line matching [`MonthStats::batch_row`].
    pub fn batch_header() -> String {
        format!(
            "{:<9} {:>7} {:>8} {:>8} {:>9} {:>6} {:>9} {:>8}",
            "month", "pairs", "v4pfx", "v6pfx", "perfect%", "new", "unchanged", "changed"
        )
    }
}

/// One month's pivoted read structures. Cloning shares every column
/// (refcount bumps), which is how index generations share months.
#[derive(Debug, Clone)]
struct MonthPostings {
    /// The month's sibling set exactly as the batch run produced it
    /// (sorted by `(v4, v6)` — the point-query structure).
    set: SiblingSet,
    stats: MonthStats,
    v4: PostingTable<Ipv4Prefix>,
    v6: PostingTable<Ipv6Prefix>,
}

impl MonthPostings {
    fn build(date: MonthDate, set: SiblingSet, ledger: &mut PairLedger, first: bool) -> Self {
        let pairs = set.as_slice();
        let mut v4_rows: Vec<(Ipv4Prefix, u32)> = Vec::with_capacity(pairs.len());
        let mut v6_rows: Vec<(Ipv6Prefix, u32)> = Vec::with_capacity(pairs.len());
        for (i, pair) in pairs.iter().enumerate() {
            v4_rows.push((pair.v4, i as u32));
            v6_rows.push((pair.v6, i as u32));
        }
        // Rank within a key run: similarity descending (exact rational
        // comparison), then partner ascending. Both families tie-break on
        // the partner side, giving every run one canonical order.
        let v4 = PostingTable::build(v4_rows, |a, b| {
            let (a, b) = (&pairs[a as usize], &pairs[b as usize]);
            b.similarity.cmp(&a.similarity).then(a.v6.cmp(&b.v6))
        });
        let v6 = PostingTable::build(v6_rows, |a, b| {
            let (a, b) = (&pairs[a as usize], &pairs[b as usize]);
            b.similarity.cmp(&a.similarity).then(a.v4.cmp(&b.v4))
        });
        let delta = ledger.advance(&set);
        let delta = if first {
            None
        } else {
            let (new, unchanged, changed, _) = delta.counts();
            Some((new, unchanged, changed))
        };
        let stats = MonthStats {
            date,
            pairs: set.len(),
            v4_prefixes: v4.keys.len(),
            v6_prefixes: v6.keys.len(),
            perfect_share: set.perfect_match_share(),
            delta,
        };
        Self { set, stats, v4, v6 }
    }
}

/// A read-only view of one loaded month (see [`WindowQueryIndex::month`]).
#[derive(Debug, Clone, Copy)]
pub struct MonthView<'a> {
    postings: &'a MonthPostings,
}

impl<'a> MonthView<'a> {
    /// The month's full sibling set, as batch produced it.
    pub fn set(&self) -> &'a SiblingSet {
        &self.postings.set
    }

    /// Publish-time aggregates (the batch table row).
    pub fn stats(&self) -> &'a MonthStats {
        &self.postings.stats
    }

    /// Point query: the pair `(v4, v6)` if it is a sibling pair this
    /// month — the exact [`SiblingPair`] of the batch run.
    pub fn point(&self, v4: &Ipv4Prefix, v6: &Ipv6Prefix) -> Option<&'a SiblingPair> {
        self.postings.set.get(v4, v6)
    }

    /// Top-k query: up to `k` partners of `prefix` (either family),
    /// ranked by similarity descending with ascending-partner
    /// tie-breaks. `k = 0` returns the full ranked run.
    pub fn partners(&self, prefix: &AnyPrefix, k: usize) -> impl Iterator<Item = &'a SiblingPair> {
        let run = match prefix {
            AnyPrefix::V4(p) => self.postings.v4.run(p),
            AnyPrefix::V6(p) => self.postings.v6.run(p),
        };
        let k = if k == 0 { run.len() } else { k.min(run.len()) };
        let pairs = self.postings.set.as_slice();
        run[..k].iter().map(move |&i| &pairs[i as usize])
    }
}

/// The immutable-after-publish window query index (module docs).
#[derive(Debug)]
pub struct WindowQueryIndex {
    months: Vec<MonthDate>,
    monthly: Vec<MonthPostings>,
}

impl WindowQueryIndex {
    /// Pivots a batch run's results into the read index. The run's dates
    /// must be strictly ascending (what [`crate::DetectEngine::run_window`]
    /// produces); an empty or out-of-order run is a caller error.
    pub fn build(results: &[(MonthDate, SiblingSet)]) -> Result<Self, QueryIndexError> {
        if results.is_empty() {
            return Err(QueryIndexError::EmptyWindow);
        }
        if results.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(QueryIndexError::UnsortedWindow);
        }
        let mut ledger = PairLedger::new();
        let months: Vec<MonthDate> = results.iter().map(|(d, _)| *d).collect();
        let monthly = results
            .iter()
            .enumerate()
            .map(|(i, (date, set))| MonthPostings::build(*date, set.clone(), &mut ledger, i == 0))
            .collect();
        Ok(Self { months, monthly })
    }

    /// The next generation of this index, with `set` as the month at
    /// `date`: `date` equal to the last month replaces it (an intra-month
    /// retarget), a later `date` appends a month. Every other month is
    /// shared with `self`, not rebuilt, so the cost is one month's pivot
    /// whatever the window's length. The result equals
    /// [`WindowQueryIndex::build`] over the same months.
    ///
    /// The new month's `stats` delta comes from a fresh [`PairLedger`]
    /// advanced over the previous month and then `set`: the ledger
    /// carries exactly the last month's pairs, so this matches the
    /// full walk. An earlier `date` is [`QueryIndexError::UnsortedWindow`].
    pub fn with_tail(&self, date: MonthDate, set: SiblingSet) -> Result<Self, QueryIndexError> {
        let (_, tail) = self.bounds();
        let kept = match date.cmp(&tail) {
            std::cmp::Ordering::Less => return Err(QueryIndexError::UnsortedWindow),
            std::cmp::Ordering::Equal => self.monthly.len() - 1,
            std::cmp::Ordering::Greater => self.monthly.len(),
        };
        let mut ledger = PairLedger::new();
        if let Some(previous) = kept.checked_sub(1) {
            ledger.advance(&self.monthly[previous].set);
        }
        let mut months = self.months[..kept].to_vec();
        months.push(date);
        let mut monthly = self.monthly[..kept].to_vec();
        monthly.push(MonthPostings::build(date, set, &mut ledger, kept == 0));
        Ok(Self { months, monthly })
    }

    /// [`WindowQueryIndex::build`] + `Arc` publication — what a server
    /// hands its reader threads. Readers clone the `Arc` once at spawn
    /// and then share the immutable index lock-free.
    pub fn publish(run: &BatchRun) -> Result<Arc<Self>, QueryIndexError> {
        Ok(Arc::new(Self::build(&run.results)?))
    }

    /// The loaded months, ascending.
    pub fn months(&self) -> &[MonthDate] {
        &self.months
    }

    /// The inclusive `(first, last)` bounds of the loaded window.
    pub fn bounds(&self) -> (MonthDate, MonthDate) {
        (
            *self.months.first().expect("non-empty by construction"),
            *self.months.last().expect("non-empty by construction"),
        )
    }

    /// The month view at `date`, `None` if that month is not loaded.
    pub fn month(&self, date: MonthDate) -> Option<MonthView<'_>> {
        self.months.binary_search(&date).ok().map(|i| MonthView {
            postings: &self.monthly[i],
        })
    }

    /// History query: the pair's trajectory over the loaded months
    /// intersecting `from..=to`, yielding only the months where the pair
    /// is a sibling pair (each item the exact batch [`SiblingPair`]).
    pub fn history<'a>(
        &'a self,
        v4: &'a Ipv4Prefix,
        v6: &'a Ipv6Prefix,
        from: MonthDate,
        to: MonthDate,
    ) -> impl Iterator<Item = (MonthDate, &'a SiblingPair)> {
        let lo = self.months.partition_point(|d| *d < from);
        let hi = self.months.partition_point(|d| *d <= to);
        self.months[lo..hi]
            .iter()
            .zip(&self.monthly[lo..hi])
            .filter_map(move |(date, postings)| postings.set.get(v4, v6).map(|p| (*date, p)))
    }

    /// Per-month publish-time aggregates, ascending — the batch table.
    pub fn stats(&self) -> impl Iterator<Item = &MonthStats> {
        self.monthly.iter().map(|m| &m.stats)
    }

    /// Total pairs across all loaded months (capacity reporting).
    pub fn total_pairs(&self) -> usize {
        self.monthly.iter().map(|m| m.set.len()).sum()
    }
}

/// The epoch-numbered publication cell of a live window.
///
/// Writers build a complete replacement [`WindowQueryIndex`] off to the
/// side and install it with one [`PublishedWindow::swap`]; readers
/// [`PublishedWindow::pin`] once per request and then answer lock-free
/// against the pinned, immutable index. The lock is held only for the
/// duration of an `Arc` clone or store — never across a query or a
/// rebuild — so publication never pauses readers. Retired generations
/// stay alive exactly as long as some reader still holds their pin, then
/// drop with the last `Arc`.
///
/// Epochs are monotonic: the first published generation is epoch 1 and
/// every swap increments it, so clients can assert read consistency by
/// comparing the `epoch` verb's answer across requests.
#[derive(Debug)]
pub struct PublishedWindow {
    current: RwLock<(u64, Arc<WindowQueryIndex>)>,
}

impl PublishedWindow {
    /// Publishes `index` as epoch 1.
    pub fn new(index: Arc<WindowQueryIndex>) -> Self {
        Self::new_at(1, index)
    }

    /// Publishes `index` at a caller-chosen starting epoch (≥ 1).
    ///
    /// Recovery uses this to make epochs durable: a live daemon derives
    /// its starting epoch from the ingest journal's persistent sequence
    /// count (`1 + last_seq`), so the numbers a replication feed hands
    /// out stay monotonic across restarts and compactions instead of
    /// rewinding to 1.
    pub fn new_at(epoch: u64, index: Arc<WindowQueryIndex>) -> Self {
        Self {
            current: RwLock::new((epoch.max(1), index)),
        }
    }

    /// Pins the current generation: the `(epoch, index)` pair a reader
    /// answers one request against. Cheap (one `Arc` clone under a brief
    /// read lock).
    pub fn pin(&self) -> PinnedEpoch {
        let guard = self.current.read().expect("published window poisoned");
        PinnedEpoch {
            epoch: guard.0,
            index: Arc::clone(&guard.1),
        }
    }

    /// The current epoch number without pinning the index.
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("published window poisoned").0
    }

    /// Atomically installs `index` as the next generation and returns
    /// its epoch number. Readers pinned on the prior generation keep
    /// answering against it unaffected.
    pub fn swap(&self, index: Arc<WindowQueryIndex>) -> u64 {
        let mut guard = self.current.write().expect("published window poisoned");
        guard.0 += 1;
        guard.1 = index;
        guard.0
    }

    /// Replaces the index **without** advancing the epoch.
    ///
    /// Recovery-only: journal replay applies every recovered delta and
    /// then installs the final index at the epoch the journal already
    /// accounts for — the replayed deltas consumed their epoch numbers
    /// when they were first accepted, before the crash. Never used while
    /// readers are being served.
    pub fn republish(&self, index: Arc<WindowQueryIndex>) {
        let mut guard = self.current.write().expect("published window poisoned");
        guard.1 = index;
    }
}

/// One reader's pinned `(epoch, index)` pair (see [`PublishedWindow`]).
#[derive(Debug, Clone)]
pub struct PinnedEpoch {
    epoch: u64,
    index: Arc<WindowQueryIndex>,
}

impl PinnedEpoch {
    /// The epoch this pin was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned immutable index.
    pub fn index(&self) -> &Arc<WindowQueryIndex> {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longitudinal::compare;
    use crate::metrics::Ratio;

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

    fn month(k: u8) -> MonthDate {
        MonthDate::new(2024, k)
    }

    fn two_month_fixture() -> WindowQueryIndex {
        let m1 = SiblingSet::from_pairs(vec![
            pair("10.0.0.0/24", "2600:1::/48", 1, 1),
            pair("10.0.0.0/24", "2600:2::/48", 1, 2),
            pair("10.0.1.0/24", "2600:2::/48", 1, 2),
        ]);
        let m2 = SiblingSet::from_pairs(vec![
            pair("10.0.0.0/24", "2600:1::/48", 1, 2),
            pair("10.0.1.0/24", "2600:2::/48", 1, 2),
            pair("10.0.2.0/24", "2600:3::/48", 1, 1),
        ]);
        WindowQueryIndex::build(&[(month(1), m1), (month(2), m2)]).unwrap()
    }

    #[test]
    fn point_returns_exact_batch_pair() {
        let index = two_month_fixture();
        let view = index.month(month(1)).unwrap();
        let p = view
            .point(
                &"10.0.0.0/24".parse().unwrap(),
                &"2600:2::/48".parse().unwrap(),
            )
            .unwrap();
        assert_eq!(p.similarity, Ratio::new(1, 2));
        assert!(view
            .point(
                &"10.0.9.0/24".parse().unwrap(),
                &"2600:2::/48".parse().unwrap()
            )
            .is_none());
        assert!(index.month(month(3)).is_none());
    }

    #[test]
    fn partners_ranked_by_similarity_then_partner() {
        let index = two_month_fixture();
        let view = index.month(month(1)).unwrap();
        let p4: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let got: Vec<_> = view
            .partners(&AnyPrefix::V4(p4), 0)
            .map(|p| (p.v6.to_string(), p.similarity))
            .collect();
        assert_eq!(
            got,
            vec![
                ("2600:1::/48".to_string(), Ratio::ONE),
                ("2600:2::/48".to_string(), Ratio::new(1, 2)),
            ]
        );
        // k truncates; the v6 side ranks by v4 partner.
        assert_eq!(view.partners(&AnyPrefix::V4(p4), 1).count(), 1);
        let p6: Ipv6Prefix = "2600:2::/48".parse().unwrap();
        let got: Vec<_> = view
            .partners(&AnyPrefix::V6(p6), 10)
            .map(|p| p.v4.to_string())
            .collect();
        assert_eq!(got, vec!["10.0.0.0/24", "10.0.1.0/24"]);
        // Unknown prefix: empty run, not an error.
        assert_eq!(
            view.partners(&AnyPrefix::V4("9.9.9.0/24".parse().unwrap()), 5)
                .count(),
            0
        );
    }

    #[test]
    fn history_skips_absent_months_and_clamps() {
        let index = two_month_fixture();
        let v4: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let v6: Ipv6Prefix = "2600:1::/48".parse().unwrap();
        let got: Vec<_> = index
            .history(&v4, &v6, month(1), month(12))
            .map(|(d, p)| (d, p.similarity))
            .collect();
        assert_eq!(
            got,
            vec![(month(1), Ratio::ONE), (month(2), Ratio::new(1, 2))]
        );
        // A pair absent in one month is simply skipped there.
        let v6b: Ipv6Prefix = "2600:2::/48".parse().unwrap();
        let got: Vec<_> = index.history(&v4, &v6b, month(1), month(2)).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, month(1));
        // Disjoint range: empty.
        assert_eq!(index.history(&v4, &v6, month(5), month(12)).count(), 0);
    }

    #[test]
    fn stats_match_ledger_walk() {
        let index = two_month_fixture();
        let stats: Vec<&MonthStats> = index.stats().collect();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].pairs, 3);
        assert!(stats[0].delta.is_none());
        // Month 2 vs month 1: 1 new, 1 unchanged, 1 changed.
        assert_eq!(stats[1].delta, Some((1, 1, 1)));
        assert_eq!(stats[1].v4_prefixes, 3);
        assert_eq!(stats[1].v6_prefixes, 3);
        let row = stats[0].batch_row();
        assert!(row.starts_with("2024-01"));
        assert!(row.contains('-'));
        assert!(MonthStats::batch_header().starts_with("month"));
    }

    #[test]
    fn build_rejects_empty_and_unsorted() {
        assert_eq!(
            WindowQueryIndex::build(&[]).unwrap_err(),
            QueryIndexError::EmptyWindow
        );
        let set = SiblingSet::from_pairs(vec![]);
        assert_eq!(
            WindowQueryIndex::build(&[(month(2), set.clone()), (month(1), set)]).unwrap_err(),
            QueryIndexError::UnsortedWindow
        );
        assert!(QueryIndexError::EmptyWindow.to_string().contains("empty"));
        assert!(QueryIndexError::UnsortedWindow
            .to_string()
            .contains("ascending"));
    }

    #[test]
    fn published_window_swaps_epochs_without_disturbing_pins() {
        let first = Arc::new(two_month_fixture());
        let published = PublishedWindow::new(Arc::clone(&first));
        assert_eq!(published.epoch(), 1);
        let pin = published.pin();
        assert_eq!(pin.epoch(), 1);
        assert_eq!(pin.index().months().len(), 2);

        let next = SiblingSet::from_pairs(vec![pair("10.0.7.0/24", "2600:7::/48", 1, 1)]);
        let replacement = Arc::new(
            WindowQueryIndex::build(&[(month(1), next.clone()), (month(3), next)]).unwrap(),
        );
        assert_eq!(published.swap(replacement), 2);
        assert_eq!(published.epoch(), 2);
        // The old pin still answers against its generation.
        assert_eq!(pin.epoch(), 1);
        assert!(Arc::ptr_eq(pin.index(), &first));
        assert_eq!(pin.index().months(), &[month(1), month(2)]);
        // A fresh pin sees the new generation.
        let fresh = published.pin();
        assert_eq!(fresh.epoch(), 2);
        assert_eq!(fresh.index().months(), &[month(1), month(3)]);
    }

    #[test]
    fn next_generation_shares_every_month_but_the_new_one() {
        let index = two_month_fixture();
        let set_ptrs = |index: &WindowQueryIndex| -> Vec<*const SiblingPair> {
            index
                .months()
                .iter()
                .map(|d| index.month(*d).unwrap().set().as_slice().as_ptr())
                .collect()
        };
        let fresh = || SiblingSet::from_pairs(vec![pair("10.0.7.0/24", "2600:7::/48", 1, 1)]);

        // A retarget replaces the tail; the month before is shared.
        let retargeted = index.with_tail(month(2), fresh()).unwrap();
        assert_eq!(retargeted.months(), &[month(1), month(2)]);
        let (before, after) = (set_ptrs(&index), set_ptrs(&retargeted));
        assert_eq!(after[0], before[0]);
        assert_ne!(after[1], before[1]);

        // An append shares every earlier month.
        let appended = retargeted.with_tail(month(3), fresh()).unwrap();
        assert_eq!(appended.months(), &[month(1), month(2), month(3)]);
        assert_eq!(set_ptrs(&appended)[..2], set_ptrs(&retargeted)[..]);

        // A month before the tail is not a next generation.
        assert_eq!(
            appended.with_tail(month(2), fresh()).unwrap_err(),
            QueryIndexError::UnsortedWindow
        );
    }

    /// Every answer of `got` equals `want`'s: months, stats rows, and the
    /// point, partners and history answers over the `ids` prefix space.
    fn assert_same_answers(got: &WindowQueryIndex, want: &WindowQueryIndex, ids: u32) {
        assert_eq!(got.months(), want.months());
        let rows = |index: &WindowQueryIndex| -> Vec<String> {
            index.stats().map(|s| s.batch_row()).collect()
        };
        assert_eq!(rows(got), rows(want));
        assert_eq!(got.total_pairs(), want.total_pairs());
        let (lo, hi) = want.bounds();
        for a in 0..ids {
            let v4: Ipv4Prefix = format!("10.0.{a}.0/24").parse().unwrap();
            for b in 0..ids {
                let v6: Ipv6Prefix = format!("2600:{}::/48", b + 1).parse().unwrap();
                let history = |index: &WindowQueryIndex| -> Vec<(MonthDate, SiblingPair)> {
                    index
                        .history(&v4, &v6, lo, hi)
                        .map(|(d, p)| (d, *p))
                        .collect()
                };
                assert_eq!(history(got), history(want));
                for &date in want.months() {
                    let (g, w) = (got.month(date).unwrap(), want.month(date).unwrap());
                    assert_eq!(g.point(&v4, &v6), w.point(&v4, &v6));
                    let partners = |view: MonthView<'_>, prefix: AnyPrefix| -> Vec<SiblingPair> {
                        view.partners(&prefix, 0).copied().collect()
                    };
                    assert_eq!(
                        partners(g, AnyPrefix::V4(v4)),
                        partners(w, AnyPrefix::V4(v4))
                    );
                    assert_eq!(
                        partners(g, AnyPrefix::V6(v6)),
                        partners(w, AnyPrefix::V6(v6))
                    );
                }
            }
        }
    }

    /// Property: over any sequence of appends and retargets, the index
    /// each `with_tail` derives answers exactly like a full
    /// [`WindowQueryIndex::build`] over the same month sets.
    #[test]
    fn prop_with_tail_equals_full_build() {
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        let ids = 4u32;
        let month_rows = || proptest::collection::vec((0..ids, 0..ids, 1u64..5), 0..12);
        // Each step: 1 appends a month, 0 retargets the tail.
        let strategy = (
            month_rows(),
            proptest::collection::vec((0u8..2, month_rows()), 1..8),
        );
        let set_of = |rows: &[(u32, u32, u64)]| {
            SiblingSet::from_pairs(
                rows.iter()
                    .map(|(a, b, num)| {
                        pair(
                            &format!("10.0.{a}.0/24"),
                            &format!("2600:{}::/48", b + 1),
                            *num,
                            4,
                        )
                    })
                    .collect(),
            )
        };
        runner
            .run(&strategy, |(first, steps)| {
                let mut results = vec![(month(1), set_of(&first))];
                let mut index = WindowQueryIndex::build(&results).unwrap();
                for (append, rows) in steps {
                    let set = set_of(&rows);
                    let last = results.last().unwrap().0;
                    if append == 1 {
                        let date = last.add_months(1);
                        index = index.with_tail(date, set.clone()).unwrap();
                        results.push((date, set));
                    } else {
                        index = index.with_tail(last, set.clone()).unwrap();
                        *results.last_mut().unwrap() = (last, set);
                    }
                    assert_same_answers(&index, &WindowQueryIndex::build(&results).unwrap(), ids);
                }
                Ok(())
            })
            .unwrap();
    }

    /// Property: every query family answers bit-identically to a
    /// recompute from the month pair sets — top-k equals filter + stable
    /// rank of the full set, point/history equal direct membership, and
    /// stats equal the stateless `compare` walk.
    #[test]
    fn prop_queries_equal_recompute_reference() {
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        // Months of (v4 id, v6 id, numerator) rows over a small id space
        // so prefixes recur within and across months.
        let month_rows = || proptest::collection::vec((0u32..5, 0u32..5, 1u64..5), 0..16);
        let strategy = proptest::collection::vec(month_rows(), 1..5);
        runner
            .run(&strategy, |months_rows| {
                let sets: Vec<(MonthDate, SiblingSet)> = months_rows
                    .iter()
                    .enumerate()
                    .map(|(i, rows)| {
                        let pairs = rows
                            .iter()
                            .map(|(a, b, num)| {
                                pair(
                                    &format!("10.0.{a}.0/24"),
                                    &format!("2600:{}::/48", b + 1),
                                    *num,
                                    4,
                                )
                            })
                            .collect();
                        (month(i as u8 + 1), SiblingSet::from_pairs(pairs))
                    })
                    .collect();
                let index = WindowQueryIndex::build(&sets).unwrap();

                let mut prev = SiblingSet::from_pairs(vec![]);
                for (i, (date, set)) in sets.iter().enumerate() {
                    let view = index.month(*date).unwrap();
                    // Point: every batch pair answers with itself; a
                    // non-pair answers None.
                    for p in set.iter() {
                        let got = view.point(&p.v4, &p.v6).unwrap();
                        assert_eq!((got.v4, got.v6), (p.v4, p.v6));
                        assert_eq!(got.similarity, p.similarity);
                        assert_eq!(got.shared_domains, p.shared_domains);
                    }
                    assert!(view
                        .point(
                            &"9.9.9.0/24".parse().unwrap(),
                            &"2600:1::/48".parse().unwrap()
                        )
                        .is_none());
                    // Top-k (both families, several k): reference = filter
                    // the full set, sort by (sim desc, partner asc), take k.
                    for a in 0..5u32 {
                        let p4: Ipv4Prefix = format!("10.0.{a}.0/24").parse().unwrap();
                        let mut want: Vec<&SiblingPair> =
                            set.iter().filter(|p| p.v4 == p4).collect();
                        want.sort_by(|x, y| y.similarity.cmp(&x.similarity).then(x.v6.cmp(&y.v6)));
                        for k in [0usize, 1, 2, 100] {
                            let got: Vec<&SiblingPair> =
                                view.partners(&AnyPrefix::V4(p4), k).collect();
                            let take = if k == 0 {
                                want.len()
                            } else {
                                k.min(want.len())
                            };
                            assert_eq!(got.len(), take);
                            for (g, w) in got.iter().zip(&want[..take]) {
                                assert_eq!((g.v4, g.v6), (w.v4, w.v6));
                                assert_eq!(g.similarity, w.similarity);
                            }
                        }
                    }
                    for b in 0..5u32 {
                        let p6: Ipv6Prefix = format!("2600:{}::/48", b + 1).parse().unwrap();
                        let mut want: Vec<&SiblingPair> =
                            set.iter().filter(|p| p.v6 == p6).collect();
                        want.sort_by(|x, y| y.similarity.cmp(&x.similarity).then(x.v4.cmp(&y.v4)));
                        let got: Vec<&SiblingPair> = view.partners(&AnyPrefix::V6(p6), 0).collect();
                        assert_eq!(got.len(), want.len());
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!((g.v4, g.v6), (w.v4, w.v6));
                        }
                    }
                    // Stats: equal to the stateless compare walk.
                    let stats = view.stats();
                    assert_eq!(stats.pairs, set.len());
                    assert_eq!(
                        (stats.v4_prefixes, stats.v6_prefixes),
                        set.unique_prefix_counts()
                    );
                    if i == 0 {
                        assert!(stats.delta.is_none());
                    } else {
                        let want = compare(&prev, set);
                        let (n, u, c, _) = want.counts();
                        assert_eq!(stats.delta, Some((n, u, c)));
                    }
                    prev = set.clone();
                }
                // History: for every pair key seen anywhere, the history
                // over the full window equals the per-month point chain.
                for a in 0..5u32 {
                    for b in 0..5u32 {
                        let v4: Ipv4Prefix = format!("10.0.{a}.0/24").parse().unwrap();
                        let v6: Ipv6Prefix = format!("2600:{}::/48", b + 1).parse().unwrap();
                        let (lo, hi) = index.bounds();
                        let got: Vec<_> = index.history(&v4, &v6, lo, hi).collect();
                        let want: Vec<_> = sets
                            .iter()
                            .filter_map(|(d, s)| s.get(&v4, &v6).map(|p| (*d, p)))
                            .collect();
                        assert_eq!(got.len(), want.len());
                        for ((gd, gp), (wd, wp)) in got.iter().zip(&want) {
                            assert_eq!(gd, wd);
                            assert_eq!(gp.similarity, wp.similarity);
                        }
                    }
                }
                Ok(())
            })
            .unwrap();
    }
}
