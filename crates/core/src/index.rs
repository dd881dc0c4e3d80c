//! Step 2 of the methodology: grouping DS domains by announced prefix.
//!
//! Two types split the index by what reads it:
//!
//! * [`GroupIndex`] holds, per family, the per-prefix DS-domain group
//!   sets and each domain's announced-prefix list — everything detection
//!   scores. The incremental engine carries one and patches it month
//!   over month ([`GroupIndex::apply_delta`]).
//! * [`PrefixDomainIndex`] adds the SP-Tuner host tries and the
//!   unmapped-address counts, for the analyses that query arbitrary
//!   (not announced) prefixes. It is built whole, never patched, and
//!   reads as its [`GroupIndex`] through `Deref`.
//!
//! A build and a patch run one grouping routine (a build is a patch
//! from empty): each domain's new prefix lists are compared with its
//! indexed record, the differences become `(prefix, domain, add)` edits
//! in one list per family, and that list is sorted once, so every
//! touched group set is rebuilt by one linear merge and re-consed
//! through the arena once, in ascending prefix order.
//!
//! The group maps are held behind `Arc`s with copy-on-write patching
//! (`Arc::make_mut`, once per map and patch): the window scheduler
//! captures them as immutable month-*m* views for its concurrent scoring
//! tasks, and patching month *m+1* in place clones a map only if an
//! older month's view is still alive — serial walks never pay for the
//! snapshotting.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;

use sibling_bgp::RibSource;
use sibling_dns::{AddrEntry, DnsSnapshot, DomainChange, DomainId, SnapshotDelta, SnapshotSource};
use sibling_net_types::{AddressFamily, DualStack, FamilyMap, Ipv4Prefix, Ipv6Prefix, Prefix};
use sibling_ptrie::PatriciaTrie;

use crate::arena::{SetArena, SetHandle};

/// One domain's announced prefixes in one family: sorted, deduplicated,
/// shared between the index's record and the delta report.
pub type PrefixList<F> = Arc<[Prefix<F>]>;

/// The entries of a snapshot that §3.1 step 1 keeps: dual-stack
/// domains, with both families present.
fn dual_stack<S: SnapshotSource + ?Sized>(source: &S) -> impl Iterator<Item = AddrEntry<'_>> {
    source
        .addr_entries()
        .filter(|(_, v4, v6)| !v4.is_empty() && !v6.is_empty())
}

/// The per-family half of a [`GroupIndex`]: one instance per address
/// family, composed through a [`DualStack`].
///
/// Domain sets are **sorted, deduplicated runs interned in a
/// [`SetArena`]** (domain ids are already dense interner output), so pair
/// scoring walks two sorted runs instead of probing `BTreeSet`s, equal
/// sets share one allocation and compare by [`crate::arena::SetId`], and
/// the hot path of `detect()` allocates nothing per candidate pair.
///
/// Invariant: `d` is in the group of `p` exactly when `p` is in `d`'s
/// record — which is why a patch can take a domain's old prefixes from
/// its record.
pub struct FamilyIndex<F: AddressFamily> {
    /// Shared with scoring views; patched copy-on-write.
    groups: Arc<BTreeMap<Prefix<F>, SetHandle>>,
    /// Each indexed domain's record. Shared with scoring views; patched
    /// copy-on-write. Values are `Arc` slices so a view capture is a
    /// pointer bump per entry, never a copy of the lists.
    domain_prefixes: Arc<BTreeMap<DomainId, PrefixList<F>>>,
}

impl<F: AddressFamily> Default for FamilyIndex<F> {
    fn default() -> Self {
        Self {
            groups: Arc::new(BTreeMap::new()),
            domain_prefixes: Arc::new(BTreeMap::new()),
        }
    }
}

/// One family's side of a grouping pass: what [`FamilyIndex::stage`]
/// collected, applied by [`FamilyIndex::commit`] once every domain is
/// read.
struct FamilyPass<F: AddressFamily> {
    /// The list of a domain outside the record.
    empty: PrefixList<F>,
    /// Reused per domain: its new prefixes.
    resolved: Vec<Prefix<F>>,
    /// Domains whose list changed, with the new list (empty: the domain
    /// leaves the record).
    records: Vec<(DomainId, PrefixList<F>)>,
    /// `(prefix, domain, add)` group membership edits.
    edits: Vec<(Prefix<F>, DomainId, bool)>,
}

impl<F: AddressFamily> Default for FamilyPass<F> {
    fn default() -> Self {
        Self {
            empty: Vec::new().into(),
            resolved: Vec::new(),
            records: Vec::new(),
            edits: Vec::new(),
        }
    }
}

/// A group's sorted `set` with its `edits` (sorted by domain) applied,
/// in one merge walk.
fn merge<F: AddressFamily>(
    set: &[DomainId],
    edits: &[(Prefix<F>, DomainId, bool)],
) -> Vec<DomainId> {
    let mut out = Vec::with_capacity(set.len() + edits.len());
    let mut rest = set.iter().copied().peekable();
    for &(_, domain, add) in edits {
        while let Some(kept) = rest.next_if(|d| *d < domain) {
            out.push(kept);
        }
        let present = rest.next_if_eq(&domain).is_some();
        debug_assert_ne!(present, add, "an edit always changes membership");
        if add {
            out.push(domain);
        }
    }
    out.extend(rest);
    out
}

impl<F: AddressFamily> FamilyIndex<F> {
    /// Resolves `domain`'s addresses to their announced prefixes and
    /// stages the move from its record to them. Returns the `(old, new)`
    /// lists; equal lists mean the family is unchanged for the domain
    /// and nothing was staged.
    fn stage<R: RibSource + ?Sized>(
        &self,
        domain: DomainId,
        addrs: &[F],
        rib: &R,
        pass: &mut FamilyPass<F>,
    ) -> (PrefixList<F>, PrefixList<F>) {
        let old = Arc::clone(self.domain_prefixes.get(&domain).unwrap_or(&pass.empty));
        pass.resolved.clear();
        pass.resolved
            .extend(addrs.iter().filter_map(|&addr| rib.announced_prefix(addr)));
        pass.resolved.sort_unstable();
        pass.resolved.dedup();
        if pass.resolved[..] == old[..] {
            return (Arc::clone(&old), old);
        }
        for prefix in old.iter().filter(|p| !pass.resolved.contains(p)) {
            pass.edits.push((*prefix, domain, false));
        }
        for prefix in pass.resolved.iter().filter(|p| !old.contains(p)) {
            pass.edits.push((*prefix, domain, true));
        }
        let new = if pass.resolved.is_empty() {
            Arc::clone(&pass.empty)
        } else {
            pass.resolved.as_slice().into()
        };
        pass.records.push((domain, Arc::clone(&new)));
        (old, new)
    }

    /// Applies a pass: writes the changed records, then rebuilds each
    /// group its edits touch — one merge and one arena re-cons per group
    /// ([`SetArena::update`], recycling the dead set), in ascending
    /// prefix order. Each rebuilt group's prefix is appended to `edited`.
    fn commit(
        &mut self,
        mut pass: FamilyPass<F>,
        arena: &SetArena,
        mut edited: Option<&mut Vec<Prefix<F>>>,
    ) {
        if !pass.records.is_empty() {
            let records = Arc::make_mut(&mut self.domain_prefixes);
            for (domain, list) in pass.records {
                if list.is_empty() {
                    records.remove(&domain);
                } else {
                    records.insert(domain, list);
                }
            }
        }
        if pass.edits.is_empty() {
            return;
        }
        pass.edits.sort_unstable();
        let groups = Arc::make_mut(&mut self.groups);
        for run in pass.edits.chunk_by(|a, b| a.0 == b.0) {
            let prefix = run[0].0;
            let old = groups.remove(&prefix);
            let set = merge(old.as_ref().map_or(&[][..], SetHandle::as_slice), run);
            match old {
                Some(old) if set.is_empty() => arena.release(old),
                Some(old) => {
                    groups.insert(prefix, arena.update(old, set));
                }
                None => {
                    groups.insert(prefix, arena.intern(set));
                }
            }
            if let Some(edited) = edited.as_deref_mut() {
                edited.push(prefix);
            }
        }
    }

    /// Releases every group-set handle back to the arena (recycling the
    /// slots of sets no other index still shares).
    fn release_sets(&mut self, arena: &SetArena) {
        let groups = std::mem::take(Arc::make_mut(&mut self.groups));
        for (_, handle) in groups {
            arena.release(handle);
        }
    }

    /// The shared group-set map — the scoring views' copy-on-write
    /// snapshot of this family's per-prefix sets.
    pub(crate) fn groups_shared(&self) -> Arc<BTreeMap<Prefix<F>, SetHandle>> {
        Arc::clone(&self.groups)
    }

    /// The shared domain→prefixes reverse map (see
    /// [`FamilyIndex::groups_shared`]).
    pub(crate) fn domain_prefixes_shared(&self) -> Arc<BTreeMap<DomainId, PrefixList<F>>> {
        Arc::clone(&self.domain_prefixes)
    }

    /// The DS domains grouped under an announced prefix (sorted).
    pub fn domains(&self, prefix: &Prefix<F>) -> Option<&[DomainId]> {
        self.groups.get(prefix).map(|h| h.as_slice())
    }

    /// The interned set handle of an announced prefix's domain set.
    pub fn set_of(&self, prefix: &Prefix<F>) -> Option<&SetHandle> {
        self.groups.get(prefix)
    }

    /// All announced prefixes with their domain sets, in address order.
    pub fn groups(&self) -> impl Iterator<Item = (&Prefix<F>, &[DomainId])> {
        self.groups.iter().map(|(p, d)| (p, d.as_slice()))
    }

    /// All announced prefixes with their interned set handles, in
    /// address order.
    pub fn group_sets(&self) -> impl Iterator<Item = (&Prefix<F>, &SetHandle)> {
        self.groups.iter()
    }

    /// The announced prefixes a domain resolves into (sorted).
    pub fn prefixes_of_domain(&self, domain: DomainId) -> Option<&[Prefix<F>]> {
        self.domain_prefixes.get(&domain).map(|p| &p[..])
    }

    /// Number of distinct announced prefixes with DS domains.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// What applying a [`SnapshotDelta`] touched — the input of the engine's
/// dirty-shard computation.
///
/// A domain is *changed* when its announced-prefix list differs from
/// its record in either family; a domain whose addresses moved inside
/// the prefixes it already mapped to changes nothing detection reads.
/// The two prefix sides carry deliberately different notions of
/// "touched", matching how sharded scoring consumes them:
///
/// * `touched_v4` is **conservative**: every v4 prefix a changed domain
///   mapped to before *or* after the delta, even when the group's
///   membership ended up identical (e.g. a v6-only retarget). Shards
///   *contain* v4 prefixes, so this catches every shard whose own
///   domains' candidate lists may have shifted.
/// * `touched_v6` is **exact membership change**: only v6 prefixes whose
///   group set actually gained or lost a domain. A clean shard refers to
///   v6 prefixes purely as candidates, and a candidate's score can only
///   move when its set (and thus `|B|`) changes. Keeping this side tight
///   stops one busy shared-hosting prefix from dirtying every shard each
///   month.
///
/// Over-approximation can only over-rescore, never miss a change.
#[derive(Debug, Clone, Default)]
pub struct IndexDeltaReport {
    /// IPv4 prefixes hosting a changed domain (before or after), sorted
    /// and deduplicated.
    pub touched_v4: Vec<Ipv4Prefix>,
    /// IPv6 prefixes whose group membership changed, sorted.
    pub touched_v6: Vec<Ipv6Prefix>,
    /// Number of changed domains.
    pub changed_domains: usize,
    /// Per changed domain, in domain order: its announced-prefix lists
    /// before and after the delta, both families (for a family whose
    /// list did not change, old and new are equal). The window scheduler
    /// maintains its shard↔candidate index from these,
    /// churn-proportionally.
    pub moves: Vec<DomainMove>,
}

/// One changed domain's prefix transition (see
/// [`IndexDeltaReport::moves`]). A family the domain does not (or no
/// longer does) map into has an empty list.
#[derive(Debug, Clone)]
pub struct DomainMove {
    /// The changed domain.
    pub domain: DomainId,
    /// IPv4 announced prefixes before the delta.
    pub old_v4: PrefixList<u32>,
    /// IPv4 announced prefixes after the delta.
    pub new_v4: PrefixList<u32>,
    /// IPv6 announced prefixes before the delta.
    pub old_v6: PrefixList<u128>,
    /// IPv6 announced prefixes after the delta.
    pub new_v6: PrefixList<u128>,
}

/// [`DualStack`] slot selector: family `F` stores a [`FamilyIndex<F>`].
struct IndexSlots;

impl FamilyMap for IndexSlots {
    type Out<F: AddressFamily> = FamilyIndex<F>;
}

/// The grouping of one snapshot's DS domains by announced prefix — what
/// detection scores, and the index the incremental engine carries.
///
/// For every dual-stack domain, each address is mapped to its covering
/// BGP-announced prefix (longest-prefix match against the
/// Routeviews-style RIB of the same date, per §2.2); the index then
/// holds, per family:
///
/// * per-prefix DS-domain sets (the sets whose Jaccard values define
///   sibling pairs);
/// * per-domain prefix lists, the *records* (the scorer's reverse map,
///   and the stability analysis of Fig. 7).
///
/// Both families share the single [`FamilyIndex`] implementation;
/// methods here are family-generic and infer `F` from their prefix
/// argument (or take an explicit `::<u32>` / `::<u128>` where no argument
/// names it).
///
/// Group sets are hash-consed: both families intern into **one**
/// [`SetArena`], so a v4 prefix and a v6 prefix carrying exactly the same
/// DS domains hold handles with the same [`crate::arena::SetId`] and the
/// scorer can short-circuit their intersection. Building many indexes
/// against one arena extends the sharing across snapshots (the batch
/// driver's memory win).
#[derive(Default)]
pub struct GroupIndex {
    families: DualStack<IndexSlots>,
}

impl GroupIndex {
    /// Groups a snapshot's dual-stack domains against the RIB of the
    /// same date, interning group sets into `arena` (which may be shared
    /// by many indexes, built concurrently). `source` may be any
    /// [`SnapshotSource`] — in particular a zero-copy `SnapshotView`
    /// straight off the mmap'd snapshot store; any [`RibSource`] serves
    /// the RIB side, including a store-backed mmap'd table. Addresses
    /// without a covering announcement are ignored.
    pub fn build<S: SnapshotSource + ?Sized, R: RibSource + ?Sized>(
        source: &S,
        rib: &R,
        arena: &SetArena,
    ) -> Self {
        let mut index = Self::default();
        index.regroup(dual_stack(source), rib, arena, None);
        index
    }

    /// Patches the index in place from a month-over-month snapshot delta
    /// instead of rebuilding it — the cost is proportional to **churn**
    /// (changed domains × their addresses), not snapshot size. Only
    /// prefixes whose domain sets changed re-intern through the arena
    /// ([`SetArena::update`]), recycling dead set slots.
    ///
    /// The patch reads each change's `new` addresses only (through the
    /// §3.1 step 1 dual-stack filter): a domain's old prefixes are its
    /// record, so a delta whose `old` fields disagree with the base
    /// cannot make the index diverge from a build of the target. A
    /// domain named twice takes its last change, as in
    /// [`SnapshotDelta::apply`].
    ///
    /// **Contract:** `self` was built (or last patched) against the same
    /// `rib`, and the delta carries the snapshot `self` reflects to its
    /// target. Mappings are a pure function of the RIB, so a changed RIB
    /// requires a full rebuild — the engine enforces this via
    /// [`RibSource::same_table`].
    pub fn apply_delta<R: RibSource + ?Sized>(
        &mut self,
        delta: &SnapshotDelta,
        rib: &R,
        arena: &SetArena,
    ) -> IndexDeltaReport {
        // Latest change first within each domain, then keep one per
        // domain (the sort is stable).
        let mut changes: Vec<&DomainChange> = delta.changes().iter().rev().collect();
        changes.sort_by_key(|change| change.domain);
        changes.dedup_by_key(|change| change.domain);
        let entries = changes.iter().map(|change| {
            match change.new.as_ref().filter(|addrs| addrs.is_dual_stack()) {
                Some(addrs) => (change.domain, &addrs.v4[..], &addrs.v6[..]),
                None => (change.domain, &[][..], &[][..]),
            }
        });
        let mut report = IndexDeltaReport::default();
        self.regroup(entries, rib, arena, Some(&mut report));
        report
    }

    /// The grouping routine of builds and patches: moves each entry's
    /// domain from its record to the prefixes its addresses resolve
    /// into (an empty entry drops the domain), then commits both
    /// families — v4 first, so arena interning order is fixed. Entries
    /// name each domain at most once. `report` collects what changed.
    fn regroup<'a, R: RibSource + ?Sized>(
        &mut self,
        entries: impl Iterator<Item = AddrEntry<'a>>,
        rib: &R,
        arena: &SetArena,
        mut report: Option<&mut IndexDeltaReport>,
    ) {
        let mut v4 = FamilyPass::default();
        let mut v6 = FamilyPass::default();
        for (domain, addrs_v4, addrs_v6) in entries {
            let (old_v4, new_v4) = self.families.v4.stage(domain, addrs_v4, rib, &mut v4);
            let (old_v6, new_v6) = self.families.v6.stage(domain, addrs_v6, rib, &mut v6);
            let Some(report) = report.as_deref_mut() else {
                continue;
            };
            if old_v4 == new_v4 && old_v6 == new_v6 {
                continue;
            }
            report.changed_domains += 1;
            report.touched_v4.extend(old_v4.iter().chain(new_v4.iter()));
            report.moves.push(DomainMove {
                domain,
                old_v4,
                new_v4,
                old_v6,
                new_v6,
            });
        }
        self.families.v4.commit(v4, arena, None);
        let touched_v6 = report.map(|report| {
            report.touched_v4.sort_unstable();
            report.touched_v4.dedup();
            &mut report.touched_v6
        });
        self.families.v6.commit(v6, arena, touched_v6);
    }

    /// Consumes the index, releasing its interned group sets back to the
    /// arena so sets no other index shares recycle their slots. Call
    /// this when retiring an index whose arena lives on (the incremental
    /// engine does, when a RIB change supersedes a window's index);
    /// merely dropping the index strands its sets in the arena forever.
    pub fn release_sets(mut self, arena: &SetArena) {
        self.families.v4.release_sets(arena);
        self.families.v6.release_sets(arena);
    }

    /// The single-family view for family `F`.
    pub fn family<F: AddressFamily>(&self) -> &FamilyIndex<F> {
        self.families.get::<F>()
    }

    /// The DS domains grouped under an announced prefix (sorted).
    pub fn domains<F: AddressFamily>(&self, prefix: &Prefix<F>) -> Option<&[DomainId]> {
        self.family::<F>().domains(prefix)
    }

    /// All announced prefixes of family `F` with their domain sets.
    pub fn groups<F: AddressFamily>(&self) -> impl Iterator<Item = (&Prefix<F>, &[DomainId])> {
        self.family::<F>().groups()
    }

    /// All announced prefixes of family `F` with their interned set
    /// handles (id + contents), in address order.
    pub fn group_sets<F: AddressFamily>(&self) -> impl Iterator<Item = (&Prefix<F>, &SetHandle)> {
        self.family::<F>().group_sets()
    }

    /// The interned set handle of an announced prefix's domain set.
    pub fn set_of<F: AddressFamily>(&self, prefix: &Prefix<F>) -> Option<&SetHandle> {
        self.family::<F>().set_of(prefix)
    }

    /// The announced prefixes a domain resolves into (sorted).
    pub fn prefixes_of_domain<F: AddressFamily>(&self, domain: DomainId) -> Option<&[Prefix<F>]> {
        self.family::<F>().prefixes_of_domain(domain)
    }

    /// Number of distinct (v4, v6) announced prefixes with DS domains.
    pub fn group_counts(&self) -> (usize, usize) {
        (
            self.families.v4.group_count(),
            self.families.v6.group_count(),
        )
    }
}

/// The SP-Tuner half of one family of a [`PrefixDomainIndex`].
struct FamilyHosts<F: AddressFamily> {
    /// Every mapped DS address as a host route, with the domains on it
    /// (the "PyTricia tree" SP-Tuner traverses, §3.3).
    hosts: PatriciaTrie<F, Vec<DomainId>>,
    /// DS addresses no announcement covers.
    unmapped: usize,
}

impl<F: AddressFamily> Default for FamilyHosts<F> {
    fn default() -> Self {
        Self {
            hosts: PatriciaTrie::new(),
            unmapped: 0,
        }
    }
}

impl<F: AddressFamily> FamilyHosts<F> {
    /// Adds one domain's addresses. `announced` is the domain's record:
    /// it holds the longest match of every mapped address, so an address
    /// is mapped exactly when one of those prefixes contains it. Domains
    /// arrive in ascending order, so each host's list stays sorted.
    fn add(&mut self, domain: DomainId, addrs: &[F], announced: &[Prefix<F>]) {
        for &addr in addrs {
            if !announced.iter().any(|prefix| prefix.contains(addr)) {
                self.unmapped += 1;
                continue;
            }
            let host = F::host_prefix(addr);
            match self.hosts.get_mut(&host) {
                Some(set) => set.push(domain),
                None => {
                    self.hosts.insert(host, vec![domain]);
                }
            }
        }
    }

    /// Union of the domain sets of all hosts under an *arbitrary* prefix
    /// (not necessarily announced) — the SP-Tuner set query. Sorted and
    /// deduplicated.
    fn domains_under(&self, prefix: &Prefix<F>) -> Vec<DomainId> {
        let mut out = Vec::new();
        for (_, set) in self.hosts.covered(prefix) {
            out.extend(set.iter().copied());
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// [`DualStack`] slot selector: family `F` stores a [`FamilyHosts<F>`].
struct HostSlots;

impl FamilyMap for HostSlots {
    type Out<F: AddressFamily> = FamilyHosts<F>;
}

/// The analysis index: a snapshot's [`GroupIndex`] plus, per family, a
/// host trie keyed by the individual DS addresses with their domain sets
/// — the two "PyTricia trees" SP-Tuner traverses (§3.3) — and the count
/// of DS addresses no announcement covers.
///
/// It derefs to its [`GroupIndex`], so detection and every group query
/// read it directly. It is built whole and never patched: the engine's
/// incremental path carries a bare [`GroupIndex`].
#[derive(Default)]
pub struct PrefixDomainIndex {
    groups: GroupIndex,
    hosts: DualStack<HostSlots>,
}

impl Deref for PrefixDomainIndex {
    type Target = GroupIndex;

    fn deref(&self) -> &GroupIndex {
        &self.groups
    }
}

impl PrefixDomainIndex {
    /// Builds the index from a snapshot's dual-stack domains and the RIB
    /// of the same date, interning group sets into a private arena.
    ///
    /// Addresses without a covering announcement are counted in
    /// [`PrefixDomainIndex::unmapped_counts`] and otherwise ignored,
    /// mirroring the ~1% of OpenINTEL records the paper backfills or
    /// drops.
    pub fn build<R: RibSource + ?Sized>(snapshot: &DnsSnapshot, rib: &R) -> Self {
        Self::build_source_with_arena(snapshot, rib, &SetArena::new())
    }

    /// [`PrefixDomainIndex::build`] against a caller-owned arena, so
    /// identical domain sets are shared across many indexes (e.g. the
    /// months of a longitudinal window). The arena is concurrently
    /// shareable, so many indexes may build against it in parallel.
    pub fn build_with_arena<R: RibSource + ?Sized>(
        snapshot: &DnsSnapshot,
        rib: &R,
        arena: &SetArena,
    ) -> Self {
        Self::build_source_with_arena(snapshot, rib, arena)
    }

    /// [`PrefixDomainIndex::build`] over any [`SnapshotSource`] (see
    /// [`GroupIndex::build`]).
    pub fn build_source<S: SnapshotSource + ?Sized, R: RibSource + ?Sized>(
        source: &S,
        rib: &R,
    ) -> Self {
        Self::build_source_with_arena(source, rib, &SetArena::new())
    }

    /// [`PrefixDomainIndex::build_source`] against a caller-owned arena.
    pub fn build_source_with_arena<S: SnapshotSource + ?Sized, R: RibSource + ?Sized>(
        source: &S,
        rib: &R,
        arena: &SetArena,
    ) -> Self {
        let groups = GroupIndex::build(source, rib, arena);
        let mut hosts = DualStack::<HostSlots>::default();
        for (domain, v4, v6) in dual_stack(source) {
            let announced_v4 = groups.prefixes_of_domain::<u32>(domain).unwrap_or_default();
            let announced_v6 = groups
                .prefixes_of_domain::<u128>(domain)
                .unwrap_or_default();
            hosts.v4.add(domain, v4, announced_v4);
            hosts.v6.add(domain, v6, announced_v6);
        }
        Self { groups, hosts }
    }

    /// Union of the domain sets of all hosts under an arbitrary prefix
    /// (sorted, deduplicated).
    pub fn domains_under<F: AddressFamily>(&self, prefix: &Prefix<F>) -> Vec<DomainId> {
        self.hosts.get::<F>().domains_under(prefix)
    }

    /// Whether any DS host lies under the given prefix.
    pub fn occupied<F: AddressFamily>(&self, prefix: &Prefix<F>) -> bool {
        self.hosts.get::<F>().hosts.branch_is_occupied(prefix)
    }

    /// Addresses that had no covering announcement (v4, v6).
    pub fn unmapped_counts(&self) -> (usize, usize) {
        (self.hosts.v4.unmapped, self.hosts.v6.unmapped)
    }

    /// Number of distinct DS hosts (v4, v6) indexed.
    pub fn host_counts(&self) -> (usize, usize) {
        (self.hosts.v4.hosts.len(), self.hosts.v6.hosts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibling_bgp::Rib;
    use sibling_dns::ResolvedAddrs;
    use sibling_net_types::{Asn, Ipv4Prefix, Ipv6Prefix, MonthDate};
    use std::collections::BTreeSet;

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

    fn fixture() -> (DnsSnapshot, Rib) {
        let mut rib = Rib::new();
        rib.announce(p4("198.51.0.0/16"), Asn(64500));
        rib.announce(p6("2600:1000::/32"), Asn(64500));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        // Two DS domains in the same prefixes, one v4-only domain.
        snap.merge(
            DomainId(0),
            vec![a4("198.51.1.1")],
            vec![a6("2600:1000::1")],
        );
        snap.merge(
            DomainId(1),
            vec![a4("198.51.1.2")],
            vec![a6("2600:1000::2")],
        );
        snap.merge(DomainId(2), vec![a4("198.51.9.9")], vec![]);
        (snap, rib)
    }

    /// A group index built against a private arena.
    fn grouped(snap: &DnsSnapshot, rib: &Rib) -> GroupIndex {
        GroupIndex::build(snap, rib, &SetArena::new())
    }

    #[test]
    fn groups_ds_domains_only() {
        let (snap, rib) = fixture();
        let index = PrefixDomainIndex::build(&snap, &rib);
        let v4 = index.domains(&p4("198.51.0.0/16")).unwrap();
        assert_eq!(v4.len(), 2, "v4-only domain must be excluded");
        assert!(v4.contains(&DomainId(0)) && v4.contains(&DomainId(1)));
        let v6 = index.domains(&p6("2600:1000::/32")).unwrap();
        assert_eq!(v6.len(), 2);
        assert_eq!(index.group_counts(), (1, 1));
        assert_eq!(index.host_counts(), (2, 2));
    }

    #[test]
    fn unmapped_addresses_counted() {
        let mut rib = Rib::new();
        rib.announce(p4("198.51.0.0/16"), Asn(64500));
        // No v6 announcement at all.
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap.merge(
            DomainId(0),
            vec![a4("198.51.1.1")],
            vec![a6("2600:1000::1")],
        );
        let index = PrefixDomainIndex::build(&snap, &rib);
        assert_eq!(index.unmapped_counts(), (0, 1));
        assert_eq!(index.group_counts(), (1, 0));
    }

    #[test]
    fn unmapped_counts_both_families_and_all_addresses() {
        // An empty RIB maps nothing: every DS address of every domain must
        // be counted, none silently dropped.
        let rib = Rib::new();
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap.merge(
            DomainId(0),
            vec![a4("198.51.1.1"), a4("198.51.1.2")],
            vec![a6("2600:1000::1")],
        );
        snap.merge(
            DomainId(1),
            vec![a4("203.0.113.9")],
            vec![a6("2600:1000::2")],
        );
        let index = PrefixDomainIndex::build(&snap, &rib);
        assert_eq!(index.unmapped_counts(), (3, 2));
        assert_eq!(index.group_counts(), (0, 0));
        assert_eq!(index.host_counts(), (0, 0));
    }

    #[test]
    fn unmapped_counts_mixed_with_mapped() {
        // One family announced, the other not; mapped addresses must not
        // leak into the unmapped tally.
        let mut rib = Rib::new();
        rib.announce(p6("2600:1000::/32"), Asn(64500));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap.merge(
            DomainId(0),
            vec![a4("198.51.1.1")],
            vec![a6("2600:1000::1"), a6("2600:1000::2")],
        );
        let index = PrefixDomainIndex::build(&snap, &rib);
        assert_eq!(index.unmapped_counts(), (1, 0));
        assert_eq!(index.group_counts(), (0, 1));
    }

    #[test]
    fn domains_under_arbitrary_prefixes() {
        let (snap, rib) = fixture();
        let index = PrefixDomainIndex::build(&snap, &rib);
        // Both hosts are in 198.51.1.0/24.
        assert_eq!(index.domains_under(&p4("198.51.1.0/24")).len(), 2);
        // Narrower: only one host.
        let narrow = index.domains_under(&p4("198.51.1.1/32"));
        assert_eq!(narrow.len(), 1);
        assert!(narrow.contains(&DomainId(0)));
        assert!(index.occupied(&p4("198.51.1.0/24")));
        assert!(!index.occupied(&p4("198.51.2.0/24")));
    }

    #[test]
    fn domain_prefix_reverse_maps() {
        let (snap, rib) = fixture();
        let index = PrefixDomainIndex::build(&snap, &rib);
        assert!(index
            .prefixes_of_domain::<u32>(DomainId(0))
            .unwrap()
            .contains(&p4("198.51.0.0/16")));
        assert!(index.prefixes_of_domain::<u32>(DomainId(2)).is_none());
        assert!(index
            .prefixes_of_domain::<u128>(DomainId(1))
            .unwrap()
            .contains(&p6("2600:1000::/32")));
    }

    #[test]
    fn shared_host_accumulates_domains() {
        let mut rib = Rib::new();
        rib.announce(p4("198.51.0.0/16"), Asn(64500));
        rib.announce(p6("2600:1000::/32"), Asn(64500));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        // Two domains on the same v4 host (shared hosting).
        snap.merge(
            DomainId(0),
            vec![a4("198.51.1.1")],
            vec![a6("2600:1000::1")],
        );
        snap.merge(
            DomainId(1),
            vec![a4("198.51.1.1")],
            vec![a6("2600:1000::2")],
        );
        let index = PrefixDomainIndex::build(&snap, &rib);
        assert_eq!(index.host_counts(), (1, 2));
        assert_eq!(index.domains_under(&p4("198.51.1.1/32")).len(), 2);
    }

    #[test]
    fn arena_dedups_identical_domain_sets() {
        // Shared hosting: two v4 prefixes and one v6 prefix all carry the
        // same two-domain set → one interned set, shared by all three
        // groups (across families), plus dedup hits recorded.
        let mut rib = Rib::new();
        rib.announce(p4("198.51.0.0/16"), Asn(1));
        rib.announce(p4("203.0.0.0/16"), Asn(2));
        rib.announce(p6("2600:1000::/32"), Asn(1));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        for d in [0u32, 1] {
            snap.merge(
                DomainId(d),
                vec![
                    a4(&format!("198.51.1.{}", d + 1)),
                    a4(&format!("203.0.1.{}", d + 1)),
                ],
                vec![a6(&format!("2600:1000::{}", d + 1))],
            );
        }
        let arena = crate::arena::SetArena::new();
        let index = PrefixDomainIndex::build_with_arena(&snap, &rib, &arena);
        let h1 = index.set_of(&p4("198.51.0.0/16")).unwrap();
        let h2 = index.set_of(&p4("203.0.0.0/16")).unwrap();
        let h6 = index.set_of(&p6("2600:1000::/32")).unwrap();
        assert_eq!(h1.id(), h2.id(), "equal sets share one id");
        assert_eq!(h1.id(), h6.id(), "interning is cross-family");
        assert_eq!(arena.len(), 1, "one distinct set in the arena");
        assert_eq!(arena.dedup_hits(), 2);

        // A later snapshot with the same sets reuses the arena slots.
        let again = PrefixDomainIndex::build_with_arena(&snap, &rib, &arena);
        assert_eq!(arena.len(), 1, "cross-snapshot reuse adds no slots");
        assert_eq!(
            again.set_of(&p4("198.51.0.0/16")).unwrap().id(),
            h1.id(),
            "ids are stable across snapshots sharing an arena"
        );
    }

    /// Every indexed domain of either index, ascending.
    fn indexed_domains(a: &GroupIndex, b: &GroupIndex) -> BTreeSet<DomainId> {
        [a, b]
            .into_iter()
            .flat_map(|index| {
                let v4 = index.groups::<u32>().flat_map(|(_, d)| d.iter().copied());
                let v6 = index.groups::<u128>().flat_map(|(_, d)| d.iter().copied());
                v4.chain(v6).collect::<Vec<_>>()
            })
            .collect()
    }

    /// The two indexes hold the same groups and the same records.
    fn assert_groups_equiv(got: &GroupIndex, want: &GroupIndex, what: &str) {
        let g4: Vec<_> = got.groups::<u32>().map(|(p, d)| (*p, d.to_vec())).collect();
        let w4: Vec<_> = want
            .groups::<u32>()
            .map(|(p, d)| (*p, d.to_vec()))
            .collect();
        assert_eq!(g4, w4, "v4 groups differ: {what}");
        let g6: Vec<_> = got
            .groups::<u128>()
            .map(|(p, d)| (*p, d.to_vec()))
            .collect();
        let w6: Vec<_> = want
            .groups::<u128>()
            .map(|(p, d)| (*p, d.to_vec()))
            .collect();
        assert_eq!(g6, w6, "v6 groups differ: {what}");
        for d in indexed_domains(got, want) {
            assert_eq!(
                got.prefixes_of_domain::<u32>(d),
                want.prefixes_of_domain::<u32>(d),
                "{what}"
            );
            assert_eq!(
                got.prefixes_of_domain::<u128>(d),
                want.prefixes_of_domain::<u128>(d),
                "{what}"
            );
        }
    }

    /// `report` is exactly what the full builds of a patch's base and
    /// target say it must be (see [`IndexDeltaReport`]).
    fn assert_report(report: &IndexDeltaReport, base: &GroupIndex, target: &GroupIndex) {
        fn list<F: AddressFamily>(index: &GroupIndex, d: DomainId) -> Vec<Prefix<F>> {
            index
                .prefixes_of_domain::<F>(d)
                .unwrap_or_default()
                .to_vec()
        }
        let moves: Vec<_> = indexed_domains(base, target)
            .into_iter()
            .map(|d| {
                let v4 = (list::<u32>(base, d), list::<u32>(target, d));
                let v6 = (list::<u128>(base, d), list::<u128>(target, d));
                (d, v4, v6)
            })
            .filter(|(_, v4, v6)| v4.0 != v4.1 || v6.0 != v6.1)
            .collect();
        let got: Vec<_> = report
            .moves
            .iter()
            .map(|m| {
                let v4 = (m.old_v4.to_vec(), m.new_v4.to_vec());
                (m.domain, v4, (m.old_v6.to_vec(), m.new_v6.to_vec()))
            })
            .collect();
        assert_eq!(got, moves, "moves");
        assert_eq!(report.changed_domains, moves.len(), "changed_domains");
        let touched_v4: BTreeSet<Ipv4Prefix> = moves
            .iter()
            .flat_map(|(_, (old, new), _)| old.iter().chain(new).copied())
            .collect();
        assert_eq!(report.touched_v4, Vec::from_iter(touched_v4), "touched_v4");
        let v6: BTreeSet<Ipv6Prefix> = base
            .groups::<u128>()
            .chain(target.groups::<u128>())
            .map(|(p, _)| *p)
            .collect();
        let touched_v6: Vec<Ipv6Prefix> = v6
            .into_iter()
            .filter(|p| base.domains(p) != target.domains(p))
            .collect();
        assert_eq!(report.touched_v6, touched_v6, "touched_v6");
    }

    /// The analysis index's host tries and unmapped counts agree with a
    /// direct walk of the snapshot's dual-stack addresses.
    fn assert_hosts_match(index: &PrefixDomainIndex, snap: &DnsSnapshot, rib: &Rib) {
        fn family<F: AddressFamily>(
            index: &PrefixDomainIndex,
            rib: &Rib,
            addrs: impl Iterator<Item = (DomainId, F)>,
        ) -> (usize, usize) {
            let mut hosts: BTreeMap<F, BTreeSet<DomainId>> = BTreeMap::new();
            let mut unmapped = 0;
            for (domain, addr) in addrs {
                match rib.announced_prefix(addr) {
                    Some(_) => {
                        hosts.entry(addr).or_default().insert(domain);
                    }
                    None => unmapped += 1,
                }
            }
            for (addr, domains) in &hosts {
                let under = index.domains_under(&F::host_prefix(*addr));
                assert_eq!(under, domains.iter().copied().collect::<Vec<_>>());
            }
            for (prefix, _) in index.groups::<F>() {
                let want: BTreeSet<DomainId> = hosts
                    .iter()
                    .filter(|(addr, _)| prefix.contains(**addr))
                    .flat_map(|(_, domains)| domains.iter().copied())
                    .collect();
                assert_eq!(index.domains_under(prefix), Vec::from_iter(want));
                assert!(index.occupied(prefix));
            }
            (hosts.len(), unmapped)
        }
        let ds = || snap.entries().filter(|(_, a)| a.is_dual_stack());
        let (hosts_v4, unmapped_v4) = family(
            index,
            rib,
            ds().flat_map(|(d, a)| a.v4.iter().map(move |x| (d, *x))),
        );
        let (hosts_v6, unmapped_v6) = family(
            index,
            rib,
            ds().flat_map(|(d, a)| a.v6.iter().map(move |x| (d, *x))),
        );
        assert_eq!(index.host_counts(), (hosts_v4, hosts_v6));
        assert_eq!(index.unmapped_counts(), (unmapped_v4, unmapped_v6));
    }

    #[test]
    fn apply_delta_matches_rebuild_on_moves_and_ds_transitions() {
        let mut rib = Rib::new();
        rib.announce(p4("198.51.0.0/16"), Asn(1));
        rib.announce(p4("203.0.0.0/16"), Asn(2));
        rib.announce(p6("2600:1000::/32"), Asn(1));
        rib.announce(p6("2600:2000::/32"), Asn(2));

        let mut old = DnsSnapshot::new(MonthDate::new(2024, 8));
        old.merge(
            DomainId(0),
            vec![a4("198.51.1.1")],
            vec![a6("2600:1000::1")],
        );
        old.merge(
            DomainId(1),
            vec![a4("198.51.1.2")],
            vec![a6("2600:1000::2")],
        );
        old.merge(DomainId(2), vec![a4("203.0.1.1")], vec![a6("2600:2000::1")]);
        old.merge(DomainId(3), vec![a4("10.0.0.1")], vec![a6("2600:2000::3")]); // v4 unmapped

        let mut new = DnsSnapshot::new(MonthDate::new(2024, 9));
        // d0 moves v4-side to the other org; d1 loses v6 (DS → v4-only);
        // d2 unchanged; d3 becomes fully mapped; d4 appears.
        new.merge(DomainId(0), vec![a4("203.0.9.9")], vec![a6("2600:1000::1")]);
        new.merge(DomainId(1), vec![a4("198.51.1.2")], vec![]);
        new.merge(DomainId(2), vec![a4("203.0.1.1")], vec![a6("2600:2000::1")]);
        new.merge(
            DomainId(3),
            vec![a4("198.51.3.3")],
            vec![a6("2600:2000::3")],
        );
        new.merge(DomainId(4), vec![a4("203.0.4.4")], vec![a6("2600:1000::4")]);

        let arena = SetArena::new();
        let mut patched = GroupIndex::build(&old, &rib, &arena);
        let delta = SnapshotDelta::diff(&old, &new);
        let report = patched.apply_delta(&delta, &rib, &arena);
        let want = grouped(&new, &rib);
        assert_groups_equiv(&patched, &want, "after mixed churn");
        assert_eq!(report.changed_domains, 4, "d2 is untouched");
        assert!(report.touched_v4.contains(&p4("198.51.0.0/16")));
        assert!(report.touched_v4.contains(&p4("203.0.0.0/16")));
        assert!(report.touched_v6.contains(&p6("2600:1000::/32")));
        assert_report(&report, &grouped(&old, &rib), &want);
    }

    #[test]
    fn apply_delta_empty_and_identity() {
        let (snap, rib) = fixture();
        let arena = SetArena::new();
        let mut index = GroupIndex::build(&snap, &rib, &arena);
        let delta = SnapshotDelta::diff(&snap, &snap);
        let report = index.apply_delta(&delta, &rib, &arena);
        assert_eq!(report.changed_domains, 0);
        assert!(report.touched_v4.is_empty() && report.touched_v6.is_empty());
        assert_groups_equiv(&index, &grouped(&snap, &rib), "identity");
    }

    #[test]
    fn apply_delta_recycles_dead_sets() {
        // One prefix pair whose only domain disappears: its group sets
        // die and their arena slots recycle.
        let mut rib = Rib::new();
        rib.announce(p4("198.51.0.0/16"), Asn(1));
        rib.announce(p6("2600:1000::/32"), Asn(1));
        let mut old = DnsSnapshot::new(MonthDate::new(2024, 8));
        old.merge(
            DomainId(0),
            vec![a4("198.51.1.1")],
            vec![a6("2600:1000::1")],
        );
        old.merge(
            DomainId(1),
            vec![a4("198.51.1.2")],
            vec![a6("2600:1000::2")],
        );
        let mut new = DnsSnapshot::new(MonthDate::new(2024, 9));
        new.merge(
            DomainId(0),
            vec![a4("198.51.1.1")],
            vec![a6("2600:1000::1")],
        );

        let arena = SetArena::new();
        let mut index = GroupIndex::build(&old, &rib, &arena);
        let live_before = arena.len();
        index.apply_delta(&SnapshotDelta::diff(&old, &new), &rib, &arena);
        assert!(arena.recycled_count() > 0, "shrunk sets recycle");
        assert!(arena.len() <= live_before);
        assert_groups_equiv(&index, &grouped(&new, &rib), "shrink");
    }

    /// The patch never reads a change's `old` fields: a delta that lies
    /// about them (and names a domain twice) still lands exactly on a
    /// build of the snapshot it really produces.
    #[test]
    fn apply_delta_ignores_lying_old_fields() {
        let mut rib = Rib::new();
        rib.announce(p4("198.51.0.0/16"), Asn(1));
        rib.announce(p4("203.0.0.0/16"), Asn(2));
        rib.announce(p4("192.0.2.0/24"), Asn(3));
        rib.announce(p6("2600:1000::/32"), Asn(1));
        rib.announce(p6("2600:2000::/32"), Asn(2));
        rib.announce(p6("2600:3000::/32"), Asn(3));
        let addrs = |v4: &str, v6: &str| {
            Some(ResolvedAddrs {
                v4: vec![a4(v4)],
                v6: vec![a6(v6)],
            })
        };
        let mut base = DnsSnapshot::new(MonthDate::new(2024, 8));
        base.merge(
            DomainId(0),
            vec![a4("198.51.1.1")],
            vec![a6("2600:1000::1")],
        );
        base.merge(
            DomainId(1),
            vec![a4("198.51.1.2")],
            vec![a6("2600:1000::2")],
        );
        base.merge(DomainId(2), vec![a4("203.0.1.1")], vec![a6("2600:2000::1")]);
        let change = |domain: u32, old, new| DomainChange {
            domain: DomainId(domain),
            old,
            new,
        };
        let delta = SnapshotDelta::from_changes(
            MonthDate::new(2024, 8),
            MonthDate::new(2024, 9),
            vec![
                // Present, claimed absent: d0 moves its v4 side.
                change(0, None, addrs("203.0.9.9", "2600:1000::1")),
                // Wrong addresses, in a prefix with no group: d1 leaves.
                change(1, addrs("192.0.2.1", "2600:3000::1"), None),
                // Wrong addresses: d2 moves its v6 side.
                change(
                    2,
                    addrs("198.51.1.2", "2600:1000::2"),
                    addrs("203.0.1.1", "2600:1000::9"),
                ),
                // Absent, claimed present: d5 appears, d7 stays absent.
                change(
                    5,
                    addrs("192.0.2.5", "2600:3000::5"),
                    addrs("198.51.5.5", "2600:2000::5"),
                ),
                change(7, addrs("192.0.2.7", "2600:3000::7"), None),
                // Named twice: the last change stands.
                change(2, None, addrs("192.0.2.2", "2600:2000::1")),
            ],
        );
        let target = delta.apply(&base);
        let arena = SetArena::new();
        let mut patched = GroupIndex::build(&base, &rib, &arena);
        let report = patched.apply_delta(&delta, &rib, &arena);
        let want = grouped(&target, &rib);
        assert_groups_equiv(&patched, &want, "lying old fields");
        assert_report(&report, &grouped(&base, &rib), &want);
        assert_eq!(report.changed_domains, 4, "d0, d1, d2 and d5");
    }

    #[test]
    fn release_sets_recycles_everything_not_shared() {
        let (snap, rib) = fixture();
        let arena = SetArena::new();
        let index = GroupIndex::build(&snap, &rib, &arena);
        assert!(!arena.is_empty());
        index.release_sets(&arena);
        assert!(arena.is_empty(), "no other holders: everything recycles");

        // With a second index sharing the arena, only unshared sets go.
        let a = GroupIndex::build(&snap, &rib, &arena);
        let b = GroupIndex::build(&snap, &rib, &arena);
        let live = arena.len();
        a.release_sets(&arena);
        assert_eq!(arena.len(), live, "b still holds every set");
        b.release_sets(&arena);
        assert!(arena.is_empty());
    }

    /// Property: for random snapshot pairs over a fixed RIB, patching the
    /// base index with the diff is equivalent to rebuilding from the
    /// target snapshot — including dual-stack transitions, unmapped
    /// addresses, address moves inside a prefix, and full turnover — and
    /// its report is exactly what the two builds imply. The analysis
    /// builds of both snapshots carry host tries that match the
    /// snapshots.
    #[test]
    fn prop_apply_delta_equals_rebuild() {
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        // Per domain and month: (v4 variant 0..5, v6 variant 0..5);
        // variant 0 = family absent, 1–2 = a host in prefix 0 or 1,
        // 3 = unmapped address space, 4 = another host in prefix 0.
        let entry = || (0u32..10, 0u8..5, 0u8..5);
        let strategy = (
            proptest::collection::vec(entry(), 0..20),
            proptest::collection::vec(entry(), 0..20),
        );
        let mut rib = Rib::new();
        for i in 0..3u32 {
            rib.announce(Ipv4Prefix::new(0xCB00_0000 | (i << 8), 24).unwrap(), Asn(i));
            rib.announce(
                Ipv6Prefix::new((0x2600u128 << 112) | ((i as u128) << 80), 48).unwrap(),
                Asn(i),
            );
        }
        runner
            .run(&strategy, |(ea, eb)| {
                let build = |date: MonthDate, entries: &[(u32, u8, u8)]| {
                    let mut s = DnsSnapshot::new(date);
                    for (id, v4, v6) in entries {
                        let v4: Vec<u32> = match v4 {
                            0 => vec![],
                            3 => vec![0x0A00_0000 | *id], // 10/8: unmapped
                            4 => vec![0xCB00_0000 | (*id + 101)],
                            k => vec![0xCB00_0000 | ((*k as u32 - 1) << 8) | (*id + 1)],
                        };
                        let v6: Vec<u128> = match v6 {
                            0 => vec![],
                            3 => vec![(0xFC00u128 << 112) | *id as u128],
                            4 => vec![(0x2600u128 << 112) | (*id as u128 + 101)],
                            k => vec![
                                (0x2600u128 << 112)
                                    | (((*k as u128) - 1) << 80)
                                    | (*id as u128 + 1),
                            ],
                        };
                        s.merge(DomainId(*id), v4, v6);
                    }
                    s
                };
                let a = build(MonthDate::new(2024, 8), &ea);
                let b = build(MonthDate::new(2024, 9), &eb);
                let arena = SetArena::new();
                let mut patched = GroupIndex::build(&a, &rib, &arena);
                let report = patched.apply_delta(&SnapshotDelta::diff(&a, &b), &rib, &arena);
                let want = PrefixDomainIndex::build(&b, &rib);
                assert_groups_equiv(&patched, &want, "random churn");
                let base = PrefixDomainIndex::build(&a, &rib);
                assert_report(&report, &base, &want);
                assert_hosts_match(&base, &a, &rib);
                assert_hosts_match(&want, &b, &rib);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn host_tries_follow_nested_announcements() {
        // A /24 inside an announced /16: each address is mapped through
        // its longest match, and only uncovered addresses are unmapped.
        let mut rib = Rib::new();
        rib.announce(p4("198.51.0.0/16"), Asn(1));
        rib.announce(p4("198.51.1.0/24"), Asn(2));
        rib.announce(p6("2600:1000::/32"), Asn(1));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap.merge(
            DomainId(0),
            vec![a4("198.51.1.1"), a4("198.51.9.9"), a4("10.0.0.1")],
            vec![a6("2600:1000::1"), a6("fc00::1")],
        );
        snap.merge(
            DomainId(1),
            vec![a4("198.51.9.9")],
            vec![a6("2600:1000::2")],
        );
        let index = PrefixDomainIndex::build(&snap, &rib);
        assert_eq!(index.unmapped_counts(), (1, 1));
        assert_eq!(index.host_counts(), (2, 2));
        assert_eq!(
            index.prefixes_of_domain::<u32>(DomainId(0)).unwrap(),
            &[p4("198.51.0.0/16"), p4("198.51.1.0/24")]
        );
        assert_hosts_match(&index, &snap, &rib);
    }

    #[test]
    fn domain_sets_are_sorted_and_deduplicated() {
        let mut rib = Rib::new();
        rib.announce(p4("198.51.0.0/16"), Asn(64500));
        rib.announce(p6("2600:1000::/32"), Asn(64500));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        // One domain with two v4 addresses in the same announced prefix:
        // the group set must still list the domain once.
        snap.merge(
            DomainId(7),
            vec![a4("198.51.1.1"), a4("198.51.2.2")],
            vec![a6("2600:1000::1")],
        );
        snap.merge(
            DomainId(3),
            vec![a4("198.51.3.3")],
            vec![a6("2600:1000::3")],
        );
        let index = PrefixDomainIndex::build(&snap, &rib);
        let group = index.domains(&p4("198.51.0.0/16")).unwrap();
        assert_eq!(group, &[DomainId(3), DomainId(7)]);
        let prefixes = index.prefixes_of_domain::<u32>(DomainId(7)).unwrap();
        assert_eq!(prefixes, &[p4("198.51.0.0/16")]);
    }
}
