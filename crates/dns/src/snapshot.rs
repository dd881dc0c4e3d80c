//! Per-date resolution snapshots.

use std::collections::BTreeMap;

use sibling_net_types::{is_routable_v4, is_routable_v6, MonthDate};

use crate::name::DomainId;
use crate::record::Zone;
use crate::resolve::Resolver;

/// The resolved addresses of one domain in one snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolvedAddrs {
    /// IPv4 addresses (sorted, deduplicated, globally routable only).
    pub v4: Vec<u32>,
    /// IPv6 addresses (sorted, deduplicated, globally routable only).
    pub v6: Vec<u128>,
}

impl ResolvedAddrs {
    /// Whether the domain is dual-stack in this snapshot.
    pub fn is_dual_stack(&self) -> bool {
        !self.v4.is_empty() && !self.v6.is_empty()
    }
}

/// One monthly DNS resolution snapshot — the pipeline's unit of input.
///
/// Entries are keyed by the *final* name of the CNAME chain (§3); multiple
/// queried names collapsing to the same final name are merged, mirroring
/// how the paper treats CNAME responses.
///
/// A snapshot is **always dated**: the only constructors are
/// [`DnsSnapshot::new`] and [`DnsSnapshot::resolve_zone`] (both take a
/// [`MonthDate`]) and the store loader (whose format carries the date),
/// so downstream consumers never unwrap an `Option`. The old dateless
/// `Default` path is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsSnapshot {
    date: MonthDate,
    entries: BTreeMap<DomainId, ResolvedAddrs>,
}

impl DnsSnapshot {
    /// Creates an empty snapshot for `date`.
    pub fn new(date: MonthDate) -> Self {
        Self {
            date,
            entries: BTreeMap::new(),
        }
    }

    /// The snapshot date.
    pub fn date(&self) -> MonthDate {
        self.date
    }

    /// Builds a snapshot by resolving every owner of `zone` and keeping
    /// globally routable addresses only (§2.2 filter).
    ///
    /// Resolution failures (NXDOMAIN targets, CNAME loops) drop the queried
    /// name, as they would in the measurement pipeline.
    pub fn resolve_zone(date: MonthDate, zone: &Zone) -> Self {
        let resolver = Resolver::new(zone);
        let mut snap = Self::new(date);
        for owner in zone.owners() {
            if let Ok(r) = resolver.resolve(owner) {
                let v4: Vec<u32> = r.v4.into_iter().filter(|a| is_routable_v4(*a)).collect();
                let v6: Vec<u128> = r.v6.into_iter().filter(|a| is_routable_v6(*a)).collect();
                if v4.is_empty() && v6.is_empty() {
                    continue;
                }
                snap.merge(r.final_name, v4, v6);
            }
        }
        snap
    }

    /// Inserts (merging) addresses for `domain`. Addresses are assumed
    /// pre-filtered; use [`DnsSnapshot::resolve_zone`] for raw zones.
    pub fn merge(&mut self, domain: DomainId, v4: Vec<u32>, v6: Vec<u128>) {
        let e = self.entries.entry(domain).or_default();
        e.v4.extend(v4);
        e.v4.sort_unstable();
        e.v4.dedup();
        e.v6.extend(v6);
        e.v6.sort_unstable();
        e.v6.dedup();
    }

    /// Replaces the entry for `domain` outright (no merging), returning
    /// the entry it replaced — the primitive
    /// [`crate::SnapshotDelta::apply_in_place`] patches (and records its
    /// undo log) with.
    pub fn insert(&mut self, domain: DomainId, addrs: ResolvedAddrs) -> Option<ResolvedAddrs> {
        self.entries.insert(domain, addrs)
    }

    /// Removes a domain's entry entirely, returning it if present.
    pub fn remove(&mut self, domain: DomainId) -> Option<ResolvedAddrs> {
        self.entries.remove(&domain)
    }

    /// Re-dates the snapshot (delta application moves the patched
    /// snapshot to the target month).
    pub(crate) fn set_date(&mut self, date: MonthDate) {
        self.date = date;
    }

    /// A copy of the snapshot carrying a different date (longitudinal
    /// fixtures re-enter one snapshot at several months).
    pub fn redated(&self, date: MonthDate) -> Self {
        let mut out = self.clone();
        out.date = date;
        out
    }

    /// Materializes any [`crate::SnapshotSource`] into an owned
    /// snapshot. The live-serve path needs an owned, patchable tail
    /// month even when the window was loaded zero-copy from the store;
    /// everything else keeps consuming sources unconverted.
    pub fn materialize<S: crate::SnapshotSource + ?Sized>(source: &S) -> Self {
        let mut snap = Self::new(source.snapshot_date());
        for (domain, v4, v6) in source.addr_entries() {
            snap.insert(
                domain,
                ResolvedAddrs {
                    v4: v4.to_vec(),
                    v6: v6.to_vec(),
                },
            );
        }
        snap
    }

    /// The addresses of `domain`, if present.
    pub fn get(&self, domain: DomainId) -> Option<&ResolvedAddrs> {
        self.entries.get(&domain)
    }

    /// All entries in domain-id order.
    pub fn entries(&self) -> impl Iterator<Item = (DomainId, &ResolvedAddrs)> + '_ {
        self.entries.iter().map(|(d, a)| (*d, a))
    }

    /// Dual-stack entries only (§3.1 step 1).
    pub fn ds_domains(&self) -> impl Iterator<Item = (DomainId, &ResolvedAddrs)> + '_ {
        self.entries().filter(|(_, a)| a.is_dual_stack())
    }

    /// Total number of resolved domains.
    pub fn domain_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of dual-stack domains.
    pub fn ds_count(&self) -> usize {
        self.ds_domains().count()
    }

    /// Share of dual-stack domains (0 when empty).
    pub fn ds_share(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.ds_count() as f64 / self.entries.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DnsRecord;

    fn d(i: u32) -> DomainId {
        DomainId(i)
    }

    const PUB4: u32 = 0x0808_0808; // 8.8.8.8
    const PRIV4: u32 = 0x0A00_0001; // 10.0.0.1
    const PUB6: u128 = 0x2001_4860_4860_0000_0000_0000_0000_8888; // 2001:4860:...
    const PRIV6: u128 = 0xfe80 << 112; // fe80::

    #[test]
    fn resolve_zone_filters_non_routable() {
        let mut zone = Zone::new();
        zone.add(d(0), DnsRecord::A(PUB4));
        zone.add(d(0), DnsRecord::A(PRIV4));
        zone.add(d(0), DnsRecord::Aaaa(PUB6));
        zone.add(d(0), DnsRecord::Aaaa(PRIV6));
        let snap = DnsSnapshot::resolve_zone(MonthDate::new(2024, 9), &zone);
        let e = snap.get(d(0)).unwrap();
        assert_eq!(e.v4, vec![PUB4]);
        assert_eq!(e.v6, vec![PUB6]);
    }

    #[test]
    fn entry_dropped_when_all_addresses_filtered() {
        let mut zone = Zone::new();
        zone.add(d(0), DnsRecord::A(PRIV4));
        let snap = DnsSnapshot::resolve_zone(MonthDate::new(2024, 9), &zone);
        assert_eq!(snap.domain_count(), 0);
    }

    #[test]
    fn cname_collapse_merges_final_names() {
        let mut zone = Zone::new();
        // Two queried names alias the same terminal name.
        zone.add(d(0), DnsRecord::Cname(d(2)));
        zone.add(d(1), DnsRecord::Cname(d(2)));
        zone.add(d(2), DnsRecord::A(PUB4));
        zone.add(d(2), DnsRecord::Aaaa(PUB6));
        let snap = DnsSnapshot::resolve_zone(MonthDate::new(2024, 9), &zone);
        assert_eq!(snap.domain_count(), 1);
        assert!(snap.get(d(2)).unwrap().is_dual_stack());
        assert!(snap.get(d(0)).is_none());
    }

    #[test]
    fn ds_share_counts_only_dual_stack() {
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap.merge(d(0), vec![PUB4], vec![PUB6]);
        snap.merge(d(1), vec![PUB4], vec![]);
        snap.merge(d(2), vec![], vec![PUB6]);
        assert_eq!(snap.domain_count(), 3);
        assert_eq!(snap.ds_count(), 1);
        assert!((snap.ds_share() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_deduplicates() {
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap.merge(d(0), vec![PUB4, PUB4], vec![PUB6]);
        snap.merge(d(0), vec![PUB4], vec![PUB6]);
        let e = snap.get(d(0)).unwrap();
        assert_eq!(e.v4.len(), 1);
        assert_eq!(e.v6.len(), 1);
    }

    #[test]
    fn empty_snapshot_share_is_zero() {
        let snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        assert_eq!(snap.ds_share(), 0.0);
    }
}
