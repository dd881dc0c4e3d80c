//! Month-over-month snapshot deltas.
//!
//! Consecutive monthly snapshots share the vast majority of their
//! domain→address mappings: the synthetic world's churn knobs sit at a
//! few percent per month, matching the paper's §4.1 observation that the
//! year-over-year prefix-change rate is only several percent. A
//! [`SnapshotDelta`] captures exactly the part that moved — domains
//! added, removed, or retargeted — so downstream consumers
//! (`sibling-core`'s incremental index patching) can do work proportional
//! to **churn** instead of snapshot size.
//!
//! The delta is exact and invertible on the forward direction:
//! `SnapshotDelta::diff(a, b).apply(a) == b` for any two snapshots,
//! including the empty delta (`a == b`) and full turnover (disjoint
//! domain sets) — property-tested below.
//!
//! A live writer that owns its snapshot patches it with
//! [`SnapshotDelta::apply_in_place`] instead, at a cost proportional to
//! churn. The returned [`SnapshotUndo`] records the entries the patch
//! actually replaced, so [`SnapshotUndo::revert`] restores the base
//! exactly whatever the delta's (caller-supplied, unchecked) `old`
//! fields say.

use sibling_net_types::MonthDate;

use crate::name::DomainId;
use crate::snapshot::{DnsSnapshot, ResolvedAddrs};
use crate::source::SnapshotSource;

/// Owns a borrowed `(v4, v6)` address pair — the delta stores owned
/// addresses so it outlives whatever source (snapshot or mapped view) it
/// was diffed from.
fn owned((v4, v6): (&[u32], &[u128])) -> ResolvedAddrs {
    ResolvedAddrs {
        v4: v4.to_vec(),
        v6: v6.to_vec(),
    }
}

/// One domain's transition between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainChange {
    /// The domain whose resolution changed.
    pub domain: DomainId,
    /// The addresses in the base snapshot (`None` when newly added).
    pub old: Option<ResolvedAddrs>,
    /// The addresses in the target snapshot (`None` when removed).
    pub new: Option<ResolvedAddrs>,
}

impl DomainChange {
    /// Whether the domain appeared in the target snapshot only.
    pub fn is_added(&self) -> bool {
        self.old.is_none()
    }

    /// Whether the domain disappeared from the base snapshot.
    pub fn is_removed(&self) -> bool {
        self.new.is_none()
    }

    /// Whether the domain exists on both sides with different addresses.
    pub fn is_retargeted(&self) -> bool {
        self.old.is_some() && self.new.is_some()
    }
}

/// The exact difference between two [`DnsSnapshot`]s (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDelta {
    from: MonthDate,
    to: MonthDate,
    /// All transitions, in domain-id order (both inputs iterate sorted).
    changes: Vec<DomainChange>,
    added: usize,
    removed: usize,
    retargeted: usize,
}

impl SnapshotDelta {
    /// Diffs `old` → `new` with one merge walk over the two sorted entry
    /// maps: `O(|old| + |new|)` time, output proportional to churn. This
    /// walk is the incremental engine's per-month floor, so it carries
    /// exactly one map step and one comparison per domain.
    pub fn diff(old: &DnsSnapshot, new: &DnsSnapshot) -> Self {
        Self::diff_sources(old, new)
    }

    /// [`SnapshotDelta::diff`] over any two [`SnapshotSource`]s — in
    /// particular two zero-copy [`crate::SnapshotView`]s straight off the
    /// store, so the incremental engine diffs mapped files without
    /// materializing either month's `BTreeMap`. Only the changed entries
    /// allocate (the delta owns its addresses; allocation stays
    /// churn-proportional).
    pub fn diff_sources<A, B>(old: &A, new: &B) -> Self
    where
        A: SnapshotSource + ?Sized,
        B: SnapshotSource + ?Sized,
    {
        let mut delta = Self {
            from: old.snapshot_date(),
            to: new.snapshot_date(),
            changes: Vec::new(),
            added: 0,
            removed: 0,
            retargeted: 0,
        };
        let mut a = old.addr_entries();
        let mut b = new.addr_entries();
        let mut next_a = a.next();
        let mut next_b = b.next();
        loop {
            match (next_a, next_b) {
                (Some((da, a4, a6)), Some((db, b4, b6))) => match da.cmp(&db) {
                    std::cmp::Ordering::Equal => {
                        if a4 != b4 || a6 != b6 {
                            delta.push_retargeted(da, (a4, a6), (b4, b6));
                        }
                        next_a = a.next();
                        next_b = b.next();
                    }
                    std::cmp::Ordering::Less => {
                        delta.push_removed(da, (a4, a6));
                        next_a = a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        delta.push_added(db, (b4, b6));
                        next_b = b.next();
                    }
                },
                (Some((da, a4, a6)), None) => {
                    delta.push_removed(da, (a4, a6));
                    next_a = a.next();
                }
                (None, Some((db, b4, b6))) => {
                    delta.push_added(db, (b4, b6));
                    next_b = b.next();
                }
                (None, None) => break,
            }
        }
        delta
    }

    fn push_retargeted(
        &mut self,
        domain: DomainId,
        old: (&[u32], &[u128]),
        new: (&[u32], &[u128]),
    ) {
        self.retargeted += 1;
        self.changes.push(DomainChange {
            domain,
            old: Some(owned(old)),
            new: Some(owned(new)),
        });
    }

    fn push_removed(&mut self, domain: DomainId, addrs: (&[u32], &[u128])) {
        self.removed += 1;
        self.changes.push(DomainChange {
            domain,
            old: Some(owned(addrs)),
            new: None,
        });
    }

    fn push_added(&mut self, domain: DomainId, addrs: (&[u32], &[u128])) {
        self.added += 1;
        self.changes.push(DomainChange {
            domain,
            old: None,
            new: Some(owned(addrs)),
        });
    }

    /// Reassembles a delta from its parts — the ingest journal's
    /// decoder. The category counts are recomputed from the changes;
    /// the caller guarantees domain-id order (replay preserves the
    /// encoder's order, and the encoder only ever sees diffed deltas).
    pub fn from_changes(from: MonthDate, to: MonthDate, changes: Vec<DomainChange>) -> Self {
        let added = changes.iter().filter(|c| c.is_added()).count();
        let removed = changes.iter().filter(|c| c.is_removed()).count();
        let retargeted = changes.iter().filter(|c| c.is_retargeted()).count();
        Self {
            from,
            to,
            changes,
            added,
            removed,
            retargeted,
        }
    }

    /// Applies the delta to a base snapshot, producing the target: for
    /// every change, added/retargeted domains are set to their new
    /// addresses and removed domains are deleted. The result carries the
    /// delta's target date. `apply(diff(a, b), a) == b` exactly.
    pub fn apply(&self, base: &DnsSnapshot) -> DnsSnapshot {
        let mut out = base.clone();
        let _ = self.apply_in_place(&mut out);
        out
    }

    /// [`SnapshotDelta::apply`] without the copy: patches `snapshot`
    /// into the target and returns the undo log that restores it. Costs
    /// one map operation per change. The log keeps what each operation
    /// handed back, never the delta's `old` fields.
    pub fn apply_in_place(&self, snapshot: &mut DnsSnapshot) -> SnapshotUndo {
        debug_assert_eq!(snapshot.date(), self.from, "delta applied to its base");
        let mut undo = SnapshotUndo {
            date: snapshot.date(),
            replaced: Vec::with_capacity(self.changes.len()),
        };
        snapshot.set_date(self.to);
        for change in &self.changes {
            let prior = match &change.new {
                Some(addrs) => snapshot.insert(change.domain, addrs.clone()),
                None => snapshot.remove(change.domain),
            };
            undo.replaced.push((change.domain, prior));
        }
        undo
    }

    /// Whether `snapshot` already is this delta's target: it carries the
    /// target date, every added or retargeted domain maps to its new
    /// addresses, and every removed domain is absent. One lookup per
    /// change, so checking a re-sent delta costs its churn, not a copy
    /// of the snapshot.
    pub fn is_carried_by(&self, snapshot: &DnsSnapshot) -> bool {
        snapshot.date() == self.to
            && self
                .changes
                .iter()
                .all(|change| snapshot.get(change.domain) == change.new.as_ref())
    }

    /// The base snapshot's date.
    pub fn from_date(&self) -> MonthDate {
        self.from
    }

    /// The target snapshot's date.
    pub fn to_date(&self) -> MonthDate {
        self.to
    }

    /// All transitions in domain-id order.
    pub fn changes(&self) -> &[DomainChange] {
        &self.changes
    }

    /// Domains present only in the target snapshot.
    pub fn added_count(&self) -> usize {
        self.added
    }

    /// Domains present only in the base snapshot.
    pub fn removed_count(&self) -> usize {
        self.removed
    }

    /// Domains present on both sides with different addresses.
    pub fn retargeted_count(&self) -> usize {
        self.retargeted
    }

    /// Total number of changed domains.
    pub fn churn(&self) -> usize {
        self.changes.len()
    }

    /// Whether the two snapshots had identical entries.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// What [`SnapshotDelta::apply_in_place`] replaced: the base date and,
/// per change in application order, the entry the domain had before.
#[derive(Debug)]
#[must_use = "dropping the undo log makes the patch irreversible"]
pub struct SnapshotUndo {
    date: MonthDate,
    replaced: Vec<(DomainId, Option<ResolvedAddrs>)>,
}

impl SnapshotUndo {
    /// Restores the patched snapshot to its base, replaying the log
    /// backwards (so a domain changed twice ends at its first prior).
    pub fn revert(self, snapshot: &mut DnsSnapshot) {
        for (domain, prior) in self.replaced.into_iter().rev() {
            match prior {
                Some(addrs) => snapshot.insert(domain, addrs),
                None => snapshot.remove(domain),
            };
        }
        snapshot.set_date(self.date);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DomainId {
        DomainId(i)
    }

    const A4: u32 = 0x0808_0808;
    const B4: u32 = 0x0101_0101;
    const A6: u128 = 0x2001_4860_4860_0000_0000_0000_0000_8888;

    fn snap(date: MonthDate, entries: &[(u32, &[u32], &[u128])]) -> DnsSnapshot {
        let mut s = DnsSnapshot::new(date);
        for (id, v4, v6) in entries {
            s.merge(d(*id), v4.to_vec(), v6.to_vec());
        }
        s
    }

    #[test]
    fn diff_classifies_added_removed_retargeted() {
        let a = snap(
            MonthDate::new(2024, 8),
            &[(0, &[A4], &[A6]), (1, &[A4], &[]), (2, &[B4], &[A6])],
        );
        let b = snap(
            MonthDate::new(2024, 9),
            &[(0, &[A4], &[A6]), (2, &[A4], &[A6]), (3, &[B4], &[])],
        );
        let delta = SnapshotDelta::diff(&a, &b);
        assert_eq!(delta.added_count(), 1);
        assert_eq!(delta.removed_count(), 1);
        assert_eq!(delta.retargeted_count(), 1);
        assert_eq!(delta.churn(), 3);
        assert!(!delta.is_empty());
        assert_eq!(delta.from_date(), MonthDate::new(2024, 8));
        assert_eq!(delta.to_date(), MonthDate::new(2024, 9));
        let changes = delta.changes();
        assert!(changes[0].is_removed() && changes[0].domain == d(1));
        assert!(changes[1].is_retargeted() && changes[1].domain == d(2));
        assert!(changes[2].is_added() && changes[2].domain == d(3));
    }

    #[test]
    fn empty_delta_roundtrip() {
        let a = snap(MonthDate::new(2024, 8), &[(0, &[A4], &[A6])]);
        let delta = SnapshotDelta::diff(&a, &a);
        assert!(delta.is_empty());
        assert_eq!(delta.apply(&a), a);
    }

    #[test]
    fn full_churn_roundtrip() {
        // Disjoint domain sets: every entry is removed or added.
        let a = snap(
            MonthDate::new(2024, 8),
            &[(0, &[A4], &[A6]), (1, &[B4], &[])],
        );
        let b = snap(
            MonthDate::new(2024, 9),
            &[(5, &[B4], &[A6]), (9, &[A4], &[A6])],
        );
        let delta = SnapshotDelta::diff(&a, &b);
        assert_eq!(delta.churn(), 4);
        assert_eq!(delta.removed_count(), 2);
        assert_eq!(delta.added_count(), 2);
        assert_eq!(delta.apply(&a), b);
    }

    #[test]
    fn roundtrip_includes_date_move() {
        let a = snap(MonthDate::new(2024, 8), &[(0, &[A4], &[A6])]);
        let b = snap(MonthDate::new(2024, 9), &[(0, &[A4], &[A6])]);
        // Same entries, different date: delta is empty but apply re-dates.
        let delta = SnapshotDelta::diff(&a, &b);
        assert!(delta.is_empty());
        assert_eq!(delta.apply(&a), b);
    }

    #[test]
    fn revert_ignores_wrong_old_fields_and_repeated_domains() {
        let base = snap(
            MonthDate::new(2024, 8),
            &[(0, &[A4], &[A6]), (1, &[B4], &[])],
        );
        let addrs = |v4: u32| ResolvedAddrs {
            v4: vec![v4],
            v6: vec![],
        };
        // Every `old` is wrong: domain 0 is claimed absent, domain 1
        // claimed at A4, domain 7 claimed present. Domain 0 changes twice.
        let delta = SnapshotDelta::from_changes(
            MonthDate::new(2024, 8),
            MonthDate::new(2024, 8),
            vec![
                DomainChange {
                    domain: d(0),
                    old: None,
                    new: Some(addrs(B4)),
                },
                DomainChange {
                    domain: d(0),
                    old: None,
                    new: None,
                },
                DomainChange {
                    domain: d(1),
                    old: Some(addrs(A4)),
                    new: Some(addrs(A4)),
                },
                DomainChange {
                    domain: d(7),
                    old: Some(addrs(A4)),
                    new: None,
                },
            ],
        );
        let mut patched = base.clone();
        let undo = delta.apply_in_place(&mut patched);
        assert_eq!(patched, delta.apply(&base));
        assert!(patched.get(d(0)).is_none());
        assert!(!delta.is_carried_by(&patched), "domain 0's first change");
        undo.revert(&mut patched);
        assert_eq!(patched, base);
    }

    /// Property: `apply(diff(a, b), a) == b` across random snapshot
    /// pairs spanning empty, partial and full churn, with per-domain
    /// family drops exercising dual-stack transitions.
    #[test]
    fn prop_diff_apply_roundtrip() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        // Each side: up to 24 domains out of a 12-id space, each with an
        // (id, v4 variant 0..3, v6 variant 0..3) triple; variant 0 means
        // the family is absent.
        let entry = || (0u32..12, 0u8..3, 0u8..3);
        let strategy = (
            proptest::collection::vec(entry(), 0..24),
            proptest::collection::vec(entry(), 0..24),
        );
        runner
            .run(&strategy, |(ea, eb)| {
                let build = |date: MonthDate, entries: &[(u32, u8, u8)]| {
                    let mut s = DnsSnapshot::new(date);
                    for (id, v4, v6) in entries {
                        let v4: Vec<u32> = (0..*v4).map(|k| A4 + *id + k as u32).collect();
                        let v6: Vec<u128> =
                            (0..*v6).map(|k| A6 + *id as u128 + k as u128).collect();
                        s.merge(d(*id), v4, v6);
                    }
                    s
                };
                let a = build(MonthDate::new(2024, 8), &ea);
                let b = build(MonthDate::new(2024, 9), &eb);
                let delta = SnapshotDelta::diff(&a, &b);
                prop_assert_eq!(&delta.apply(&a), &b);
                // In place: the patch reaches the target, the undo log
                // returns to the base, and only the target carries it.
                let mut patched = a.clone();
                let undo = delta.apply_in_place(&mut patched);
                prop_assert_eq!(&patched, &b);
                prop_assert!(delta.is_carried_by(&patched));
                undo.revert(&mut patched);
                prop_assert_eq!(&patched, &a);
                prop_assert_eq!(delta.is_carried_by(&a.redated(b.date())), delta.is_empty());
                prop_assert_eq!(
                    delta.added_count() + delta.removed_count() + delta.retargeted_count(),
                    delta.churn()
                );
                // The reverse diff has mirrored counts.
                let back = SnapshotDelta::diff(&b, &a);
                prop_assert_eq!(back.apply(&b), a);
                prop_assert_eq!(back.added_count(), delta.removed_count());
                prop_assert_eq!(back.removed_count(), delta.added_count());
                prop_assert_eq!(back.retargeted_count(), delta.retargeted_count());
                Ok(())
            })
            .unwrap();
    }
}
