//! Longitudinal comparison of sibling sets (§4.3, Figs. 9–12).
//!
//! Two entry points compute the same change categories:
//!
//! * [`compare`] — the stateless reference: rebuilds the old month's
//!   pair map on every call. Correct and simple; cost `O(old + current)`
//!   in both time **and allocation** per comparison.
//! * [`PairLedger`] — the walk the batch paths use: it carries the
//!   previous month's set (an `Arc` clone) and merge-walks it against
//!   the current one. Both are strictly ascending by `(v4, v6)`, so one
//!   pass over the two slices sorts every pair into its category, with
//!   no map built or probed. Property-tested to agree with [`compare`]
//!   exactly.

use std::collections::BTreeMap;

use sibling_net_types::{Ipv4Prefix, Ipv6Prefix};

use crate::pipeline::SiblingSet;

/// The change category of a sibling pair between two snapshots (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaCategory {
    /// Present now, absent in the old snapshot.
    New,
    /// Present in both with an identical similarity value.
    Unchanged,
    /// Present in both with a different similarity value.
    Changed,
    /// Present in the old snapshot only (not plotted by the paper, but
    /// needed for a complete account).
    Vanished,
}

/// The outcome of comparing an old and a current sibling set.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Similarities of pairs only present now.
    pub new: Vec<f64>,
    /// Similarities of pairs present in both snapshots, unchanged.
    pub unchanged: Vec<f64>,
    /// Current similarities of changed pairs.
    pub changed_current: Vec<f64>,
    /// Old similarities of changed pairs.
    pub changed_old: Vec<f64>,
    /// Old similarities of pairs that disappeared.
    pub vanished: Vec<f64>,
}

impl DeltaReport {
    /// Counts per category (new, unchanged, changed, vanished).
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        (
            self.new.len(),
            self.unchanged.len(),
            self.changed_current.len(),
            self.vanished.len(),
        )
    }

    /// Shares over the *current* pair population (new + unchanged +
    /// changed), the denominators of §4.3 ("new 88%, unchanged 10%,
    /// changed 2%").
    pub fn shares(&self) -> (f64, f64, f64) {
        let total = self.new.len() + self.unchanged.len() + self.changed_current.len();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.new.len() as f64 / total as f64,
            self.unchanged.len() as f64 / total as f64,
            self.changed_current.len() as f64 / total as f64,
        )
    }
}

/// Compares two sibling sets keyed by the (v4, v6) prefix pair identity.
///
/// Similarity equality is exact (rational comparison), so "unchanged"
/// means the Jaccard value is numerically identical, not approximately so.
pub fn compare(old: &SiblingSet, current: &SiblingSet) -> DeltaReport {
    let old_by_pair: BTreeMap<(Ipv4Prefix, Ipv6Prefix), crate::metrics::Ratio> =
        old.iter().map(|p| ((p.v4, p.v6), p.similarity)).collect();
    let mut report = DeltaReport::default();
    let mut seen_old: std::collections::BTreeSet<(Ipv4Prefix, Ipv6Prefix)> = Default::default();
    for pair in current.iter() {
        match old_by_pair.get(&(pair.v4, pair.v6)) {
            None => report.new.push(pair.similarity.to_f64()),
            Some(old_sim) => {
                seen_old.insert((pair.v4, pair.v6));
                if pair.similarity.cmp(old_sim).is_eq() {
                    report.unchanged.push(pair.similarity.to_f64());
                } else {
                    report.changed_current.push(pair.similarity.to_f64());
                    report.changed_old.push(old_sim.to_f64());
                }
            }
        }
    }
    for pair in old.iter() {
        if !seen_old.contains(&(pair.v4, pair.v6)) {
            report.vanished.push(pair.similarity.to_f64());
        }
    }
    report
}

/// The carried state of a longitudinal walk (see module docs): the
/// previous month's sibling set.
#[derive(Debug, Default)]
pub struct PairLedger {
    previous: SiblingSet,
}

impl PairLedger {
    /// An empty ledger (as if the previous month had no pairs — the
    /// first [`PairLedger::advance`] reports everything as new, exactly
    /// like `compare(&empty, current)`).
    pub fn new() -> Self {
        Self::default()
    }

    /// A ledger whose previous month is `previous`: the next
    /// [`PairLedger::advance`] reports exactly `compare(previous,
    /// current)`. Sharing the set costs one `Arc` bump.
    pub fn after(previous: &SiblingSet) -> Self {
        Self {
            previous: previous.clone(),
        }
    }

    /// Steps the ledger to `current`, returning the delta against the
    /// previously advanced month. One merge walk over the two strictly
    /// ascending pair slices: a current pair the walk finds no old match
    /// for is new, a matched pair is unchanged or changed, and an old
    /// pair it steps past has vanished. The categories come out in the
    /// order [`compare`] gives them.
    pub fn advance(&mut self, current: &SiblingSet) -> DeltaReport {
        let mut report = DeltaReport::default();
        let mut old = self.previous.as_slice().iter().peekable();
        for pair in current.iter() {
            let key = (pair.v4, pair.v6);
            while let Some(gone) = old.next_if(|o| (o.v4, o.v6) < key) {
                report.vanished.push(gone.similarity.to_f64());
            }
            match old.next_if(|o| (o.v4, o.v6) == key) {
                None => report.new.push(pair.similarity.to_f64()),
                Some(o) if pair.similarity.cmp(&o.similarity).is_eq() => {
                    report.unchanged.push(pair.similarity.to_f64());
                }
                Some(o) => {
                    report.changed_current.push(pair.similarity.to_f64());
                    report.changed_old.push(o.similarity.to_f64());
                }
            }
        }
        report
            .vanished
            .extend(old.map(|gone| gone.similarity.to_f64()));
        self.previous = current.clone();
        report
    }

    /// Number of pairs carried from the last advanced month.
    pub fn len(&self) -> usize {
        self.previous.len()
    }

    /// Whether the ledger carries no pairs.
    pub fn is_empty(&self) -> bool {
        self.previous.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Ratio;
    use crate::pipeline::SiblingPair;

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

    #[test]
    fn categorisation() {
        let old = SiblingSet::from_pairs(vec![
            pair("10.0.0.0/24", "2600:1::/48", 1, 1), // will be unchanged
            pair("10.0.1.0/24", "2600:2::/48", 1, 2), // will change to 1/1
            pair("10.0.2.0/24", "2600:3::/48", 1, 1), // will vanish
        ]);
        let current = SiblingSet::from_pairs(vec![
            pair("10.0.0.0/24", "2600:1::/48", 1, 1),
            pair("10.0.1.0/24", "2600:2::/48", 1, 1),
            pair("10.0.3.0/24", "2600:4::/48", 1, 3), // new
        ]);
        let report = compare(&old, &current);
        assert_eq!(report.counts(), (1, 1, 1, 1));
        assert_eq!(report.changed_old, vec![0.5]);
        assert_eq!(report.changed_current, vec![1.0]);
        let (new_s, unchanged_s, changed_s) = report.shares();
        assert!((new_s - 1.0 / 3.0).abs() < 1e-12);
        assert!((unchanged_s - 1.0 / 3.0).abs() < 1e-12);
        assert!((changed_s - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn equal_value_different_representation_is_unchanged() {
        let old = SiblingSet::from_pairs(vec![pair("10.0.0.0/24", "2600:1::/48", 1, 2)]);
        let current = SiblingSet::from_pairs(vec![pair("10.0.0.0/24", "2600:1::/48", 2, 4)]);
        let report = compare(&old, &current);
        assert_eq!(report.counts(), (0, 1, 0, 0));
    }

    /// A report's category vectors, bit for bit and in order.
    fn canon(report: &DeltaReport) -> [Vec<u64>; 5] {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        [
            bits(&report.new),
            bits(&report.unchanged),
            bits(&report.changed_current),
            bits(&report.changed_old),
            bits(&report.vanished),
        ]
    }

    #[test]
    fn ledger_matches_compare_walk() {
        let months = [
            SiblingSet::from_pairs(vec![
                pair("10.0.0.0/24", "2600:1::/48", 1, 1),
                pair("10.0.1.0/24", "2600:2::/48", 1, 2),
            ]),
            SiblingSet::from_pairs(vec![
                pair("10.0.0.0/24", "2600:1::/48", 1, 1), // unchanged
                pair("10.0.1.0/24", "2600:2::/48", 1, 1), // changed
                pair("10.0.3.0/24", "2600:4::/48", 1, 3), // new
            ]),
            SiblingSet::from_pairs(vec![]), // everything vanishes
            SiblingSet::from_pairs(vec![pair("10.0.0.0/24", "2600:1::/48", 2, 4)]),
        ];
        let mut ledger = PairLedger::new();
        let mut prev = SiblingSet::from_pairs(vec![]);
        for current in months {
            let want = compare(&prev, &current);
            let got = ledger.advance(&current);
            assert_eq!(canon(&got), canon(&want));
            assert_eq!(ledger.len(), current.len());
            prev = current;
        }
        assert!(ledger.is_empty() || ledger.len() == 1);
    }

    /// Property: advancing the ledger along any random month sequence
    /// reports exactly what the stateless `compare` of consecutive
    /// months reports, and so does a ledger started after the previous
    /// month.
    #[test]
    fn prop_ledger_equals_compare() {
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        // Months are lists of (pair id 0..8, numerator 1..=4): the same
        // prefix pair recurs across months with drifting similarity.
        let month = || proptest::collection::vec((0u32..8, 1u64..5), 0..10);
        let strategy = proptest::collection::vec(month(), 1..6);
        runner
            .run(&strategy, |months| {
                let sets: Vec<SiblingSet> = months
                    .iter()
                    .map(|entries| {
                        SiblingSet::from_pairs(
                            entries
                                .iter()
                                .map(|(id, num)| {
                                    pair(
                                        &format!("10.0.{id}.0/24"),
                                        &format!("2600:{}::/48", id + 1),
                                        *num,
                                        4,
                                    )
                                })
                                .collect(),
                        )
                    })
                    .collect();
                let mut ledger = PairLedger::new();
                let mut prev = SiblingSet::from_pairs(vec![]);
                for current in sets {
                    let want = compare(&prev, &current);
                    let got = ledger.advance(&current);
                    assert_eq!(canon(&got), canon(&want));
                    let started = PairLedger::after(&prev).advance(&current);
                    assert_eq!(canon(&started), canon(&want));
                    prev = current;
                }
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn empty_comparisons() {
        let empty = SiblingSet::from_pairs(vec![]);
        let report = compare(&empty, &empty);
        assert_eq!(report.counts(), (0, 0, 0, 0));
        assert_eq!(report.shares(), (0.0, 0.0, 0.0));
        let one = SiblingSet::from_pairs(vec![pair("10.0.0.0/24", "2600:1::/48", 1, 1)]);
        let report = compare(&empty, &one);
        assert_eq!(report.counts(), (1, 0, 0, 0));
        let report = compare(&one, &empty);
        assert_eq!(report.counts(), (0, 0, 0, 1));
    }
}
