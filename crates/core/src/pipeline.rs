//! Steps 3–4 of the methodology: pair similarity and best-match selection.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sibling_net_types::{Ipv4Prefix, Ipv6Prefix};

use crate::index::GroupIndex;
use crate::metrics::{Ratio, SimilarityMetric};

/// One sibling prefix pair with its similarity evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiblingPair {
    /// The IPv4 prefix.
    pub v4: Ipv4Prefix,
    /// The IPv6 prefix.
    pub v6: Ipv6Prefix,
    /// The similarity value (Jaccard unless configured otherwise).
    pub similarity: Ratio,
    /// `|A ∩ B|`: DS domains shared by both prefixes.
    pub shared_domains: u64,
    /// `|A|`: DS domains on the IPv4 prefix.
    pub v4_domains: u64,
    /// `|B|`: DS domains on the IPv6 prefix.
    pub v6_domains: u64,
}

/// Which side's best matches constitute the sibling set (§3.1 step 4).
///
/// The paper selects, for each prefix, the counterpart(s) with the highest
/// similarity; the published pair set is the union over both families,
/// which is why the number of pairs (76k) exceeds the number of unique
/// IPv4 (46k) or IPv6 (39k) prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BestMatchPolicy {
    /// Union of per-IPv4 and per-IPv6 best matches (the paper's set).
    #[default]
    Union,
    /// Only each IPv4 prefix's best match(es).
    V4Side,
    /// Only each IPv6 prefix's best match(es).
    V6Side,
}

/// The detected sibling pair set for one snapshot.
///
/// The pairs are immutable once built, so they live behind an `Arc`:
/// cloning a set (into a batch result, a query index generation, the
/// live writer's retained window) bumps a refcount instead of copying.
#[derive(Debug, Clone, Default)]
pub struct SiblingSet {
    pairs: Arc<[SiblingPair]>,
}

impl SiblingSet {
    /// Builds a set from pairs (deduplicating on the prefix pair, sorting
    /// deterministically).
    pub fn from_pairs(mut pairs: Vec<SiblingPair>) -> Self {
        pairs.sort_by_key(|p| (p.v4, p.v6));
        pairs.dedup_by_key(|p| (p.v4, p.v6));
        Self {
            pairs: pairs.into(),
        }
    }

    /// Number of sibling pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates in deterministic (v4, v6) order.
    pub fn iter(&self) -> impl Iterator<Item = &SiblingPair> + '_ {
        self.pairs.iter()
    }

    /// The pairs as a slice, in deterministic (v4, v6) order.
    pub fn as_slice(&self) -> &[SiblingPair] {
        &self.pairs
    }

    /// Looks up a specific pair.
    pub fn get(&self, v4: &Ipv4Prefix, v6: &Ipv6Prefix) -> Option<&SiblingPair> {
        self.pairs
            .binary_search_by(|p| (p.v4, p.v6).cmp(&(*v4, *v6)))
            .ok()
            .map(|i| &self.pairs[i])
    }

    /// All similarity values (for ECDFs).
    pub fn similarity_values(&self) -> Vec<f64> {
        self.pairs.iter().map(|p| p.similarity.to_f64()).collect()
    }

    /// Share of pairs with similarity exactly 1 ("perfect match" siblings).
    pub fn perfect_match_share(&self) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        let perfect = self.pairs.iter().filter(|p| p.similarity.is_one()).count();
        perfect as f64 / self.pairs.len() as f64
    }

    /// Mean and population standard deviation of similarity values
    /// (the two numbers in each Fig. 4 / Fig. 19 heatmap cell).
    pub fn similarity_mean_std(&self) -> (f64, f64) {
        if self.pairs.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.pairs.len() as f64;
        let mean = self
            .pairs
            .iter()
            .map(|p| p.similarity.to_f64())
            .sum::<f64>()
            / n;
        let var = self
            .pairs
            .iter()
            .map(|p| {
                let d = p.similarity.to_f64() - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        (mean, var.sqrt())
    }

    /// Number of distinct IPv4 and IPv6 prefixes participating in pairs.
    pub fn unique_prefix_counts(&self) -> (usize, usize) {
        let v4: BTreeSet<_> = self.pairs.iter().map(|p| p.v4).collect();
        let v6: BTreeSet<_> = self.pairs.iter().map(|p| p.v6).collect();
        (v4.len(), v6.len())
    }
}

/// Whether `pair` survives best-match selection under `policy`, given
/// the per-side similarity maxima. Shared by the serial reference
/// [`detect`] and the sharded [`crate::engine::DetectEngine`] so the two
/// paths cannot drift apart on tie or zero handling.
pub(crate) fn best_match_keep(
    policy: BestMatchPolicy,
    best_v4: &BTreeMap<Ipv4Prefix, crate::metrics::Ratio>,
    best_v6: &BTreeMap<Ipv6Prefix, crate::metrics::Ratio>,
    p: &SiblingPair,
) -> bool {
    let is_best_v4 = best_v4
        .get(&p.v4)
        .is_some_and(|r| p.similarity.cmp(r).is_eq());
    let is_best_v6 = best_v6
        .get(&p.v6)
        .is_some_and(|r| p.similarity.cmp(r).is_eq());
    match policy {
        BestMatchPolicy::Union => is_best_v4 || is_best_v6,
        BestMatchPolicy::V4Side => is_best_v4,
        BestMatchPolicy::V6Side => is_best_v6,
    }
}

/// Runs steps 3–4: scores every candidate (v4, v6) prefix pair that shares
/// at least one DS domain, then keeps the best match(es) per prefix.
///
/// This is the **serial reference implementation**: one global candidate
/// set, merge-walk intersections, one best-match pass — easy to audit and
/// the oracle the property tests compare against. The scale path is
/// [`crate::engine::DetectEngine::detect`], which restructures the same
/// computation into shards with a counting join and (optionally) runs
/// them on the vendored thread pool; its output is bit-identical to this
/// function's.
///
/// Candidates are scored against the index's interned sorted
/// `Vec<DomainId>` domain sets with a merge-walk intersection, so scoring
/// allocates nothing per pair. Pairs with similarity 0 are discarded
/// (they cannot arise from the candidate generation, which requires a
/// shared domain, but the invariant is enforced for defence in depth);
/// ties at the maximum are all kept.
pub fn detect(index: &GroupIndex, metric: SimilarityMetric, policy: BestMatchPolicy) -> SiblingSet {
    // Candidate generation through domain co-occurrence: a pair can only
    // have non-zero similarity if some domain resolves into both prefixes.
    let mut candidates: BTreeSet<(Ipv4Prefix, Ipv6Prefix)> = BTreeSet::new();
    for (p4, domains) in index.groups::<u32>() {
        for d in domains {
            if let Some(v6_prefixes) = index.prefixes_of_domain::<u128>(*d) {
                for p6 in v6_prefixes {
                    candidates.insert((*p4, *p6));
                }
            }
        }
    }

    let scored: Vec<SiblingPair> = candidates
        .into_iter()
        .map(|(p4, p6)| {
            let a = index.set_of(&p4).expect("candidate v4 prefix indexed");
            let b = index.set_of(&p6).expect("candidate v6 prefix indexed");
            // Hash-consed sets: identical sets share an id and their
            // intersection short-circuits to the set length.
            let shared = a.intersection_size(b);
            let similarity = metric.from_parts(shared, a.len() as u64, b.len() as u64);
            SiblingPair {
                v4: p4,
                v6: p6,
                similarity,
                shared_domains: shared,
                v4_domains: a.len() as u64,
                v6_domains: b.len() as u64,
            }
        })
        .filter(|p| !p.similarity.is_zero())
        .collect();

    // Per-prefix maxima (exact rational comparison).
    let mut best_v4: BTreeMap<Ipv4Prefix, Ratio> = BTreeMap::new();
    let mut best_v6: BTreeMap<Ipv6Prefix, Ratio> = BTreeMap::new();
    for p in &scored {
        best_v4
            .entry(p.v4)
            .and_modify(|r| {
                if p.similarity > *r {
                    *r = p.similarity;
                }
            })
            .or_insert(p.similarity);
        best_v6
            .entry(p.v6)
            .and_modify(|r| {
                if p.similarity > *r {
                    *r = p.similarity;
                }
            })
            .or_insert(p.similarity);
    }

    SiblingSet::from_pairs(
        scored
            .into_iter()
            .filter(|p| best_match_keep(policy, &best_v4, &best_v6, p))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::PrefixDomainIndex;
    use sibling_bgp::Rib;
    use sibling_dns::{DnsSnapshot, DomainId};
    use sibling_net_types::{Asn, MonthDate};

    /// Brute-force pair scoring over raw slices (the test oracle).
    fn score_pair(
        metric: SimilarityMetric,
        v4: Ipv4Prefix,
        v6: Ipv6Prefix,
        a: &[DomainId],
        b: &[DomainId],
    ) -> SiblingPair {
        let shared = crate::metrics::intersection_size(a, b);
        let similarity = metric.from_parts(shared, a.len() as u64, b.len() as u64);
        SiblingPair {
            v4,
            v6,
            similarity,
            shared_domains: shared,
            v4_domains: a.len() as u64,
            v6_domains: b.len() as u64,
        }
    }

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

    /// The worked example of Fig. 3:
    /// IPv4 prefix-1 hosts {d1, d2, d3}; IPv4 prefix-2 hosts {d4};
    /// IPv6 prefix-1 hosts {d1, d3};     IPv6 prefix-2 hosts {d4, d1-ish}…
    /// simplified to reproduce the 0.66 / 0.33 / 0.0 / 1.0 matrix.
    fn fig3_fixture() -> PrefixDomainIndex {
        let mut rib = Rib::new();
        rib.announce(p4("203.0.0.0/16"), Asn(1)); // v4 prefix-1
        rib.announce(p4("198.51.0.0/16"), Asn(2)); // v4 prefix-2
        rib.announce(p6("2600:1::/32"), Asn(1)); // v6 prefix-1
        rib.announce(p6("2600:2::/32"), Asn(2)); // v6 prefix-2

        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        // d1, d3 → v4 p1 + v6 p1 ; d2 → v4 p1 + v6 p2 ; d4 → v4 p2 + v6 p2.
        snap.merge(DomainId(1), vec![a4("203.0.1.1")], vec![a6("2600:1::1")]);
        snap.merge(DomainId(3), vec![a4("203.0.1.3")], vec![a6("2600:1::3")]);
        snap.merge(DomainId(2), vec![a4("203.0.1.2")], vec![a6("2600:2::2")]);
        snap.merge(DomainId(4), vec![a4("198.51.1.4")], vec![a6("2600:2::4")]);
        PrefixDomainIndex::build(&snap, &rib)
    }

    #[test]
    fn fig3_similarity_matrix() {
        let index = fig3_fixture();
        let a = index.domains(&p4("203.0.0.0/16")).unwrap();
        let b1 = index.domains(&p6("2600:1::/32")).unwrap();
        let b2 = index.domains(&p6("2600:2::/32")).unwrap();
        assert_eq!(crate::metrics::jaccard(a, b1), Ratio::new(2, 3));
        assert_eq!(crate::metrics::jaccard(a, b2), Ratio::new(1, 4));
    }

    #[test]
    fn best_match_keeps_maximum_per_prefix() {
        let index = fig3_fixture();
        let set = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
        // v4 p1 best-matches v6 p1 (2/3); v4 p2 best-matches v6 p2 (1/2);
        // v6 p2's own best is v4 p2 (1/2 > 1/4).
        assert!(set.get(&p4("203.0.0.0/16"), &p6("2600:1::/32")).is_some());
        assert!(set.get(&p4("198.51.0.0/16"), &p6("2600:2::/32")).is_some());
        // The cross pair (v4 p1, v6 p2) is nobody's best match.
        assert!(set.get(&p4("203.0.0.0/16"), &p6("2600:2::/32")).is_none());
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn union_policy_includes_v6_side_bests() {
        // v4 prefix with two v6 counterparts where the v4-side best is b1,
        // but b2's own best is still the v4 prefix → union keeps both.
        let mut rib = Rib::new();
        rib.announce(p4("203.0.0.0/16"), Asn(1));
        rib.announce(p6("2600:1::/32"), Asn(1));
        rib.announce(p6("2600:2::/32"), Asn(1));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap.merge(DomainId(1), vec![a4("203.0.1.1")], vec![a6("2600:1::1")]);
        snap.merge(DomainId(2), vec![a4("203.0.1.2")], vec![a6("2600:1::2")]);
        snap.merge(DomainId(3), vec![a4("203.0.1.3")], vec![a6("2600:2::3")]);
        let index = PrefixDomainIndex::build(&snap, &rib);
        let union = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
        assert_eq!(union.len(), 2);
        let v4_only = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::V4Side);
        assert_eq!(v4_only.len(), 1);
        let v6_only = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::V6Side);
        assert_eq!(v6_only.len(), 2);
    }

    #[test]
    fn ties_are_all_kept() {
        // One v4 prefix, two v6 prefixes with identical Jaccard.
        let mut rib = Rib::new();
        rib.announce(p4("203.0.0.0/16"), Asn(1));
        rib.announce(p6("2600:1::/32"), Asn(1));
        rib.announce(p6("2600:2::/32"), Asn(1));
        let mut snap = DnsSnapshot::new(MonthDate::new(2024, 9));
        snap.merge(
            DomainId(1),
            vec![a4("203.0.1.1")],
            vec![a6("2600:1::1"), a6("2600:2::1")],
        );
        let index = PrefixDomainIndex::build(&snap, &rib);
        let set = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
        assert_eq!(set.len(), 2, "tied best matches are all kept");
        for p in set.iter() {
            assert!(p.similarity.is_one());
        }
    }

    #[test]
    fn sibling_set_statistics() {
        let index = fig3_fixture();
        let set = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
        let (mean, std) = set.similarity_mean_std();
        assert!(mean > 0.0 && mean < 1.0);
        assert!(std >= 0.0);
        assert_eq!(set.unique_prefix_counts(), (2, 2));
        assert_eq!(set.perfect_match_share(), 0.0);
        assert_eq!(set.similarity_values().len(), 2);
    }

    #[test]
    fn empty_index_detects_nothing() {
        let index = PrefixDomainIndex::default();
        let set = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);
        assert!(set.is_empty());
        assert_eq!(set.perfect_match_share(), 0.0);
        assert_eq!(set.similarity_mean_std(), (0.0, 0.0));
    }

    /// Property test: for random small worlds, `detect` agrees with a
    /// brute-force reference implementation of steps 3–4.
    #[test]
    fn prop_detect_matches_bruteforce() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        // Each domain gets one v4 host in one of 6 /24s and one v6 host
        // in one of 6 /48s.
        let strategy = proptest::collection::vec((0u8..6, 0u8..6), 1..25);
        runner
            .run(&strategy, |assignments| {
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
                let index = PrefixDomainIndex::build(&snap, &rib);
                let got = detect(&index, SimilarityMetric::Jaccard, BestMatchPolicy::Union);

                // Brute force: score all 36 pairs, keep per-side maxima.
                let mut scored: Vec<SiblingPair> = Vec::new();
                for (p4, a) in index.groups::<u32>() {
                    for (p6, b) in index.groups::<u128>() {
                        let sim = crate::metrics::jaccard(a, b);
                        if !sim.is_zero() {
                            scored.push(score_pair(SimilarityMetric::Jaccard, *p4, *p6, a, b));
                        }
                    }
                }
                let mut keep = Vec::new();
                for p in &scored {
                    let best4 = scored
                        .iter()
                        .filter(|q| q.v4 == p.v4)
                        .map(|q| q.similarity)
                        .max()
                        .unwrap();
                    let best6 = scored
                        .iter()
                        .filter(|q| q.v6 == p.v6)
                        .map(|q| q.similarity)
                        .max()
                        .unwrap();
                    if p.similarity == best4 || p.similarity == best6 {
                        keep.push(*p);
                    }
                }
                let want = SiblingSet::from_pairs(keep);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want.iter()) {
                    prop_assert_eq!((g.v4, g.v6), (w.v4, w.v6));
                    prop_assert_eq!(g.similarity, w.similarity);
                    prop_assert_eq!(g.shared_domains, w.shared_domains);
                }
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn from_pairs_dedupes() {
        let pair = SiblingPair {
            v4: p4("203.0.0.0/16"),
            v6: p6("2600:1::/32"),
            similarity: Ratio::ONE,
            shared_domains: 1,
            v4_domains: 1,
            v6_domains: 1,
        };
        let set = SiblingSet::from_pairs(vec![pair, pair]);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn get_on_empty_set_is_none() {
        let set = SiblingSet::default();
        assert!(set.get(&p4("203.0.0.0/16"), &p6("2600:1::/32")).is_none());
        let set = SiblingSet::from_pairs(vec![]);
        assert!(set.get(&p4("203.0.0.0/16"), &p6("2600:1::/32")).is_none());
        assert!(set.is_empty());
    }

    #[test]
    fn get_finds_only_member_pairs() {
        let pair = SiblingPair {
            v4: p4("203.0.0.0/16"),
            v6: p6("2600:1::/32"),
            similarity: Ratio::ONE,
            shared_domains: 1,
            v4_domains: 1,
            v6_domains: 1,
        };
        let set = SiblingSet::from_pairs(vec![pair]);
        assert_eq!(
            set.get(&p4("203.0.0.0/16"), &p6("2600:1::/32")),
            Some(&pair)
        );
        assert!(set.get(&p4("203.0.0.0/16"), &p6("2600:2::/32")).is_none());
        assert!(set.get(&p4("198.51.0.0/16"), &p6("2600:1::/32")).is_none());
    }
}
