//! World generation parameters.

use sibling_net_types::MonthDate;

/// Relative frequencies of hosting-unit layouts (see the crate docs for
/// how each layout shapes the default and tuned Jaccard distributions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutMix {
    /// Single-pod unit with its own announced pair (perfect by default).
    pub aligned: f64,
    /// Multi-pod unit inside one announced pair (perfect by default,
    /// splits into finer perfect pairs under SP-Tuner).
    pub multi_pod_aligned: f64,
    /// Pods share the announced v4 prefix, separable at /24.
    pub shear_v4_24: f64,
    /// Pods share the announced v4 prefix and a /24, separable at /28.
    pub shear_v4_28: f64,
    /// Pods share the announced v6 prefix, separable at /48.
    pub shear_v6_48: f64,
    /// Pods share the announced v6 prefix and a /48, separable at /96.
    pub shear_v6_96: f64,
    /// Pods interleave below every threshold (never separable).
    pub deep: f64,
}

impl LayoutMix {
    /// The same-organization mix: self-hosting is mostly aligned, so the
    /// same-org median Jaccard stays at 1.0 (Figs. 15/31/32) while enough
    /// shear remains for SP-Tuner to have work.
    pub fn paper() -> Self {
        Self {
            aligned: 0.51,
            multi_pod_aligned: 0.20,
            shear_v4_24: 0.04,
            shear_v4_28: 0.04,
            shear_v6_48: 0.05,
            shear_v6_96: 0.05,
            deep: 0.11,
        }
    }

    /// The cross-organization (multi-CDN) mix: almost entirely sheared or
    /// deep — different operators rarely co-align address plans. Together
    /// with [`LayoutMix::paper`] this calibrates the Fig. 5 ladder
    /// (52% → 67% → 82% perfect matches).
    pub fn paper_cross() -> Self {
        Self {
            aligned: 0.04,
            multi_pod_aligned: 0.0,
            shear_v4_24: 0.10,
            shear_v4_28: 0.10,
            shear_v6_48: 0.22,
            shear_v6_96: 0.22,
            deep: 0.32,
        }
    }

    /// The weights as an array (layout order matches [`crate::UnitLayout`]).
    pub fn weights(&self) -> [f64; 7] {
        [
            self.aligned,
            self.multi_pod_aligned,
            self.shear_v4_24,
            self.shear_v4_28,
            self.shear_v6_48,
            self.shear_v6_96,
            self.deep,
        ]
    }
}

/// All knobs of the synthetic Internet.
///
/// The defaults reproduce the paper's *shares* at roughly 1:30 scale; the
/// test presets shrink further. All randomness derives from `seed`.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every derived decision hashes from it.
    pub seed: u64,
    /// Number of organizations (the first 24 become the canonical
    /// hypergiants/CDNs).
    pub n_orgs: usize,
    /// Mean hosting units per ordinary organization.
    pub units_per_org: f64,
    /// Extra unit multiplier for the hypergiant organizations (Amazon and
    /// friends dominate the Fig. 17 pair counts).
    pub hypergiant_unit_boost: f64,
    /// Layout mix for same-organization hosting units (self-hosting is
    /// mostly well aligned, which is what pins the same-org median
    /// Jaccard at 1.0 in Figs. 15/31/32).
    pub layout_mix: LayoutMix,
    /// Layout mix for cross-organization units: multi-CDN hosting is
    /// where shearing and deep interleaving live.
    pub cross_layout_mix: LayoutMix,
    /// Share of hosting units whose v6 side is operated by a *different*
    /// organization (multi-CDN / cross-org hosting → "diff. org" pairs).
    pub cross_org_unit_share: f64,
    /// Share of hosting units (and monitoring pods) already active at the
    /// start of the window; the rest activate uniformly over time,
    /// driving the Fig. 9 doubling and the Fig. 10 "new pairs" majority.
    pub active_at_start_share: f64,
    /// First snapshot month (paper: 2020-09).
    pub start: MonthDate,
    /// Last snapshot month (paper: 2024-09).
    pub end: MonthDate,
    /// Dual-stack share of domains at `start` (paper: 25.2%).
    pub ds_share_start: f64,
    /// Dual-stack share of domains at `end` (paper: 31.8%).
    pub ds_share_end: f64,
    /// Share of domains consistently visible across a 13-month window
    /// (paper: ~40%).
    pub consistent_share: f64,
    /// Share of domains visible exactly once (paper: ~20%).
    pub once_share: f64,
    /// Monthly probability that a domain's address is re-rolled within
    /// its pod (address churn without prefix churn).
    pub addr_rehash_monthly: f64,
    /// Monthly probability that a domain is *re-hosted*: both address
    /// families move together to a new pod. Joint moves are the dominant
    /// real-world pattern (services migrate as a whole), which is why
    /// sibling similarity survives churn.
    pub joint_move_monthly: f64,
    /// Per-month probability of a *transient* IPv4-only displacement
    /// (failover/renumbering that reverts the next month). Together with
    /// joint moves this yields the paper's ≈9%/year IPv4 prefix churn.
    pub v4_only_move_monthly: f64,
    /// Per-month probability of a transient IPv6-only displacement
    /// (with joint moves: ≈6%/year IPv6 prefix churn).
    pub v6_only_move_monthly: f64,
    /// Whether to synthesise the Site24x7-style monitoring domain.
    pub monitoring_domain: bool,
    /// Number of dedicated IPv4 prefixes hosting the monitoring domain.
    pub monitoring_v4: usize,
    /// Number of dedicated IPv6 prefixes hosting the monitoring domain.
    pub monitoring_v6: usize,
    /// Months in which the monitoring domain is absent from the dataset
    /// (the Fig. 14/15 dips).
    pub monitoring_outages: Vec<MonthDate>,
    /// RPKI: per-prefix coverage probability at `start` / `end`.
    pub rpki_coverage_start: f64,
    /// See [`WorldConfig::rpki_coverage_start`].
    pub rpki_coverage_end: f64,
    /// Probability that a covered prefix's ROA is misconfigured
    /// (wrong origin or too-short maxLength → Invalid).
    pub rpki_misconfig_rate: f64,
    /// Probability that a pod answers port scans at all (paper: 70.9% of
    /// sibling prefixes responsive).
    pub pod_responsive_rate: f64,
    /// Number of RIPE-Atlas-style dual-stack probes.
    pub n_atlas_probes: usize,
    /// Number of VPS vantage points.
    pub n_vps: usize,
}

impl WorldConfig {
    /// Default scale: ~1:30 of the paper, runs every experiment in
    /// seconds.
    // ds_share_end mirrors Fig. 1's September-2024 DS share; its
    // nearness to 1/pi is coincidental.
    #[allow(clippy::approx_constant)]
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            seed,
            n_orgs: 420,
            units_per_org: 1.8,
            hypergiant_unit_boost: 6.0,
            layout_mix: LayoutMix::paper(),
            cross_layout_mix: LayoutMix::paper_cross(),
            cross_org_unit_share: 0.18,
            active_at_start_share: 0.50,
            start: MonthDate::new(2020, 9),
            end: MonthDate::new(2024, 9),
            ds_share_start: 0.252,
            ds_share_end: 0.318,
            consistent_share: 0.40,
            once_share: 0.20,
            addr_rehash_monthly: 0.008,
            joint_move_monthly: 0.0051,
            v4_only_move_monthly: 0.012,
            v6_only_move_monthly: 0.001,
            monitoring_domain: true,
            monitoring_v4: 27,
            monitoring_v6: 18,
            monitoring_outages: vec![
                MonthDate::new(2021, 3),
                MonthDate::new(2021, 9),
                MonthDate::new(2022, 3),
                MonthDate::new(2023, 5),
            ],
            rpki_coverage_start: 0.38,
            rpki_coverage_end: 0.56,
            rpki_misconfig_rate: 0.08,
            pod_responsive_rate: 0.709,
            n_atlas_probes: 1040,
            n_vps: 130,
        }
    }

    /// A small world for integration tests (sub-second generation).
    pub fn test_small(seed: u64) -> Self {
        Self {
            n_orgs: 60,
            units_per_org: 1.6,
            hypergiant_unit_boost: 3.0,
            monitoring_v4: 14,
            monitoring_v6: 7,
            n_atlas_probes: 120,
            n_vps: 40,
            ..Self::paper_scale(seed)
        }
    }

    /// A tiny world for unit tests.
    pub fn test_tiny(seed: u64) -> Self {
        Self {
            n_orgs: 12,
            units_per_org: 1.3,
            hypergiant_unit_boost: 1.5,
            monitoring_v4: 3,
            monitoring_v6: 2,
            n_atlas_probes: 30,
            n_vps: 10,
            start: MonthDate::new(2023, 9),
            end: MonthDate::new(2024, 9),
            ..Self::paper_scale(seed)
        }
    }

    /// All snapshot months, `start..=end`.
    pub fn months(&self) -> Vec<MonthDate> {
        self.start.range_to(self.end)
    }

    /// A stable 64-bit fingerprint over every generation knob.
    ///
    /// The world store stamps this into its header, so a store written
    /// under one configuration is never silently read back under
    /// another: differing seeds, scales, windows or churn rates all
    /// produce different fingerprints. Floats hash by bit pattern —
    /// the same strictness `World::generate` determinism relies on.
    pub fn fingerprint(&self) -> u64 {
        use sibling_dns::sealed;
        let mut buf = Vec::with_capacity(256);
        fn f64s(buf: &mut Vec<u8>, v: f64) {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        fn u64s(buf: &mut Vec<u8>, v: u64) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        u64s(&mut buf, self.seed);
        u64s(&mut buf, self.n_orgs as u64);
        f64s(&mut buf, self.units_per_org);
        f64s(&mut buf, self.hypergiant_unit_boost);
        for w in self.layout_mix.weights() {
            f64s(&mut buf, w);
        }
        for w in self.cross_layout_mix.weights() {
            f64s(&mut buf, w);
        }
        f64s(&mut buf, self.cross_org_unit_share);
        f64s(&mut buf, self.active_at_start_share);
        u64s(&mut buf, u64::from(sealed::encode_date(self.start)));
        u64s(&mut buf, u64::from(sealed::encode_date(self.end)));
        f64s(&mut buf, self.ds_share_start);
        f64s(&mut buf, self.ds_share_end);
        f64s(&mut buf, self.consistent_share);
        f64s(&mut buf, self.once_share);
        f64s(&mut buf, self.addr_rehash_monthly);
        f64s(&mut buf, self.joint_move_monthly);
        f64s(&mut buf, self.v4_only_move_monthly);
        f64s(&mut buf, self.v6_only_move_monthly);
        buf.push(u8::from(self.monitoring_domain));
        u64s(&mut buf, self.monitoring_v4 as u64);
        u64s(&mut buf, self.monitoring_v6 as u64);
        u64s(&mut buf, self.monitoring_outages.len() as u64);
        for date in &self.monitoring_outages {
            u64s(&mut buf, u64::from(sealed::encode_date(*date)));
        }
        f64s(&mut buf, self.rpki_coverage_start);
        f64s(&mut buf, self.rpki_coverage_end);
        f64s(&mut buf, self.rpki_misconfig_rate);
        f64s(&mut buf, self.pod_responsive_rate);
        u64s(&mut buf, self.n_atlas_probes as u64);
        u64s(&mut buf, self.n_vps as u64);
        sealed::fnv1a_continue(sealed::FNV_OFFSET, &buf)
    }

    /// Linear interpolation of the dual-stack share at `date`.
    pub fn ds_share_at(&self, date: MonthDate) -> f64 {
        let span = self.end.months_since(&self.start).max(1) as f64;
        let t = (date.months_since(&self.start).clamp(0, i32::MAX) as f64 / span).min(1.0);
        self.ds_share_start + (self.ds_share_end - self.ds_share_start) * t
    }

    /// Linear interpolation of the RPKI coverage probability at `date`.
    pub fn rpki_coverage_at(&self, date: MonthDate) -> f64 {
        let span = self.end.months_since(&self.start).max(1) as f64;
        let t = (date.months_since(&self.start).clamp(0, i32::MAX) as f64 / span).min(1.0);
        self.rpki_coverage_start + (self.rpki_coverage_end - self.rpki_coverage_start) * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_window_is_49_months() {
        let c = WorldConfig::paper_scale(1);
        assert_eq!(c.months().len(), 49);
    }

    #[test]
    // 0.318 is Fig. 1's DS share, not an approximation of 1/pi.
    #[allow(clippy::approx_constant)]
    fn ds_share_interpolates() {
        let c = WorldConfig::paper_scale(1);
        assert!((c.ds_share_at(c.start) - 0.252).abs() < 1e-9);
        assert!((c.ds_share_at(c.end) - 0.318).abs() < 1e-9);
        let mid = c.ds_share_at(MonthDate::new(2022, 9));
        assert!(mid > 0.252 && mid < 0.318);
    }

    #[test]
    fn layout_mixes_sum_to_one() {
        for mix in [LayoutMix::paper(), LayoutMix::paper_cross()] {
            let sum: f64 = mix.weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "weights sum {sum}");
        }
    }

    #[test]
    fn rpki_coverage_grows() {
        let c = WorldConfig::paper_scale(1);
        assert!(c.rpki_coverage_at(c.end) > c.rpki_coverage_at(c.start));
    }
}
