//! Sibling prefix detection — the paper's primary contribution (§3).
//!
//! A **sibling prefix pair** is an IPv4 prefix and an IPv6 prefix serving a
//! similar set of dual-stack domains. This crate implements the full
//! methodology of the paper:
//!
//! 1. **DS-domain extraction** (§3.1 step 1) is provided by
//!    [`sibling_dns::DnsSnapshot`]; the pipeline consumes its dual-stack
//!    entries.
//! 2. **Prefix grouping** (step 2): [`GroupIndex`] maps every DS-domain
//!    address to its BGP-announced prefix (Routeviews-style
//!    longest-prefix match) and groups domains per prefix, per family;
//!    [`PrefixDomainIndex`] adds the host tries SP-Tuner walks.
//! 3. **Similarity** (step 3): [`metrics`] implements the Jaccard index
//!    together with the Dice and overlap coefficients the paper compares
//!    in §3.2, using exact rational arithmetic so tie handling is exact.
//! 4. **Best-match selection** (step 4): [`detect`] keeps, for every
//!    prefix, the counterpart(s) with the maximal similarity; zero-valued
//!    pairs are discarded and ties are kept.
//!
//! On top of detection sit:
//!
//! * [`engine`] — the sharded [`DetectEngine`]: hash-consed domain sets
//!   ([`arena`]), per-shard scoring on a work-stealing pool whose size
//!   never changes the output (one thread runs inline), and the
//!   longitudinal batch driver ([`DetectEngine::run_window`]);
//! * [`tuner`] — the SP-Tuner algorithm in both variants: more-specific
//!   (Algorithm 1, the headline 52% → 82% perfect-match improvement) and
//!   less-specific (Algorithm 2, the negative result of Appendix A.1);
//! * [`longitudinal`] — pair-set comparison across snapshots
//!   (new/unchanged/changed categories of Fig. 10, counts of Fig. 9);
//! * [`stability`] — DS-domain visibility and address/prefix stability
//!   (Fig. 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod engine;
pub mod epoch;
pub mod index;
pub mod longitudinal;
pub mod metrics;
pub mod pipeline;
pub mod query;
pub mod setpairs;
pub mod stability;
pub mod tuner;

pub use arena::{SetArena, SetHandle, SetId};
pub use engine::{BatchRun, BatchStats, DetectEngine, EngineConfig, MonthChurn, MonthTiming};
pub use epoch::{EpochState, IngestError};
pub use index::{DomainMove, GroupIndex, IndexDeltaReport, PrefixDomainIndex};
pub use metrics::{dice, intersection_size, jaccard, overlap_coefficient, Ratio, SimilarityMetric};
pub use pipeline::{detect, BestMatchPolicy, SiblingPair, SiblingSet};
pub use query::{
    MonthStats, MonthView, PinnedEpoch, PublishedWindow, QueryIndexError, WindowQueryIndex,
};
pub use setpairs::{build_set_pairs, SetPair, SetPairing};
pub use tuner::{SpTunerConfig, SpTunerLsConfig, TunerOutcome};
