//! Vendored fault-injection points — the workspace's offline stand-in
//! for the `fail` crate.
//!
//! Fragile code (store writes, socket accept loops, response writes)
//! names **sites**: fixed string labels evaluated at runtime. A build
//! without the `failpoints` feature compiles every evaluation to an
//! inlined constant `None`/`Ok(None)` — zero branches survive into the
//! production binary, which is what lets the chaos machinery ride in
//! the same source as the hot paths the benchmarks gate.
//!
//! With `--features failpoints`, sites are looked up in a process-global
//! registry configured through the API ([`configure`]) or the
//! `SIBLING_FAILPOINTS` environment variable (read once, at first
//! evaluation). A configuration maps a site to a **schedule** and an
//! **action**:
//!
//! ```text
//! SIBLING_FAILPOINTS='snapshot-store::write=once*truncate(100);service::accept=1in3*return'
//! ```
//!
//! Schedules are deterministic — no randomness, so a chaos run replays
//! exactly:
//!
//! | schedule   | fires on                                    |
//! |------------|---------------------------------------------|
//! | `always`   | every hit (the default)                     |
//! | `once`     | the first hit only                          |
//! | `1inN`     | every Nth hit (hits N, 2N, 3N, …)           |
//! | `after(N)` | every hit after the first N                 |
//!
//! Actions:
//!
//! | action         | effect at the site                               |
//! |----------------|--------------------------------------------------|
//! | `return`       | the site fails with an injected error            |
//! | `delay(MS)`    | sleep MS milliseconds, then continue normally    |
//! | `panic` / `panic(MSG)` | panic (callers isolate or propagate)     |
//! | `truncate(N)`  | I/O sites process only the first N bytes, then fail |
//! | `off`          | registered but inert (hit counting only)         |
//!
//! Call sites use [`io_point`] (I/O flavored: injected failures become
//! `io::Error`, truncation returns the byte budget) or [`point`]
//! (control flavored: returns whether the site demands a failure);
//! both handle `delay` and `panic` inline.
//!
//! Sites in the workspace, by family:
//!
//! - `snapshot-store::{write,sync,rename,open}` and
//!   `world-store::{write,sync,rename,open}` — the steps of the shared
//!   sealed-file write (temp-file write, fsync, rename) and the short
//!   read at open, named after each store;
//! - `journal::{append,sync,replay}` — the ingest journal's record
//!   write, its fsync, and the short read at recovery;
//! - `journal-reset::{write,sync,rename}` — the journal's atomic header
//!   publish (compaction reset and fresh create);
//! - `ingest::{apply,publish}` — the live window before the journal
//!   append and between the append and the epoch publish;
//! - `service::{accept,answer,write}` — the serving tier;
//! - `replication::{send,recv,apply}` — the primary's feed answer, the
//!   follower's poll, and the follower's delta apply, which together let
//!   the chaos suite tear a replication stream at every stage of its
//!   journey and prove the follower neither corrupts nor double-applies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::time::Duration;

/// What a fired site demands of its caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fire {
    /// Fail the surrounding operation with an injected error.
    ReturnErr,
    /// Sleep this long, then continue normally.
    Delay(Duration),
    /// Panic with this message.
    Panic(String),
    /// For I/O sites: process only this many bytes, then fail.
    TruncateIo(usize),
}

/// The injected error an I/O site fails with — always `io::ErrorKind::Other`
/// with a message naming the site, so chaos-run failures are attributable.
pub fn injected(site: &str) -> io::Error {
    io::Error::other(format!("injected failure at failpoint {site:?}"))
}

/// Evaluates an I/O site. Delays are slept and panics raised inline;
/// `return` becomes `Err(`[`injected`]`)`; `truncate(N)` returns
/// `Ok(Some(N))` (the caller's byte budget); a silent site is `Ok(None)`.
pub fn io_point(site: &str) -> io::Result<Option<usize>> {
    match check(site) {
        None => Ok(None),
        Some(Fire::ReturnErr) => Err(injected(site)),
        Some(Fire::Delay(d)) => {
            std::thread::sleep(d);
            Ok(None)
        }
        Some(Fire::Panic(msg)) => panic!("failpoint {site}: {msg}"),
        Some(Fire::TruncateIo(n)) => Ok(Some(n)),
    }
}

/// Evaluates a control site. Delays are slept and panics raised inline;
/// returns `true` when the site demands a failure (`return` — `truncate`
/// is treated the same at non-I/O sites).
pub fn point(site: &str) -> bool {
    match check(site) {
        None => false,
        Some(Fire::ReturnErr) | Some(Fire::TruncateIo(_)) => true,
        Some(Fire::Delay(d)) => {
            std::thread::sleep(d);
            false
        }
        Some(Fire::Panic(msg)) => panic!("failpoint {site}: {msg}"),
    }
}

pub use imp::{active, armed, check, clear, configure, configure_all, fired, hits, reset};

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::Fire;

    /// Whether failpoints are compiled in (`false`: every site is an
    /// inlined no-op).
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    /// Whether any site is configured to fire (`false`: nothing to
    /// configure without the registry).
    #[inline(always)]
    pub fn armed() -> bool {
        false
    }

    /// Evaluates a site: always `None` in a no-failpoints build.
    #[inline(always)]
    pub fn check(_site: &str) -> Option<Fire> {
        None
    }

    /// Rejected: the build has no registry to configure.
    pub fn configure(_site: &str, _spec: &str) -> Result<(), String> {
        Err("failpoints are not compiled in (build with --features failpoints)".into())
    }

    /// Rejected: the build has no registry to configure.
    pub fn configure_all(_spec: &str) -> Result<usize, String> {
        Err("failpoints are not compiled in (build with --features failpoints)".into())
    }

    /// No-op.
    #[inline(always)]
    pub fn clear(_site: &str) {}

    /// No-op.
    #[inline(always)]
    pub fn reset() {}

    /// Always zero without the registry.
    #[inline(always)]
    pub fn hits(_site: &str) -> u64 {
        0
    }

    /// Always zero without the registry.
    #[inline(always)]
    pub fn fired(_site: &str) -> u64 {
        0
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::Fire;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// When a configured site fires, relative to its hit count.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Schedule {
        Always,
        Once,
        OneIn(u64),
        After(u64),
    }

    impl Schedule {
        fn fires(self, hit: u64) -> bool {
            match self {
                Schedule::Always => true,
                Schedule::Once => hit == 1,
                Schedule::OneIn(n) => hit.is_multiple_of(n),
                Schedule::After(n) => hit > n,
            }
        }
    }

    /// The configured action of a site.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Action {
        Off,
        ReturnErr,
        Delay(u64),
        Panic(String),
        TruncateIo(usize),
    }

    #[derive(Debug)]
    struct SiteState {
        schedule: Schedule,
        action: Action,
        hits: u64,
        fired: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let sites = Mutex::new(HashMap::new());
            if let Ok(spec) = std::env::var("SIBLING_FAILPOINTS") {
                if let Err(e) = apply_all(&sites, &spec) {
                    eprintln!("warning: ignoring bad SIBLING_FAILPOINTS entry: {e}");
                }
            }
            sites
        })
    }

    fn apply_all(sites: &Mutex<HashMap<String, SiteState>>, spec: &str) -> Result<usize, String> {
        let mut applied = 0;
        for entry in spec.split(';').filter(|s| !s.trim().is_empty()) {
            let (site, spec) = entry
                .split_once('=')
                .ok_or_else(|| format!("{entry:?}: expected SITE=SPEC"))?;
            let (schedule, action) = parse_spec(spec.trim())?;
            sites.lock().unwrap().insert(
                site.trim().to_string(),
                SiteState {
                    schedule,
                    action,
                    hits: 0,
                    fired: 0,
                },
            );
            applied += 1;
        }
        Ok(applied)
    }

    /// Parses `[SCHEDULE*]ACTION`, e.g. `1in3*return`, `after(5)*delay(20)`,
    /// `once*panic(boom)`, `truncate(100)`.
    fn parse_spec(spec: &str) -> Result<(Schedule, Action), String> {
        let (schedule, action) = match spec.split_once('*') {
            Some((s, a)) => (parse_schedule(s.trim())?, a.trim()),
            None => (Schedule::Always, spec),
        };
        Ok((schedule, parse_action(action)?))
    }

    fn parse_arg<'a>(s: &'a str, name: &str) -> Option<&'a str> {
        s.strip_prefix(name)?
            .strip_prefix('(')?
            .strip_suffix(')')
            .map(str::trim)
    }

    fn parse_schedule(s: &str) -> Result<Schedule, String> {
        if s == "always" {
            return Ok(Schedule::Always);
        }
        if s == "once" {
            return Ok(Schedule::Once);
        }
        if let Some(n) = s.strip_prefix("1in") {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad 1inN schedule {s:?} (N must be a positive integer)"))?;
            if n == 0 {
                return Err("1in0 never fires; use off".into());
            }
            return Ok(Schedule::OneIn(n));
        }
        if let Some(n) = parse_arg(s, "after") {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad after(N) schedule {s:?}"))?;
            return Ok(Schedule::After(n));
        }
        Err(format!(
            "unknown schedule {s:?} (valid: always, once, 1inN, after(N))"
        ))
    }

    fn parse_action(s: &str) -> Result<Action, String> {
        match s {
            "off" => return Ok(Action::Off),
            "return" => return Ok(Action::ReturnErr),
            "panic" => return Ok(Action::Panic("injected panic".into())),
            _ => {}
        }
        if let Some(msg) = parse_arg(s, "panic") {
            return Ok(Action::Panic(msg.to_string()));
        }
        if let Some(ms) = parse_arg(s, "delay") {
            let ms: u64 = ms.parse().map_err(|_| format!("bad delay(MS) {s:?}"))?;
            return Ok(Action::Delay(ms));
        }
        if let Some(n) = parse_arg(s, "truncate") {
            let n: usize = n.parse().map_err(|_| format!("bad truncate(N) {s:?}"))?;
            return Ok(Action::TruncateIo(n));
        }
        Err(format!(
            "unknown action {s:?} (valid: off, return, delay(MS), panic, panic(MSG), truncate(N))"
        ))
    }

    /// Whether failpoints are compiled in (`true` here).
    #[inline]
    pub fn active() -> bool {
        true
    }

    /// Whether any site is currently configured with an action other
    /// than `off` — i.e. whether injection can actually happen. Perf
    /// gates assert this is `false` before measuring.
    pub fn armed() -> bool {
        registry()
            .lock()
            .unwrap()
            .values()
            .any(|s| s.action != Action::Off)
    }

    /// Evaluates a site: counts the hit and returns the demanded
    /// [`Fire`] when the site is configured and its schedule matches.
    pub fn check(site: &str) -> Option<Fire> {
        let mut sites = registry().lock().unwrap();
        let state = sites.get_mut(site)?;
        state.hits += 1;
        if !state.schedule.fires(state.hits) || state.action == Action::Off {
            return None;
        }
        state.fired += 1;
        Some(match &state.action {
            Action::Off => unreachable!("filtered above"),
            Action::ReturnErr => Fire::ReturnErr,
            Action::Delay(ms) => Fire::Delay(Duration::from_millis(*ms)),
            Action::Panic(msg) => Fire::Panic(msg.clone()),
            Action::TruncateIo(n) => Fire::TruncateIo(*n),
        })
    }

    /// Configures one site from a spec string (see the module docs for
    /// the grammar). Resets the site's hit accounting.
    pub fn configure(site: &str, spec: &str) -> Result<(), String> {
        let (schedule, action) = parse_spec(spec)?;
        registry().lock().unwrap().insert(
            site.to_string(),
            SiteState {
                schedule,
                action,
                hits: 0,
                fired: 0,
            },
        );
        Ok(())
    }

    /// Configures many sites from a `SITE=SPEC;SITE=SPEC` string — the
    /// same grammar the `SIBLING_FAILPOINTS` environment variable uses.
    /// Returns how many sites were configured.
    pub fn configure_all(spec: &str) -> Result<usize, String> {
        apply_all(registry(), spec)
    }

    /// Deconfigures one site (its hit count is forgotten).
    pub fn clear(site: &str) {
        registry().lock().unwrap().remove(site);
    }

    /// Deconfigures every site.
    pub fn reset() {
        registry().lock().unwrap().clear();
    }

    /// How many times a configured site has been evaluated (0 when not
    /// configured — unconfigured sites are not tracked).
    pub fn hits(site: &str) -> u64 {
        registry().lock().unwrap().get(site).map_or(0, |s| s.hits)
    }

    /// How many times a configured site has fired its action.
    pub fn fired(site: &str) -> u64 {
        registry().lock().unwrap().get(site).map_or(0, |s| s.fired)
    }
}

#[cfg(all(test, not(feature = "failpoints")))]
mod noop_tests {
    use super::*;

    #[test]
    fn everything_is_inert_without_the_feature() {
        assert!(!active());
        assert!(!armed());
        assert_eq!(check("any::site"), None);
        assert_eq!(io_point("any::site").unwrap(), None);
        assert!(!point("any::site"));
        assert!(configure("any::site", "return").is_err());
        assert!(configure_all("a=return;b=off").is_err());
        assert_eq!(hits("any::site"), 0);
        clear("any::site");
        reset();
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    // Every test uses its own site names: the registry is process-global
    // and the test harness runs tests concurrently.

    #[test]
    fn unconfigured_sites_are_silent() {
        assert!(active());
        assert_eq!(check("t-unconf::site"), None);
        assert_eq!(io_point("t-unconf::site").unwrap(), None);
        assert_eq!(hits("t-unconf::site"), 0);
    }

    #[test]
    fn always_and_off() {
        configure("t-always::site", "return").unwrap();
        for _ in 0..3 {
            assert_eq!(check("t-always::site"), Some(Fire::ReturnErr));
        }
        assert_eq!(hits("t-always::site"), 3);
        assert_eq!(fired("t-always::site"), 3);
        configure("t-always::site", "off").unwrap();
        assert_eq!(check("t-always::site"), None);
        assert_eq!(hits("t-always::site"), 1, "configure resets accounting");
        clear("t-always::site");
    }

    #[test]
    fn once_fires_exactly_once() {
        configure("t-once::site", "once*return").unwrap();
        assert_eq!(check("t-once::site"), Some(Fire::ReturnErr));
        for _ in 0..5 {
            assert_eq!(check("t-once::site"), None);
        }
        assert_eq!(fired("t-once::site"), 1);
        clear("t-once::site");
    }

    #[test]
    fn one_in_n_is_deterministically_every_nth() {
        configure("t-1in3::site", "1in3*truncate(7)").unwrap();
        let fires: Vec<bool> = (0..9).map(|_| check("t-1in3::site").is_some()).collect();
        assert_eq!(
            fires,
            [false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(check("t-1in3::site"), None);
        assert_eq!(
            check("t-1in3::site"),
            None,
            "hit 11 of a 1in3 schedule stays silent"
        );
        assert_eq!(check("t-1in3::site"), Some(Fire::TruncateIo(7)));
        clear("t-1in3::site");
    }

    #[test]
    fn after_n_fires_from_the_next_hit_on() {
        configure("t-after::site", "after(2)*return").unwrap();
        assert_eq!(check("t-after::site"), None);
        assert_eq!(check("t-after::site"), None);
        assert_eq!(check("t-after::site"), Some(Fire::ReturnErr));
        assert_eq!(check("t-after::site"), Some(Fire::ReturnErr));
        clear("t-after::site");
    }

    #[test]
    fn io_point_maps_actions() {
        configure("t-io::ret", "return").unwrap();
        let err = io_point("t-io::ret").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Other);
        assert!(err.to_string().contains("t-io::ret"), "{err}");

        configure("t-io::trunc", "truncate(100)").unwrap();
        assert_eq!(io_point("t-io::trunc").unwrap(), Some(100));

        configure("t-io::delay", "delay(1)").unwrap();
        let start = std::time::Instant::now();
        assert_eq!(io_point("t-io::delay").unwrap(), None);
        assert!(start.elapsed() >= Duration::from_millis(1));

        for site in ["t-io::ret", "t-io::trunc", "t-io::delay"] {
            clear(site);
        }
    }

    #[test]
    fn point_fires_and_panics() {
        configure("t-pt::ret", "return").unwrap();
        assert!(point("t-pt::ret"));
        configure("t-pt::panic", "panic(chaos)").unwrap();
        let payload = std::panic::catch_unwind(|| point("t-pt::panic")).unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("chaos"), "{msg}");
        clear("t-pt::ret");
        clear("t-pt::panic");
    }

    #[test]
    fn configure_all_parses_the_env_grammar() {
        let n = configure_all("t-all::a=1in2*return; t-all::b = delay(3) ;").unwrap();
        assert_eq!(n, 2);
        assert_eq!(check("t-all::a"), None);
        assert_eq!(check("t-all::a"), Some(Fire::ReturnErr));
        assert_eq!(
            check("t-all::b"),
            Some(Fire::Delay(Duration::from_millis(3)))
        );
        clear("t-all::a");
        clear("t-all::b");
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "frob",
            "1in0*return",
            "1inX*return",
            "after(x)*return",
            "sometimes*return",
            "delay(ms)",
            "truncate(-1)",
            "panic(unclosed",
        ] {
            assert!(configure("t-bad::site", bad).is_err(), "{bad:?}");
        }
        assert!(configure_all("missing-equals").is_err());
    }
}
