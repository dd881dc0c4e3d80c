//! The service's line protocol: request grammar, typed errors, response
//! framing.
//!
//! Requests are single lines, whitespace-separated:
//!
//! ```text
//! ping                          liveness check
//! months                        the loaded months, ascending
//! stats [M]                     batch-table row(s): whole window or one month
//! siblings P4 P6 M              point query: is (P4, P6) a pair in month M?
//! partners P M K                top-K partners of prefix P (either family)
//!                               in month M; K = 0 means the full ranked run
//! pair P4 P6 FROM..TO           history of (P4, P6) over the month range
//! epoch                         the currently published epoch number
//! health                        daemon health: months, epoch, ingest lag,
//!                               shed/timeout counters
//! ingest HEX                    apply one hex-armored snapshot delta
//!                               (journal payload encoding); writer daemons
//!                               only
//! sub FROM-EPOCH                the replication feed: a `feed FLOOR
//!                               CURRENT` bounds line, then every retained
//!                               delta published after FROM-EPOCH, one
//!                               `EPOCH HEX` line each (same armor as
//!                               `ingest`); feed-publishing daemons only
//! ```
//!
//! Responses are `ok N` followed by exactly `N` data lines, or a single
//! `err <code> <message>` line. Every malformed request maps to a typed
//! [`ProtocolError`] — the connection survives; only transport failures
//! disconnect.
//!
//! `sub` is how a follower daemon tails a primary. The first data line,
//! `feed FLOOR CURRENT`, carries the feed's bounds: nothing at or below
//! epoch `FLOOR` is retained any more (the follower's bootstrap store
//! must cover it) and `CURRENT` is the primary's published epoch — what
//! a caught-up cursor reads. Each following line is the epoch a delta
//! published plus the delta itself in the journal's payload encoding
//! ([`sibling_dns::encode_delta`]) — the byte-identical codec `SIBJRNL`
//! persists, so the feed and the journal cannot drift. Followers poll
//! with their last applied epoch as the cursor; a bounds-only answer
//! with `CURRENT` equal to the cursor means they are caught up.

use std::fmt;

use sibling_dns::SnapshotDelta;
use sibling_net_types::{AnyPrefix, Ipv4Prefix, Ipv6Prefix, MonthDate};

/// A parsed request — one per protocol verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `ping`
    Ping,
    /// `months`
    Months,
    /// `stats [M]`
    Stats {
        /// Restrict to one month; `None` renders the whole window.
        month: Option<MonthDate>,
    },
    /// `siblings P4 P6 M`
    Point {
        /// The IPv4 side of the candidate pair.
        v4: Ipv4Prefix,
        /// The IPv6 side of the candidate pair.
        v6: Ipv6Prefix,
        /// The month to look in.
        month: MonthDate,
    },
    /// `partners P M K`
    Partners {
        /// The prefix whose partners are ranked (either family).
        prefix: AnyPrefix,
        /// The month to look in.
        month: MonthDate,
        /// Result cap; `0` returns the full ranked run.
        k: usize,
    },
    /// `pair P4 P6 FROM..TO`
    History {
        /// The IPv4 side of the pair.
        v4: Ipv4Prefix,
        /// The IPv6 side of the pair.
        v6: Ipv6Prefix,
        /// First month of the range (inclusive).
        from: MonthDate,
        /// Last month of the range (inclusive).
        to: MonthDate,
    },
    /// `epoch`
    Epoch,
    /// `health`
    Health,
    /// `ingest HEX` — one snapshot delta, hex-armored in the journal's
    /// payload encoding ([`sibling_dns::encode_delta`]).
    Ingest(SnapshotDelta),
    /// `sub FROM-EPOCH` — the replication feed: every retained delta
    /// published after `from_epoch`, one `EPOCH HEX` line each.
    Subscribe {
        /// The follower's cursor: the epoch of the last delta it
        /// applied (0 = everything the feed retains).
        from_epoch: u64,
    },
}

impl Request {
    /// The request's verb — the first word of its wire form.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Months => "months",
            Request::Stats { .. } => "stats",
            Request::Point { .. } => "siblings",
            Request::Partners { .. } => "partners",
            Request::History { .. } => "pair",
            Request::Epoch => "epoch",
            Request::Health => "health",
            Request::Ingest(_) => "ingest",
            Request::Subscribe { .. } => "sub",
        }
    }
}

/// Lower-case hex of `bytes` — the armor for `ingest` payloads, which
/// must survive a whitespace-separated line protocol.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    out
}

/// Each byte's hex digit value (either case); `0xff` marks a non-hex
/// byte.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        let digit = b"0123456789abcdef"[i];
        table[digit as usize] = i as u8;
        table[digit.to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Decodes hex produced by [`to_hex`] (either case). `None` on odd
/// length or a non-hex digit.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks_exact(2) {
        let (hi, lo) = (NIBBLE[pair[0] as usize], NIBBLE[pair[1] as usize]);
        if (hi | lo) > 0xf {
            return None;
        }
        bytes.push((hi << 4) | lo);
    }
    Some(bytes)
}

impl fmt::Display for Request {
    /// Renders the canonical request line (no trailing newline). Encoding
    /// then parsing round-trips to an equal request.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Ping => write!(f, "ping"),
            Request::Months => write!(f, "months"),
            Request::Stats { month: None } => write!(f, "stats"),
            Request::Stats { month: Some(m) } => write!(f, "stats {m}"),
            Request::Point { v4, v6, month } => write!(f, "siblings {v4} {v6} {month}"),
            Request::Partners { prefix, month, k } => write!(f, "partners {prefix} {month} {k}"),
            Request::History { v4, v6, from, to } => write!(f, "pair {v4} {v6} {from}..{to}"),
            Request::Epoch => write!(f, "epoch"),
            Request::Health => write!(f, "health"),
            Request::Ingest(delta) => {
                write!(f, "ingest {}", to_hex(&sibling_dns::encode_delta(delta)))
            }
            Request::Subscribe { from_epoch } => write!(f, "sub {from_epoch}"),
        }
    }
}

/// A typed protocol-level failure. Rendered as `err <code> <message>`;
/// the serving connection stays open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The request line was empty (or all whitespace).
    Empty,
    /// The first word is not a known verb.
    UnknownVerb(String),
    /// A known verb with the wrong argument shape.
    Usage {
        /// The verb that was recognized.
        verb: &'static str,
        /// Its expected argument grammar.
        usage: &'static str,
    },
    /// An argument failed to parse.
    BadArg {
        /// Which argument (e.g. `"v4 prefix"`, `"month"`).
        what: &'static str,
        /// The offending input token.
        input: String,
        /// Parser detail.
        detail: String,
    },
    /// A month outside the loaded window.
    OutOfWindow {
        /// The requested month.
        month: MonthDate,
        /// First loaded month.
        first: MonthDate,
        /// Last loaded month.
        last: MonthDate,
    },
    /// The server is saturated and shed this work instead of queueing
    /// it: a connection beyond the cap, or an expensive verb under
    /// pressure. Retryable — the client backs off and tries again.
    Busy {
        /// What was shed (`"connection"` or the verb, e.g. `"partners"`).
        what: &'static str,
        /// Connections currently being served.
        active: usize,
        /// The configured connection cap.
        max: usize,
    },
    /// A request (or its slow-arriving line) exceeded the per-request
    /// deadline; the server closes the connection after this response.
    Timeout {
        /// What timed out (`"request"` or `"idle connection"`).
        what: &'static str,
        /// The budget that was exhausted, in milliseconds.
        budget_ms: u64,
    },
    /// An `ingest` was sent to a daemon serving a static window (no
    /// `--ingest` journal). Not retryable against this daemon.
    ReadOnly,
    /// An accepted `ingest` failed to apply — validation, journal, or
    /// publication. The daemon has rolled back to its last published
    /// epoch; the message carries the underlying cause.
    IngestFailed {
        /// The underlying failure, rendered.
        detail: String,
    },
    /// A `sub` was sent to a daemon that publishes no replication feed
    /// (a static window, or a follower — followers do not re-publish).
    /// Not retryable against this daemon.
    NoFeed,
}

impl ProtocolError {
    /// The stable machine-readable error code (the token after `err`).
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::Empty => "empty",
            ProtocolError::UnknownVerb(_) => "unknown-verb",
            ProtocolError::Usage { .. } => "usage",
            ProtocolError::BadArg { .. } => "bad-arg",
            ProtocolError::OutOfWindow { .. } => "out-of-window",
            ProtocolError::Busy { .. } => "busy",
            ProtocolError::Timeout { .. } => "timeout",
            ProtocolError::ReadOnly => "read-only",
            ProtocolError::IngestFailed { .. } => "ingest-failed",
            ProtocolError::NoFeed => "no-feed",
        }
    }

    /// Whether a client may transparently retry after backing off —
    /// true only for load shedding, where the request itself is fine.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ProtocolError::Busy { .. })
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty request line"),
            ProtocolError::UnknownVerb(verb) => write!(
                f,
                "unknown verb {verb:?} (ping|months|stats|siblings|partners|pair|epoch|health|ingest|sub)"
            ),
            ProtocolError::Usage { verb, usage } => write!(f, "usage: {verb} {usage}"),
            ProtocolError::BadArg {
                what,
                input,
                detail,
            } => write!(f, "bad {what} {input:?}: {detail}"),
            ProtocolError::OutOfWindow { month, first, last } => {
                write!(f, "month {month} outside loaded window {first}..{last}")
            }
            ProtocolError::Busy { what, active, max } => {
                write!(
                    f,
                    "server saturated ({active}/{max} connections), shed {what}; retry with backoff"
                )
            }
            ProtocolError::Timeout { what, budget_ms } => {
                write!(f, "{what} exceeded its {budget_ms} ms deadline")
            }
            ProtocolError::ReadOnly => {
                write!(f, "daemon serves a static window; start with --ingest to accept deltas")
            }
            ProtocolError::IngestFailed { detail } => {
                write!(f, "ingest rejected, window rolled back: {detail}")
            }
            ProtocolError::NoFeed => {
                write!(
                    f,
                    "daemon publishes no delta feed; subscribe to a primary started with --ingest"
                )
            }
        }
    }
}

fn parse_v4(what: &'static str, s: &str) -> Result<Ipv4Prefix, ProtocolError> {
    s.parse().map_err(|e| ProtocolError::BadArg {
        what,
        input: s.into(),
        detail: format!("{e:?}"),
    })
}

fn parse_v6(what: &'static str, s: &str) -> Result<Ipv6Prefix, ProtocolError> {
    s.parse().map_err(|e| ProtocolError::BadArg {
        what,
        input: s.into(),
        detail: format!("{e:?}"),
    })
}

fn parse_any(s: &str) -> Result<AnyPrefix, ProtocolError> {
    if let Ok(v4) = s.parse::<Ipv4Prefix>() {
        return Ok(AnyPrefix::V4(v4));
    }
    match s.parse::<Ipv6Prefix>() {
        Ok(v6) => Ok(AnyPrefix::V6(v6)),
        Err(e) => Err(ProtocolError::BadArg {
            what: "prefix",
            input: s.into(),
            detail: format!("neither IPv4 nor IPv6 prefix ({e:?})"),
        }),
    }
}

/// Truncates a long token (an ingest hex blob can run to megabytes) so
/// the offending input quoted in an error stays one readable line.
fn abbreviate(s: &str) -> String {
    const KEEP: usize = 32;
    if s.len() <= KEEP {
        s.into()
    } else {
        format!("{}… ({} chars)", &s[..KEEP], s.len())
    }
}

fn parse_month(s: &str) -> Result<MonthDate, ProtocolError> {
    s.parse().map_err(|e: String| ProtocolError::BadArg {
        what: "month",
        input: s.into(),
        detail: e,
    })
}

/// Parses one request line. Leading/trailing whitespace is ignored; any
/// failure is a typed [`ProtocolError`].
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let line = line.trim();
    let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    // An `ingest` payload runs to tens of kilobytes, so it is taken as
    // one token unsplit; only a payload that fails to decode is then
    // checked for a second token.
    let args: Vec<&str> = match (verb, rest.trim_start()) {
        ("", _) => return Err(ProtocolError::Empty),
        ("ingest", "") => Vec::new(),
        ("ingest", payload) => vec![payload],
        (_, rest) => rest.split_whitespace().collect(),
    };
    let usage = |verb, usage| ProtocolError::Usage { verb, usage };
    match verb {
        "ping" => match args[..] {
            [] => Ok(Request::Ping),
            _ => Err(usage("ping", "(no arguments)")),
        },
        "months" => match args[..] {
            [] => Ok(Request::Months),
            _ => Err(usage("months", "(no arguments)")),
        },
        "stats" => match args[..] {
            [] => Ok(Request::Stats { month: None }),
            [m] => Ok(Request::Stats {
                month: Some(parse_month(m)?),
            }),
            _ => Err(usage("stats", "[YYYY-MM]")),
        },
        "siblings" => match args[..] {
            [v4, v6, m] => Ok(Request::Point {
                v4: parse_v4("v4 prefix", v4)?,
                v6: parse_v6("v6 prefix", v6)?,
                month: parse_month(m)?,
            }),
            _ => Err(usage("siblings", "V4/LEN V6/LEN YYYY-MM")),
        },
        "partners" => match args[..] {
            [p, m, k] => Ok(Request::Partners {
                prefix: parse_any(p)?,
                month: parse_month(m)?,
                k: k.parse().map_err(|e| ProtocolError::BadArg {
                    what: "k",
                    input: k.into(),
                    detail: format!("{e} (unsigned integer, 0 = all)"),
                })?,
            }),
            _ => Err(usage("partners", "PREFIX/LEN YYYY-MM K")),
        },
        "pair" => match args[..] {
            [v4, v6, range] => {
                let (from, to) = range.split_once("..").ok_or(ProtocolError::BadArg {
                    what: "month range",
                    input: range.into(),
                    detail: "expected FROM..TO (e.g. 2024-01..2024-12)".into(),
                })?;
                let (from, to) = (parse_month(from)?, parse_month(to)?);
                if from > to {
                    return Err(ProtocolError::BadArg {
                        what: "month range",
                        input: range.into(),
                        detail: format!("range start {from} is after its end {to}"),
                    });
                }
                Ok(Request::History {
                    v4: parse_v4("v4 prefix", v4)?,
                    v6: parse_v6("v6 prefix", v6)?,
                    from,
                    to,
                })
            }
            _ => Err(usage("pair", "V4/LEN V6/LEN FROM..TO")),
        },
        "epoch" => match args[..] {
            [] => Ok(Request::Epoch),
            _ => Err(usage("epoch", "(no arguments)")),
        },
        "health" => match args[..] {
            [] => Ok(Request::Health),
            _ => Err(usage("health", "(no arguments)")),
        },
        "ingest" => match args[..] {
            [hex] => {
                let bytes = from_hex(hex).ok_or_else(|| {
                    if hex.contains(char::is_whitespace) {
                        usage("ingest", "HEX-ENCODED-DELTA")
                    } else {
                        ProtocolError::BadArg {
                            what: "delta",
                            input: abbreviate(hex),
                            detail: "not an even-length hex string".into(),
                        }
                    }
                })?;
                let delta =
                    sibling_dns::decode_delta(&bytes).map_err(|e| ProtocolError::BadArg {
                        what: "delta",
                        input: abbreviate(hex),
                        detail: e.to_string(),
                    })?;
                Ok(Request::Ingest(delta))
            }
            _ => Err(usage("ingest", "HEX-ENCODED-DELTA")),
        },
        "sub" => match args[..] {
            [from] => Ok(Request::Subscribe {
                from_epoch: from.parse().map_err(|e| ProtocolError::BadArg {
                    what: "epoch",
                    input: from.into(),
                    detail: format!("{e} (unsigned integer, 0 = everything retained)"),
                })?,
            }),
            _ => Err(usage("sub", "FROM-EPOCH")),
        },
        other => Err(ProtocolError::UnknownVerb(other.into())),
    }
}

/// A decoded response, as the [`crate::Client`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `ok N` + data lines (without their trailing newlines).
    Ok(Vec<String>),
    /// `err <code> <message>`.
    Err {
        /// The machine-readable code ([`ProtocolError::code`]).
        code: String,
        /// The human-readable message.
        message: String,
    },
}

impl Response {
    /// Decodes a response header line, returning how many data lines
    /// follow (`Ok(n)`), or the decoded error (`Err`). A malformed header
    /// is a transport-level failure — the peer is not speaking the
    /// protocol — reported as `io::Error`.
    pub fn decode_header(line: &str) -> std::io::Result<Result<usize, Response>> {
        let malformed = || {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response header {line:?}"),
            )
        };
        let line = line.trim_end_matches('\n');
        if let Some(count) = line.strip_prefix("ok ") {
            return count.trim().parse().map(Ok).map_err(|_| malformed());
        }
        if let Some(rest) = line.strip_prefix("err ") {
            let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
            return Ok(Err(Response::Err {
                code: code.into(),
                message: message.into(),
            }));
        }
        Err(malformed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(line: &str) -> Request {
        parse_request(line).unwrap()
    }

    fn err(line: &str) -> ProtocolError {
        parse_request(line).unwrap_err()
    }

    #[test]
    fn parse_accepts_every_verb() {
        assert_eq!(req("ping"), Request::Ping);
        assert_eq!(req("months"), Request::Months);
        assert_eq!(req("stats"), Request::Stats { month: None });
        assert_eq!(
            req("stats 2024-03"),
            Request::Stats {
                month: Some(MonthDate::new(2024, 3))
            }
        );
        assert_eq!(
            req("siblings 10.0.0.0/24 2600:1::/48 2024-01"),
            Request::Point {
                v4: "10.0.0.0/24".parse().unwrap(),
                v6: "2600:1::/48".parse().unwrap(),
                month: MonthDate::new(2024, 1),
            }
        );
        assert_eq!(
            req("partners 2600:1::/48 2024-01 5"),
            Request::Partners {
                prefix: AnyPrefix::V6("2600:1::/48".parse().unwrap()),
                month: MonthDate::new(2024, 1),
                k: 5,
            }
        );
        assert_eq!(
            req("pair 10.0.0.0/24 2600:1::/48 2024-01..2024-06"),
            Request::History {
                v4: "10.0.0.0/24".parse().unwrap(),
                v6: "2600:1::/48".parse().unwrap(),
                from: MonthDate::new(2024, 1),
                to: MonthDate::new(2024, 6),
            }
        );
        assert_eq!(req("epoch"), Request::Epoch);
        assert_eq!(req("health"), Request::Health);
        assert_eq!(req("sub 42"), Request::Subscribe { from_epoch: 42 });
        // Whitespace is insignificant.
        assert_eq!(req("  ping  "), Request::Ping);
    }

    fn sample_delta() -> SnapshotDelta {
        use sibling_dns::{DnsSnapshot, DomainId, ResolvedAddrs};
        let mut a = DnsSnapshot::new(MonthDate::new(2024, 1));
        a.insert(
            DomainId(1),
            ResolvedAddrs {
                v4: vec![0x0808_0808],
                v6: vec![],
            },
        );
        let mut b = DnsSnapshot::new(MonthDate::new(2024, 2));
        b.insert(
            DomainId(1),
            ResolvedAddrs {
                v4: vec![0x0808_0808],
                v6: vec![0x2001 << 112],
            },
        );
        SnapshotDelta::diff(&a, &b)
    }

    #[test]
    fn ingest_round_trips_and_rejects_malformed_hex() {
        let request = Request::Ingest(sample_delta());
        assert_eq!(request.verb(), "ingest");
        assert_eq!(req(&request.to_string()), request);

        // Odd length, non-hex digits, and checksummed-but-garbage bytes
        // all map to bad-arg, with long inputs abbreviated.
        for bad in [
            "ingest abc",
            "ingest zz",
            &format!("ingest {}", "ab".repeat(100)),
        ] {
            match err(bad) {
                ProtocolError::BadArg { what, input, .. } => {
                    assert_eq!(what, "delta");
                    assert!(input.len() < 60, "{input:?} should be abbreviated");
                }
                other => panic!("expected bad-arg for {bad:?}, got {other:?}"),
            }
        }
        assert!(matches!(err("ingest"), ProtocolError::Usage { .. }));
        assert!(matches!(err("ingest ab cd"), ProtocolError::Usage { .. }));
    }

    #[test]
    fn hex_armor_round_trips() {
        for bytes in [
            vec![],
            vec![0u8],
            vec![0xde, 0xad, 0xbe, 0xef],
            (0..=255u8).collect(),
        ] {
            assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        }
        // Either case decodes.
        assert_eq!(from_hex("DEADbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(from_hex("abc"), None);
        assert_eq!(from_hex("gg"), None);
    }

    #[test]
    fn sub_round_trips_and_rejects_malformed_cursors() {
        for from_epoch in [0u64, 1, u64::MAX] {
            let request = Request::Subscribe { from_epoch };
            assert_eq!(request.verb(), "sub");
            assert_eq!(req(&request.to_string()), request);
        }
        assert!(matches!(err("sub"), ProtocolError::Usage { .. }));
        assert!(matches!(err("sub 1 2"), ProtocolError::Usage { .. }));
        assert!(matches!(
            err("sub minus-one"),
            ProtocolError::BadArg { what: "epoch", .. }
        ));
        assert!(matches!(
            err("sub -1"),
            ProtocolError::BadArg { what: "epoch", .. }
        ));
    }

    #[test]
    fn no_feed_has_a_stable_code() {
        let no_feed = ProtocolError::NoFeed;
        assert_eq!(no_feed.code(), "no-feed");
        assert!(!no_feed.is_retryable());
        assert!(no_feed.to_string().contains("primary"));
    }

    #[test]
    fn read_only_and_ingest_failed_have_stable_codes() {
        let read_only = ProtocolError::ReadOnly;
        assert_eq!(read_only.code(), "read-only");
        assert!(!read_only.is_retryable());
        assert!(read_only.to_string().contains("--ingest"));

        let failed = ProtocolError::IngestFailed {
            detail: "delta base 2024-03 does not extend window tail 2024-02".into(),
        };
        assert_eq!(failed.code(), "ingest-failed");
        assert!(!failed.is_retryable());
        assert!(failed.to_string().contains("rolled back"));
        assert!(failed.to_string().contains("2024-03"));
    }

    #[test]
    fn encode_parse_round_trips() {
        let requests = [
            Request::Ping,
            Request::Months,
            Request::Stats { month: None },
            Request::Stats {
                month: Some(MonthDate::new(2024, 12)),
            },
            Request::Point {
                v4: "192.0.2.0/24".parse().unwrap(),
                v6: "2001:db8::/32".parse().unwrap(),
                month: MonthDate::new(2023, 7),
            },
            Request::Partners {
                prefix: AnyPrefix::V4("198.51.100.0/24".parse().unwrap()),
                month: MonthDate::new(2024, 2),
                k: 0,
            },
            Request::Partners {
                prefix: AnyPrefix::V6("2600:1::/48".parse().unwrap()),
                month: MonthDate::new(2024, 2),
                k: 17,
            },
            Request::History {
                v4: "10.0.0.0/24".parse().unwrap(),
                v6: "2600:1::/48".parse().unwrap(),
                from: MonthDate::new(2022, 1),
                to: MonthDate::new(2024, 12),
            },
        ];
        for request in requests {
            assert_eq!(req(&request.to_string()), request);
        }
    }

    #[test]
    fn malformed_inputs_map_to_typed_errors() {
        assert_eq!(err(""), ProtocolError::Empty);
        assert_eq!(err("   "), ProtocolError::Empty);
        assert_eq!(
            err("frobnicate"),
            ProtocolError::UnknownVerb("frobnicate".into())
        );
        // Truncated lines: right verb, wrong arity.
        for truncated in [
            "siblings",
            "siblings 10.0.0.0/24",
            "siblings 10.0.0.0/24 2600:1::/48",
            "partners 10.0.0.0/24 2024-01",
            "pair 10.0.0.0/24 2600:1::/48",
        ] {
            assert!(
                matches!(err(truncated), ProtocolError::Usage { .. }),
                "{truncated:?}"
            );
        }
        // Bad dates and prefixes.
        assert!(matches!(
            err("siblings 10.0.0.0/24 2600:1::/48 2024-13"),
            ProtocolError::BadArg { what: "month", .. }
        ));
        assert!(matches!(
            err("siblings 10.0.0.0/33 2600:1::/48 2024-01"),
            ProtocolError::BadArg {
                what: "v4 prefix",
                ..
            }
        ));
        assert!(matches!(
            err("siblings 10.0.0.0/24 not-a-prefix 2024-01"),
            ProtocolError::BadArg {
                what: "v6 prefix",
                ..
            }
        ));
        assert!(matches!(
            err("partners nonsense 2024-01 3"),
            ProtocolError::BadArg { what: "prefix", .. }
        ));
        assert!(matches!(
            err("partners 10.0.0.0/24 2024-01 -3"),
            ProtocolError::BadArg { what: "k", .. }
        ));
        assert!(matches!(
            err("pair 10.0.0.0/24 2600:1::/48 2024-01"),
            ProtocolError::BadArg {
                what: "month range",
                ..
            }
        ));
        assert!(matches!(
            err("pair 10.0.0.0/24 2600:1::/48 2024-06..2024-01"),
            ProtocolError::BadArg {
                what: "month range",
                ..
            }
        ));
    }

    #[test]
    fn error_messages_name_the_valid_values() {
        let msg = err("frobnicate").to_string();
        for verb in [
            "ping", "months", "stats", "siblings", "partners", "pair", "epoch", "health", "ingest",
            "sub",
        ] {
            assert!(msg.contains(verb), "{msg:?} should name {verb}");
        }
        let msg = err("siblings x y z").to_string();
        assert!(msg.contains("v4 prefix"));
    }

    #[test]
    fn busy_and_timeout_errors_round_trip_the_wire_format() {
        let busy = ProtocolError::Busy {
            what: "connection",
            active: 4,
            max: 4,
        };
        assert_eq!(busy.code(), "busy");
        assert!(busy.is_retryable());
        let rendered = busy.to_string();
        assert!(rendered.contains("4/4"), "{rendered}");
        assert!(rendered.contains("retry"), "{rendered}");

        let timeout = ProtocolError::Timeout {
            what: "request",
            budget_ms: 2000,
        };
        assert_eq!(timeout.code(), "timeout");
        assert!(!timeout.is_retryable());
        assert!(timeout.to_string().contains("2000 ms"));

        // The `err <code> <message>` line decodes back to code+message.
        for e in [busy, timeout] {
            let line = format!("err {} {}\n", e.code(), e);
            match Response::decode_header(&line).unwrap() {
                Err(Response::Err { code, message }) => {
                    assert_eq!(code, e.code());
                    assert_eq!(message, e.to_string());
                }
                other => panic!("expected decoded error, got {other:?}"),
            }
        }
        // No other error shares the shed/deadline codes.
        for e in [ProtocolError::Empty, ProtocolError::UnknownVerb("x".into())] {
            assert!(!e.is_retryable());
            assert_ne!(e.code(), "busy");
            assert_ne!(e.code(), "timeout");
        }
    }

    #[test]
    fn response_header_decoding() {
        assert_eq!(Response::decode_header("ok 3\n").unwrap(), Ok(3));
        assert_eq!(Response::decode_header("ok 0").unwrap(), Ok(0));
        assert_eq!(
            Response::decode_header("err bad-arg bad month \"x\"").unwrap(),
            Err(Response::Err {
                code: "bad-arg".into(),
                message: "bad month \"x\"".into()
            })
        );
        assert!(Response::decode_header("what 3").is_err());
        assert!(Response::decode_header("ok three").is_err());
    }
}
