//! Closed-loop load against the `serve` daemon over a unix socket: the
//! read mix (`query-mixed`) and the live ingest stream with reads beside
//! it (`ingest-live`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sibling_service::{Client, Response};

use crate::daemon::Daemon;
use crate::stats::{fnv, Trace, FNV_OFFSET};

/// Reads per traced/untraced block when tracing alternates; ingests
/// alternate one by one.
const READ_BLOCK: usize = 512;

/// Digest of a decoded response, re-rendered in wire form.
fn digest_response(response: &Response) -> u64 {
    match response {
        Response::Ok(lines) => {
            let mut hash = fnv(FNV_OFFSET, format!("ok {}\n", lines.len()).as_bytes());
            for line in lines {
                hash = fnv(hash, line.as_bytes());
                hash = fnv(hash, b"\n");
            }
            hash
        }
        Response::Err { code, message } => {
            fnv(FNV_OFFSET, format!("err {code} {message}\n").as_bytes())
        }
    }
}

/// What one closed-loop connection saw.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Round-trip latencies outside traced blocks, in nanoseconds.
    pub latencies: Vec<u64>,
    /// Round-trip latencies inside traced blocks.
    pub traced: Vec<u64>,
    pub attempted: u64,
    /// Answered correctly (reads) or acknowledged at the next epoch
    /// (ingests).
    pub completed: u64,
    pub failed: u64,
    /// Answers that disagreed with the oracle (also counted in `failed`).
    pub mismatched: u64,
}

impl Outcome {
    /// Scales every latency by a block's host-speed factor
    /// (see [`crate::gauge`]).
    pub fn scale(&mut self, factor: f64) {
        for ns in self.latencies.iter_mut().chain(self.traced.iter_mut()) {
            *ns = (*ns as f64 * factor).round() as u64;
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.latencies.extend(other.latencies);
        self.traced.extend(other.traced);
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }
}

/// Where a loop records spans: blocks of `block` operations alternate
/// between traced and untraced, so both kinds of sample see the same
/// conditions and their difference is the tracing overhead.
struct Tracing<'a> {
    trace: &'a mut Trace,
    name: &'static str,
    block: usize,
}

/// Times one round trip, in a span when operation `i` falls in a traced
/// block.
fn roundtrip(
    client: &mut Client,
    line: &str,
    i: usize,
    tracing: &mut Option<Tracing>,
    out: &mut Outcome,
) -> std::io::Result<Response> {
    let traced = tracing.as_ref().is_some_and(|t| (i / t.block) % 2 == 1);
    let start = Instant::now();
    let span = match tracing {
        Some(t) if traced => Some(t.trace.open(t.name, None, i as u64)),
        _ => None,
    };
    let response = client.roundtrip(line);
    let ns = start.elapsed().as_nanos() as u64;
    out.attempted += 1;
    if let (Some(t), Some(span)) = (tracing.as_mut(), span) {
        t.trace.close(span);
    }
    if response.is_ok() {
        if traced {
            out.traced.push(ns);
        } else {
            out.latencies.push(ns);
        }
    }
    response
}

/// Sends `lines` round-robin from `cursor` until `stop` is set or
/// `deadline` passes, checking each answer against `expect`.
fn read_loop(
    client: &mut Client,
    lines: &[String],
    expect: &[u64],
    cursor: &mut usize,
    deadline: Instant,
    stop: &AtomicBool,
    mut tracing: Option<Tracing>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
        let at = *cursor % lines.len();
        *cursor += 1;
        match roundtrip(client, &lines[at], i, &mut tracing, &mut out) {
            Ok(response @ Response::Ok(_)) => {
                if digest_response(&response) == expect[at] {
                    out.completed += 1;
                } else {
                    out.failed += 1;
                    out.mismatched += 1;
                }
            }
            Ok(Response::Err { .. }) => out.failed += 1,
            Err(_) => {
                out.failed += 1;
                break;
            }
        }
        i += 1;
    }
    out
}

/// Streams armored ingest lines in order; each acknowledgement must
/// advance `epoch` by exactly one.
fn ingest_loop(
    client: &mut Client,
    lines: &[String],
    epoch: &mut u64,
    mut tracing: Option<Tracing>,
) -> Outcome {
    let mut out = Outcome::default();
    for (i, line) in lines.iter().enumerate() {
        match roundtrip(client, line, i, &mut tracing, &mut out) {
            Ok(Response::Ok(reply)) => {
                let acked = reply.first().and_then(|e| e.parse::<u64>().ok());
                if acked == Some(*epoch + 1) {
                    out.completed += 1;
                    *epoch += 1;
                } else {
                    out.failed += 1;
                    out.mismatched += 1;
                    *epoch = acked.unwrap_or(*epoch);
                }
            }
            Ok(Response::Err { .. }) => out.failed += 1,
            Err(_) => {
                out.failed += 1;
                break;
            }
        }
    }
    out
}

/// Sends a request whose answer must be `ok`, returning its lines.
pub fn ask(client: &mut Client, request: &str) -> Result<Vec<String>, String> {
    match client.roundtrip(request) {
        Ok(Response::Ok(lines)) => Ok(lines),
        Ok(Response::Err { code, message }) => Err(format!("{request}: err {code} {message}")),
        Err(e) => Err(format!("{request}: {e}")),
    }
}

/// The `health` counters that mark failed work: shed connections and
/// requests, timeouts, handler panics and failed ingests.
pub fn health_failures(client: &mut Client) -> Result<u64, String> {
    let lines = ask(client, "health")?;
    let mut total = 0;
    for line in &lines {
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        if matches!(
            key,
            "shed-connections" | "shed-requests" | "timeouts" | "panics" | "ingest-failures"
        ) {
            total += value
                .parse::<u64>()
                .map_err(|_| format!("health line {line:?}"))?;
        }
    }
    Ok(total)
}

/// A daemon and the generator's two connections to it. The generator
/// hangs up one daemon before it drives another, so it never holds more
/// connections than `nproc`.
pub struct Session {
    pub daemon: Daemon,
    clients: Option<[Client; 2]>,
    /// Spawn to both connections open: the set-up the serving workloads
    /// time.
    pub setup_s: f64,
}

fn dial(endpoint: &str) -> Result<[Client; 2], String> {
    let one = || Client::connect(endpoint).map_err(|e| format!("dialing {endpoint}: {e}"));
    Ok([one()?, one()?])
}

/// The daemon's readers poll for new connections every 20 ms; one
/// untimed request per connection absorbs that wait before any timing.
fn ready(clients: &mut [Client; 2]) -> Result<(), String> {
    for client in clients {
        ask(client, "ping")?;
    }
    Ok(())
}

pub fn open_session(cli: &Path, args: &[String], log: &Path) -> Result<Session, String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(cli, args, log)?;
    let mut clients = dial(&daemon.endpoint)?;
    let setup_s = start.elapsed().as_secs_f64();
    ready(&mut clients)?;
    Ok(Session {
        setup_s,
        daemon,
        clients: Some(clients),
    })
}

impl Session {
    /// The two connections, dialed again after [`Session::hang_up`].
    pub fn clients(&mut self) -> Result<&mut [Client; 2], String> {
        if self.clients.is_none() {
            let mut clients = dial(&self.daemon.endpoint)?;
            ready(&mut clients)?;
            self.clients = Some(clients);
        }
        Ok(self.clients.as_mut().expect("dialed above"))
    }

    pub fn hang_up(&mut self) {
        self.clients = None;
    }
}

/// The two-connection read mix for `duration`: the calling thread drives
/// one connection, one spawned thread the other.
pub fn read_mix(
    clients: &mut [Client; 2],
    lines: &[String],
    expect: &[u64],
    cursors: &mut [usize; 2],
    duration: Duration,
    traces: Option<[&mut Trace; 2]>,
) -> (Outcome, f64) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + duration;
    let [first, second] = clients;
    let [c0, c1] = cursors;
    let [t0, t1] = tracings(traces, ["client.read"; 2], [READ_BLOCK; 2]);
    let outcome = std::thread::scope(|scope| {
        let other = scope.spawn(|| read_loop(second, lines, expect, c1, deadline, &stop, t1));
        let mut mine = read_loop(first, lines, expect, c0, deadline, &stop, t0);
        mine.merge(other.join().expect("read thread panicked"));
        mine
    });
    (outcome, start.elapsed().as_secs_f64())
}

/// The ingest stream on one connection with the read mix on the other;
/// returns both outcomes and the stream's duration.
pub fn ingest_with_reads(
    clients: &mut [Client; 2],
    deltas: &[String],
    epoch: &mut u64,
    reads: &[String],
    read_expect: &[u64],
    read_cursor: &mut usize,
    traces: Option<[&mut Trace; 2]>,
) -> (Outcome, Outcome, f64) {
    let stop = AtomicBool::new(false);
    let far = Instant::now() + Duration::from_secs(3600);
    let [writer, reader] = clients;
    let [tw, tr] = tracings(
        traces,
        ["client.ingest", "client.read_live"],
        [1, READ_BLOCK],
    );
    std::thread::scope(|scope| {
        let stop = &stop;
        let read =
            scope.spawn(move || read_loop(reader, reads, read_expect, read_cursor, far, stop, tr));
        let start = Instant::now();
        let written = ingest_loop(writer, deltas, epoch, tw);
        let elapsed = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let read = read.join().expect("read thread panicked");
        (written, read, elapsed)
    })
}

/// Pairs each of the two connections' traces with its span name and
/// block size.
fn tracings<'a>(
    traces: Option<[&'a mut Trace; 2]>,
    names: [&'static str; 2],
    blocks: [usize; 2],
) -> [Option<Tracing<'a>>; 2] {
    match traces {
        Some([a, b]) => [
            Some(Tracing {
                trace: a,
                name: names[0],
                block: blocks[0],
            }),
            Some(Tracing {
                trace: b,
                name: names[1],
                block: blocks[1],
            }),
        ],
        None => [None, None],
    }
}

/// Copies the pristine seed-window store into `dir`.
pub fn fresh_store(seed_store: &Path, dir: &Path) -> Result<PathBuf, String> {
    let store = dir.join("store");
    std::fs::create_dir_all(&store).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(seed_store).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), store.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(store)
}
