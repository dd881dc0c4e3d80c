//! End-to-end contract of the resident query daemon: a server over a
//! scored window answers every query family across a **real socket**
//! bit-identically to an independent batch recompute of the same window,
//! and malformed request lines produce typed errors without dropping the
//! connection. The served window is scored on a two-thread pool, the
//! reference inline.

use std::sync::Arc;

use sibling_core::{DetectEngine, EngineConfig, SiblingPair, SiblingSet, WindowQueryIndex};
use sibling_net_types::{Ipv4Prefix, Ipv6Prefix, MonthDate};
use sibling_service::{Client, Endpoint, QueryPlanner, Response, Server};
use sibling_worldgen::{World, WorldConfig};

/// Scores a small multi-month window — the daemon's startup work and,
/// run a second time from scratch, the recompute reference.
fn score_window(world: &World, from: MonthDate, to: MonthDate) -> Vec<(MonthDate, SiblingSet)> {
    let archive = world.rib_archive();
    let mut engine = DetectEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    engine
        .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
        .expect("window covered by the world's archive")
        .results
}

/// The wire rendering of one pair — duplicated here from the service so
/// the test pins the format independently: `V4 V6 NUM/DEN SHARED V4DOMS
/// V6DOMS`, similarity as the exact rational.
fn pair_line(pair: &SiblingPair) -> String {
    format!(
        "{} {} {}/{} {} {} {}",
        pair.v4,
        pair.v6,
        pair.similarity.num(),
        pair.similarity.den(),
        pair.shared_domains,
        pair.v4_domains,
        pair.v6_domains
    )
}

/// Reference top-k for a v4 prefix: filter + full sort over the raw
/// month set, ranked like the index promises (similarity descending,
/// partner prefix ascending) — no posting tables involved.
fn partners_v4_reference(set: &SiblingSet, v4: Ipv4Prefix, k: usize) -> Vec<String> {
    let mut matches: Vec<&SiblingPair> = set.iter().filter(|p| p.v4 == v4).collect();
    matches.sort_by(|a, b| b.similarity.cmp(&a.similarity).then(a.v6.cmp(&b.v6)));
    matches.truncate(k);
    matches.into_iter().map(pair_line).collect()
}

/// Reference top-k for a v6 prefix (partner ordering over v4).
fn partners_v6_reference(set: &SiblingSet, v6: Ipv6Prefix, k: usize) -> Vec<String> {
    let mut matches: Vec<&SiblingPair> = set.iter().filter(|p| p.v6 == v6).collect();
    matches.sort_by(|a, b| b.similarity.cmp(&a.similarity).then(a.v4.cmp(&b.v4)));
    matches.truncate(k);
    matches.into_iter().map(pair_line).collect()
}

fn ok_lines(client: &mut Client, request: &str) -> Vec<String> {
    match client.roundtrip(request).expect("roundtrip succeeds") {
        Response::Ok(lines) => lines,
        Response::Err { code, message } => {
            panic!("request {request:?} failed: err {code} {message}")
        }
    }
}

fn err_code(client: &mut Client, request: &str) -> String {
    match client.roundtrip(request).expect("roundtrip succeeds") {
        Response::Ok(lines) => panic!("request {request:?} unexpectedly ok: {lines:?}"),
        Response::Err { code, .. } => code,
    }
}

#[test]
fn served_answers_are_bit_identical_to_batch_recompute() {
    let world = World::generate(WorldConfig::test_small(23));
    let to = world.config.end;
    let from = to.add_months(-4);

    // The serving side: score, publish, bind, start two readers.
    let run = {
        let archive = world.rib_archive();
        let mut engine = DetectEngine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        engine
            .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
            .expect("window covered by the world's archive")
    };
    let planner = QueryPlanner::new(WindowQueryIndex::publish(&run).expect("non-empty window"));
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let endpoint = server.endpoint().to_string();
    let handle = server.start(planner, 2).expect("server starts");

    // The reference side: a *fresh* engine recomputes the same window,
    // and every expectation below is derived from its raw results.
    let reference = score_window(&world, from, to);
    let reference_index =
        WindowQueryIndex::build(&reference).expect("reference window is non-empty");

    let mut client = Client::connect(&endpoint).expect("connect");

    // `months` lists the loaded window in order.
    let want_months: Vec<String> = reference.iter().map(|(d, _)| d.to_string()).collect();
    assert_eq!(ok_lines(&mut client, "months"), want_months);

    // `stats` rows are the batch table rows of the recomputed window.
    let want_stats: Vec<String> = reference_index.stats().map(|s| s.batch_row()).collect();
    assert_eq!(ok_lines(&mut client, "stats"), want_stats);

    for (month, set) in &reference {
        assert_eq!(
            ok_lines(&mut client, &format!("stats {month}")),
            vec![reference_index.month(*month).unwrap().stats().batch_row()]
        );

        let pairs: Vec<&SiblingPair> = set.iter().collect();
        assert!(
            !pairs.is_empty(),
            "synthetic world detects pairs at {month}"
        );
        let stride = (pairs.len() / 8).max(1);
        for pair in pairs.iter().step_by(stride) {
            // Point: the exact stored pair, rendered.
            assert_eq!(
                ok_lines(
                    &mut client,
                    &format!("siblings {} {} {month}", pair.v4, pair.v6)
                ),
                vec![pair_line(pair)],
                "point query at {month}"
            );

            // Top-k partners, both address families, vs filter + sort.
            assert_eq!(
                ok_lines(&mut client, &format!("partners {} {month} 3", pair.v4)),
                partners_v4_reference(set, pair.v4, 3),
                "v4 partners at {month}"
            );
            assert_eq!(
                ok_lines(&mut client, &format!("partners {} {month} 3", pair.v6)),
                partners_v6_reference(set, pair.v6, 3),
                "v6 partners at {month}"
            );

            // History over the full window: every month whose recomputed
            // set holds the pair, in order, with the month prefix.
            let want: Vec<String> = reference
                .iter()
                .filter_map(|(m, s)| {
                    s.iter()
                        .find(|p| (p.v4, p.v6) == (pair.v4, pair.v6))
                        .map(|p| format!("{m} {}", pair_line(p)))
                })
                .collect();
            assert_eq!(
                ok_lines(
                    &mut client,
                    &format!("pair {} {} {from}..{to}", pair.v4, pair.v6)
                ),
                want,
                "history at {month}"
            );
        }
    }

    // A point miss is an empty answer, not an error: the documentation
    // prefix never appears in generated worlds.
    let (month, set) = &reference[0];
    let v4 = set.iter().next().unwrap().v4;
    assert_eq!(
        ok_lines(&mut client, &format!("siblings {v4} 2001:db8::/48 {month}")),
        Vec::<String>::new()
    );

    drop(client);
    drop(handle);
}

#[test]
fn malformed_lines_keep_the_connection_alive() {
    let world = World::generate(WorldConfig::test_small(29));
    let to = world.config.end;
    let from = to.add_months(-1);
    let run = {
        let archive = world.rib_archive();
        let mut engine = DetectEngine::default();
        engine
            .run_window(from, to, &archive, |date| Arc::new(world.snapshot(date)))
            .expect("window covered by the world's archive")
    };
    let planner = QueryPlanner::new(WindowQueryIndex::publish(&run).expect("non-empty window"));
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let endpoint = server.endpoint().to_string();
    let handle = server.start(planner, 1).expect("server starts");

    let mut client = Client::connect(&endpoint).expect("connect");

    // One connection survives the whole gauntlet of malformed input —
    // each line gets a typed error, never a disconnect.
    assert_eq!(err_code(&mut client, "frobnicate"), "unknown-verb");
    assert_eq!(err_code(&mut client, "siblings"), "usage");
    assert_eq!(
        err_code(&mut client, "siblings nope also-nope never"),
        "bad-arg"
    );
    assert_eq!(
        err_code(&mut client, "partners 10.0.0.0/24 1999-13 5"),
        "bad-arg"
    );
    assert_eq!(
        err_code(
            &mut client,
            &format!("siblings 10.0.0.0/24 2600:1::/48 {}", to.add_months(12))
        ),
        "out-of-window"
    );
    assert_eq!(
        err_code(&mut client, "pair 10.0.0.0/24 2600:1::/48 2024-05..2024-01"),
        "bad-arg"
    );

    // The lifecycle verbs answer on a static daemon too: epoch 1
    // forever, health with zeroed ingest counters, and a well-formed
    // ingest rejected typed — this daemon has no writer.
    assert_eq!(ok_lines(&mut client, "epoch"), vec!["1".to_string()]);
    assert_eq!(err_code(&mut client, "epoch now"), "usage");
    assert_eq!(err_code(&mut client, "ingest zz"), "bad-arg");
    let delta = sibling_dns::SnapshotDelta::diff(
        &sibling_dns::DnsSnapshot::new(to),
        &sibling_dns::DnsSnapshot::new(to.add_months(1)),
    );
    assert_eq!(
        err_code(
            &mut client,
            &sibling_service::Request::Ingest(delta).to_string()
        ),
        "read-only"
    );
    let health = ok_lines(&mut client, "health");
    assert!(
        health.iter().any(|l| l == "epoch 1") && health.iter().any(|l| l == "ingests 0"),
        "static daemon health: {health:?}"
    );

    // The same connection still answers real queries afterwards.
    assert_eq!(ok_lines(&mut client, "ping"), vec!["pong".to_string()]);
    let months = ok_lines(&mut client, "months");
    assert_eq!(months.len(), run.results.len());

    drop(client);
    drop(handle);
}

#[test]
fn live_daemon_ingest_epoch_and_health_over_the_wire() {
    use sibling_core::EpochState;
    use sibling_dns::SnapshotDelta;
    use sibling_service::{LiveWindow, Request, ServeOptions};

    let world = World::generate(WorldConfig::test_tiny(37));
    let to = world.config.end;
    let mid = to.add_months(-1);
    let from = to.add_months(-2);

    // Seed the live window over the offline prefix of the range, exactly
    // like `serve --ingest` at startup.
    let results = score_window(&world, from, mid);
    let (epoch, index) = EpochState::seed(
        EngineConfig::default(),
        world.rib_archive(),
        results,
        Arc::new(world.snapshot(mid)),
    )
    .expect("offline window seeds");
    let dir = std::env::temp_dir().join(format!("sibling-serve-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("ingest.sibjrnl");
    let (live, _) = LiveWindow::recover(epoch, index, &journal, None).expect("recover");
    let planner = QueryPlanner::live(live.published());
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let endpoint = server.endpoint().to_string();
    let handle = server
        .start_live(planner, 2, ServeOptions::default(), Box::new(live))
        .expect("server starts");

    let mut client = Client::connect(&endpoint).expect("connect");
    assert_eq!(ok_lines(&mut client, "epoch"), vec!["1".to_string()]);

    // Stream the next month over the wire — the same request line
    // `sibling-prefixes ingest` sends.
    let delta = SnapshotDelta::diff(&world.snapshot(mid), &world.snapshot(to));
    assert_eq!(
        ok_lines(&mut client, &Request::Ingest(delta).to_string()),
        vec!["2".to_string()],
        "ingest answers the newly published epoch"
    );
    assert_eq!(ok_lines(&mut client, "epoch"), vec!["2".to_string()]);

    // The served window is now bit-identical to an offline recompute of
    // the extended range.
    let reference = score_window(&world, from, to);
    let reference_index = WindowQueryIndex::build(&reference).expect("non-empty");
    let want_months: Vec<String> = reference.iter().map(|(d, _)| d.to_string()).collect();
    assert_eq!(ok_lines(&mut client, "months"), want_months);
    let want_stats: Vec<String> = reference_index.stats().map(|s| s.batch_row()).collect();
    assert_eq!(ok_lines(&mut client, "stats"), want_stats);

    // Re-sending the same delta is rejected typed — its base month is no
    // longer the tail — and the window is undisturbed.
    let stale = SnapshotDelta::diff(&world.snapshot(mid), &world.snapshot(to));
    assert_eq!(
        err_code(&mut client, &Request::Ingest(stale).to_string()),
        "ingest-failed"
    );
    assert_eq!(ok_lines(&mut client, "epoch"), vec!["2".to_string()]);

    // `health` reports the full lifecycle.
    let health = ok_lines(&mut client, "health");
    for want in [
        "months 3",
        "epoch 2",
        "ingests 2",
        "ingest-failures 1",
        "epochs-published 1",
        "ingest-lag 0",
    ] {
        assert!(
            health.iter().any(|l| l == want),
            "missing {want:?} in {health:?}"
        );
    }

    drop(client);
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follower_tails_the_primary_and_serves_identical_answers() {
    use sibling_core::EpochState;
    use sibling_dns::SnapshotDelta;
    use sibling_service::{
        follow, DeltaFeed, FollowerOptions, HealthGauges, LiveWindow, Request, ServeOptions,
    };
    use std::time::{Duration, Instant};

    let world = World::generate(WorldConfig::test_tiny(41));
    let to = world.config.end;
    let mid = to.add_months(-2);
    let from = to.add_months(-3);

    let dir = std::env::temp_dir().join(format!("sibling-serve-follow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Both sides bootstrap the same offline window — exactly what two
    // `serve --ingest` processes over the same store would do.
    let seed = |journal: &std::path::Path, feed| {
        let results = score_window(&world, from, mid);
        let (epoch, index) = EpochState::seed(
            EngineConfig::default(),
            world.rib_archive(),
            results,
            Arc::new(world.snapshot(mid)),
        )
        .expect("offline window seeds");
        LiveWindow::recover_replicating(epoch, index, journal, None, feed).expect("recover")
    };

    // The primary: live window, delta feed, `sub` served off the planner.
    let feed = Arc::new(DeltaFeed::new());
    let primary_gauges = HealthGauges::primary();
    let (mut primary_live, _) = seed(&dir.join("primary.sibjrnl"), Some(Arc::clone(&feed)));
    primary_live.attach_gauges(Arc::clone(&primary_gauges));
    let mut primary_planner = QueryPlanner::live(primary_live.published());
    primary_planner.attach_feed(feed);
    primary_planner.attach_gauges(primary_gauges);
    let primary_server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let primary_endpoint = primary_server.endpoint().to_string();
    let primary_handle = primary_server
        .start_live(
            primary_planner,
            2,
            ServeOptions::default(),
            Box::new(primary_live),
        )
        .expect("primary starts");

    // The follower: same bootstrap, its own journal, no feed or sink of
    // its own — the replication thread is the only writer.
    let follower_gauges = HealthGauges::follower();
    let (mut follower_live, _) = seed(&dir.join("follower.sibjrnl"), None);
    follower_live.attach_gauges(Arc::clone(&follower_gauges));
    let mut follower_planner = QueryPlanner::live(follower_live.published());
    follower_planner.attach_gauges(Arc::clone(&follower_gauges));
    let follower_server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let follower_endpoint = follower_server.endpoint().to_string();
    let replication = follow(
        follower_live,
        &primary_endpoint,
        follower_gauges,
        FollowerOptions::default(),
    )
    .expect("replication thread starts");
    let follower_handle = follower_server
        .start_with(follower_planner, 2, ServeOptions::default())
        .expect("follower starts");

    // Stream two months into the primary over the wire.
    let mut primary = Client::connect(&primary_endpoint).expect("connect primary");
    let next = mid.add_months(1);
    let d1 = SnapshotDelta::diff(&world.snapshot(mid), &world.snapshot(next));
    let d2 = SnapshotDelta::diff(&world.snapshot(next), &world.snapshot(to));
    assert_eq!(
        ok_lines(&mut primary, &Request::Ingest(d1).to_string()),
        vec!["2".to_string()]
    );
    assert_eq!(
        ok_lines(&mut primary, &Request::Ingest(d2).to_string()),
        vec!["3".to_string()]
    );

    // The follower catches up: health drains to zero epoch lag at the
    // primary's published epoch.
    let mut follower = Client::connect(&follower_endpoint).expect("connect follower");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let health = ok_lines(&mut follower, "health");
        if health.iter().any(|l| l == "epoch-lag 0") && health.iter().any(|l| l == "epoch 3") {
            assert!(
                health.iter().any(|l| l == "role follower"),
                "follower health: {health:?}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never caught up: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let health = ok_lines(&mut primary, "health");
    assert!(
        health.iter().any(|l| l == "role primary"),
        "primary health: {health:?}"
    );

    // Every read verb answers bit-identically on both replicas.
    for request in ["months", "stats", "epoch"] {
        assert_eq!(
            ok_lines(&mut primary, request),
            ok_lines(&mut follower, request),
            "replicas disagree on {request:?}"
        );
    }

    // The follower is read-only and serves no feed of its own; the
    // primary's feed answers `sub` over the wire with both deltas.
    let stale = SnapshotDelta::diff(&world.snapshot(mid), &world.snapshot(next));
    assert_eq!(
        err_code(&mut follower, &Request::Ingest(stale).to_string()),
        "read-only"
    );
    assert_eq!(err_code(&mut follower, "sub 0"), "no-feed");
    let sub = ok_lines(&mut primary, "sub 1");
    assert_eq!(sub.len(), 3, "bounds line + two deltas: {sub:?}");
    assert_eq!(sub[0], "feed 1 3");

    replication.stop();
    drop(follower);
    drop(primary);
    drop(follower_handle);
    drop(primary_handle);
    let _ = std::fs::remove_dir_all(&dir);
}
