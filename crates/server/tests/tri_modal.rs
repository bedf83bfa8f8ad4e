//! The tri-modal differential suite: the SAME trace driven three ways —
//! through `sim::simulate` (in-process), through the TCP server's shard
//! cores, and through a server restarted from that server's snapshots
//! (the warm-restart path) — must produce byte-identical ledgers. The
//! simulator and the shard cores are the engine's two drivers.
//!
//! Also here: the rolling warm-restart scenario (stop the server
//! mid-trace, restart from snapshots, finish the trace) and the hostile
//! contract-violation test (a deliberately broken policy must surface as
//! a typed error frame, not a dead shard thread).

use delta_core::{sim, CostLedger, VCover};
use delta_server::{
    error_code, read_frame, shard_trace, write_frame, BatchItem, BatchReply, DeltaClient,
    PolicyKind, Request, Response, RoundRobin, Server, ServerConfig, StatsSnapshot,
};
use delta_storage::ObjectId;
use delta_workload::{Event, QueryEvent, QueryKind, SyntheticSurvey, UpdateEvent, WorkloadConfig};
use std::path::PathBuf;

/// Shard count for the parameterized tests; the CI matrix overrides it
/// (1, 4, 8) so partition edge cases run on every push.
fn shard_count() -> usize {
    std::env::var("DELTA_TEST_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn survey(n: usize) -> SyntheticSurvey {
    let mut cfg = WorkloadConfig::small();
    cfg.n_queries = n;
    cfg.n_updates = n;
    SyntheticSurvey::generate(&cfg)
}

/// A unique, empty scratch directory for snapshot files.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "delta-tri-modal-{name}-{}-{}",
        std::process::id(),
        shard_count()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn config(policy: PolicyKind, cache_bytes: u64, snapshot_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        bind: "127.0.0.1:0".to_string(),
        n_shards: shard_count(),
        cache_bytes,
        policy,
        seed: 42,
        snapshot_dir,
        ..ServerConfig::default()
    }
}

/// Replays events over one connection in `Batch` frames (order-preserving
/// per shard, so ledgers match lockstep byte-for-byte — pinned by the
/// integration tests).
fn replay_batched(addr: std::net::SocketAddr, events: &[Event], batch: usize) {
    let mut client = DeltaClient::connect(addr).expect("connect");
    for chunk in events.chunks(batch) {
        let items: Vec<BatchItem> = chunk
            .iter()
            .map(|e| match e {
                Event::Query(q) => BatchItem::Query(q.clone()),
                Event::Update(u) => BatchItem::Update(*u),
            })
            .collect();
        for reply in client.batch(&items).expect("batch served") {
            assert!(
                !matches!(reply, BatchReply::Error { .. }),
                "unexpected batch error: {reply:?}"
            );
        }
    }
}

/// The sharded-simulation twin: per-shard ledgers from `sim::simulate`
/// over `shard_trace`'s sub-traces.
fn expected_shard_ledgers(survey: &SyntheticSurvey, cache_bytes: u64) -> Vec<CostLedger> {
    let map = RoundRobin::new(shard_count(), survey.catalog.len());
    shard_trace(&map, &survey.catalog, &survey.trace, cache_bytes)
        .into_iter()
        .enumerate()
        .map(|(s, (catalog, trace, shard_cache))| {
            let mut p = VCover::new(shard_cache, 42 + s as u64);
            let opts = sim::SimOptions {
                cache_bytes: shard_cache,
                sample_every: u64::MAX,
                link: None,
            };
            sim::simulate(&mut p, &catalog, &trace, opts).ledger
        })
        .collect()
}

fn assert_stats_match(stats: &StatsSnapshot, want: &[CostLedger], context: &str) {
    assert_eq!(stats.shards.len(), want.len(), "{context}: shard count");
    for (shard, want) in stats.shards.iter().zip(want) {
        assert_eq!(
            &shard.metrics.ledger, want,
            "{context}: shard {} ledger diverged from its simulation twin",
            shard.shard
        );
    }
}

/// The acceptance pin: one 50k-event trace through both drivers,
/// byte-identical ledgers, before and after a snapshot/restore cycle.
#[test]
fn tri_modal_ledgers_are_byte_identical() {
    let s = survey(25_000);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    let opts = sim::SimOptions {
        cache_bytes,
        sample_every: 10_000,
        link: None,
    };

    // Driver 1: the in-process simulator.
    let mut p = VCover::new(cache_bytes, 42);
    let sim_report = sim::simulate(&mut p, &s.catalog, &s.trace, opts);

    // Driver 2: the TCP server, per-shard against the offline twin.
    let dir = scratch_dir("tri-modal");
    let server = Server::start(
        config(PolicyKind::VCover, cache_bytes, Some(dir.clone())),
        s.catalog.clone(),
    )
    .expect("server starts");
    let addr = server.local_addr();
    replay_batched(addr, &s.trace.events, 128);
    let mut client = DeltaClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let want = expected_shard_ledgers(&s, cache_bytes);
    assert_stats_match(&stats, &want, "fresh server");
    if shard_count() == 1 {
        // With one shard there is no partitioning: both drivers see the
        // identical event stream and must agree outright.
        assert_eq!(stats.shards[0].metrics.ledger, sim_report.ledger);
    }
    client.shutdown().expect("shutdown");
    server.join();

    // The snapshot/restore cycle: a server restarted from the snapshots
    // reports the same per-shard ledgers — the tri-modal identity holds
    // after warm restart too.
    let server = Server::start(
        config(PolicyKind::VCover, cache_bytes, Some(dir.clone())),
        s.catalog.clone(),
    )
    .expect("warm server starts");
    let mut client = DeltaClient::connect(server.local_addr()).expect("connect");
    let restored = client.stats().expect("stats");
    for (a, b) in stats.shards.iter().zip(&restored.shards) {
        assert_eq!(
            a.metrics, b.metrics,
            "shard {} metrics changed across snapshot/restore",
            a.shard
        );
    }
    assert_stats_match(&restored, &want, "restored server");
    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rolling warm restart: stop the server mid-trace, restart from
/// snapshots, finish the trace. For policies whose behaviour depends
/// only on world state (NoCache, Replica — the mirror IS the state),
/// the split run must be byte-identical to an uninterrupted one.
#[test]
fn warm_restart_mid_trace_is_invisible_for_stateless_policies() {
    let s = survey(2_000);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    let mid = s.trace.len() / 2;
    for policy in [PolicyKind::NoCache, PolicyKind::Replica] {
        // Uninterrupted run.
        let server = Server::start(config(policy, cache_bytes, None), s.catalog.clone())
            .expect("server starts");
        replay_batched(server.local_addr(), &s.trace.events, 64);
        let full = server.stop();

        // Prefix → snapshot → restart → tail.
        let dir = scratch_dir(&format!("rolling-{policy:?}"));
        let server = Server::start(
            config(policy, cache_bytes, Some(dir.clone())),
            s.catalog.clone(),
        )
        .expect("server starts");
        replay_batched(server.local_addr(), &s.trace.events[..mid], 64);
        server.stop();
        let server = Server::start(
            config(policy, cache_bytes, Some(dir.clone())),
            s.catalog.clone(),
        )
        .expect("warm server starts");
        replay_batched(server.local_addr(), &s.trace.events[mid..], 64);
        let split = server.stop();

        for (a, b) in full.shards.iter().zip(&split.shards) {
            assert_eq!(
                a.metrics, b.metrics,
                "{policy:?}: shard {} diverged across a mid-trace restart",
                a.shard
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// VCover's decision state is volatile (deliberately not snapshotted),
/// so a restarted run may diverge from an uninterrupted one — but it
/// must serve every query and be deterministic.
#[test]
fn warm_restart_mid_trace_stays_correct_and_deterministic_for_vcover() {
    let s = survey(1_500);
    let cache_bytes = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    let mid = s.trace.len() / 2;
    let run = |name: &str| -> StatsSnapshot {
        let dir = scratch_dir(name);
        let server = Server::start(
            config(PolicyKind::VCover, cache_bytes, Some(dir.clone())),
            s.catalog.clone(),
        )
        .expect("server starts");
        replay_batched(server.local_addr(), &s.trace.events[..mid], 64);
        server.stop();
        let server = Server::start(
            config(PolicyKind::VCover, cache_bytes, Some(dir.clone())),
            s.catalog.clone(),
        )
        .expect("warm server starts");
        replay_batched(server.local_addr(), &s.trace.events[mid..], 64);
        let stats = server.stop();
        let _ = std::fs::remove_dir_all(&dir);
        stats
    };
    let (a, b) = (run("vcover-a"), run("vcover-b"));
    for (x, y) in a.shards.iter().zip(&b.shards) {
        assert_eq!(
            x.metrics, y.metrics,
            "restarted replay must be deterministic"
        );
    }
    // replay_batched asserted per-item success, so every query was
    // served; the counters must agree with the trace.
    let m = a.total_metrics();
    assert_eq!(m.updates, s.trace.n_updates() as u64);
    assert_eq!(
        m.ledger.shipped_queries + m.ledger.local_answers,
        m.queries,
        "every sub-query satisfied exactly once"
    );
}

/// Hostile test: a policy that violates the satisfaction contract must
/// come back as a typed `CONTRACT_VIOLATED` error frame — and the shard
/// keeps serving afterwards.
#[test]
fn broken_policy_surfaces_as_typed_error_frame_and_server_survives() {
    let s = survey(10);
    let server = Server::start(config(PolicyKind::Broken, 10_000, None), s.catalog.clone())
        .expect("server starts");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");

    let update = |seq, object, bytes| {
        Request::Update(UpdateEvent {
            seq,
            object: ObjectId(object),
            bytes,
        })
    };
    let query = |seq, objects: Vec<u32>| {
        Request::Query(QueryEvent {
            seq,
            objects: objects.into_iter().map(ObjectId).collect(),
            result_bytes: 77,
            tolerance: 0,
            kind: QueryKind::Selection,
        })
    };
    let round_trip = |stream: &mut std::net::TcpStream, req: &Request| -> Response {
        write_frame(stream, &req.encode()).expect("write");
        Response::decode(&read_frame(stream).expect("read")).expect("decode")
    };

    // Updates are unaffected by the broken query path.
    assert!(matches!(
        round_trip(&mut stream, &update(1, 0, 10)),
        Response::UpdateOk { version: 1, .. }
    ));
    // The violated query becomes a typed error frame.
    match round_trip(&mut stream, &query(2, vec![0, 1])) {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::CONTRACT_VIOLATED);
            assert!(message.contains("Broken"), "{message}");
        }
        other => panic!("expected a typed error frame, got {other:?}"),
    }
    // The shard thread survived: further traffic is served normally.
    assert!(matches!(
        round_trip(&mut stream, &update(3, 0, 5)),
        Response::UpdateOk { version: 2, .. }
    ));
    // In a batch, the violation poisons its item only.
    let batch = Request::Batch(vec![
        BatchItem::Query(QueryEvent {
            seq: 4,
            objects: vec![ObjectId(0)],
            result_bytes: 9,
            tolerance: 0,
            kind: QueryKind::Selection,
        }),
        BatchItem::Update(UpdateEvent {
            seq: 5,
            object: ObjectId(0),
            bytes: 2,
        }),
    ]);
    match round_trip(&mut stream, &batch) {
        Response::BatchOk(replies) => {
            assert!(matches!(
                replies[0],
                BatchReply::Error {
                    code: error_code::CONTRACT_VIOLATED,
                    ..
                }
            ));
            assert!(matches!(replies[1], BatchReply::Update { version: 3, .. }));
        }
        other => panic!("expected BatchOk, got {other:?}"),
    }
    // Violated queries are not counted as served.
    match round_trip(&mut stream, &Request::Stats) {
        Response::StatsOk(stats) => {
            let m = stats.total_metrics();
            assert_eq!(m.queries, 0);
            assert_eq!(m.updates, 3);
        }
        other => panic!("expected StatsOk, got {other:?}"),
    }
    assert!(matches!(
        round_trip(&mut stream, &Request::Shutdown),
        Response::ShutdownOk
    ));
    server.join();
}

/// A stray scratch file that is not a valid snapshot must refuse startup
/// cleanly instead of panicking a worker thread.
#[test]
fn corrupt_snapshot_refuses_startup() {
    let s = survey(10);
    let dir = scratch_dir("corrupt");
    std::fs::write(dir.join("shard-0.jsonl"), b"not json\n").unwrap();
    let err = match Server::start(
        config(PolicyKind::VCover, 10_000, Some(dir.clone())),
        s.catalog.clone(),
    ) {
        Err(e) => e,
        Ok(server) => {
            server.stop();
            panic!("corrupt snapshot must refuse startup");
        }
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot taken under one policy must not restore under another.
#[test]
fn policy_mismatch_refuses_startup() {
    let s = survey(50);
    let cache_bytes = 100_000;
    let dir = scratch_dir("mismatch");
    let server = Server::start(
        config(PolicyKind::NoCache, cache_bytes, Some(dir.clone())),
        s.catalog.clone(),
    )
    .expect("server starts");
    replay_batched(
        server.local_addr(),
        &s.trace.events[..20.min(s.trace.len())],
        8,
    );
    server.stop();
    let err = match Server::start(
        config(PolicyKind::Replica, cache_bytes, Some(dir.clone())),
        s.catalog.clone(),
    ) {
        Err(e) => e,
        Ok(server) => {
            server.stop();
            panic!("policy mismatch must refuse startup");
        }
    };
    assert!(err.to_string().contains("policy"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
